"""Tests for the RS↔MSR intermediary-parity transformation (§III-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.fusion import ChunkUnavailable, FusionTransformer, TransformCost
from repro.gf import apply_to_blocks, apply_to_blocks_naive, is_invertible, matmul
from repro.telemetry import METRICS


@pytest.fixture(scope="module")
def tr63():
    return FusionTransformer(k=6, r=3)


@pytest.fixture(scope="module")
def tr83():
    return FusionTransformer(k=8, r=3)


def make_stripe(rng, tr, blocks=2):
    L = tr.subpacketization * blocks
    data = rng.integers(0, 256, (tr.k, L), dtype=np.uint8)
    coded = tr.rs.encode(data)
    return data, coded[tr.k :]


class TestConstruction:
    def test_group_count_and_padding(self, tr63, tr83):
        assert (tr63.q, tr63.padding) == (2, 0)
        assert (tr83.q, tr83.padding) == (3, 1)  # the paper's RS(8,3) empty node

    def test_group_blocks_are_invertible(self, tr83):
        for b in tr83.group_blocks:
            assert is_invertible(b)

    def test_group_blocks_tile_the_rs_parity_matrix(self, tr63):
        tiled = np.concatenate(tr63.group_blocks, axis=1)
        assert np.array_equal(tiled[:, : tr63.k], tr63.rs.parity_matrix)

    def test_trans1_trans2_are_mutual_inverses(self, tr63):
        l = tr63.subpacketization
        eye = np.eye(tr63.r * l, dtype=np.uint8)
        for t1, t2 in zip(tr63.trans1, tr63.trans2):
            assert np.array_equal(matmul(t1, t2), eye)
            assert np.array_equal(matmul(t2, t1), eye)

    def test_mismatched_msr_rejected(self):
        from repro.codes import MSRCode

        with pytest.raises(ValueError):
            FusionTransformer(k=6, r=3, msr=MSRCode(4, 2))


class TestIntermediaryParities:
    def test_eq3_sum_equals_rs_parity(self, tr63):
        """p = p'_1 ⊕ … ⊕ p'_q (eq. (3))."""
        rng = np.random.default_rng(0)
        data, parity = make_stripe(rng, tr63)
        inter = tr63.intermediary_parities(data)
        merged = inter[0] ^ inter[1]
        assert np.array_equal(merged, parity)

    def test_eq3_with_padding(self, tr83):
        rng = np.random.default_rng(1)
        data, parity = make_stripe(rng, tr83)
        inter = tr83.intermediary_parities(data)
        merged = np.bitwise_xor.reduce(inter, axis=0)
        assert np.array_equal(merged, parity)

    def test_eq4_each_group_recoverable(self, tr63):
        """d_i = B_i^{-1} p'_i (eq. (4))."""
        rng = np.random.default_rng(2)
        data, _ = make_stripe(rng, tr63)
        inter = tr63.intermediary_parities(data)
        for i in range(tr63.q):
            rec = apply_to_blocks(tr63._group_blocks_inv[i], inter[i])
            assert np.array_equal(rec, data[i * 3 : (i + 1) * 3])

    def test_wrong_data_shape_rejected(self, tr63):
        with pytest.raises(ValueError):
            tr63.intermediary_parities(np.zeros((5, 9), dtype=np.uint8))


class TestRsToMsr:
    def test_groups_are_valid_msr_codewords(self, tr63):
        rng = np.random.default_rng(3)
        data, parity = make_stripe(rng, tr63)
        out = tr63.rs_to_msr(data, parity)
        assert len(out.groups) == 2
        for i, g in enumerate(out.groups):
            assert np.array_equal(g[:3], data[i * 3 : (i + 1) * 3])
            assert np.array_equal(tr63.msr.encode(g[:3]), g)

    def test_padded_last_group_valid(self, tr83):
        rng = np.random.default_rng(4)
        data, parity = make_stripe(rng, tr83)
        out = tr83.rs_to_msr(data, parity)
        last = out.groups[-1]
        # real blocks 6,7 plus one virtual zero block
        assert np.array_equal(last[0], data[6])
        assert np.array_equal(last[1], data[7])
        assert not last[2].any()
        assert np.array_equal(tr83.msr.encode(last[:3]), last)

    def test_last_group_data_never_read(self, tr63):
        """Fig. 12(b): only q−1 data groups are read."""
        rng = np.random.default_rng(5)
        data, parity = make_stripe(rng, tr63)
        out = tr63.rs_to_msr(data, parity)
        assert out.cost.data_blocks_read == (tr63.q - 1) * tr63.r
        assert out.cost.parity_blocks_read == tr63.r

    def test_rejects_bad_parity_shape(self, tr63):
        rng = np.random.default_rng(6)
        data, parity = make_stripe(rng, tr63)
        with pytest.raises(ValueError):
            tr63.rs_to_msr(data, parity[:2])

    def test_rejects_bad_block_length(self, tr63):
        data = np.zeros((6, 10), dtype=np.uint8)  # 10 % 9 != 0
        parity = np.zeros((3, 10), dtype=np.uint8)
        with pytest.raises(ValueError):
            tr63.rs_to_msr(data, parity)


class TestMsrToRs:
    def test_reads_parities_only(self, tr63):
        """Fig. 12(a): MSR→RS touches no data blocks."""
        rng = np.random.default_rng(7)
        data, parity = make_stripe(rng, tr63)
        fwd = tr63.rs_to_msr(data, parity)
        back = tr63.msr_to_rs([g[3:] for g in fwd.groups])
        assert np.array_equal(back.parity, parity)
        assert back.cost.data_blocks_read == 0
        assert back.cost.parity_blocks_read == tr63.q * tr63.r

    def test_roundtrip_with_padding(self, tr83):
        rng = np.random.default_rng(8)
        data, parity = make_stripe(rng, tr83)
        fwd = tr83.rs_to_msr(data, parity)
        back = tr83.msr_to_rs([g[3:] for g in fwd.groups])
        assert np.array_equal(back.parity, parity)

    def test_wrong_group_count_rejected(self, tr63):
        with pytest.raises(ValueError):
            tr63.msr_to_rs([np.zeros((3, 9), dtype=np.uint8)])

    def test_wrong_parity_shape_rejected(self, tr63):
        groups = [np.zeros((2, 9), dtype=np.uint8) for _ in range(2)]
        with pytest.raises(ValueError):
            tr63.msr_to_rs(groups)


class TestEndToEndSemantics:
    def test_msr_groups_survive_failures_after_conversion(self, tr63):
        """The converted stripe must actually be repairable the MSR way."""
        rng = np.random.default_rng(9)
        data, parity = make_stripe(rng, tr63)
        out = tr63.rs_to_msr(data, parity)
        g0 = out.groups[0]
        res = tr63.msr.repair(1, {i: g0[i] for i in range(6) if i != 1})
        assert np.array_equal(res.block, g0[1])
        assert res.total_bytes_read < tr63.msr.k * g0.shape[1]

    def test_verify_roundtrip_helper(self, tr63):
        assert tr63.verify_roundtrip(np.random.default_rng(10))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kr=st.sampled_from([(4, 2), (6, 2), (6, 3)]),
)
def test_prop_roundtrip_random(seed, kr):
    k, r = kr
    tr = FusionTransformer(k=k, r=r)
    assert tr.verify_roundtrip(np.random.default_rng(seed))


# -- the factored lowering against the composed eqs. (3)/(6)/(7) ------------

_TRANSFORMERS: dict = {}


def _transformer(k, r):
    if (k, r) not in _TRANSFORMERS:
        _TRANSFORMERS[k, r] = FusionTransformer(k=k, r=r)
    return _TRANSFORMERS[k, r]


def _lose(target):
    def hook(phase, group):
        if (phase, group) == target:
            raise ChunkUnavailable(phase, group)

    return hook


def _composed_rs_to_msr(tr, data, parity, lost):
    """Fig. 12(b) as written: p′_i = B_i·d_i, eq. (3) for the unread group,
    then Trans2_i (eq. (7)) — dense composed matrices, naive kernel."""
    r, q, l = tr.r, tr.q, tr.subpacketization
    L = data.shape[1]
    if lost == ("parity", -1):
        derived = None
    elif lost is not None and lost[0] == "data" and lost[1] < q - 1:
        derived = lost[1]
    else:
        derived = q - 1
    groups = tr._pad_groups(data)
    inter = [
        None if i == derived else apply_to_blocks_naive(tr.group_blocks[i], groups[i])
        for i in range(q)
    ]
    if derived is not None:
        acc = parity.copy()
        for i in range(q):
            if i != derived:
                acc ^= inter[i]
        inter[derived] = acc
    out = [
        np.concatenate(
            [groups[i], tr._blocks(apply_to_blocks_naive(tr.trans2[i], tr._syms(inter[i])), r)]
        )
        for i in range(q)
    ]
    read = q - (derived is not None)
    cost = TransformCost(
        data_blocks_read=read * r,
        parity_blocks_read=0 if derived is None else r,
        blocks_written=q * r,
    )
    for _ in range(read):
        cost.gf_ops += r * r * L
    for i in range(q):
        cost.gf_ops += tr.trans2[i].size * (L / l)
    return out, cost


def _composed_msr_to_rs(tr, data, pars, lost):
    """Fig. 12(a) as written: Trans1_i (eq. (6)) per group, XOR-merged;
    a group with lost parities uses B_i·d_i from its data."""
    r, l = tr.r, tr.subpacketization
    L = data.shape[1]
    groups = tr._pad_groups(data)
    acc = np.zeros((r, L), np.uint8)
    cost = TransformCost(blocks_written=r)
    for i, par in enumerate(pars):
        if lost == ("parity", i):
            acc ^= apply_to_blocks_naive(tr.group_blocks[i], groups[i])
            cost.data_blocks_read += r
            cost.gf_ops += r * r * L
        else:
            acc ^= tr._blocks(apply_to_blocks_naive(tr.trans1[i], tr._syms(par)), r)
            cost.parity_blocks_read += r
            cost.gf_ops += tr.trans1[i].size * (L / l)
    return acc, cost


def _transform_counters():
    return {
        name: METRICS.counter(name).value
        for name in METRICS.names()
        if name.startswith("fusion.transform.") and ".wall." not in name
    }


@settings(max_examples=40, deadline=None)
@given(
    kr=st.sampled_from([(4, 2), (5, 2), (6, 3), (7, 3), (8, 3)]),
    nsub=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    loss=st.integers(min_value=-1, max_value=3),
    consistent=st.booleans(),
)
def test_prop_factored_conversions_match_composed_reference(kr, nsub, seed, loss, consistent):
    """Factored rs_to_msr/msr_to_rs are byte-identical to the composed
    eqs. (3)/(6)/(7) for any input (consistent or not), on the clean path
    and every single-loss fault-hook failover, with identical
    TransformCost and fusion.transform.* counters."""
    k, r = kr
    tr = _transformer(k, r)
    rng = np.random.default_rng(seed)
    L = tr.subpacketization * nsub
    data = rng.integers(0, 256, (k, L), dtype=np.uint8)
    parity = rng.integers(0, 256, (r, L), dtype=np.uint8)
    if consistent:
        parity = tr.rs.encode(data)[k:]
    pars = [rng.integers(0, 256, (r, L), dtype=np.uint8) for _ in range(tr.q)]
    data0, parity0 = data.copy(), parity.copy()

    fwd_lost = None if loss >= tr.q else (("parity", -1) if loss < 0 else ("data", loss))
    back_lost = None if not 0 <= loss < tr.q else ("parity", loss)
    expect_groups, expect_fwd_cost = _composed_rs_to_msr(tr, data, parity, fwd_lost)
    expect_parity, expect_back_cost = _composed_msr_to_rs(tr, data, pars, back_lost)

    telemetry.disable()
    telemetry.reset()
    telemetry.enable()
    try:
        fwd = tr.rs_to_msr(data, parity, fault_hook=_lose(fwd_lost))
        fwd_counters = _transform_counters()
        telemetry.reset()
        back = tr.msr_to_rs(pars, fault_hook=_lose(back_lost), data=data)
        back_counters = _transform_counters()
    finally:
        telemetry.disable()
        telemetry.reset()

    assert len(fwd.groups) == tr.q
    for got, want in zip(fwd.groups, expect_groups):
        assert np.array_equal(got, want)
    assert fwd.cost == expect_fwd_cost
    assert fwd_counters == {
        "fusion.transform.rs_to_msr": 1,
        "fusion.transform.gf_ops": expect_fwd_cost.gf_ops,
        "fusion.transform.bytes_saved": max(k - expect_fwd_cost.data_blocks_read, 0) * L,
    }
    assert np.array_equal(back.parity, expect_parity)
    assert back.cost == expect_back_cost
    assert back_counters == {
        "fusion.transform.msr_to_rs": 1,
        "fusion.transform.gf_ops": expect_back_cost.gf_ops,
        "fusion.transform.bytes_saved": k * L,
    }
    # MSR parities encoded straight from data equal the converted ones
    if consistent:
        enc = tr.msr_parity(data)
        for i, want in enumerate(expect_groups):
            assert np.array_equal(enc[i * r : (i + 1) * r], want[r:])
        assert np.array_equal(fwd.parity, enc)
    assert np.array_equal(data, data0) and np.array_equal(parity, parity0)
