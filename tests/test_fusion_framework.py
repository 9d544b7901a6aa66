"""Integration tests for the ECFusion framework (selector + transformer + codes)."""

import numpy as np
import pytest

from repro.fusion import CodeKind, ECFusion, SystemProfile


ETA15 = SystemProfile(alpha=1e9)  # pins η(4,2) = 1.5


@pytest.fixture()
def fusion():
    return ECFusion(k=4, r=2, profile=ETA15)


def make_data(rng, k=4, L=16):
    return rng.integers(0, 256, (k, L), dtype=np.uint8)


class TestWriteRead:
    def test_write_then_read_roundtrip(self, fusion):
        rng = np.random.default_rng(0)
        data = make_data(rng)
        fusion.write("s", data)
        for b in range(4):
            assert np.array_equal(fusion.read("s", b), data[b])
        assert np.array_equal(fusion.read_stripe("s"), data)

    def test_default_code_is_rs(self, fusion):
        rng = np.random.default_rng(1)
        fusion.write("s", make_data(rng))
        assert fusion.code_of("s") is CodeKind.RS
        assert fusion.storage_overhead() == pytest.approx(6 / 4)

    def test_write_into_msr_flag_encodes_msr_directly(self, fusion):
        rng = np.random.default_rng(2)
        data = make_data(rng)
        fusion.write("s", data)
        fusion.recover("s", 0)  # flips to MSR (δ=1 < η=1.5)
        assert fusion.code_of("s") is CodeKind.MSR
        # δ after next write = 2/1 = 2 > 1.5: flips back to RS and the
        # rewrite encodes as RS without paying a conversion.
        fusion.write("s", data)
        assert fusion.code_of("s") is CodeKind.RS
        assert np.array_equal(fusion.read_stripe("s"), data)

    def test_bad_shapes_rejected(self, fusion):
        with pytest.raises(ValueError):
            fusion.write("s", np.zeros((3, 16), dtype=np.uint8))
        with pytest.raises(ValueError):
            fusion.write("s", np.zeros((4, 15), dtype=np.uint8))  # 15 % 4 != 0

    def test_unknown_stripe_raises(self, fusion):
        with pytest.raises(KeyError):
            fusion.read("nope", 0)

    def test_block_bounds_checked(self, fusion):
        rng = np.random.default_rng(3)
        fusion.write("s", make_data(rng))
        with pytest.raises(ValueError):
            fusion.read("s", 4)
        with pytest.raises(ValueError):
            fusion.recover("s", -1)


class TestRecovery:
    def test_recovery_in_rs_mode(self):
        # force RS by writing a lot first
        fusion = ECFusion(k=4, r=2, profile=ETA15)
        rng = np.random.default_rng(4)
        data = make_data(rng)
        for _ in range(10):
            fusion.write("s", data)
        rep = fusion.recover("s", 2)
        assert rep.code is CodeKind.RS
        assert rep.bytes_read == 4 * 16  # k full blocks
        assert np.array_equal(fusion.read("s", 2), data[2])

    def test_recovery_converts_then_repairs_msr(self, fusion):
        rng = np.random.default_rng(5)
        data = make_data(rng)
        fusion.write("s", data)
        rep = fusion.recover("s", 1)  # δ=1 < η -> convert to MSR, repair there
        assert rep.code is CodeKind.MSR
        assert [c.target for c in rep.conversions] == [CodeKind.MSR]
        # MSR(4,2) repair: 3 helpers × L/s = 3 * 16/2 = 24 bytes
        assert rep.bytes_read == 3 * 16 // 2
        assert np.array_equal(fusion.read("s", 1), data[1])

    def test_repeated_recoveries_stay_msr(self, fusion):
        rng = np.random.default_rng(6)
        data = make_data(rng)
        fusion.write("s", data)
        for b in (0, 1, 2, 3, 0, 1):
            rep = fusion.recover("s", b)
            assert np.array_equal(fusion.read("s", b), data[b])
        assert fusion.code_of("s") is CodeKind.MSR

    def test_recovery_data_intact_after_conversion_cycle(self, fusion):
        """RS -> MSR (via recovery) -> RS (via writes): data must survive."""
        rng = np.random.default_rng(7)
        data = make_data(rng)
        fusion.write("s", data)
        fusion.recover("s", 0)
        assert fusion.code_of("s") is CodeKind.MSR
        # pile up writes on the *selector* without rewriting data: use reads
        # plus one write of the same data to trigger the RS flip
        fusion.write("s", data)
        assert fusion.code_of("s") is CodeKind.RS
        assert np.array_equal(fusion.read_stripe("s"), data)


class TestConversionCosts:
    def test_transform_costs_accumulate(self, fusion):
        rng = np.random.default_rng(8)
        data = make_data(rng)
        # δ: after write 1 / recovery 1 = 1 < 1.5 -> conversion on recovery
        fusion.write("s", data)
        fusion.recover("s", 0)
        assert fusion.transform_cost.blocks_read > 0
        assert fusion.transform_cost.blocks_written > 0

    def test_queue2_eviction_converts_stored_stripe(self):
        fusion = ECFusion(k=4, r=2, profile=ETA15, queue_capacity=2)
        rng = np.random.default_rng(9)
        for s in ("a", "b", "c"):
            fusion.write(s, make_data(rng))
        fusion.recover("a", 0)   # a -> MSR
        assert fusion.code_of("a") is CodeKind.MSR
        fusion.recover("b", 0)   # b -> MSR
        fusion.recover("c", 0)   # evicts a from Queue2 -> a back to RS
        assert fusion.code_of("a") is CodeKind.RS
        # data integrity across the forced round-trip
        assert fusion.read("a", 0).shape == (16,)

    def test_storage_overhead_reflects_msr_stripes(self, fusion):
        rng = np.random.default_rng(10)
        fusion.write("s", make_data(rng))
        before = fusion.storage_overhead()
        fusion.recover("s", 0)
        after = fusion.storage_overhead()
        assert after > before  # MSR(2r, r) stores 2x

    def test_stats_shape(self, fusion):
        rng = np.random.default_rng(11)
        fusion.write("s", make_data(rng))
        fusion.recover("s", 0)
        s = fusion.stats()
        for key in ("eta", "conversions", "stripes", "storage_overhead",
                    "repair_bytes_read"):
            assert key in s


class TestMultiStripe:
    def test_independent_stripe_states(self):
        fusion = ECFusion(k=4, r=2, profile=ETA15)
        rng = np.random.default_rng(12)
        hot_data = make_data(rng)
        cold_data = make_data(rng)
        fusion.write("hot", hot_data)
        fusion.write("cold", cold_data)
        fusion.recover("hot", 0)
        assert fusion.code_of("hot") is CodeKind.MSR
        assert fusion.code_of("cold") is CodeKind.RS
        assert np.array_equal(fusion.read_stripe("hot"), hot_data)
        assert np.array_equal(fusion.read_stripe("cold"), cold_data)

    def test_padded_configuration_roundtrip(self):
        """EC-Fusion(8,3): the paper's flagship config with a virtual node."""
        fusion = ECFusion(k=8, r=3)
        rng = np.random.default_rng(13)
        data = rng.integers(0, 256, (8, 18), dtype=np.uint8)
        fusion.write("s", data)
        rep = fusion.recover("s", 7)  # in the padded last group
        assert np.array_equal(fusion.read("s", 7), data[7])
        assert np.array_equal(fusion.read_stripe("s"), data)


class TestDeletion:
    def test_delete_frees_state(self, fusion):
        rng = np.random.default_rng(20)
        data = make_data(rng)
        fusion.write("s", data)
        fusion.recover("s", 0)  # MSR + queue entries
        assert "s" in fusion
        fusion.delete("s")
        assert "s" not in fusion
        assert len(fusion) == 0
        assert "s" not in fusion.selector.queue1
        assert "s" not in fusion.selector.queue2
        with pytest.raises(KeyError):
            fusion.read("s", 0)

    def test_delete_unknown_raises(self, fusion):
        with pytest.raises(KeyError):
            fusion.delete("ghost")

    def test_deleted_stripe_rewritable_fresh(self, fusion):
        rng = np.random.default_rng(21)
        data = make_data(rng)
        fusion.write("s", data)
        fusion.recover("s", 0)
        fusion.delete("s")
        fresh = make_data(rng)
        fusion.write("s", fresh)
        # history was wiped: the fresh stripe starts RS like any new write
        assert fusion.code_of("s") is CodeKind.RS
        assert np.array_equal(fusion.read_stripe("s"), fresh)

    def test_delete_does_not_trigger_conversions(self, fusion):
        rng = np.random.default_rng(22)
        fusion.write("a", make_data(rng))
        fusion.write("b", make_data(rng))
        fusion.recover("a", 0)
        before = len(fusion.selector.conversions)
        fusion.delete("a")
        assert len(fusion.selector.conversions) == before


class TestParityRecovery:
    def test_rs_mode_parity_repair(self):
        fusion = ECFusion(k=4, r=2, profile=ETA15)
        rng = np.random.default_rng(40)
        data = make_data(rng)
        for _ in range(10):  # keep δ high -> RS
            fusion.write("s", data)
        rep = fusion.recover_parity("s", 1)
        assert rep.code is CodeKind.RS
        assert np.array_equal(fusion.read_stripe("s"), data)
        # repaired parity must re-verify against a fresh encode
        store = fusion._stripes["s"]
        assert np.array_equal(store.rs_blocks, fusion.rs.encode(data))

    def test_msr_mode_parity_repair(self, fusion):
        rng = np.random.default_rng(41)
        data = make_data(rng)
        fusion.write("s", data)
        fusion.recover("s", 0)  # -> MSR
        rep = fusion.recover_parity("s", 3)  # group 1, parity 1
        assert rep.code is CodeKind.MSR
        store = fusion._stripes["s"]
        for g, grp in enumerate(store.msr_groups):
            assert np.array_equal(fusion.msr.encode(grp[:2]), grp), g

    def test_index_bounds(self, fusion):
        rng = np.random.default_rng(42)
        fusion.write("s", make_data(rng))
        with pytest.raises(ValueError):
            fusion.recover_parity("s", 5)

    def test_parity_loss_feeds_adaptation(self, fusion):
        rng = np.random.default_rng(43)
        fusion.write("s", make_data(rng))
        before = fusion.selector.queue2.total_hits
        fusion.recover_parity("s", 0)
        assert fusion.selector.queue2.total_hits == before + 1


# -- property: the parity-only store against fresh encodes ------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.fusion import TransformCost  # noqa: E402

_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 2), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("read"), st.integers(0, 2), st.integers(0, 63)),
    st.tuples(st.just("recover"), st.integers(0, 2), st.integers(0, 63)),
    st.tuples(st.just("recover_streamed"), st.integers(0, 2), st.integers(0, 63)),
    st.tuples(st.just("recover_parity"), st.integers(0, 2), st.integers(0, 63)),
)


def _fresh_parity(fusion, data, kind):
    """The stripe's parity re-encoded from its data in ``kind``."""
    k, r = fusion.k, fusion.r
    if kind is CodeKind.RS:
        return fusion.rs.encode(data)[k:]
    q = fusion.transformer.q
    padded = np.zeros((q * r, data.shape[1]), np.uint8)
    padded[:k] = data
    return np.concatenate(
        [fusion.msr.encode(padded[i * r : (i + 1) * r])[r:] for i in range(q)]
    )


def _conversion_cost(tr, L, target):
    """One fault-free conversion's TransformCost (Fig. 12 accounting)."""
    q, r, l = tr.q, tr.r, tr.subpacketization
    if target is CodeKind.MSR:
        return TransformCost(
            data_blocks_read=(q - 1) * r,
            parity_blocks_read=r,
            blocks_written=q * r,
            gf_ops=(q - 1) * r * r * L + sum(t.size for t in tr.trans2) * L / l,
        )
    return TransformCost(
        parity_blocks_read=q * r,
        blocks_written=r,
        gf_ops=sum(t.size for t in tr.trans1) * L / l,
    )


@settings(max_examples=40, deadline=None)
@given(
    kr=st.sampled_from([(4, 2), (5, 2), (6, 3), (8, 3)]),
    nsub=st.integers(1, 3),
    capacity=st.integers(1, 3),
    ops=st.lists(_op, min_size=1, max_size=25),
)
def test_prop_store_parity_matches_fresh_encode(kr, nsub, capacity, ops):
    """After every operation each stripe's data reads back as written and
    its parity equals a fresh encode in its current code; conversion and
    repair accounting follow the closed forms.  Each repaired block is
    trashed in the store just before its code's repair runs (after any
    conversion), so the rebuilt bytes must really be written back."""
    k, r = kr
    fusion = ECFusion(k=k, r=r, queue_capacity=capacity)
    tr = fusion.transformer
    L = tr.subpacketization * nsub
    contents: dict[int, np.ndarray] = {}
    cost = TransformCost()
    repair_bytes = 0
    lost = {}  # the (stripe, "data"/"parity", row) the running op repairs

    def losing(repair):
        def wrapped(node, shards, **kwargs):
            stripe, where, row = lost["at"]
            getattr(fusion._stripes[stripe], where)[row] ^= 0x5A
            return repair(node, shards, **kwargs)

        return wrapped

    for code in (fusion.rs, fusion.msr):
        code.repair = losing(code.repair)
        code.repair_streamed = losing(code.repair_streamed)

    for op, stripe, arg in ops:
        if op != "write" and stripe not in contents:
            continue
        before = {s: fusion.code_of(s) for s in contents}
        if op == "write":
            data = np.random.default_rng(arg).integers(0, 256, (k, L), dtype=np.uint8)
            fusion.write(stripe, data)
            contents[stripe] = data.copy()
            before.pop(stripe, None)  # a rewrite is encoded, not converted
        elif op == "read":
            assert np.array_equal(fusion.read(stripe, arg % k), contents[stripe][arg % k])
        else:
            lost["at"] = (stripe, "data", arg % k)
            if op == "recover":
                rep = fusion.recover(stripe, arg % k)
            elif op == "recover_streamed":
                rep = fusion.recover_streamed(stripe, arg % k, chunk_size=1 + arg)
            else:
                index = arg % (tr.q * r)
                lost["at"] = (stripe, "parity", index)
                try:
                    rep = fusion.recover_parity(stripe, index)
                except ValueError:
                    assert fusion.code_of(stripe) is CodeKind.RS and index >= r
                    rep = None
            if rep is not None:
                assert rep.code is fusion.code_of(stripe)
                want = k * L if rep.code is CodeKind.RS else (2 * r - 1) * L // r
                assert rep.bytes_read == want
                repair_bytes += want
        for s, kind in before.items():
            now = fusion.code_of(s)
            if now is not kind:
                c = _conversion_cost(tr, L, now)
                cost.data_blocks_read += c.data_blocks_read
                cost.parity_blocks_read += c.parity_blocks_read
                cost.blocks_written += c.blocks_written
                cost.gf_ops += c.gf_ops
        for s, data in contents.items():
            store = fusion._stripes[s]
            assert np.array_equal(fusion.read_stripe(s), data)
            assert np.array_equal(store.parity, _fresh_parity(fusion, data, store.kind))
        got = fusion.transform_cost
        assert (got.data_blocks_read, got.parity_blocks_read, got.blocks_written) == (
            cost.data_blocks_read,
            cost.parity_blocks_read,
            cost.blocks_written,
        )
        assert got.gf_ops == pytest.approx(cost.gf_ops)
        assert fusion.repair_bytes_read == repair_bytes


@pytest.mark.parametrize("kr", [(4, 2), (5, 2), (8, 3)])
def test_msr_write_encodes_parity_in_place(kr):
    """A write while the stripe's flag is MSR encodes the q groups'
    parities straight from the data rows; with r ∤ k the short last group
    uses Enc without the virtual node's columns — equal to encoding its
    zero-padded copy."""
    k, r = kr
    fusion = ECFusion(k=k, r=r)
    L = fusion.transformer.subpacketization * 3
    rng = np.random.default_rng(k * 10 + r)
    fusion.write("s", make_data(rng, k=k, L=L))
    for b in range(k):
        fusion.recover("s", b)  # δ falls far below η -> MSR
    data = make_data(rng, k=k, L=L)
    fusion.write("s", data)
    store = fusion._stripes["s"]
    assert store.kind is CodeKind.MSR
    assert np.array_equal(store.data, data)
    assert np.array_equal(store.parity, _fresh_parity(fusion, data, CodeKind.MSR))
    assert fusion.transform_cost.blocks_read == (fusion.transformer.q - 1) * r + r
