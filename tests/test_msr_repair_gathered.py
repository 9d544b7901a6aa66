"""Plane-gathered MSR repair vs the kept reference kernels.

``MSRCode.repair`` and ``repair_batch`` copy only the ``l/s`` repair
planes of each of the ``n − 1`` helpers and apply the fused repair matrix
restricted to those ``(n−1)·l/s`` columns.  Every MSR shape the suite
builds must rebuild every failed node byte-identically to the plane-looped
``_repair_coupled_naive`` and the vectorized ``_repair_coupled_batched``,
one stripe at a time and batched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import MSRCode

#: (n, k) of every MSR code the test suite constructs
SHAPES = [(4, 2), (6, 3), (8, 4), (9, 6)]
_CODES: dict = {}


def _code(shape) -> MSRCode:
    if shape not in _CODES:
        _CODES[shape] = MSRCode(*shape, verify="off")
    return _CODES[shape]


def _references(code, failed, coded):
    l = code.subpacketization
    sub = coded.shape[1] // l
    view = {i: coded[i].reshape(l, sub) for i in range(code.n) if i != failed}
    naive = code._repair_coupled_naive(failed, view).reshape(-1)
    batched = code._repair_coupled_batched(failed, view).reshape(-1)
    return naive, batched


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"MSR{s}")
def test_gathered_repair_matches_references_every_node(shape):
    code = _code(shape)
    l = code.subpacketization
    rng = np.random.default_rng(sum(shape))
    sub = 5  # odd per-plane width
    stack = rng.integers(0, 256, (3, code.k, l * sub), dtype=np.uint8)
    coded = [code.encode(d) for d in stack]
    for failed in range(code.n):
        plan = code._gathered_plan(failed)
        # the restricted plan keeps every nonzero of the fused matrix
        assert plan.shape == (l, (code.n - 1) * l // code.s)
        assert plan.nnz == np.count_nonzero(code._repair_matrices[failed])
        for c in coded:
            naive, batched = _references(code, failed, c)
            got = code.repair(failed, {i: c[i] for i in range(code.n) if i != failed})
            assert np.array_equal(naive, batched)
            assert np.array_equal(got.block, naive), f"node {failed}"
            assert np.array_equal(got.block, c[failed])
            assert got.total_bytes_read == (code.n - 1) * l // code.s * sub
        batch = code.repair_batch(
            failed,
            {i: np.stack([c[i] for c in coded]) for i in range(code.n) if i != failed},
        )
        for res, c in zip(batch, coded):
            assert np.array_equal(res.block, c[failed]), f"batch, node {failed}"


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"MSR{s}")
def test_gathered_plans_are_built_lazily(shape):
    code = MSRCode(*shape, verify="off")
    assert code._gathered_plans == {}
    code._gathered_plan(0)
    assert list(code._gathered_plans) == [0]


def test_empty_batch():
    code = _code((6, 3))
    L = code.subpacketization * 2
    shards = {i: np.empty((0, L), np.uint8) for i in range(1, code.n)}
    assert code.repair_batch(0, shards) == []


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    nsub=st.integers(min_value=1, max_value=7),
    batch=st.integers(min_value=1, max_value=3),
    failed_pick=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_prop_gathered_repair_equals_naive(shape, nsub, batch, failed_pick, seed):
    """Any data, width and failed node: repair and repair_batch equal the
    naive kernel, including on strided (non-contiguous) helper inputs."""
    code = _code(shape)
    l = code.subpacketization
    failed = failed_pick % code.n
    rng = np.random.default_rng(seed)
    coded = [
        code.encode(rng.integers(0, 256, (code.k, l * nsub), dtype=np.uint8))
        for _ in range(batch)
    ]
    expect = [_references(code, failed, c)[0] for c in coded]
    for c, want in zip(coded, expect):
        strided = np.repeat(c, 2, axis=1)[:, ::2]  # same bytes, stride 2
        got = code.repair(failed, {i: strided[i] for i in range(code.n) if i != failed})
        assert np.array_equal(got.block, want)
    out = code.repair_batch(
        failed, {i: np.stack([c[i] for c in coded]) for i in range(code.n) if i != failed}
    )
    for res, want in zip(out, expect):
        assert np.array_equal(res.block, want)
