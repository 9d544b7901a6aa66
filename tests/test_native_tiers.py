"""Every vector tier of the native GF(2^8) kernel is byte-exact.

The C kernel in :mod:`repro.gf.native` carries two vector bodies chosen
at compile time: ``gfni512`` (one ``gf2p8affineqb`` per 64 bytes, from
each unit's 8×8 bit-matrix) when the flags define ``__GFNI__`` and
``__AVX512BW__``, and ``v16`` (16-byte nibble shuffles) otherwise.  A
host normally runs only the best build, so this suite compiles every
flag set the host accepts and checks each one directly — the 16-byte
tier stays covered on a GFNI host.

* The bit-matrix lowering reproduces ``mul_table[c, x]`` for all
  256×256 pairs, checked by emulating the instruction in NumPy.
* Every build passes its self-test and byte-matches
  :func:`repro.gf.apply_to_blocks_naive` on random plans, in both
  accumulate modes, at lengths that cross the kernel's 32 KiB tile with
  an odd tail.
"""

import shutil
import subprocess

import numpy as np
import pytest

from repro.gf import GF, apply_to_blocks_naive
from repro.gf import native

MUL = GF.get(8).mul_table()

#: the kernel's tile is 32 KiB; these cross it with odd tails, plus the
#: sub-vector and empty edge cases
LENGTHS = (0, 1, 63, 64 + 17, 32768 + 64 * 3 + 7, 2 * 32768 + 129)


def affine_emulated(matrices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """NumPy model of ``gf2p8affineqb(x, A, 0)`` for each qword ``A``.

    Bit ``i`` of the result is the parity of ``x`` AND byte ``7 - i`` of
    ``A`` (little-endian), for every (matrix, byte) pair.
    """
    rows = matrices.astype("<u8").view(np.uint8).reshape(-1, 8)[:, ::-1]  # row i
    masked = rows[:, :, None] & x[None, None, :]  # (n, i, len(x))
    parity = np.unpackbits(masked[..., None], axis=-1).sum(axis=-1, dtype=np.int64) & 1
    return (parity << np.arange(8)[None, :, None]).sum(axis=1).astype(np.uint8)


def test_affine_lowering_reproduces_mul_table():
    coeffs = np.arange(256)
    x = np.arange(256, dtype=np.uint8)
    got = affine_emulated(native.affine_matrices(coeffs, MUL), x)
    assert np.array_equal(got, MUL)


def test_unit_program_carries_one_matrix_per_unit():
    m = np.array([[3, 0, 7], [0, 0, 0], [1, 9, 0]], np.uint8)
    outs, ins = np.nonzero(m)
    prog = native.build_unit_program(outs, ins, m[outs, ins], MUL, 3)
    assert prog.affine.dtype == np.uint64 and prog.affine.shape == (prog.nunits,)
    order = np.argsort(outs, kind="stable")
    assert np.array_equal(
        prog.affine, native.affine_matrices(m[outs, ins][order], MUL)
    )
    assert list(prog.zero_rows) == [1]


def _builds():
    """(flags, compiled kernel) for every flag set this host accepts."""
    cc = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    if cc is None:
        return []
    builds = []
    for flags in native._FLAG_SETS:
        try:
            builds.append((flags, native._compile(flags, cc)))
        except (OSError, subprocess.SubprocessError):
            continue
    return builds


BUILDS = _builds()


@pytest.fixture(params=BUILDS, ids=[" ".join(f) for f, _ in BUILDS] or None)
def build(request):
    return request.param


@pytest.mark.skipif(not BUILDS, reason="no working C compiler")
def test_every_build_passes_its_self_test(build):
    flags, fn = build
    assert fn.tier in ("v16", "gfni512")
    if "-march=native" not in flags:
        # only host-specific codegen can enable the GFNI body
        assert fn.tier == "v16"
    assert native._self_test(fn)


@pytest.mark.skipif(not BUILDS, reason="no working C compiler")
@pytest.mark.parametrize("L", LENGTHS)
def test_every_build_matches_naive(build, L):
    _, fn = build
    rng = np.random.default_rng(L + 1)
    for trial in range(4):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        m = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
        m[rng.random((rows, cols)) < 0.3] = 0
        if trial == 0:
            m[0] = 0  # an all-zero output row the kernel must not touch
        blocks = rng.integers(0, 256, (cols, L), dtype=np.uint8)
        expect = apply_to_blocks_naive(m, blocks)
        outs, ins = np.nonzero(m)
        prog = native.build_unit_program(outs, ins, m[outs, ins], MUL, rows)

        got = rng.integers(0, 256, (rows, L), dtype=np.uint8)
        got[prog.zero_rows] = 0
        native.run(fn, prog, blocks, got, accumulate=False)
        assert np.array_equal(got, expect)

        base = rng.integers(0, 256, (rows, L), dtype=np.uint8)
        acc = base.copy()
        native.run(fn, prog, blocks, acc, accumulate=True)
        assert np.array_equal(acc, base ^ expect)


def test_tier_reports_the_kernel_in_use():
    if native.native_available():
        assert native.tier() == native.kernel().tier
    else:
        assert native.tier() is None
