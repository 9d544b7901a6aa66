"""Code transformation between RS(k, r) and MSR(2r, r, r, r²) — §III-D,
plus the multi-code conversion graph of the policy engine.

The trick (paper eqs. (3)–(7)): slice the RS parity-coefficient matrix
``P`` (r×k) column-wise into q = ⌈k/r⌉ invertible r×r blocks ``B_i``.
The *intermediary parities* ``p′_i = B_i · d_i`` satisfy

* ``p = p′_1 ⊕ … ⊕ p′_q``  (eq. (3)) — they XOR into the RS parities, and
* ``d_i = B_i⁻¹ · p′_i``    (eq. (4)) — each set alone determines its data
  group,

so they act as a "highway" between the two codes:

* **RS → MSR** (Fig. 12(b)): compute ``p′_i`` for the first q−1 groups
  from their data, then obtain the *last* group's intermediary parity for
  free as ``p′_q = p ⊕ Σ_{i<q} p′_i`` — group q's data is never read.
  Each ``p′_i`` maps to the MSR parities of its group through
  ``Trans2 = Enc_MSR · (B_i⁻¹ ⊗ I_l)`` (eq. (7)).
* **MSR → RS** (Fig. 12(a)): because MSR(2r, r) has k = r, its parity
  blocks alone determine the group data, so
  ``Trans1 = (B_i ⊗ I_l) · Enc_MSR⁻¹`` (eq. (6)) turns each group's MSR
  parities into ``p′_i`` *without touching any data blocks*; XOR-merging
  yields the RS parities.

When r ∤ k the paper pads with virtual empty (all-zero) data nodes; we do
the same by building the ``B_i`` from the width-qr Cauchy extension of the
same parity family, whose first k columns coincide with RS(k, r)'s.

:class:`MultiCodeConverter` extends the pair to the full RS/MSR/LRC/FR
conversion graph of the multi-code policy engine.  RS ↔ MSR keep the
intermediary-parity highway above; every other edge is a *journalled full
re-encode* — read the k data chunks (decoding lost groups from the source
family's parities when a fault hook reports them unavailable), encode the
target family's parities, commit.  Any loss beyond what the source code
can decode raises :class:`TransformAborted` with the inputs untouched and
the journal entry closed as an abort, so a stripe is never left
half-converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..codes import (
    FractionalRepetitionCode,
    LocalReconstructionCode,
    MSRCode,
    ReedSolomonCode,
)
from ..gf import CodingPlan, apply_to_blocks, cauchy, inverse, matmul
from ..telemetry import METRICS

__all__ = [
    "ChunkUnavailable",
    "TransformAborted",
    "TransformCost",
    "RsToMsrResult",
    "MsrToRsResult",
    "FusionTransformer",
    "msr_groups",
    "CodedStripe",
    "ConversionResult",
    "MultiCodeConverter",
]


class ChunkUnavailable(RuntimeError):
    """Raised by a conversion fault hook: this source chunk cannot be read.

    ``phase`` is ``"parity"`` (the stripe's RS or MSR parity set) or
    ``"data"`` (one data group); ``group`` is the group index (−1 for the
    whole-stripe RS parity set).
    """

    def __init__(self, phase: str, group: int):
        super().__init__(f"{phase} chunks of group {group} unavailable")
        self.phase = phase
        self.group = group


class TransformAborted(RuntimeError):
    """A conversion could not complete under the injected faults.

    The transform rolls back cleanly: no partial output is produced and
    the caller's input arrays are never mutated, so the stripe simply
    remains in its original code (the conversion-safety invariant).
    """


@dataclass
class TransformCost:
    """Accounting for one conversion — what the cluster simulator charges.

    ``data_blocks_read``/``parity_blocks_read`` count whole-block reads;
    ``gf_ops`` estimates GF multiply-accumulate operations on block bytes;
    ``blocks_written`` counts new parity blocks that must be stored.
    """

    data_blocks_read: int = 0
    parity_blocks_read: int = 0
    blocks_written: int = 0
    gf_ops: float = 0.0

    @property
    def blocks_read(self) -> int:
        return self.data_blocks_read + self.parity_blocks_read


def msr_groups(data: np.ndarray, parity: np.ndarray, r: int) -> list[np.ndarray]:
    """Copies of the q MSR(2r, r) stripes of (k, L) data and its (q·r, L)
    MSR parity; virtual nodes padding the last group (r ∤ k) are zero."""
    q, L = parity.shape[0] // r, parity.shape[1]
    out = np.zeros((q, 2 * r, L), dtype=np.uint8)
    for i in range(q):
        rows = data[i * r : (i + 1) * r]
        out[i, : len(rows)] = rows
        out[i, r:] = parity[i * r : (i + 1) * r]
    return list(out)


@dataclass
class RsToMsrResult:
    """Output of an RS→MSR conversion: the q groups' MSR parities.

    The data blocks stay where they are: ``parity`` is (q·r, L) with
    group i's MSR parities at rows ``i·r..(i+1)·r``; ``groups`` assembles
    each group's (2r, L) MSR stripe from ``data`` on read.
    """

    data: np.ndarray  # (k, L), the converted stripe's data (not copied)
    parity: np.ndarray  # (q·r, L)
    r: int
    cost: TransformCost = field(default_factory=TransformCost)

    @property
    def groups(self) -> list[np.ndarray]:
        return msr_groups(self.data, self.parity, self.r)


@dataclass
class MsrToRsResult:
    """Output of an MSR→RS conversion: the merged RS parity blocks."""

    parity: np.ndarray  # (r, L)
    cost: TransformCost = field(default_factory=TransformCost)


class FusionTransformer:
    """Precomputed Trans1/Trans2 maps for an EC-Fusion(k, r) pair.

    Parameters
    ----------
    k, r:
        The RS(k, r) shape.  The MSR side is always MSR(2r, r, r, r²).
    msr:
        Optionally share an existing :class:`MSRCode` (must be (2r, r)).

    Examples
    --------
    >>> import numpy as np
    >>> tr = FusionTransformer(k=4, r=2)
    >>> data = np.arange(4 * 16, dtype=np.uint8).reshape(4, 16)
    >>> coded = tr.rs.encode(data)
    >>> out = tr.rs_to_msr(data, coded[4:])
    >>> back = tr.msr_to_rs([out.parity[:2], out.parity[2:]])
    >>> bool(np.array_equal(back.parity, coded[4:]))
    True
    """

    def __init__(self, k: int, r: int, msr: MSRCode | None = None, w: int = 8):
        self.k = k
        self.r = r
        self.q = -(-k // r)  # ceil
        self.padding = self.q * r - k
        self._w = w
        self.rs = ReedSolomonCode(k, r, w=w)
        if msr is None:
            msr = MSRCode(2 * r, r, w=w)
        elif (msr.n, msr.k) != (2 * r, r):
            raise ValueError(f"msr must be MSR({2 * r},{r}), got {msr.name}")
        self.msr = msr
        l = msr.subpacketization

        # Group blocks B_i from the width-qr extension of the Cauchy family;
        # its first k columns are exactly the RS(k, r) parity matrix.
        p_full = cauchy(r, self.q * r, w=w)
        assert np.array_equal(p_full[:, :k], self.rs.parity_matrix)
        self.group_blocks = [p_full[:, i * r : (i + 1) * r] for i in range(self.q)]
        self._group_blocks_inv = [inverse(b, w=w) for b in self.group_blocks]

        enc = msr.generator[msr.k * l :]  # (r·l × r·l), square since k = r
        enc_inv = inverse(enc, w=w)
        eye_l = np.eye(l, dtype=np.uint8)
        #: Trans1_i: group-i MSR parity symbols -> intermediary parity symbols
        self.trans1 = [
            matmul(np.kron(b, eye_l), enc_inv, w=w) for b in self.group_blocks
        ]
        #: Trans2_i: intermediary parity symbols -> group-i MSR parity symbols
        self.trans2 = [
            matmul(enc, np.kron(binv, eye_l), w=w) for binv in self._group_blocks_inv
        ]
        # Conversions execute the sparse factors of Trans1/Trans2, never the
        # dense products (405 against 225 nonzeros at r = 3), each compiled
        # once: Enc and Enc⁻¹ per group, the RS parity rows [B_0|…|B_{q−1}]
        # to merge groups, and eq. (3) solved for one unread group j —
        # d_j = B_j⁻¹·p ⊕ Σ_{i≠j} B_j⁻¹B_i·d_i.  Since Trans2_i·(B_i ⊗ I) =
        # Enc and (B_i⁻¹ ⊗ I)·Trans1_i = Enc⁻¹, every output is
        # byte-identical to applying eqs. (6)/(7) as written.  Data rows are
        # read in place; a short last group (r ∤ k) drops its virtual columns.
        self._enc_plan = CodingPlan(enc, w=w)
        tail = (k - (self.q - 1) * r) * l
        self._enc_tail_plan = CodingPlan(enc[:, :tail], w=w) if self.padding else None
        self._dec_plan = CodingPlan(enc_inv, w=w)
        self._merge_plan = CodingPlan(p_full, w=w)
        #: _derive_plans[j][i] is B_j⁻¹·B_i (over group i's real columns)
        #: for i ≠ j and B_j⁻¹ (applied to the RS parities) for i = j
        real_blocks = [
            self.rs.parity_matrix[:, i * r : (i + 1) * r] for i in range(self.q)
        ]
        self._derive_plans = [
            [
                CodingPlan(binv if i == j else matmul(binv, b, w=w), w=w)
                for i, b in enumerate(real_blocks)
            ]
            for j, binv in enumerate(self._group_blocks_inv)
        ]

    # ------------------------------------------------------------------ helpers
    @property
    def subpacketization(self) -> int:
        """Block lengths must be a multiple of this (the MSR l = r²)."""
        return self.msr.subpacketization

    def _check_block_len(self, L: int) -> None:
        if L % self.subpacketization:
            raise ValueError(
                f"block length {L} not a multiple of MSR sub-packetization "
                f"{self.subpacketization}"
            )

    def _pad_groups(self, data: np.ndarray) -> list[np.ndarray]:
        """Split (k, L) data into q groups of r blocks, zero-padding the last."""
        k, L = data.shape
        if self.padding:
            pad = np.zeros((self.padding, L), dtype=np.uint8)
            data = np.concatenate([data, pad], axis=0)
        return [data[i * self.r : (i + 1) * self.r] for i in range(self.q)]

    def _group(self, rows: np.ndarray, i: int) -> np.ndarray:
        """Group i's rows of a (k, L) data or (q·r, L) MSR parity array, as a view."""
        return rows[i * self.r : (i + 1) * self.r]

    def _syms(self, blocks: np.ndarray) -> np.ndarray:
        l = self.subpacketization
        rows, L = blocks.shape
        return blocks.reshape(rows * l, L // l)

    def _blocks(self, syms: np.ndarray, rows: int) -> np.ndarray:
        total, sub = syms.shape
        return syms.reshape(rows, (total // rows) * sub)

    def _encode_group(self, d_i: np.ndarray, out: np.ndarray) -> None:
        """A group's MSR parities ``Enc·d_i`` into the (r, L) ``out``.

        ``d_i`` has r rows, or fewer for the last group's real nodes when
        r ∤ k (Enc without the virtual nodes' columns).
        """
        plan = self._enc_plan if len(d_i) == self.r else self._enc_tail_plan
        plan.apply_into(self._syms(d_i), self._syms(out))

    def msr_parity(self, data: np.ndarray) -> np.ndarray:
        """Encode (k, L) data into its q groups' MSR parities, (q·r, L).

        Group i's parities land at rows ``i·r..(i+1)·r``; the data rows
        are read in place.
        """
        out = np.empty((self.q * self.r, data.shape[1]), dtype=np.uint8)
        for i in range(self.q):
            self._encode_group(self._group(data, i), self._group(out, i))
        return out

    # ---------------------------------------------------------------- eq. (3)
    def intermediary_parities(self, data: np.ndarray) -> np.ndarray:
        """All q intermediary parity sets p′_i, shape (q, r, L)."""
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data blocks, got {data.shape[0]}")
        groups = self._pad_groups(data)
        return np.stack(
            [apply_to_blocks(b, g, w=self._w) for b, g in zip(self.group_blocks, groups)]
        )

    # ------------------------------------------------------------- conversions
    def rs_to_msr(
        self, data: np.ndarray, rs_parity: np.ndarray, fault_hook=None
    ) -> RsToMsrResult:
        """Convert one RS stripe into q MSR(2r, r) stripes (Fig. 12(b)).

        Reads the first q−1 data groups and the r RS parities; the last
        group's intermediary parity comes from eq. (3) without reading its
        data, and every group's MSR parities from Trans2 (eq. (7)).  Only
        the (q·r, L) MSR parity is written; the data rows stay in place.

        ``fault_hook(phase, group)`` is called before each source read
        (``("parity", -1)`` for the RS parity set, ``("data", i)`` for
        group i) and may raise :class:`ChunkUnavailable` to simulate a
        mid-conversion source loss.  The transform then fails over:

        * one data group unreadable, parity readable → read the normally
          skipped last group instead and derive the missing group's
          intermediary parity from eq. (3) — byte-identical output;
        * parity unreadable → read *all* q data groups and compute every
          p′_i directly — byte-identical output;
        * anything worse → :class:`TransformAborted`, inputs untouched.
        """
        with METRICS.timer("fusion.transform.wall.rs_to_msr", unit="s"):
            return self._rs_to_msr(data, rs_parity, fault_hook)

    def _read_source(self, fault_hook, phase: str, group: int) -> bool:
        """Probe one conversion source; False when the hook reports it lost."""
        if fault_hook is None:
            return True
        try:
            fault_hook(phase, group)
        except ChunkUnavailable:
            return False
        return True

    def _rs_to_msr(
        self, data: np.ndarray, rs_parity: np.ndarray, fault_hook=None
    ) -> RsToMsrResult:
        data = np.ascontiguousarray(data, dtype=np.uint8)
        rs_parity = np.ascontiguousarray(rs_parity, dtype=np.uint8)
        L = data.shape[1]
        self._check_block_len(L)
        if rs_parity.shape != (self.r, L):
            raise ValueError(f"rs_parity must be ({self.r}, {L}), got {rs_parity.shape}")
        cost = TransformCost()

        parity_ok = self._read_source(fault_hook, "parity", -1)
        if parity_ok:
            cost.parity_blocks_read = self.r
        # Which data groups must be read: normally all but the last (its p′
        # is derived from the parities); without the parities, all of them.
        needed = list(range(self.q - 1)) if parity_ok else list(range(self.q))
        derived = self.q - 1 if parity_ok else None
        missing = [i for i in needed if not self._read_source(fault_hook, "data", i)]
        if missing and parity_ok and derived is not None:
            # Failover: swap ONE lost group with the normally skipped last
            # group — eq. (3) recovers the lost group's p′ from the parities.
            if self._read_source(fault_hook, "data", derived):
                needed = [i for i in range(self.q) if i != missing[0]]
                derived = missing[0]
                missing = missing[1:]
            else:
                missing.append(derived)
        if missing:
            raise TransformAborted(
                f"rs_to_msr: sources lost beyond failover "
                f"(parity_ok={parity_ok}, missing groups {sorted(set(missing))})"
            )

        # Only parity is written: every data block stays where it is.
        out = np.empty((self.q * self.r, L), dtype=np.uint8)
        for i in needed:
            self._encode_group(self._group(data, i), self._group(out, i))
            cost.data_blocks_read += self.r
            cost.gf_ops += self.r * self.r * L
        if derived is not None:
            # eq. (3) solved for the unread group's data, then Enc (eq. (7))
            plans = self._derive_plans[derived]
            d_j = plans[derived].apply(rs_parity)
            for i in needed:
                plans[i].apply_into(self._group(data, i), d_j, accumulate=True)
            self._encode_group(d_j, self._group(out, derived))
        for i in range(self.q):
            cost.gf_ops += self.trans2[i].size * (L / self.subpacketization)
            cost.blocks_written += self.r
        if METRICS.enabled:
            # naive re-encode would read all k data blocks; the intermediary
            # highway derives the last group's p' from the RS parities instead
            # (nothing is saved when the parity failover reads every group)
            saved = max(self.k - cost.data_blocks_read, 0) * L
            METRICS.counter("fusion.transform.rs_to_msr", unit="conversions").inc()
            METRICS.counter("fusion.transform.gf_ops", unit="gf-ops").inc(cost.gf_ops)
            METRICS.counter("fusion.transform.bytes_saved", unit="bytes").inc(saved)
        return RsToMsrResult(data=data, parity=out, r=self.r, cost=cost)

    def msr_to_rs(
        self,
        msr_parities: list[np.ndarray],
        fault_hook=None,
        data: np.ndarray | None = None,
    ) -> MsrToRsResult:
        """Merge q groups' MSR parities into the RS parities (Fig. 12(a)).

        Touches *only* parity blocks: Trans1 (eq. (6)) maps each group's
        MSR parities straight to its intermediary parity, and eq. (3)
        XOR-merges them.

        ``fault_hook(phase, group)`` may raise :class:`ChunkUnavailable`
        for ``("parity", i)`` probes.  A group whose MSR parities are lost
        fails over to its *data* blocks when ``data`` (the full (k, L)
        stripe) is supplied and readable (``("data", i)`` probe): eq. (3)
        computes p′_i = B_i·d_i directly, byte-identical.  Otherwise the
        conversion raises :class:`TransformAborted` with inputs untouched.
        """
        with METRICS.timer("fusion.transform.wall.msr_to_rs", unit="s"):
            return self._msr_to_rs(msr_parities, fault_hook, data)

    def _msr_to_rs(
        self,
        msr_parities: list[np.ndarray],
        fault_hook=None,
        data: np.ndarray | None = None,
    ) -> MsrToRsResult:
        if len(msr_parities) != self.q:
            raise ValueError(f"expected {self.q} parity groups, got {len(msr_parities)}")
        L = np.asarray(msr_parities[0]).shape[1]
        self._check_block_len(L)
        if data is not None:
            data = np.ascontiguousarray(data, dtype=np.uint8)
            if data.shape != (self.k, L):
                raise ValueError(f"data must be ({self.k}, {L}), got {data.shape}")
        cost = TransformCost()
        # every group's data d_i, stacked for one merge p = Σ B_i·d_i (eq. (3))
        stacked = np.empty((self.q * self.r, L), dtype=np.uint8)
        for i, par in enumerate(msr_parities):
            par = np.ascontiguousarray(par, dtype=np.uint8)
            if par.shape != (self.r, L):
                raise ValueError(f"group {i} parity must be ({self.r}, {L})")
            d_i = stacked[i * self.r : (i + 1) * self.r]
            if self._read_source(fault_hook, "parity", i):
                # d_i = Enc⁻¹·par_i, as Trans1_i = (B_i ⊗ I)·Enc⁻¹ (eq. (6))
                self._dec_plan.apply_into(self._syms(par), self._syms(d_i))
                cost.parity_blocks_read += self.r
                cost.gf_ops += self.trans1[i].size * (L / self.subpacketization)
            elif data is not None and self._read_source(fault_hook, "data", i):
                # failover: the group's own data blocks, virtual nodes zero
                rows = self._group(data, i)
                d_i[: len(rows)] = rows
                d_i[len(rows) :] = 0
                cost.data_blocks_read += self.r
                cost.gf_ops += self.r * self.r * L
            else:
                raise TransformAborted(
                    f"msr_to_rs: group {i} parities lost and no readable data "
                    f"failover"
                )
        parity = self._merge_plan.apply(stacked)
        cost.blocks_written = self.r
        if METRICS.enabled:
            # naive re-encode would read all k data blocks; Trans1 works from
            # the q·r MSR parity blocks alone (eq. (6))
            METRICS.counter("fusion.transform.msr_to_rs", unit="conversions").inc()
            METRICS.counter("fusion.transform.gf_ops", unit="gf-ops").inc(cost.gf_ops)
            METRICS.counter("fusion.transform.bytes_saved", unit="bytes").inc(self.k * L)
        return MsrToRsResult(parity=parity, cost=cost)

    # -------------------------------------------------------------- validation
    def verify_roundtrip(self, rng: np.random.Generator, L: int | None = None) -> bool:
        """Self-check: RS → MSR → RS reproduces the original parities and
        each MSR group is a valid codeword."""
        if L is None:
            L = self.subpacketization * 4
        data = rng.integers(0, 256, (self.k, L), dtype=np.uint8)
        coded = self.rs.encode(data)
        fwd = self.rs_to_msr(data, coded[self.k :])
        for g in fwd.groups:
            if not np.array_equal(self.msr.encode(g[: self.r]), g):
                return False
        back = self.msr_to_rs([self._group(fwd.parity, i) for i in range(self.q)])
        return np.array_equal(back.parity, coded[self.k :])


@dataclass
class CodedStripe:
    """One stripe's bytes in a specific code family.

    ``data`` is always the systematic (k, L) block; ``parity`` holds the
    family's redundancy in its own layout — RS: (r, L); MSR: (q·r, L)
    with group i's parities at rows ``i·r..(i+1)·r``; LRC and FR: the
    code's shards ``k..n-1`` in node order.
    """

    code: str
    data: np.ndarray
    parity: np.ndarray


@dataclass
class ConversionResult:
    """Output of one multi-code conversion edge."""

    stripe: CodedStripe
    cost: TransformCost = field(default_factory=TransformCost)


class MultiCodeConverter:
    """Data-carrying conversions across the RS/MSR/LRC/FR graph.

    RS ↔ MSR delegate to :class:`FusionTransformer` (the intermediary-
    parity highway, including its fault failovers).  Every other edge is
    a journalled full re-encode: read the k data chunks, re-encode the
    target family's parities, commit.  ``fault_hook(phase, group)`` may
    raise :class:`ChunkUnavailable` for ``("data", i)`` probes (data
    group i) and ``("parity", g)`` probes (the source family's parity
    set; g is the MSR group index, −1 otherwise); a lost data group fails
    over to decoding from the source parities, and anything beyond that
    aborts with the inputs untouched.

    Examples
    --------
    >>> import numpy as np
    >>> conv = MultiCodeConverter(k=4, r=2)
    >>> rng = np.random.default_rng(0)
    >>> data = rng.integers(0, 256, (4, conv.subpacketization), dtype=np.uint8)
    >>> stripe = conv.encode(data, "rs")
    >>> out = conv.convert(stripe, "fr")
    >>> out.stripe.code
    'fr'
    >>> back = conv.convert(out.stripe, "rs")
    >>> bool(np.array_equal(back.stripe.parity, stripe.parity))
    True
    """

    FAMILIES = ("rs", "msr", "lrc", "fr")

    def __init__(
        self,
        k: int,
        r: int,
        lrc_r: int = 2,
        lrc_z: int = 2,
        fr_rho: int = 2,
        fr_nodes: int | None = None,
        w: int = 8,
    ):
        self.k, self.r, self._w = k, r, w
        self.tr = FusionTransformer(k, r, w=w)
        self.q = self.tr.q
        self.rs = self.tr.rs
        self.lrc = LocalReconstructionCode(k, lrc_r, lrc_z, w=w)
        fr_n = fr_nodes if fr_nodes is not None else fr_rho * k + 1
        self.fr = FractionalRepetitionCode(k, fr_n - k, rho=fr_rho, w=w)
        #: conversion journal: ("begin"|"commit"|"abort", source, target)
        self.journal: list[tuple[str, str, str]] = []

    @property
    def subpacketization(self) -> int:
        """Block lengths must be a multiple of this (lcm of the families')."""
        return math.lcm(self.tr.subpacketization, self.fr.subpacketization)

    @property
    def open_journal_entries(self) -> int:
        """Conversions begun but neither committed nor aborted (0 at rest)."""
        begins = sum(1 for e in self.journal if e[0] == "begin")
        closed = sum(1 for e in self.journal if e[0] in ("commit", "abort"))
        return begins - closed

    # ------------------------------------------------------------------ encode
    def encode(self, data: np.ndarray, code: str = "rs") -> CodedStripe:
        """Encode fresh (k, L) data directly into one family."""
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data blocks, got {data.shape[0]}")
        if data.shape[1] % self.subpacketization:
            raise ValueError(
                f"block length {data.shape[1]} not a multiple of "
                f"{self.subpacketization}"
            )
        return CodedStripe(code=code, data=data, parity=self._encode_parity(data, code))

    def _encode_parity(self, data: np.ndarray, code: str) -> np.ndarray:
        if code == "rs":
            return self.rs.encode(data)[self.k :]
        if code == "msr":
            return self.tr.msr_parity(data)
        if code == "lrc":
            return self.lrc.encode(data)[self.k :]
        if code == "fr":
            return self.fr.encode(data)[self.k :]
        raise ValueError(f"unknown code family {code!r}; choose from {self.FAMILIES}")

    # ----------------------------------------------------------------- convert
    def convert(
        self, stripe: CodedStripe, target: str, fault_hook=None
    ) -> ConversionResult:
        """Convert one stripe to ``target``, journalled and chaos-safe.

        On :class:`TransformAborted` the inputs are untouched, no partial
        output exists, and the journal entry closes as an abort.
        """
        if target not in self.FAMILIES:
            raise ValueError(f"unknown code family {target!r}")
        source = stripe.code
        if source == target:
            return ConversionResult(stripe=stripe)
        self.journal.append(("begin", source, target))
        try:
            with METRICS.timer(f"fusion.transform.wall.{source}_to_{target}", unit="s"):
                out = self._convert(stripe, target, fault_hook)
        except TransformAborted:
            self.journal.append(("abort", source, target))
            if METRICS.enabled:
                METRICS.counter(
                    "fusion.transform.aborted", unit="conversions"
                ).inc()
            raise
        self.journal.append(("commit", source, target))
        return out

    def _convert(
        self, stripe: CodedStripe, target: str, fault_hook
    ) -> ConversionResult:
        source = stripe.code
        if (source, target) == ("rs", "msr"):
            res = self.tr._rs_to_msr(stripe.data, stripe.parity, fault_hook)
            return ConversionResult(
                stripe=CodedStripe("msr", stripe.data, res.parity), cost=res.cost
            )
        if (source, target) == ("msr", "rs"):
            groups = [self.tr._group(stripe.parity, i) for i in range(self.q)]
            res = self.tr._msr_to_rs(groups, fault_hook, data=stripe.data)
            return ConversionResult(
                stripe=CodedStripe("rs", stripe.data, res.parity), cost=res.cost
            )
        # journalled full re-encode for every remaining edge
        cost = TransformCost()
        data = self._read_data(stripe, fault_hook, cost)
        parity = self._encode_parity(data, target)
        cost.blocks_written = parity.shape[0]
        cost.gf_ops += self._encode_gf_ops(target, data.shape[1])
        if METRICS.enabled:
            METRICS.counter(
                f"fusion.transform.{source}_to_{target}", unit="conversions"
            ).inc()
            METRICS.counter("fusion.transform.gf_ops", unit="gf-ops").inc(cost.gf_ops)
        return ConversionResult(stripe=CodedStripe(target, data, parity), cost=cost)

    def _encode_gf_ops(self, code: str, L: int) -> float:
        k, r = self.k, self.r
        if code == "rs":
            return float(k * r * L)
        if code == "msr":
            l = self.tr.subpacketization
            return float(self.q * (r * r * L + self.tr.trans2[0].size * (L / l)))
        if code == "lrc":
            return float((k * self.lrc.r + (k - self.lrc.z)) * L)
        coded = self.fr.num_chunks - self.fr.num_data_chunks
        return float(coded * k * L)

    # ----------------------------------------------------------- source reads
    def _read_data(
        self, stripe: CodedStripe, fault_hook, cost: TransformCost
    ) -> np.ndarray:
        """Read the k data chunks, decoding lost groups from source parity.

        Probes ``("data", i)`` per group; a lost group probes the source
        family's parities (``("parity", g)`` per MSR group, ``("parity",
        -1)`` otherwise) and decodes.  Never mutates ``stripe``.
        """
        k, r, q = self.k, self.r, self.q
        missing = [
            i for i in range(q) if not self.tr._read_source(fault_hook, "data", i)
        ]
        if not missing:
            cost.data_blocks_read += k
            return stripe.data
        lost_nodes = [
            node for g in missing for node in range(g * r, min((g + 1) * r, k))
        ]
        cost.data_blocks_read += k - len(lost_nodes)
        if stripe.code == "msr":
            return self._decode_msr_groups(stripe, missing, lost_nodes, fault_hook, cost)
        if not self.tr._read_source(fault_hook, "parity", -1):
            raise TransformAborted(
                f"{stripe.code} re-encode: data groups {missing} and the "
                f"{stripe.code} parities are all unavailable"
            )
        code = {"rs": self.rs, "lrc": self.lrc, "fr": self.fr}[stripe.code]
        shards = {i: stripe.data[i] for i in range(k) if i not in lost_nodes}
        shards.update({k + j: stripe.parity[j] for j in range(stripe.parity.shape[0])})
        try:
            data = code.decode_data(shards)
        except Exception as exc:
            raise TransformAborted(
                f"{stripe.code} re-encode: decode of lost groups {missing} "
                f"failed ({exc})"
            ) from exc
        cost.parity_blocks_read += stripe.parity.shape[0]
        cost.gf_ops += len(lost_nodes) * k * stripe.data.shape[1]
        return data

    def _decode_msr_groups(
        self,
        stripe: CodedStripe,
        missing: list[int],
        lost_nodes: list[int],
        fault_hook,
        cost: TransformCost,
    ) -> np.ndarray:
        """MSR source: a group's data is B_i⁻¹·Trans1_i = Enc⁻¹ of its parities."""
        r, k, L = self.r, self.k, stripe.data.shape[1]
        data = stripe.data.copy()
        for g in missing:
            if not self.tr._read_source(fault_hook, "parity", g):
                raise TransformAborted(
                    f"msr re-encode: group {g} data and parities both lost"
                )
            par = self.tr._group(stripe.parity, g)
            grp = self.tr._blocks(self.tr._dec_plan.apply(self.tr._syms(par)), r)
            for row, node in enumerate(range(g * r, min((g + 1) * r, k))):
                data[node] = grp[row]
            cost.parity_blocks_read += r
            cost.gf_ops += self.tr.trans1[g].size * (L / self.tr.subpacketization)
            cost.gf_ops += r * r * L
        return data

    # -------------------------------------------------------------- validation
    def verify_roundtrip(self, rng: np.random.Generator, L: int | None = None) -> bool:
        """Self-check: a full tour rs → lrc → fr → msr → rs preserves the
        data bytes and reproduces the original RS parities exactly."""
        if L is None:
            L = self.subpacketization * 4
        data = rng.integers(0, 256, (self.k, L), dtype=np.uint8)
        stripe = self.encode(data, "rs")
        original_parity = stripe.parity.copy()
        for target in ("lrc", "fr", "msr", "rs"):
            stripe = self.convert(stripe, target).stripe
            if not np.array_equal(stripe.data, data):
                return False
        return np.array_equal(stripe.parity, original_parity)
