"""The EC-Fusion framework: code selection + adaptation + transformation.

:class:`ECFusion` is the functional (data-carrying) embodiment of the
paper's Fig. 5 — it stores stripes in whichever of RS(k, r) or
MSR(2r, r, r, r²) the :class:`~repro.fusion.adaptation.AdaptiveSelector`
currently assigns, executes conversions through the intermediary-parity
:class:`~repro.fusion.transform.FusionTransformer`, and accounts every
byte the conversions and repairs move.

The cluster simulator (:mod:`repro.cluster`) uses the same selector and
cost accounting without materialising data; this class is the
correctness-bearing reference used by the examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..telemetry import METRICS
from .adaptation import AdaptiveSelector, CodeKind, Conversion
from .costmodel import CostModel, SystemProfile
from .queues import CachePolicy
from .transform import FusionTransformer, TransformCost

__all__ = ["StripeStore", "RecoveryReport", "ECFusion"]


@dataclass
class StripeStore:
    """Physical representation of one stripe.

    ``kind == RS``: ``rs_blocks`` holds the (k+r, L) codeword.
    ``kind == MSR``: ``msr_groups`` holds q arrays of shape (2r, L).
    """

    kind: CodeKind
    rs_blocks: np.ndarray | None = None
    msr_groups: list[np.ndarray] | None = None


@dataclass
class RecoveryReport:
    """What one recovery did: which code served it and how much it read."""

    stripe: Hashable
    block: int
    code: CodeKind
    bytes_read: int
    conversions: list[Conversion] = field(default_factory=list)


class ECFusion:
    """Hybrid RS/MSR store with adaptive per-stripe code selection.

    Examples
    --------
    >>> import numpy as np
    >>> fusion = ECFusion(k=4, r=2)   # default profile: η(4,2) ≈ 3.5
    >>> data = np.arange(4 * 16, dtype=np.uint8).reshape(4, 16)
    >>> fusion.write("stripe0", data)
    []
    >>> fusion.code_of("stripe0")
    <CodeKind.RS: 'rs'>
    >>> rep = fusion.recover("stripe0", 1)   # first failure flips it to MSR
    >>> rep.code
    <CodeKind.MSR: 'msr'>
    """

    def __init__(
        self,
        k: int,
        r: int,
        profile: SystemProfile | None = None,
        queue_capacity: int = 1024,
        policy: CachePolicy = CachePolicy.LRU,
        margin: float = 0.0,
    ):
        profile = profile or SystemProfile()
        self.k, self.r = k, r
        self.transformer = FusionTransformer(k, r)
        self.rs = self.transformer.rs
        self.msr = self.transformer.msr
        self.cost_model = CostModel(k, r, profile)
        self.selector = AdaptiveSelector(
            self.cost_model, queue_capacity=queue_capacity, policy=policy, margin=margin
        )
        self._stripes: dict[Hashable, StripeStore] = {}
        self.transform_cost = TransformCost()
        self.repair_bytes_read = 0

    # -- helpers ------------------------------------------------------------
    def code_of(self, stripe: Hashable) -> CodeKind:
        """The code a stripe is (or would be) stored in."""
        store = self._stripes.get(stripe)
        return store.kind if store else self.selector.code_of(stripe)

    def _locate(self, stripe: Hashable) -> StripeStore:
        store = self._stripes.get(stripe)
        if store is None:
            raise KeyError(f"unknown stripe {stripe!r}")
        return store

    def _group_of(self, block: int) -> tuple[int, int]:
        """Data block index -> (MSR group, node-within-group)."""
        return block // self.r, block % self.r

    # -- application path -------------------------------------------------------
    def write(self, stripe: Hashable, data: np.ndarray) -> list[Conversion]:
        """Full-stripe write (HDFS semantics: files are write-once).

        The adaptation rule may first flip the stripe's flag to RS; the
        stripe is then encoded directly in its assigned code, so a
        conversion triggered by the write itself costs nothing extra.
        """
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data blocks, got {data.shape[0]}")
        if data.shape[1] % self.msr.subpacketization:
            raise ValueError(
                f"block length must be a multiple of {self.msr.subpacketization}"
            )
        if METRICS.enabled:
            METRICS.counter("fusion.store.writes", unit="stripes").inc()
        conversions = self.selector.on_write(stripe)
        # idle-expiry may revert *other* stripes; the written stripe itself
        # is re-encoded below, so its own flip needs no transformation
        self._apply_conversions([c for c in conversions if c.stripe != stripe])
        kind = self.selector.code_of(stripe)
        if kind is CodeKind.RS:
            self._stripes[stripe] = StripeStore(kind=kind, rs_blocks=self.rs.encode(data))
        else:
            groups = list(self.transformer._encode_msr(data))
            self._stripes[stripe] = StripeStore(kind=kind, msr_groups=groups)
        return conversions

    def read(self, stripe: Hashable, block: int) -> np.ndarray:
        """Read one data block (always available systematically)."""
        if not 0 <= block < self.k:
            raise ValueError(f"data block index {block} out of range")
        store = self._locate(stripe)
        if METRICS.enabled:
            METRICS.counter("fusion.store.reads", unit="blocks").inc()
        self._apply_conversions(self.selector.on_read(stripe))
        if store.kind is CodeKind.RS:
            return store.rs_blocks[block]
        g, j = self._group_of(block)
        return store.msr_groups[g][j]

    def read_stripe(self, stripe: Hashable) -> np.ndarray:
        """All k data blocks of a stripe, shape (k, L)."""
        store = self._locate(stripe)
        if store.kind is CodeKind.RS:
            return store.rs_blocks[: self.k]
        blocks = [store.msr_groups[b // self.r][b % self.r] for b in range(self.k)]
        return np.stack(blocks)

    # -- recovery path -------------------------------------------------------------
    def recover(self, stripe: Hashable, block: int) -> RecoveryReport:
        """Reconstruct one lost data block under the adaptive policy.

        The Queue2 insertion happens first (Algorithm 1), so a stripe may
        convert to MSR *before* the repair proper — mirroring the paper's
        rule that recovery-prone blocks should already sit in the
        repair-friendly code for subsequent failures.
        """
        if not 0 <= block < self.k:
            raise ValueError(f"data block index {block} out of range")
        conversions = self.selector.on_recovery(stripe)
        self._apply_conversions(conversions)
        store = self._locate(stripe)

        if store.kind is CodeKind.RS:
            shards = {
                i: store.rs_blocks[i] for i in range(self.rs.n) if i != block
            }
            res = self.rs.repair(block, shards)
            store.rs_blocks[block] = res.block
        else:
            g, j = self._group_of(block)
            grp = store.msr_groups[g]
            shards = {i: grp[i] for i in range(self.msr.n) if i != j}
            res = self.msr.repair(j, shards)
            grp[j] = res.block
        self.repair_bytes_read += res.total_bytes_read
        if METRICS.enabled:
            METRICS.counter("fusion.store.recoveries", unit="blocks").inc()
            METRICS.counter("fusion.store.repair_bytes_read", unit="bytes").inc(
                res.total_bytes_read
            )
        return RecoveryReport(
            stripe=stripe,
            block=block,
            code=store.kind,
            bytes_read=res.total_bytes_read,
            conversions=conversions,
        )

    def recover_streamed(
        self, stripe: Hashable, block: int, chunk_size: int = 1 << 16
    ) -> RecoveryReport:
        """Reconstruct one lost data block via chunked partial combinations.

        The functional twin of the cluster's pipelined repair
        (:mod:`repro.cluster.pipeline`): the same adaptive policy flow as
        :meth:`recover`, but the codec work runs through
        ``repair_streamed`` — helper-by-helper partial sums folded one
        ``chunk_size``-byte output chunk at a time, exactly the partials a
        hop-by-hop repair pipeline would stream.  The folds are zero-copy
        (scaled in preallocated scratch, XORed into a donated
        accumulator), and byte-identical to :meth:`recover` for every
        chunk size (GF sums commute).
        """
        if not 0 <= block < self.k:
            raise ValueError(f"data block index {block} out of range")
        conversions = self.selector.on_recovery(stripe)
        self._apply_conversions(conversions)
        store = self._locate(stripe)

        if store.kind is CodeKind.RS:
            shards = {
                i: store.rs_blocks[i] for i in range(self.rs.n) if i != block
            }
            res = self.rs.repair_streamed(block, shards, chunk_size=chunk_size)
            store.rs_blocks[block] = res.block
        else:
            g, j = self._group_of(block)
            grp = store.msr_groups[g]
            shards = {i: grp[i] for i in range(self.msr.n) if i != j}
            res = self.msr.repair_streamed(j, shards, chunk_size=chunk_size)
            grp[j] = res.block
        self.repair_bytes_read += res.total_bytes_read
        if METRICS.enabled:
            METRICS.counter("fusion.store.recoveries", unit="blocks").inc()
            METRICS.counter("fusion.store.repair_bytes_read", unit="bytes").inc(
                res.total_bytes_read
            )
        return RecoveryReport(
            stripe=stripe,
            block=block,
            code=store.kind,
            bytes_read=res.total_bytes_read,
            conversions=conversions,
        )

    def recover_parity(self, stripe: Hashable, index: int) -> RecoveryReport:
        """Reconstruct one lost parity block.

        ``index`` addresses the parity in the stripe's *current* layout:
        ``0..r-1`` in RS mode, ``0..q·r-1`` (group-major) in MSR mode.
        Parity loss counts as a recovery event for Algorithm 1 exactly
        like data loss — the stripe is evidently failure-prone.
        """
        conversions = self.selector.on_recovery(stripe)
        self._apply_conversions(conversions)
        store = self._locate(stripe)

        if store.kind is CodeKind.RS:
            if not 0 <= index < self.r:
                raise ValueError(f"RS-mode parity index {index} out of range")
            node = self.k + index
            shards = {i: store.rs_blocks[i] for i in range(self.rs.n) if i != node}
            res = self.rs.repair(node, shards)
            store.rs_blocks[node] = res.block
        else:
            q = self.transformer.q
            if not 0 <= index < q * self.r:
                raise ValueError(f"MSR-mode parity index {index} out of range")
            g, x = divmod(index, self.r)
            grp = store.msr_groups[g]
            node = self.msr.k + x
            shards = {i: grp[i] for i in range(self.msr.n) if i != node}
            res = self.msr.repair(node, shards)
            grp[node] = res.block
        self.repair_bytes_read += res.total_bytes_read
        return RecoveryReport(
            stripe=stripe,
            block=self.k + index,
            code=store.kind,
            bytes_read=res.total_bytes_read,
            conversions=conversions,
        )

    # -- conversions ----------------------------------------------------------------
    def _apply_conversions(self, conversions: list[Conversion]) -> None:
        for conv in conversions:
            store = self._stripes.get(conv.stripe)
            if store is None or store.kind is conv.target:
                continue
            if conv.target is CodeKind.MSR:
                self._to_msr(store)
            else:
                self._to_rs(store)

    def _accumulate(self, cost: TransformCost) -> None:
        self.transform_cost.data_blocks_read += cost.data_blocks_read
        self.transform_cost.parity_blocks_read += cost.parity_blocks_read
        self.transform_cost.blocks_written += cost.blocks_written
        self.transform_cost.gf_ops += cost.gf_ops

    def _to_msr(self, store: StripeStore) -> None:
        data = store.rs_blocks[: self.k]
        parity = store.rs_blocks[self.k :]
        result = self.transformer.rs_to_msr(data, parity)
        self._accumulate(result.cost)
        store.kind = CodeKind.MSR
        store.msr_groups = result.groups
        store.rs_blocks = None

    def _to_rs(self, store: StripeStore) -> None:
        parities = [g[self.r :] for g in store.msr_groups]
        result = self.transformer.msr_to_rs(parities)
        self._accumulate(result.cost)
        blocks = np.empty((self.k + self.r, result.parity.shape[1]), dtype=np.uint8)
        for b in range(self.k):
            blocks[b] = store.msr_groups[b // self.r][b % self.r]
        blocks[self.k :] = result.parity
        store.kind = CodeKind.RS
        store.rs_blocks = blocks
        store.msr_groups = None

    # -- lifecycle ---------------------------------------------------------------------
    def delete(self, stripe: Hashable) -> None:
        """Remove a stripe: frees its blocks and forgets its policy state.

        Deleting clears the stripe from both tracking queues without
        counting as an eviction, so Algorithm 1's trigger 3 never fires
        for a stripe that no longer exists.
        """
        if stripe not in self._stripes:
            raise KeyError(f"unknown stripe {stripe!r}")
        del self._stripes[stripe]
        self.selector.queue1.remove(stripe)
        self.selector.queue2.remove(stripe)
        self.selector._flags.pop(stripe, None)
        self.selector._writes.pop(stripe, None)
        self.selector._recoveries.pop(stripe, None)

    def __contains__(self, stripe: Hashable) -> bool:
        return stripe in self._stripes

    def __len__(self) -> int:
        return len(self._stripes)

    # -- reporting ---------------------------------------------------------------------
    def storage_overhead(self) -> float:
        """Current average ρ = stored blocks / data blocks across stripes."""
        if not self._stripes:
            return (self.k + self.r) / self.k
        total = 0.0
        for store in self._stripes.values():
            if store.kind is CodeKind.RS:
                total += (self.k + self.r) / self.k
            else:
                total += sum(g.shape[0] for g in store.msr_groups) / self.k
        return total / len(self._stripes)

    def stats(self) -> dict[str, float]:
        """Selector counters plus transformation/repair traffic."""
        return {
            **self.selector.stats(),
            "stripes": len(self._stripes),
            "storage_overhead": self.storage_overhead(),
            "transform_blocks_read": self.transform_cost.blocks_read,
            "transform_blocks_written": self.transform_cost.blocks_written,
            "repair_bytes_read": self.repair_bytes_read,
        }
