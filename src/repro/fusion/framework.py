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
from .transform import FusionTransformer, TransformCost, msr_groups

__all__ = ["StripeStore", "RecoveryReport", "ECFusion"]


@dataclass
class StripeStore:
    """Physical representation of one stripe: its data and current parity.

    ``data`` holds the (k, L) data blocks, which no conversion moves.
    ``parity`` is the (r, L) RS parity when ``kind == RS`` and the q MSR
    groups' parities, (q·r, L) group-major, when ``kind == MSR``.
    ``rs_blocks`` ((k+r, L) codeword) and ``msr_groups`` (q arrays of
    shape (2r, L)) assemble copies of the stripe in the current code on
    read, ``None`` in the other code.
    """

    kind: CodeKind
    data: np.ndarray
    parity: np.ndarray
    r: int

    @property
    def rs_blocks(self) -> np.ndarray | None:
        if self.kind is not CodeKind.RS:
            return None
        return np.concatenate([self.data, self.parity])

    @property
    def msr_groups(self) -> list[np.ndarray] | None:
        if self.kind is not CodeKind.MSR:
            return None
        return msr_groups(self.data, self.parity, self.r)


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

    def _nodes(self, store: StripeStore, group: int) -> list[np.ndarray]:
        """The node blocks of the code serving a stripe, as views in node order.

        RS: the k data then the r parity rows.  MSR: group ``group``'s r
        data rows (zero blocks for the virtual nodes padding the last
        group when r ∤ k), then its r parities.
        """
        if store.kind is CodeKind.RS:
            return [*store.data, *store.parity]
        span = slice(group * self.r, (group + 1) * self.r)
        rows = [*store.data[span]]
        if len(rows) < self.r:
            rows += [np.zeros(store.data.shape[1], np.uint8)] * (self.r - len(rows))
        return rows + [*store.parity[span]]

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
            coded = self.rs.encode(data)  # the store's own copy of the data
            data, parity = coded[: self.k], coded[self.k :]
        else:
            data = data.copy()
            parity = self.transformer.msr_parity(data)
        self._stripes[stripe] = StripeStore(kind, data, parity, self.r)
        return conversions

    def read(self, stripe: Hashable, block: int) -> np.ndarray:
        """Read one data block (always available systematically)."""
        if not 0 <= block < self.k:
            raise ValueError(f"data block index {block} out of range")
        store = self._locate(stripe)
        if METRICS.enabled:
            METRICS.counter("fusion.store.reads", unit="blocks").inc()
        self._apply_conversions(self.selector.on_read(stripe))
        return store.data[block]

    def read_stripe(self, stripe: Hashable) -> np.ndarray:
        """All k data blocks of a stripe, shape (k, L)."""
        return self._locate(stripe).data

    # -- recovery path -------------------------------------------------------------
    def recover(self, stripe: Hashable, block: int) -> RecoveryReport:
        """Reconstruct one lost data block under the adaptive policy.

        The Queue2 insertion happens first (Algorithm 1), so a stripe may
        convert to MSR *before* the repair proper — mirroring the paper's
        rule that recovery-prone blocks should already sit in the
        repair-friendly code for subsequent failures.
        """
        return self._rebuild(stripe, block, parity=False)

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
        return self._rebuild(stripe, block, parity=False, chunk_size=chunk_size)

    def recover_parity(self, stripe: Hashable, index: int) -> RecoveryReport:
        """Reconstruct one lost parity block.

        ``index`` addresses the parity in the stripe's *current* layout:
        ``0..r-1`` in RS mode, ``0..q·r-1`` (group-major) in MSR mode.
        Parity loss counts as a recovery event for Algorithm 1 exactly
        like data loss — the stripe is evidently failure-prone.
        """
        return self._rebuild(stripe, index, parity=True)

    def _rebuild(
        self, stripe: Hashable, row: int, parity: bool, chunk_size: int | None = None
    ) -> RecoveryReport:
        """Repair data row ``row`` (or parity row, if ``parity``) in place."""
        if not parity and not 0 <= row < self.k:
            raise ValueError(f"data block index {row} out of range")
        conversions = self.selector.on_recovery(stripe)
        self._apply_conversions(conversions)
        store = self._locate(stripe)
        if parity and not 0 <= row < store.parity.shape[0]:
            raise ValueError(f"{store.kind.name}-mode parity index {row} out of range")
        if store.kind is CodeKind.RS:
            code, group, node = self.rs, 0, row + self.k * parity
        else:
            code = self.msr
            group, node = divmod(row, self.r)
            node += self.msr.k * parity
        nodes = self._nodes(store, group)
        shards = {i: b for i, b in enumerate(nodes) if i != node}
        if chunk_size is None:
            res = code.repair(node, shards)
        else:
            res = code.repair_streamed(node, shards, chunk_size=chunk_size)
        nodes[node][...] = res.block
        self.repair_bytes_read += res.total_bytes_read
        if METRICS.enabled and not parity:
            METRICS.counter("fusion.store.recoveries", unit="blocks").inc()
            METRICS.counter("fusion.store.repair_bytes_read", unit="bytes").inc(
                res.total_bytes_read
            )
        return RecoveryReport(
            stripe=stripe,
            block=row + self.k * parity,
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

    # Both directions replace only the stripe's parity; its data stays put.
    def _to_msr(self, store: StripeStore) -> None:
        result = self.transformer.rs_to_msr(store.data, store.parity)
        self._accumulate(result.cost)
        store.kind, store.parity = CodeKind.MSR, result.parity

    def _to_rs(self, store: StripeStore) -> None:
        groups = store.parity.reshape(self.transformer.q, self.r, -1)
        result = self.transformer.msr_to_rs(list(groups))
        self._accumulate(result.cost)
        store.kind, store.parity = CodeKind.RS, result.parity

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
        """Current average ρ = stored blocks / data blocks across stripes.

        An MSR stripe stores k + q·r blocks: the virtual nodes padding its
        last group (r ∤ k) are never stored.
        """
        if not self._stripes:
            return (self.k + self.r) / self.k
        total = sum(self.k + store.parity.shape[0] for store in self._stripes.values())
        return total / self.k / len(self._stripes)

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
