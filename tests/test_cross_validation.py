"""Cross-validation: the byte-carrying framework vs the simulator planner.

``repro.fusion.ECFusion`` (moves real data) and
``repro.hybrid.ECFusionPlanner`` (emits cost plans) wrap the same
``AdaptiveSelector``.  For any event sequence the two must agree on every
stripe's code, and the planner's cost claims must match what the framework
actually moved — otherwise the simulated experiments would measure a
policy different from the implemented one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import CodeKind, ECFusion, SystemProfile
from repro.hybrid import ECFusionPlanner, PlanKind

K, R = 6, 3
PROFILE = SystemProfile()


def make_pair(queue_capacity=64):
    fusion = ECFusion(k=K, r=R, profile=PROFILE, queue_capacity=queue_capacity)
    planner = ECFusionPlanner(
        K, R, PROFILE.gamma, profile=PROFILE, queue_capacity=queue_capacity
    )
    return fusion, planner


def drive(fusion, planner, events, rng):
    """Apply the same event stream to both layers."""
    data_cache = {}
    for op, stripe, block in events:
        if op == "w":
            data = rng.integers(0, 256, (K, 9 * 4), dtype=np.uint8)
            data_cache[stripe] = data
            fusion.write(stripe, data)
            planner.plan_write(stripe)
        elif op == "r":
            if stripe in data_cache:
                fusion.read(stripe, block)
                planner.plan_read(stripe, block)
        else:  # recovery
            if stripe in data_cache:
                fusion.recover(stripe, block)
                planner.plan_recovery(stripe, block)
    return data_cache


# A compact event alphabet: ops over 3 stripes and blocks 0..K-1
event_strategy = st.lists(
    st.tuples(
        st.sampled_from(["w", "r", "f"]),
        st.sampled_from(["s0", "s1", "s2"]),
        st.integers(min_value=0, max_value=K - 1),
    ),
    min_size=1,
    max_size=40,
)


class TestFlagAgreement:
    def test_simple_sequence(self):
        fusion, planner = make_pair()
        rng = np.random.default_rng(0)
        events = [("w", "a", 0), ("f", "a", 1), ("r", "a", 2), ("w", "a", 0)]
        drive(fusion, planner, events, rng)
        assert fusion.code_of("a") is planner.code_of("a")

    @settings(max_examples=25, deadline=None)
    @given(events=event_strategy, seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_prop_codes_always_agree(self, events, seed):
        fusion, planner = make_pair()
        rng = np.random.default_rng(seed)
        drive(fusion, planner, events, rng)
        for stripe in ("s0", "s1", "s2"):
            assert fusion.code_of(stripe) is planner.code_of(stripe), stripe

    @settings(max_examples=15, deadline=None)
    @given(events=event_strategy, seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_prop_data_survives_any_sequence(self, events, seed):
        fusion, planner = make_pair()
        rng = np.random.default_rng(seed)
        data_cache = drive(fusion, planner, events, rng)
        for stripe, data in data_cache.items():
            assert np.array_equal(fusion.read_stripe(stripe), data), stripe


class TestCostAgreement:
    def test_conversion_plan_matches_real_transform_traffic(self):
        """Planner's RS→MSR plan must read/write what the transformer does."""
        fusion, planner = make_pair()
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, (K, 9 * 4), dtype=np.uint8)
        fusion.write("s", data)
        planner.plan_write("s")

        report = fusion.recover("s", 0)
        plans = planner.plan_recovery("s", 0)
        assert report.code is CodeKind.MSR
        conv = [p for p in plans if p.kind is PlanKind.CONVERSION]
        assert len(conv) == 1
        # block-granular traffic must match the transformer's accounting
        cost = fusion.transform_cost
        assert len([s for s in conv[0].reads if s < K]) == cost.data_blocks_read
        assert len([s for s in conv[0].reads if s >= K]) == cost.parity_blocks_read
        assert len(conv[0].writes) == cost.blocks_written

    def test_msr_repair_bytes_match(self):
        """Planner's MSR recovery read volume equals the real repair's."""
        fusion, planner = make_pair()
        rng = np.random.default_rng(2)
        L = 9 * 4
        data = rng.integers(0, 256, (K, L), dtype=np.uint8)
        fusion.write("s", data)
        planner.plan_write("s")
        fusion.recover("s", 0)
        planner.plan_recovery("s", 0)

        report = fusion.recover("s", 1)  # second failure: pure MSR repair
        plans = planner.plan_recovery("s", 1)
        rec = plans[-1]
        assert rec.kind is PlanKind.RECOVERY
        planned_fraction = sum(rec.reads.values()) / planner.gamma
        actual_fraction = report.bytes_read / L
        assert planned_fraction == pytest.approx(actual_fraction)

    def test_rs_repair_bytes_match(self):
        fusion, planner = make_pair()
        rng = np.random.default_rng(3)
        L = 9 * 4
        data = rng.integers(0, 256, (K, L), dtype=np.uint8)
        for _ in range(10):  # keep δ high: stripe stays RS
            fusion.write("s", data)
            planner.plan_write("s")
        report = fusion.recover("s", 0)
        plans = planner.plan_recovery("s", 0)
        assert report.code is CodeKind.RS
        rec = plans[-1]
        assert sum(rec.reads.values()) / planner.gamma == pytest.approx(
            report.bytes_read / L
        )

    def test_storage_overhead_agrees(self):
        fusion, planner = make_pair()
        rng = np.random.default_rng(4)
        for s in ("a", "b", "c", "d"):
            fusion.write(s, rng.integers(0, 256, (K, 9 * 2), dtype=np.uint8))
            planner.plan_write(s)
        fusion.recover("a", 0)
        planner.plan_recovery("a", 0)
        assert fusion.storage_overhead() == pytest.approx(planner.storage_overhead())

    def test_storage_overhead_agrees_when_r_does_not_divide_k(self):
        """(8, 3): the last MSR group's virtual node is not stored, so an
        MSR stripe costs (k + q·r)/k = 17/8, not q·2r/k = 18/8."""
        k, r = 8, 3
        fusion = ECFusion(k=k, r=r, profile=PROFILE)
        planner = ECFusionPlanner(k, r, PROFILE.gamma, profile=PROFILE)
        rng = np.random.default_rng(5)
        for s in ("a", "b", "c", "d"):
            fusion.write(s, rng.integers(0, 256, (k, 9 * 2), dtype=np.uint8))
            planner.plan_write(s)
        fusion.recover("a", 0)
        planner.plan_recovery("a", 0)
        assert fusion.code_of("a") is CodeKind.MSR
        assert planner.storage_overhead() == pytest.approx((3 * 11 + 17) / 32)
        assert fusion.storage_overhead() == pytest.approx(planner.storage_overhead())


class TestComputeAccountingCoherence:
    def test_transform_gf_ops_match_planner_formula(self):
        """The transformer's measured gf_ops equal the planner's closed form."""
        import numpy as np

        from repro.fusion import FusionTransformer

        k, r = 6, 3
        tr = FusionTransformer(k, r)
        L = tr.subpacketization * 8
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, (k, L), dtype=np.uint8)
        coded = tr.rs.encode(data)
        fwd = tr.rs_to_msr(data, coded[k:])
        q, l = tr.q, tr.subpacketization
        expected_fwd = (q - 1) * r * r * L + q * r * r * l * L
        assert fwd.cost.gf_ops == pytest.approx(expected_fwd)
        back = tr.msr_to_rs([g[r:] for g in fwd.groups])
        assert back.cost.gf_ops == pytest.approx(q * r * r * l * L)
