"""Pinned digests of open-mode ``run_workload`` results.

Open mode starts every trace request, failure and node storm at its own
timestamp.  How those starts are scheduled must not move any simulated
event relative to another, so these scenarios (failures, a node storm,
tied timestamps, adaptive conversions, a chaos storm with invariant
sweeps, and snapshot sampling whose ticks coincide with arrivals) pin
the full result of each run.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos import ChaosConfig, ChaosProfile
from repro.cluster import ClusterConfig, run_workload
from repro.fusion.costmodel import SystemProfile
from repro.hybrid import ECFusionPlanner, RSPlanner
from repro.telemetry import SNAPSHOTS
from repro.workloads import FailureEvent, NodeFailureEvent, OpType, Request, Trace

GAMMA = 1024.0 * 1024


def _tied_trace(n: int = 48, stripes: int = 6) -> Trace:
    """Arrivals in bursts of three at identical, exactly representable times."""
    return Trace(
        name="tied",
        requests=[
            Request(
                time=0.25 * (i // 3),
                op=OpType.WRITE if i % 5 == 0 else OpType.READ,
                stripe=i % stripes,
                block=i % 4,
            )
            for i in range(n)
        ],
    )


# failures land exactly on arrival times, two at once at t = 1.0
FAILURES = [
    FailureEvent(time=0.0, stripe=1, block=2),
    FailureEvent(time=1.0, stripe=2, block=0),
    FailureEvent(time=1.0, stripe=3, block=1),
    FailureEvent(time=2.5, stripe=1, block=3),
]


def _rs_failures_storm():
    return run_workload(
        RSPlanner(4, 2, GAMMA),
        _tied_trace(),
        FAILURES,
        ClusterConfig(num_nodes=12, profile=SystemProfile(gamma=GAMMA)),
        mode="open",
        node_failures=[NodeFailureEvent(time=2.0, node=3)],
    )


def _ecfusion_conversions():
    return run_workload(
        ECFusionPlanner(4, 2, GAMMA, queue_capacity=2),
        _tied_trace(),
        FAILURES,
        ClusterConfig(num_nodes=12, profile=SystemProfile(gamma=GAMMA)),
        mode="open",
    )


#: the storm's fault families packed into the trace's 8 simulated seconds
SHORT_STORM = ChaosProfile(
    name="short-storm", horizon=8.0, slowdowns=6, partitions=3, corruptions=3,
    scrub_interval=1.0, partition_duration=(0.5, 2.0), slowdown_duration=(1.0, 4.0),
)


def _chaos_storm():
    return run_workload(
        RSPlanner(4, 2, GAMMA),
        _tied_trace(n=90),
        FAILURES,
        ClusterConfig(num_nodes=8, racks=2),
        mode="open",
        chaos=ChaosConfig(profile=SHORT_STORM, seed=3, verify_invariants=True,
                          invariant_interval=0.25),
    )


def _snapshots():
    SNAPSHOTS.clear()
    SNAPSHOTS.enable(interval=0.5)
    try:
        res = run_workload(
            RSPlanner(4, 2, GAMMA),
            _tied_trace(),
            FAILURES,
            ClusterConfig(num_nodes=12, profile=SystemProfile(gamma=GAMMA)),
            mode="open",
        )
        series = [s.to_dict() for s in SNAPSHOTS.series]
    finally:
        SNAPSHOTS.disable()
        SNAPSHOTS.clear()
    return res, series


def _digest(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


SCENARIOS = {
    "rs_failures_storm": (
        _rs_failures_storm,
        "6590a7e6ba828d7ca9de420e7b8bbd8d9050c591ccdc081b9d74b8d5fc548d7b",
    ),
    "ecfusion_conversions": (
        _ecfusion_conversions,
        "4d856bcdec715db05faa6f0e746cdf6c7349ae3dd2aadac360de1ddf00afb7bb",
    ),
    "chaos_storm": (
        _chaos_storm,
        "4ccf7eaf05eeca91781139dc3c8f03bc1bbb865ff2610085b7fb8ae97bbab2ce",
    ),
    "snapshots": (
        _snapshots,
        "dc8774d1183d91ef62b731f57c1262672b76cd5c54a3f1a9e38074712ee4355e",
    ),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_open_mode_results_pinned(name):
    run, pinned = SCENARIOS[name]
    out = run()
    res, extra = out if isinstance(out, tuple) else (out, None)
    assert res.read_latencies or res.write_latencies
    assert _digest(dataclasses.asdict(res), extra) == pinned
