"""One measurement of one workload, in a fresh interpreter.

``run.py`` starts this script once per measurement; it is not meant to
be run by hand, though it can be::

    PYTHONPATH=src python3 perfbench/measure.py --workload serve_zipf \\
        --seed 1 --seconds 10 --traced 0

It warms up (imports, the native GF kernel build and self-test, one
short pass of the workload), times the workload's set-up several times,
runs the timed phase once, checks its outputs and prints one JSON
object as its last line.  The serving workloads have no set-up of their
own: ``run_serving`` sets up every episode inside the timed phase, and
the workload times those set-ups.  With ``--traced 1`` the layer
wrappers of :mod:`spans` record the last set-up and the timed phase,
and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

#: set-up repetitions before the timed phase, for the workloads that set
#: up outside it; setup_s is their median.  The serving workloads time the
#: set-ups ``run_serving`` does inside the timed phase instead.
SETUP_REPS = {
    "bytes_fusion": 5,
    "paper_campaign": 5,
}


def fingerprint() -> dict:
    """Host and toolchain the numbers were measured on."""
    import numpy

    from repro.gf.backends import available_backends
    from repro.gf.native import native_available

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "gf_backends": list(available_backends()),
        "gf_native": native_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def layer_metrics(rec: spans.Recorder, outcome: workloads.Outcome) -> dict:
    """Per-layer metrics of a traced run (names as in BENCHMARK.json)."""
    s = spans.span_summary(rec)
    c = rec.counts
    lay = outcome.layers

    def row(name):
        return s.get(name, {"calls": 0, "busy": 0.0, "self": 0.0, "bytes": 0.0})

    def mbps(nbytes, secs):
        return nbytes / secs / 1e6 if secs else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    gf = row("gf")
    m["gf.calls"] = gf["calls"]
    m["gf.busy_s"] = gf["busy"]
    m["gf.MBps"] = mbps(gf["bytes"], gf["busy"])
    enc, rep = row("codes.encode"), row("codes.repair")
    m["codes.encode.calls"] = enc["calls"]
    m["codes.encode.self_s"] = enc["self"]
    m["codes.repair.calls"] = rep["calls"]
    m["codes.repair.self_s"] = rep["self"]
    m["codes.repair.bytes_read"] = rep["bytes"]
    for direction in ("rs_to_msr", "msr_to_rs"):
        t = row(f"fusion.transform.{direction}")
        m[f"fusion.transform.{direction}.calls"] = t["calls"]
        m[f"fusion.transform.{direction}.busy_s"] = t["busy"]
        m[f"fusion.transform.{direction}.MBps"] = mbps(
            c[f"fusion.transform.{direction}.user_bytes"], t["busy"])
    m["fusion.transform.blocks_read"] = c["fusion.transform.blocks_read"]
    sel = row("fusion.selector")
    m["fusion.selector.calls"] = sel["calls"]
    m["fusion.selector.busy_s"] = sel["busy"]
    m["fusion.conversions"] = c["fusion.conversions"]
    m["fusion.conversion_useful_ratio"] = ratio(
        c["fusion.conversions.useful"], c["fusion.conversions"])
    m["fusion.store.self_s"] = row("fusion.store")["self"]
    plan = row("hybrid.plan")
    m["hybrid.plan.calls"] = plan["calls"]
    m["hybrid.plan.busy_s"] = plan["busy"]
    for scheme in ("RS", "MSR", "LRC", "HACFS", "EC-Fusion"):
        for metric in ("read_p99_sim_ms", "repair_p90_sim_ms", "storage_overhead"):
            key = f"hybrid.{scheme}.{metric}"
            m[key] = lay.get(key, 0.0)
    des = row("cluster.des.run")
    issued = lay.get("issued", 0)
    m["cluster.des.events"] = c["cluster.des.events"] + c["cluster.des.steps"]
    m["cluster.des.events_per_op"] = ratio(m["cluster.des.events"], issued)
    m["cluster.des.run_s"] = des["busy"]
    m["cluster.des.self_s"] = des["self"]
    m["cluster.resource.acquires"] = c["cluster.resource.acquires"]
    util = [cl.utilization() for cl in rec.clusters]
    m["cluster.nic_busy_ratio"] = ratio(sum(u["nic"] for u in util), len(util))
    m["cluster.disk_busy_ratio"] = ratio(sum(u["disk"] for u in util), len(util))
    m["cluster.recovery.submits"] = c["cluster.recovery.submits"]
    m["cluster.recovery.retry_ratio"] = ratio(
        lay.get("chaos.repair_retries", 0), c["cluster.recovery.submits"])
    m["server.gets"] = c["server.gets"]
    m["server.puts"] = c["server.puts"]
    m["server.degraded_reads"] = lay.get("server.degraded_reads", 0)
    m["server.piggyback_ratio"] = lay.get("server.piggyback_ratio", 0.0)
    m["server.failed.partition"] = (
        c["server.gets.failed.PartitionError"] + c["server.puts.failed.PartitionError"])
    m["server.failed.dead_node"] = (
        c["server.gets.failed.DeadNodeError"] + c["server.puts.failed.DeadNodeError"])
    m["chaos.faults_applied"] = lay.get("chaos.faults_applied", 0)
    m["chaos.partition_timeouts"] = lay.get("chaos.partition_timeouts", 0)
    m["chaos.conversion_commit_ratio"] = ratio(
        lay.get("chaos.conversions_committed", 0),
        lay.get("chaos.conversions_committed", 0) + lay.get("chaos.conversions_aborted", 0))
    m["workloads.gen_s"] = row("workloads.gen")["busy"]
    for scheme in ("RS", "MSR", "LRC", "HACFS", "EC-Fusion"):
        for trace in ("mds1", "rsrch2", "web1", "rsrch0"):
            key = f"experiments.cell_s.{scheme}.{trace}"
            m[key] = lay.get(key, 0.0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    from repro.gf.native import kernel

    kernel()  # build (or load) and self-test the native GF kernel
    probes = workloads.Probes()
    wl = workloads.make(args.workload, args.seed, args.seconds, probes)
    wl.warm()

    rec = spans.Recorder()
    if args.traced:
        spans.instrument(rec, wl.gen_modules())
    setup_times: list[float] = []
    state = None
    for i in range(SETUP_REPS.get(args.workload, 0)):
        state = None
        gc.collect()
        # a traced run records the set-up it keeps, the last one
        rec.enabled = bool(args.traced) and i == SETUP_REPS[args.workload] - 1
        t = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t)
    gc.collect()
    rec.enabled = bool(args.traced)
    outcome = wl.run(state, rec if args.traced else None)
    rec.enabled = False
    setup_times += outcome.setups

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "wall_s": outcome.wall_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "digest": outcome.digest,
        "samples": outcome.samples,
        "setup_runs_s": setup_times,
        "metrics": {"setup_s": statistics.median(setup_times), **outcome.metrics},
        "fingerprint": fingerprint(),
    }
    if args.traced:
        result["layers"] = layer_metrics(rec, outcome)
        result["spans"] = len(rec.spans)
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
