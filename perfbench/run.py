"""EC-Fusion benchmark: one command, four seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bytes_fusion --seed 1 --seconds 20 --trace 0

Each measurement runs in a fresh interpreter (``perfbench/measure.py``).
With ``--trace 0`` one untraced measurement gives every end-to-end
metric of BENCHMARK.json.  With ``--trace 1`` an untraced and a traced
measurement of the same seed run one after the other; the traced one
gives every per-layer metric, its simulated results must equal the
untraced ones, and ``trace.overhead_ratio`` is traced over untraced wall
time of the timed phase.

The script prints a table of the metrics (name, value, unit, direction,
sample counts) and the host fingerprint, then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts operations that broke a correctness check; requests
the simulated store rejects under chaos are an outcome of the scenario
and are reported by ``success_ratio``.  Any failed check makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: everything a run leaves behind goes here (git-ignored)
BUILD_DIR = ".bench_build"
#: a run whose measurements have not finished by then has failed
DEADLINE_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure(root: str, args, traced: bool, deadline: float) -> dict:
    """Run one measurement in a fresh interpreter; returns its JSON."""
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"  # set/dict order of str keys must not vary
    env["TMPDIR"] = tmp  # the native GF kernel is compiled and cached here
    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--traced", str(int(traced)),
    ]
    if traced:
        cmd += ["--spans", os.path.join(root, BUILD_DIR, f"spans-{args.workload}.jsonl")]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"measurement exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("measurement printed no result")
    return json.loads(lines[-1])


def render(spec: list, values: dict, samples: dict) -> str:
    rows = [f"{'metric':40s} {'value':>16s}  {'unit':8s} better"]
    for m in spec:
        rows.append(f"{m['name']:40s} {values[m['name']]:16.6g}  {m['unit']:8s}"
                    f" {m.get('better', '')}")
    if samples:
        rows.append("samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="EC-Fusion benchmark (see BENCHMARK.json)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return fail("no src/repro here; run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; pick from {names}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        plain = measure(root, args, traced=False, deadline=deadline)
        traced = measure(root, args, traced=True, deadline=deadline) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"{args.workload}: {exc}")

    errors = list(plain["errors"])
    if args.trace:
        spec = bench["per_layer"]
        errors += [f"traced: {e}" for e in traced["errors"]]
        if traced["digest"] != plain["digest"]:
            errors.append("traced run's simulated results differ from the untraced run's")
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    else:
        spec = bench["end_to_end"]
        values = plain["metrics"]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        return fail(f"{args.workload}: no value for {missing}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("host " + json.dumps(plain["fingerprint"], sort_keys=True))
    print(render(spec, values, plain["samples"]))
    if args.trace:
        print(f"spans recorded: {traced['spans']}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": int(plain["attempted"]),
        "failed": int(plain["failed"]) if correct else int(plain["attempted"]),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
