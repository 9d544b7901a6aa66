"""Shared fixtures for the benchmark harness.

Simulation-backed benches share one memoised campaign configuration so the
full suite (`pytest benchmarks/ --benchmark-only`) finishes in about a
minute.  Every bench writes its rendered figure/table to
``benchmarks/results/`` as both ``{name}.txt`` (human-readable) and
``{name}.json`` (machine-readable, schema ``repro.bench-result/v1``) and
echoes it, so the regenerated rows/series the paper reports are
inspectable — and diffable by tooling — after a run.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import ExperimentConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: schema tag stamped into every ``results/{name}.json``
BENCH_RESULT_SCHEMA = "repro.bench-result/v1"

#: result-name roots whose structured entries also maintain a committed
#: repo-root baseline (``BENCH_kernels.json`` / ``BENCH_campaign.json`` /
#: ``BENCH_serving.json`` / ``BENCH_durability.json`` /
#: ``BENCH_tournament.json``) that CI's perf-smoke job diffs against a
#: fresh run
BASELINE_ROOTS = ("kernels", "campaign", "serving", "durability", "tournament")


def _update_baseline(root: str, entries: list[dict], fingerprint: dict | None = None) -> None:
    """Merge ``entries`` (keyed by entry name) into ``BENCH_{root}.json``.

    Merging instead of overwriting lets the several ``bench_{root}*``
    tests each contribute their rows to one committed baseline file, in
    any order, and keeps the file byte-stable across reruns that produce
    the same numbers.  A ``fingerprint`` (the host the numbers ran on)
    is stamped into the envelope.
    """
    path = REPO_ROOT / f"BENCH_{root}.json"
    merged: dict[str, dict] = {}
    if path.exists():
        try:
            for entry in json.loads(path.read_text()).get("entries", []):
                merged[entry["name"]] = entry
        except (ValueError, KeyError, TypeError):
            pass  # unreadable baseline: rebuild it from this run
    for entry in entries:
        merged[entry["name"]] = entry
    envelope = {
        "schema": BENCH_RESULT_SCHEMA,
        "name": root,
        "entries": [merged[name] for name in sorted(merged)],
    }
    if fingerprint:
        envelope["fingerprint"] = fingerprint
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The campaign configuration all simulation benches share."""
    return ExperimentConfig()


@pytest.fixture(scope="session")
def save_result():
    """Writer that persists rendered figure text next to the benches.

    ``_save(name, text)`` keeps writing the legacy ``{name}.txt`` and now
    also leaves ``{name}.json`` with the same content wrapped in a
    versioned envelope.  Benches with structured series pass them via the
    optional ``data`` keyword and they land under the envelope's ``data``
    key; plain-text callers need no change.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, data: object = None) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        envelope = {"schema": BENCH_RESULT_SCHEMA, "name": name, "text": text}
        if data is not None:
            envelope["data"] = data
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        )
        root = name.split("_", 1)[0]
        if root in BASELINE_ROOTS and isinstance(data, dict) and "entries" in data:
            _update_baseline(root, data["entries"], data.get("fingerprint"))
        print(f"\n{text}\n")

    return _save
