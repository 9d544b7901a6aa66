"""The benchmark's four seeded workloads.

Each workload turns ``(seed, seconds)`` into its inputs, times its
set-up, runs a timed phase of a fixed amount of work sized so that it
takes about ``seconds`` on the reference host, and checks every output.
The amount of work depends only on ``seconds``, never on how fast the
host is, so simulated-time metrics and counts repeat exactly for a
given seed.

* ``bytes_fusion``: real bytes through :class:`repro.fusion.ECFusion`.
* ``serve_zipf``: :func:`repro.server.run_serving` at the knee.
* ``paper_campaign``: the Figs. 16-19 replay through
  :func:`repro.cluster.run_workload`, cell by cell.
* ``serve_partitions``: serving under the ``partitions`` chaos profile.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter

#: The serving SLO of BENCH_serving.json: 50 ms for a 256 KiB chunk.  Other
#: chunk sizes scale it linearly, so a request that moves the same number
#: of chunks has the same budget on every workload.
SLO_S = 0.050
SLO_CHUNK = 256 * 1024


def slo_for(chunk_bytes: float) -> float:
    """Latency budget (s) for a request over chunks of ``chunk_bytes``."""
    return SLO_S * chunk_bytes / SLO_CHUNK


def sub_seed(seed: int, *salt: int) -> int:
    """A 32-bit seed derived from the workload seed and a salt."""
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


def pct_ms(samples: list[float], q: float) -> float:
    """Exact nearest-rank percentile of latencies in seconds, as ms."""
    from repro.telemetry.spans import nearest_rank

    if not samples:
        return 0.0
    return 1e3 * nearest_rank(sorted(samples), q)


def zipf_cdf(n: int, theta: float) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), theta)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def digest(*parts) -> str:
    """Stable hash of simulated results (floats by exact ``repr``)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """What one timed phase produced."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: end-to-end metric name -> value (units live in BENCHMARK.json)
    metrics: dict = field(default_factory=dict)
    #: sample counts behind the percentile metrics
    samples: dict = field(default_factory=dict)
    digest: str = ""
    errors: list = field(default_factory=list)
    #: per-layer values computed from the program's own results
    layers: dict = field(default_factory=dict)
    #: wall times of set-ups the program performs inside the run (s)
    setups: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


class Probes:
    """Counters every run needs for its end-to-end metrics.

    They wrap three cheap, rarely called entry points (a few thousand
    calls per run): the EC-Fusion planner's recovery plans, for the blocks
    read per repair; the serving config's planner factory, to read the
    planner's storage overhead once the run ends; and ``Simulator.run``,
    whose entry time ends the set-up ``run_serving`` does before its
    simulation starts.
    """

    def __init__(self):
        from repro.cluster import Simulator
        from repro.hybrid import SchemePlanner
        from repro.hybrid.fusion_planner import ECFusionPlanner
        from repro.hybrid.plans import PlanKind
        from repro.server.store import ServerConfig

        self.repairs = 0
        self.repair_bytes = 0.0
        self.planners: list = []
        self._degraded = 0
        #: when ``Simulator.run`` was last entered (``clock()``)
        self.sim_started = 0.0
        probes = self

        plan_recovery = ECFusionPlanner.plan_recovery
        plan_degraded = SchemePlanner.plan_degraded_read

        def counted_recovery(planner, stripe, block):
            plans = plan_recovery(planner, stripe, block)
            if not probes._degraded:
                for plan in plans:
                    if plan.kind is PlanKind.RECOVERY:
                        probes.repairs += 1
                        probes.repair_bytes += plan.bytes_read / planner.gamma
            return plans

        def degraded(planner, stripe, block):
            # a degraded read plans a reconstruction but is not a repair
            probes._degraded += 1
            try:
                return plan_degraded(planner, stripe, block)
            finally:
                probes._degraded -= 1

        make_scheme = ServerConfig.make_scheme

        def captured(config):
            planner = make_scheme(config)
            probes.planners.append(planner)
            return planner

        sim_run = Simulator.run

        def stamped(sim, *args, **kwargs):
            probes.sim_started = clock()
            return sim_run(sim, *args, **kwargs)

        ECFusionPlanner.plan_recovery = counted_recovery
        ECFusionPlanner.plan_degraded_read = degraded
        ServerConfig.make_scheme = captured
        Simulator.run = stamped

    def reset(self) -> None:
        self.repairs = 0
        self.repair_bytes = 0.0
        self.planners.clear()

    def repair_read_blocks(self) -> float:
        return self.repair_bytes / self.repairs if self.repairs else 0.0


# -- bytes_fusion -------------------------------------------------------------


class BytesFusion:
    """Real-byte EC-Fusion store: RS(8,3) <-> MSR(6,3) on 1.125 MiB blocks.

    A zipf(0.99) stream of 30% full-stripe writes, 50% block reads and
    20% block recoveries over 24 stripes (three times Queue2's capacity
    of 8), with payloads drawn from a pool before timing.

    The sequence of (operation, popularity rank) pairs is one fixed
    template, the same for every seed: conversions take most of the
    timed phase, and with a seed-drawn sequence their count varied by
    about 8% between seeds, which moved throughput by about 15%.  The
    seed permutes which stripe holds each rank and draws the blocks, the
    payload bytes and the payload each write stores.

    The store has no clock of its own, so its ``*_sim_ms`` latencies are
    service times: the bytes an operation really moved -- its own blocks
    plus the conversion traffic it triggered -- over one 1 Gbps link
    (``SystemProfile.lam``).  No queueing is modelled.
    """

    K, R = 8, 3
    BLOCK = 9 * 128 * 1024  # 1.125 MiB, a multiple of MSR's l = 9
    STRIPES = 24
    QUEUE = 8
    POOL = 8
    MIX = (0.3, 0.5, 0.2)  # write, read, recover
    THETA = 0.99
    #: operations in the timed phase per requested second
    OPS_PER_SECOND = 60
    TEMPLATE_SEED = 0
    WRITE, READ, RECOVER = 0, 1, 2

    def __init__(self, seed: int, seconds: float, probes: Probes):
        self.seed = seed
        self.ops = max(20, int(round(self.OPS_PER_SECOND * seconds)))

    def gen_modules(self) -> list:
        return []

    def template(self, ops: int) -> tuple[list, list]:
        """The fixed (operation, popularity rank) sequence."""
        rng = np.random.default_rng(self.TEMPLATE_SEED)
        u = rng.random(ops)
        kinds = np.where(u < self.MIX[0], self.WRITE,
                         np.where(u < self.MIX[0] + self.MIX[1], self.READ, self.RECOVER))
        ranks = np.searchsorted(zipf_cdf(self.STRIPES, self.THETA), rng.random(ops),
                                side="right")
        return kinds.tolist(), np.minimum(ranks, self.STRIPES - 1).tolist()

    def schedule(self, ops: int) -> dict:
        kinds, ranks = self.template(ops)
        rng = np.random.default_rng(sub_seed(self.seed, 1))
        perm = rng.permutation(self.STRIPES)
        return {
            "kind": kinds,
            "stripe": [int(perm[r]) for r in ranks],
            "block": rng.integers(self.K, size=ops).tolist(),
            "payload": rng.integers(self.POOL, size=ops).tolist(),
            "preload": rng.integers(self.POOL, size=self.STRIPES).tolist(),
        }

    def setup(self, ops: int | None = None) -> dict:
        from repro.fusion import ECFusion

        ops = self.ops if ops is None else ops
        sched = self.schedule(ops)
        rng = np.random.default_rng(sub_seed(self.seed, 2))
        nbytes = self.POOL * self.K * self.BLOCK
        pool = np.frombuffer(rng.bytes(nbytes), dtype=np.uint8).reshape(
            self.POOL, self.K, self.BLOCK
        )
        fusion = ECFusion(self.K, self.R, queue_capacity=self.QUEUE)
        contents = {}
        for stripe, pid in enumerate(sched["preload"]):
            fusion.write(stripe, pool[pid])
            contents[stripe] = pid
        return {"fusion": fusion, "pool": pool, "sched": sched, "contents": contents}

    def warm(self) -> None:
        self.run(self.setup(ops=40))

    def run(self, state: dict, rec=None) -> Outcome:
        from repro.fusion import CodeKind
        from repro.fusion.costmodel import SystemProfile

        fusion, pool, sched, contents = (
            state["fusion"], state["pool"], state["sched"], state["contents"]
        )
        K, R, L = self.K, self.R, self.BLOCK
        q = -(-K // R)
        cost = fusion.transform_cost
        n = len(sched["kind"])
        out = Outcome(attempted=n)
        moved = np.empty(n)
        repair_blocks: list[float] = []
        write_wall = repair_wall = verify_wall = 0.0
        verified = 0
        ops = zip(sched["kind"], sched["stripe"], sched["block"], sched["payload"])
        start = clock()
        for i, (kind, stripe, block, pid) in enumerate(ops):
            if rec is not None:
                rec.op = i
            moved0 = cost.blocks_read + cost.blocks_written
            if kind == self.WRITE:
                t = clock()
                fusion.write(stripe, pool[pid])
                write_wall += clock() - t
                contents[stripe] = pid
                stored = K + (R if fusion.code_of(stripe) is CodeKind.RS else q * R)
                own = stored * L
                verified += 1  # checked by later reads and the final decode
            elif kind == self.READ:
                got = fusion.read(stripe, block)
                t = clock()
                ok = np.array_equal(got, pool[contents[stripe]][block])
                verify_wall += clock() - t
                verified += ok
                out.check(ok, f"op {i}: read of stripe {stripe} block {block} differs")
                own = L
            else:
                t = clock()
                rep = fusion.recover(stripe, block)
                repair_wall += clock() - t
                t = clock()
                ok = np.array_equal(fusion.read_stripe(stripe)[block],
                                    pool[contents[stripe]][block])
                verify_wall += clock() - t
                verified += ok
                out.check(ok, f"op {i}: rebuilt stripe {stripe} block {block} differs")
                repair_blocks.append(rep.bytes_read / L)
                own = rep.bytes_read + L
            moved[i] = own + (cost.blocks_read + cost.blocks_written - moved0) * L
        out.wall_s = clock() - start - verify_wall
        if rec is not None:
            rec.op = -1

        for stripe, pid in contents.items():
            out.check(self._decodes(fusion, stripe, pool[pid]),
                      f"stripe {stripe} does not decode to its payload")
        service = moved / SystemProfile().lam
        kinds = np.array(sched["kind"])
        by_kind = {k: service[kinds == k].tolist()
                   for k in (self.WRITE, self.READ, self.RECOVER)}
        writes = int((kinds == self.WRITE).sum())
        repairs = int((kinds == self.RECOVER).sum())
        out.failed = n - verified
        out.metrics = {
            "ops_per_s": n / out.wall_s,
            "write_MBps": writes * K * L / write_wall / 1e6 if write_wall else 0.0,
            "repair_MBps": repairs * L / repair_wall / 1e6 if repair_wall else 0.0,
            "read_p50_sim_ms": pct_ms(by_kind[self.READ], 0.50),
            "read_p99_sim_ms": pct_ms(by_kind[self.READ], 0.99),
            "write_p99_sim_ms": pct_ms(by_kind[self.WRITE], 0.99),
            "repair_p90_sim_ms": pct_ms(by_kind[self.RECOVER], 0.90),
            "slo_met_ratio": float((service <= slo_for(L)).mean()),
            "success_ratio": verified / n,
            "repair_read_blocks": sum(repair_blocks) / len(repair_blocks) if repair_blocks else 0.0,
            "storage_overhead": fusion.storage_overhead(),
        }
        out.samples = {"reads": n - writes - repairs, "writes": writes, "repairs": repairs}
        codes = sorted((s, fusion.code_of(s).value) for s in contents)
        out.digest = digest(moved.tolist(), repair_blocks, codes, out.metrics["storage_overhead"])
        return out

    def _decodes(self, fusion, stripe, payload: np.ndarray) -> bool:
        """Erase r data blocks (RS) or each group's data (MSR) and decode."""
        from repro.fusion import CodeKind

        store = fusion._stripes[stripe]
        K, R = self.K, self.R
        if store.kind is CodeKind.RS:
            blocks = store.rs_blocks
            shards = {i: blocks[i] for i in range(R, K + R)}
            return np.array_equal(fusion.rs.decode_data(shards), payload)
        data = []
        for grp in store.msr_groups:
            data.append(fusion.msr.decode_data({i: grp[i] for i in range(R, 2 * R)}))
        return np.array_equal(np.concatenate(data)[:K], payload)


# -- simulator workloads ----------------------------------------------------------


def _serving_layers(results: list) -> dict:
    degraded = sum(r.stats.get("degraded_reads", 0) for r in results)
    ridden = sum(r.stats.get("piggybacked_reads", 0) for r in results)
    layers = {
        "server.degraded_reads": degraded,
        "server.piggyback_ratio": ridden / degraded if degraded else 0.0,
        "chaos.faults_applied": 0,
        "chaos.partition_timeouts": 0,
        "chaos.repair_retries": 0,
        "chaos.conversions_committed": 0,
        "chaos.conversions_aborted": 0,
    }
    for r in results:
        if r.chaos:
            layers["chaos.faults_applied"] += sum(r.chaos["applied"].values())
            layers["chaos.partition_timeouts"] += r.chaos["partition_timeouts"]
            layers["chaos.repair_retries"] += r.chaos["repair_retries"]
            layers["chaos.conversions_committed"] += r.chaos["conversions"]["committed"]
            layers["chaos.conversions_aborted"] += r.chaos["conversions"]["aborted"]
    return layers


class Serving:
    """Open-loop serving episodes through :func:`repro.server.run_serving`.

    The timed phase runs ``episodes`` independent episodes, each with its
    own derived workload seed, and pools their samples.  With a chaos
    profile, every episode's traffic runs twice, chaos off and chaos on:
    ``slo_met_ratio`` and ``success_ratio`` come from the chaos runs, the
    other end-to-end metrics from the chaos-off runs.  Latency and
    throughput under partitions measure a backlog that a fix for the
    failing requests would change in either direction, while the
    chaos-off runs of the same traffic stay comparable.

    ``run_serving`` builds its store, preloads it, overlays chaos and
    generates the arrivals itself.  The time from calling it to the start
    of its simulation is the episode's set-up; the rest is the timed
    phase.
    """

    name = "serving"
    TARGET_OPS = 600.0
    READ_FRACTION = 0.95
    OBJECTS = 256
    FAILURE_RATE = 2.0
    EPISODE_S = 20.0
    CHAOS = None  # (profile, chaos seed)
    EPISODES_PER_SECOND = 0.6

    def __init__(self, seed: int, seconds: float, probes: Probes):
        self.seed = seed
        self.episodes = max(1, int(round(self.EPISODES_PER_SECOND * seconds)))
        self.probes = probes

    def gen_modules(self) -> list:
        from repro.server import loadgen

        return [loadgen]

    def spec(self, i: int, duration: float | None = None):
        from repro.server import WorkloadSpec

        return WorkloadSpec(
            target_ops=self.TARGET_OPS,
            duration=duration or self.EPISODE_S,
            read_fraction=self.READ_FRACTION,
            distribution="zipfian",
            num_objects=self.OBJECTS,
            seed=sub_seed(self.seed, 3, i),
        )

    def config(self):
        from repro.server import ServerConfig

        return ServerConfig(scheme="EC-Fusion", failure_rate=self.FAILURE_RATE)

    def chaos(self):
        from repro.chaos import ChaosConfig

        if self.CHAOS is None:
            return None
        profile, chaos_seed = self.CHAOS
        return ChaosConfig(profile=profile, seed=chaos_seed)

    def warm(self) -> None:
        from repro.server import run_serving

        run_serving(self.spec(0, duration=1.0), self.config(), self.chaos())

    def run(self, state=None, rec=None) -> Outcome:
        from repro.server import run_serving

        config, chaos = self.config(), self.chaos()
        variants = [("base", None)] + ([("chaos", chaos)] if chaos is not None else [])
        runs = {name: [] for name, _ in variants}
        walls = {name: 0.0 for name, _ in variants}
        repairs_planned = {name: [0, 0.0] for name, _ in variants}
        overheads = {name: [] for name, _ in variants}
        setups = []
        for i in range(self.episodes):
            setup = 0.0
            for name, ch in variants:
                self.probes.reset()
                gc.collect()  # the last episode's garbage is not this set-up's
                t = clock()
                runs[name].append(run_serving(self.spec(i), config, ch))
                end = clock()
                setup += self.probes.sim_started - t
                walls[name] += end - self.probes.sim_started
                repairs_planned[name][0] += self.probes.repairs
                repairs_planned[name][1] += self.probes.repair_bytes
                overheads[name] += [p.storage_overhead() for p in self.probes.planners]
            setups.append(setup)

        out = Outcome(wall_s=sum(walls.values()), setups=setups)
        every = [r for name, _ in variants for r in runs[name]]
        for name, _ in variants:
            for i, r in enumerate(runs[name]):
                out.check(r.completed + r.failed == r.offered,
                          f"{name} episode {i}: completed {r.completed} + failed"
                          f" {r.failed} != issued {r.offered}")
                if name == "base":
                    out.check(not r.unrecoverable,
                              f"{name} episode {i}: {len(r.unrecoverable)} unrecoverable")
        base = runs["base"]
        slo_runs = runs["chaos" if chaos is not None else "base"]
        gets = [x for r in base for x in r.get_latencies]
        puts = [x for r in base for x in r.put_latencies]
        repairs = [x for r in base for x in r.repair_latencies]
        offered = sum(r.offered for r in base)
        slo_offered = sum(r.offered for r in slo_runs)
        budget = slo_for(config.chunk_size)
        planned, planned_bytes = repairs_planned["base"]
        out.attempted = sum(r.offered for r in every)
        out.failed = out.attempted if out.errors else 0
        out.metrics = {
            "ops_per_s": offered / walls["base"],
            "write_MBps": (len(puts) * config.stripe_bytes / sum(puts) / 1e6
                           if puts else 0.0),
            "repair_MBps": (len(repairs) * config.chunk_size / sum(repairs) / 1e6
                            if repairs else 0.0),
            "read_p50_sim_ms": pct_ms(gets, 0.50),
            "read_p99_sim_ms": pct_ms(gets, 0.99),
            "write_p99_sim_ms": pct_ms(puts, 0.99),
            "repair_p90_sim_ms": pct_ms(repairs, 0.90),
            "slo_met_ratio": sum(
                1 for r in slo_runs for x in r.get_latencies + r.put_latencies if x <= budget
            ) / slo_offered,
            "success_ratio": sum(r.completed for r in slo_runs) / slo_offered,
            "repair_read_blocks": planned_bytes / planned if planned else 0.0,
            "storage_overhead": (sum(overheads["base"]) / len(overheads["base"])
                                 if overheads["base"] else 0.0),
        }
        out.samples = {"gets": len(gets), "puts": len(puts), "repairs": len(repairs),
                       "slo_issued": slo_offered,
                       "slo_completed": sum(r.completed for r in slo_runs)}
        out.digest = digest(
            [(r.offered, r.completed, r.failed, r.get_latencies, r.put_latencies,
              r.degraded_latencies, r.repair_latencies, sorted(r.stats.items()),
              r.unrecoverable, r.chaos) for r in every]
        )
        out.layers = _serving_layers(every)
        out.layers["issued"] = out.attempted
        return out


class ServeZipf(Serving):
    """600 ops/s (the knee), 95% gets, zipfian over 256 objects, ~2 chunk
    failures per simulated second, default ServerConfig (EC-Fusion, k=4,
    r=2, 256 KiB chunks, 12 nodes)."""

    name = "serve_zipf"


class ServePartitions(Serving):
    """ROADMAP item 1's scenario lengthened to 30 s episodes: 300 ops/s,
    90% gets over 64 objects, failure_rate 0.5, ``partitions`` chaos
    profile with chaos seed 3."""

    name = "serve_partitions"
    TARGET_OPS = 300.0
    READ_FRACTION = 0.9
    OBJECTS = 64
    FAILURE_RATE = 0.5
    EPISODE_S = 30.0
    CHAOS = ("partitions", 3)
    EPISODES_PER_SECOND = 0.28


class PaperCampaign:
    """All five schemes x four Table V traces, serially, at paper scale.

    ``ExperimentConfig`` defaults (k=8, r=3, gamma = 27 MB, 80 stripes,
    failure rate 0.12 per request, Queue2 = the whole working set) with
    ``REQUESTS`` requests per cell.  The timed phase runs ``episodes``
    campaigns, each with its own derived seed.  The set-up builds the
    inputs of every campaign, so one set-up lasts long enough to time.
    """

    name = "paper_campaign"
    REQUESTS = 1500
    EPISODES_PER_SECOND = 0.25

    def __init__(self, seed: int, seconds: float, probes: Probes):
        self.seed = seed
        self.episodes = max(1, int(round(self.EPISODES_PER_SECOND * seconds)))
        self.probes = probes

    def gen_modules(self) -> list:
        from repro import workloads

        return [workloads]

    def setup(self) -> list:
        """The inputs of every campaign the timed phase runs."""
        return [self.campaign_inputs(i) for i in range(self.episodes)]

    def campaign_inputs(self, i: int, requests: int | None = None) -> dict:
        """Traces, failure streams and planners of campaign ``i``."""
        from repro import workloads
        from repro.experiments import ExperimentConfig, build_schemes

        cfg = ExperimentConfig(num_requests=requests or self.REQUESTS,
                               seed=sub_seed(self.seed, 4, i))
        cells = {}
        for t, name in enumerate(workloads.TRACE_NAMES):
            trace = workloads.make_trace(
                name,
                num_requests=cfg.num_requests,
                num_stripes=cfg.num_stripes,
                blocks_per_stripe=cfg.k,
                seed=sub_seed(self.seed, 5, i, t),
                write_once=True,  # each write request is a new HDFS file
            )
            failures = workloads.failures_for_trace(
                trace,
                blocks_per_stripe=cfg.k,
                rate=cfg.failure_rate,
                seed=cfg.seed,
                num_stripes=cfg.num_stripes,
                spatial_decay=cfg.spatial_decay,
            )
            cells[name] = (trace, failures, build_schemes(cfg))
        return {"cfg": cfg, "cells": cells}

    def warm(self) -> None:
        self._campaign(self.campaign_inputs(0, requests=40), None)

    def _campaign(self, state: dict, rec) -> tuple[dict, dict]:
        from repro.cluster import run_workload
        from repro.experiments.parallel import campaign_tasks

        cfg, cells = state["cfg"], state["cells"]
        results, cell_s = {}, {}
        for i, task in enumerate(campaign_tasks(cfg, list(cells))):
            trace, failures, schemes = cells[task.trace_name]
            if rec is not None:
                rec.op = i
            t = clock()
            results[(task.scheme_name, task.trace_name)] = run_workload(
                schemes[task.scheme_name], trace, failures, cfg.cluster, chaos=cfg.chaos
            )
            cell_s[(task.scheme_name, task.trace_name)] = clock() - t
        if rec is not None:
            rec.op = -1
        return results, cell_s

    def run(self, campaigns: list, rec=None) -> Outcome:
        self.probes.reset()
        episodes = []
        wall = 0.0
        for state in campaigns:
            t = clock()
            results, cell_s = self._campaign(state, rec)
            wall += clock() - t
            episodes.append((state, results, cell_s))

        out = Outcome(wall_s=wall)
        issued = done = app_issued = 0
        reads, writes, repairs, overheads = [], [], [], []
        per_scheme: dict = {}
        for e, (state, results, _) in enumerate(episodes):
            cells = state["cells"]
            for (scheme, trace_name), res in results.items():
                trace, failures, _ = cells[trace_name]
                apps = len(res.read_latencies) + len(res.write_latencies)
                where = f"episode {e} {scheme}/{trace_name}"
                out.check(apps + res.failed_requests == len(trace),
                          f"{where}: completed {apps} + failed {res.failed_requests}"
                          f" != issued {len(trace)}")
                out.check(len(res.recovery_latencies) + len(res.unrecoverable)
                          == len(failures), f"{where}: recoveries do not add up")
                out.check(not res.unrecoverable,
                          f"{where}: {len(res.unrecoverable)} unrecoverable chunks")
                issued += len(trace) + len(failures)
                done += apps + len(res.recovery_latencies)
                row = per_scheme.setdefault(scheme, ([], [], []))
                row[0].extend(res.read_latencies)
                row[1].extend(res.recovery_latencies)
                row[2].append(res.storage_overhead)
                if scheme == "EC-Fusion":
                    reads += res.read_latencies
                    writes += res.write_latencies
                    repairs += res.recovery_latencies
                    overheads.append(res.storage_overhead)
                    app_issued += len(trace)
        cfg = episodes[0][0]["cfg"]
        budget = slo_for(cfg.gamma)
        out.attempted = issued
        out.failed = issued - done if out.errors else 0
        out.metrics = {
            "ops_per_s": issued / wall,
            "write_MBps": len(writes) * cfg.k * cfg.gamma / sum(writes) / 1e6 if writes else 0.0,
            "repair_MBps": len(repairs) * cfg.gamma / sum(repairs) / 1e6 if repairs else 0.0,
            "read_p50_sim_ms": pct_ms(reads, 0.50),
            "read_p99_sim_ms": pct_ms(reads, 0.99),
            "write_p99_sim_ms": pct_ms(writes, 0.99),
            "repair_p90_sim_ms": pct_ms(repairs, 0.90),
            "slo_met_ratio": sum(1 for x in reads + writes if x <= budget) / app_issued,
            "success_ratio": done / issued,
            "repair_read_blocks": self.probes.repair_read_blocks(),
            "storage_overhead": sum(overheads) / len(overheads),
        }
        out.samples = {"reads": len(reads), "writes": len(writes), "repairs": len(repairs),
                       "cells": sum(len(r) for _, r, _ in episodes), "issued": issued}
        out.digest = digest(
            [(k, r.read_latencies, r.write_latencies, r.recovery_latencies,
              r.conversion_latencies, r.storage_overhead, r.degraded_reads,
              r.piggybacked_reads, r.failed_requests)
             for _, results, _ in episodes for k, r in sorted(results.items())]
        )
        layers = {"issued": issued}
        for scheme, (rd, rp, so) in per_scheme.items():
            layers[f"hybrid.{scheme}.read_p99_sim_ms"] = pct_ms(rd, 0.99)
            layers[f"hybrid.{scheme}.repair_p90_sim_ms"] = pct_ms(rp, 0.90)
            layers[f"hybrid.{scheme}.storage_overhead"] = sum(so) / len(so)
        for _, _, cell_s in episodes:
            for (scheme, trace_name), secs in cell_s.items():
                key = f"experiments.cell_s.{scheme}.{trace_name}"
                layers[key] = layers.get(key, 0.0) + secs
        out.layers = layers
        return out


WORKLOADS = {
    "bytes_fusion": BytesFusion,
    "serve_zipf": ServeZipf,
    "paper_campaign": PaperCampaign,
    "serve_partitions": ServePartitions,
}


def make(name: str, seed: int, seconds: float, probes: Probes):
    return WORKLOADS[name](seed, seconds, probes)
