"""The ecq benchmark: one workload, closed loop, one client, one query at a time.

    python3 bench/run.py --workload search|descent|torsion-mul|cli \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``. The seed only permutes the query order inside each pass.
Whole passes over the workload's fixed query list repeat until ``--seconds``
have been spent in queries. Every query's output is checked; a query fails if
it raises, exits nonzero or fails its check.

``--trace 0`` reports the end-to-end metrics from at least ``MIN_PASSES``
untraced passes, plus ``setup_s`` from batches of fresh set-up probes spread
over the run. Times are reported at the reference host speed (see
``reference_loop``); a query's latency is the mean of its fastest half of
tries.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics; spans are kept in memory and written to ``.bench_out/`` when the run
ends. The last stdout line is the JSON
result; the lines before it are a readable summary. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

import tracer as tracer_mod

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 4  # tries of each query, for its latency
SETUP_BATCHES = 6  # set-up probe batches, spread over the run
SETUP_BATCH = 3  # probes per batch
# The time reference_loop takes at the reference host speed. It fixes the unit
# of every reported time: changing it, or the loop, rescales them all.
REFERENCE_S = 0.005

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in (
        "arith", "polynomials", "curves", "group", "heights",
        "ec_heights", "descent", "two_descent", "cli",
    )},
    "ec_heights.enumerate_points.calls": "count",
    "ec_heights.enumerate_points.self_s": "s",
    "ec_heights.enumerate_points.cells": "count",
    "ec_heights.enumerate_points.ns_per_cell": "ns",
    "ec_heights.enumerate_points.yield": "ratio",
    "ec_heights.enumerate_points.h8_s": "s",
    "ec_heights.enumerate_points.h9_s": "s",
    "ec_heights.enumerate_points.h10_s": "s",
    "ec_heights.enumerate_points.growth_per_nat": "1/nat",
    "arith.rational_roots.calls": "count",
    "arith.rational_roots.self_s": "s",
    "arith.divisors.calls": "count",
    "arith.factorize.calls": "count",
    "arith.factorize.self_s": "s",
    "descent.halve_point.calls": "count",
    "descent.halve_point.self_s": "s",
    "descent.halve_point.success_ratio": "ratio",
    "descent.descend.steps": "count",
    "descent.descend.self_s": "s",
    "descent.descend.total_s": "s",
    "descent.estimate_constants.self_s": "s",
    "two_descent.torsion_subgroup.self_s": "s",
    "group.order_of_point.calls": "count",
    "two_descent.rank_bounds.self_s": "s",
    "two_descent.coset_representatives.self_s": "s",
    "two_descent.delta_map.self_s": "s",
    "two_descent.delta_map.calls": "count",
    "group.add.calls": "count",
    "group.add.self_s": "s",
    "group.mul.k50_s": "s",
    "group.mul.k100_s": "s",
    "group.mul.k200_s": "s",
    "ec_heights.build_duplication_system.self_s": "s",
    "cli.main_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.startup_share": "ratio",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_library():
    """Import ecq and the workload module from this checkout, or exit 2."""
    src = ROOT / "src"
    if not (src / "ecq" / "__init__.py").is_file():
        fail(f"no ecq package under {src}")
    sys.path.insert(1, str(src))
    import ecq
    import workloads

    if Path(ecq.__file__).resolve().parent != src / "ecq":
        fail(f"imported ecq from {ecq.__file__}, not from {src}")
    return workloads


class Loop:
    """Closed-loop driver: runs passes and keeps every latency, pass time and
    failure, plus the first digest seen for each query."""

    def __init__(self, workloads, queries, seed: int):
        self.workloads = workloads
        self.queries = queries
        self.rng = random.Random(seed)
        self.latencies: list[list[tuple[str, float]]] = []  # (query, seconds) per untraced pass
        self.pass_times: dict[bool, list[float]] = {False: [], True: []}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches = 0  # outputs that differ from the same query's earlier output
        self.cli_calls: list[dict] = []
        # reference_loop times per untraced pass: one before each query, one after the last
        self.references: list[list[float]] = []

    def order(self) -> list:
        order = list(self.queries)
        self.rng.shuffle(order)
        order.sort(key=lambda q: q.stage)  # stable: the shuffle holds within a stage
        return order

    def run_pass(self, tracer=None) -> float:
        state = {"tracer": tracer}
        spent = 0.0
        if tracer is None:
            self.latencies.append([])
            self.references.append([reference_loop()])
        else:
            tracer.install()
        try:
            for query in self.order():
                spent += self._one(query, state, tracer)
                if tracer is None:
                    self.references[-1].append(reference_loop())
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.cli_calls += state.get("cli_calls", [])
        self.pass_times[tracer is not None].append(spent)
        return spent

    def _one(self, query, state, tracer) -> float:
        self.attempted += 1
        if tracer is not None:
            tracer.query = self.attempted
        raised = None
        start = time.perf_counter()
        try:
            result = query.run(state)
        except Exception:
            raised = traceback.format_exc()
        latency = time.perf_counter() - start
        if tracer is None:
            self.latencies[-1].append((query.name, latency))
        if raised is not None:
            self.failures.append(f"{query.name}: raised\n{raised}")
            return latency
        if tracer is not None:
            tracer.recording = False
        try:
            digest = query.check(result, state)
        except self.workloads.CheckFailed as exc:
            self.failures.append(f"{query.name}: {exc}")
            return latency
        except Exception:
            self.failures.append(f"{query.name}: check raised\n{traceback.format_exc()}")
            return latency
        finally:
            if tracer is not None:
                tracer.recording = True
        first = self.digests.setdefault(query.name, digest)
        if first != digest:
            self.mismatches += 1
            kind = "traced" if tracer is not None else "untraced"
            self.failures.append(f"{query.name}: {kind} output differs from an earlier pass")
        return latency


def reference_loop() -> float:
    """The fastest of three runs of a fixed integer loop, in seconds.

    It times the host, not ecq. The host's speed drifts by up to 1.7x over
    minutes, and this loop drifts with it, so it is timed just before and just
    after every query and set-up probe (bench/NOTES.md, *Stability*)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def tail(samples: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten samples beyond it;
    the maximum, at percentile 100, when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(workload: str) -> float:
    """Read after the first pass and before any set-up probe: the cli
    workload's processes are its `python -m ecq.cli` children, and a probe
    would count as one of them."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def at_reference(times: list[float], references: list[float]) -> list[float]:
    """Each time scaled to the reference host speed, by the mean of the
    reference_loop times just before and just after it."""
    return [t * 2 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, references, references[1:])]


def setup_batch(workload: str) -> tuple[list[float], list[float]]:
    """SETUP_BATCH fresh set-up probes: their times in seconds, and the
    reference_loop times around them."""
    times, references = [], [reference_loop()]
    for _ in range(SETUP_BATCH):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            fail(f"set-up probe exited {proc.returncode}: {err.decode().strip()}")
        times.append(ready - start)
        references.append(reference_loop())
    return times, references


def fastest_half(tries: list[float]) -> float:
    """The mean of the faster half of several tries of one thing. Other tenants
    of a shared host only ever add time, so the slower half is dropped as
    disturbed."""
    half = sorted(tries)[: max(1, len(tries) // 2)]
    return sum(half) / len(half)


def time_metrics(passes: list[list[tuple[str, float]]], probes: list[float]) -> tuple[dict, int, float]:
    """The four time metrics from per-pass query times and set-up probe
    times, with the latency sample count and tail percentile."""
    tries: dict[str, list[float]] = {}
    for one_pass in passes:
        for name, t in one_pass:
            tries.setdefault(name, []).append(t)
    samples = [fastest_half(times) for times in tries.values()]
    tail_s, tail_pct = tail(samples)
    return {
        "setup_s": statistics.median(probes),
        "wall_s": fastest_half([sum(t for _, t in one_pass) for one_pass in passes]),
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": tail_s,
    }, len(samples), tail_pct


def end_to_end(loop: Loop, rss_mb: float, batches: list[tuple[list[float], list[float]]]) -> tuple[dict, dict]:
    scaled_passes = [
        list(zip([name for name, _ in one_pass], at_reference([t for _, t in one_pass], refs)))
        for one_pass, refs in zip(loop.latencies, loop.references)
    ]
    scaled, n_samples, tail_pct = time_metrics(scaled_passes, [t for batch in batches for t in at_reference(*batch)])
    measured, _, _ = time_metrics(loop.latencies, [t for times, _ in batches for t in times])
    references = [r for refs in loop.references for r in refs] + [r for _, refs in batches for r in refs]
    metrics = {
        **scaled,
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1 - len(loop.failures) / loop.attempted,
    }
    detail = {
        "host_factor": statistics.median(references) / REFERENCE_S,
        **{f"measured_{name}": value for name, value in measured.items()},
        "latency_samples": n_samples,
        "latency_tail_percentile": tail_pct,
        "fail_ratio": len(loop.failures) / loop.attempted,
        "passes": len(loop.pass_times[False]),
        "setup_batches_s": batches,
    }
    return metrics, detail


def _box_cells(log_bound: float) -> int:
    """(a, d) pairs in the search box: |a| <= H and d*d <= H, H = floor(e^h)."""
    cap = int(math.exp(log_bound) * (1 + 1e-12) + 1e-9)
    return math.isqrt(cap) * (2 * cap + 1)


def per_layer(loop: Loop, tracer: tracer_mod.Tracer) -> dict:
    passes = len(loop.pass_times[True])
    agg = tracer_mod.aggregate(tracer.spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0) / passes

    def extras(name: str) -> list:
        return agg.get(name, {}).get("extras", [])

    m = {}
    for layer in tracer_mod.LAYERS:
        m[f"{layer}.self_s"] = sum(e["self"] for n, e in agg.items() if n.split(".")[0] == layer) / passes

    ep = "ec_heights.enumerate_points"
    cells = sum(_box_cells(h) for (h, _), _ in extras(ep)) / passes
    found = sum(n for (_, n), _ in extras(ep)) / passes
    by_h = {h: sum(d for (hb, _), d in extras(ep) if hb == h) / passes for h in (8.0, 9.0, 10.0)}
    m[f"{ep}.calls"] = get(ep, "calls")
    m[f"{ep}.self_s"] = get(ep, "self")
    m[f"{ep}.cells"] = cells
    m[f"{ep}.ns_per_cell"] = 1e9 * m[f"{ep}.self_s"] / cells if cells else 0.0
    m[f"{ep}.yield"] = found / cells if cells else 0.0
    m[f"{ep}.h8_s"], m[f"{ep}.h9_s"], m[f"{ep}.h10_s"] = by_h[8.0], by_h[9.0], by_h[10.0]
    m[f"{ep}.growth_per_nat"] = math.log(by_h[10.0] / by_h[8.0]) / 2 if by_h[8.0] and by_h[10.0] else 0.0

    for name in ("arith.rational_roots", "arith.factorize"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self")
    m["arith.divisors.calls"] = get("arith.divisors", "calls")

    hp = "descent.halve_point"
    halvings = extras(hp)
    m[f"{hp}.calls"] = get(hp, "calls")
    m[f"{hp}.self_s"] = get(hp, "self")
    m[f"{hp}.success_ratio"] = sum(1 for n, _ in halvings if n) / len(halvings) if halvings else 0.0
    m["descent.descend.steps"] = sum(n for n, _ in extras("descent.descend")) / passes
    m["descent.descend.self_s"] = get("descent.descend", "self")
    m["descent.descend.total_s"] = get("descent.descend", "total")
    m["descent.estimate_constants.self_s"] = get("descent.estimate_constants", "self")

    m["two_descent.torsion_subgroup.self_s"] = get("two_descent.torsion_subgroup", "self")
    m["group.order_of_point.calls"] = get("group.order_of_point", "calls")
    for name in ("rank_bounds", "coset_representatives", "delta_map"):
        m[f"two_descent.{name}.self_s"] = get(f"two_descent.{name}", "self")
    m["two_descent.delta_map.calls"] = get("two_descent.delta_map", "calls")

    m["group.add.calls"] = get("group.add", "calls")
    m["group.add.self_s"] = get("group.add", "self")
    for k in (50, 100, 200):
        m[f"group.mul.k{k}_s"] = sum(d for n, d in extras("group.mul") if n == k) / passes

    m["ec_heights.build_duplication_system.self_s"] = get("ec_heights.build_duplication_system", "self")
    mains = [end - start for name, start, end, *_ in tracer.spans if name == "cli.main"]
    calls = loop.cli_calls
    m["cli.main_s"] = statistics.median(mains) if mains else 0.0
    m["cli.interpreter_s"] = statistics.median(c["interpreter_s"] for c in calls) if calls else 0.0
    m["cli.import_s"] = statistics.median(c["import_s"] for c in calls) if calls else 0.0
    m["cli.startup_share"] = (
        statistics.median((c["interpreter_s"] + c["import_s"]) / c["latency_s"] for c in calls) if calls else 0.0
    )
    m["trace.spans"] = len(tracer.spans) / passes
    m["trace.overhead_ratio"] = statistics.median(loop.pass_times[True]) / statistics.median(loop.pass_times[False])
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    loop = Loop(workloads, workloads.build(args.workload, ROOT), args.seed)

    if args.trace:
        tracer = tracer_mod.Tracer()
        spent = 0.0
        while spent < args.seconds:
            spent += loop.run_pass()
            spent += loop.run_pass(tracer)
        leftover = tracer_mod.installed_wrappers()
        if leftover:
            loop.failures.append(f"wrappers left installed: {leftover}")
        metrics = per_layer(loop, tracer)
        units = PER_LAYER_UNITS
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        detail = {
            "traced_passes": len(loop.pass_times[True]),
            "traced_outputs_match_untraced": loop.mismatches == 0,
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    else:
        spent = 0.0
        rss_mb = None
        batches = []
        while spent < args.seconds or len(loop.latencies) < MIN_PASSES:
            spent += loop.run_pass()
            if rss_mb is None:
                rss_mb = peak_rss_mb(args.workload)
            while len(batches) < min(SETUP_BATCHES, SETUP_BATCHES * spent / args.seconds):
                batches.append(setup_batch(args.workload))
        while len(batches) < SETUP_BATCHES:
            batches.append(setup_batch(args.workload))
        metrics, detail = end_to_end(loop, rss_mb, batches)
        units = END_TO_END_UNITS

    for failure in loop.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0], **result, "detail": detail,
              "query_latencies_s": loop.latencies, "reference_s": loop.references}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {loop.attempted}  failed {len(loop.failures)}")
    for key, value in detail.items():
        if not isinstance(value, list):
            print(f"  {key} = {value}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
