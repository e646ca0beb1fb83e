"""Self-test of the benchmark. Run it after any change to bench/:

    python3 bench/selftest.py

For every workload it runs one untraced and one traced pass in-process and
asserts that every output check passes, that the metrics are exactly the ones
BENCHMARK.json names with the units it gives, and that no wrapper is left
installed after the traced pass (and that while installed, import sites such
as ``ecq.descent.rational_roots`` were wrapped too). It feeds the checks
wrong answers and asserts they are rejected. Last, it runs ``bench/run.py``
on torsion-mul, the shortest workload, and asserts that the printed result
line carries every metric with its unit. Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run
import tracer as tracer_mod

workloads = run.load_library()
import ecq  # noqa: E402  (importable once load_library has put src/ on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def check_units() -> None:
    assert run.END_TO_END_UNITS == END_TO_END, "end-to-end metrics differ from BENCHMARK.json"
    assert run.PER_LAYER_UNITS == PER_LAYER, "per-layer metrics differ from BENCHMARK.json"
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


class SiteProbe(tracer_mod.Tracer):
    """A tracer that records, on install, which import sites it wrapped."""

    def install(self) -> None:
        super().install()
        self.sites = set(tracer_mod.installed_wrappers())


def check_workload(name: str) -> None:
    loop = run.Loop(workloads, workloads.build(name, run.ROOT), seed=7)
    loop.run_pass()
    tracer = SiteProbe()
    loop.run_pass(tracer)
    assert not loop.failures, f"{name}: {loop.failures}"
    assert tracer_mod.installed_wrappers() == [], f"{name}: wrappers left installed"
    for site in ("ecq.arith.rational_roots", "ecq.descent.rational_roots", "ecq.arith.divisors",
                 "ecq.group.add", "ecq.descent.add", "ecq.enumerate_points"):
        assert site in tracer.sites, f"{name}: {site} was not wrapped"

    e2e, _ = run.end_to_end(loop, run.peak_rss_mb(name), [([0.1], [0.005, 0.005])])
    assert set(e2e) == set(END_TO_END), f"{name}: end-to-end metrics {sorted(e2e)}"
    layer = run.per_layer(loop, tracer)
    assert set(layer) == set(PER_LAYER), f"{name}: per-layer metrics {sorted(set(layer) ^ set(PER_LAYER))}"
    assert e2e["ok_ratio"] == 1.0 and layer["trace.spans"] > 0
    print(f"ok  {name}: {loop.attempted} queries checked, wall {e2e['wall_s']:.2f} s, "
          f"trace overhead {layer['trace.overhead_ratio']:.3f}")


def rejects(query, result, state) -> bool:
    try:
        query.check(result, state)
    except workloads.CheckFailed:
        return True
    return False


def check_checks_reject_wrong_output() -> None:
    by_name = {}
    for name in workloads.WORKLOADS:
        by_name.update({q.name: q for q in workloads.build(name, run.ROOT)})

    q = by_name["search/x3+17/h8"]
    points = q.run({})
    assert rejects(q, points[:-1], {}), "search check accepts a missing point"
    off = points[:-1] + [ecq.Point(points[-1].x, points[-1].y + 1)]
    assert rejects(q, off, {}), "search check accepts a point off the curve"

    q = by_name["torsion/0,4"]
    assert rejects(q, dataclasses.replace(q.run({}), structure="Z/6"), {}), "torsion check accepts a wrong label"

    q = by_name["mul/k50"]
    p = q.run({})
    assert rejects(q, ecq.Point(p.x, -p.y), {}), "mul check accepts -[k]R"

    state = {}
    for name in ("coset_representatives/h4", "estimate_constants/h4"):
        by_name[name].run(state)
    q = by_name["descend/3R+(-5,0)"]
    chain = q.run(state)
    assert not rejects(q, chain, state)
    assert rejects(q, dataclasses.replace(chain, final=ecq.INFINITY), state), "descend check accepts a broken chain"

    q = by_name["cli/point_0_1"]
    proc = q.run({})
    assert not rejects(q, proc, {})
    other = subprocess.CompletedProcess(proc.args, 0, proc.stdout + b" ", proc.stderr)
    assert rejects(q, other, {}), "cli check accepts other bytes"
    failed = subprocess.CompletedProcess(proc.args, 1, proc.stdout, proc.stderr)
    assert rejects(q, failed, {}), "cli check accepts a nonzero exit"
    print("ok  output checks reject wrong answers")


def check_printed_result() -> None:
    for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "torsion-mul",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == units, f"trace {trace}: printed metrics differ from BENCHMARK.json"
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    print("ok  run.py prints every named metric with its unit")


if __name__ == "__main__":
    check_units()
    for workload in workloads.WORKLOADS:
        check_workload(workload)
    check_checks_reject_wrong_output()
    check_printed_result()
    print("selftest passed")
