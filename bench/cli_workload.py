"""The cli workload: the golden invocations of tests/golden_cases.py, each run
as a ``python -m ecq.cli`` subprocess (``bench/cli_shim.py`` when traced), with
stdout compared byte for byte against tests/golden/<case>.json.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import SHIM_MARK


def golden_cases(root: Path) -> dict[str, list[str]]:
    """GOLDEN_CASES from tests/golden_cases.py, read as a literal (not imported)."""
    tree = ast.parse((root / "tests" / "golden_cases.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("GOLDEN_CASES not found in tests/golden_cases.py")


def _cli_query(root: Path, env: dict, name: str, argv: list[str], golden: bytes) -> workloads.Query:
    shim = str(Path(__file__).with_name("cli_shim.py"))

    def run(state):
        tracer = state.get("tracer")
        cmd = [sys.executable, shim, *argv] if tracer else [sys.executable, "-m", "ecq.cli", *argv]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=120)
        if tracer is not None:
            _collect_shim_report(proc.stderr, spawned, time.monotonic(), state)
        return proc

    def check(proc, state):
        workloads.require(proc.returncode == 0, f"exit {proc.returncode}")
        workloads.require(proc.stdout == golden, "stdout differs from the golden file")
        return workloads.digest(proc.stdout.decode())

    return workloads.Query(f"cli/{name}", 0, run, check)


def _collect_shim_report(stderr: bytes, spawned: float, ended: float, state: dict) -> None:
    lines = stderr.decode().splitlines()
    if not lines or not lines[-1].startswith(SHIM_MARK):
        raise RuntimeError("traced cli call left no trace report")
    report = json.loads(lines[-1][len(SHIM_MARK):])
    state["tracer"].merge(report["spans"])
    state.setdefault("cli_calls", []).append(
        {
            "interpreter_s": report["started"] - spawned,
            "import_s": report["imported"] - report["started"],
            "latency_s": ended - spawned,
        }
    )


def _cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build_cli(root: Path) -> list[workloads.Query]:
    import ecq.cli  # noqa: F401  the cli workload's set-up imports the entry point

    env = _cli_env(root)
    golden_dir = root / "tests" / "golden"
    return [
        _cli_query(root, env, name, argv, (golden_dir / f"{name}.json").read_bytes())
        for name, argv in golden_cases(root).items()
    ]
