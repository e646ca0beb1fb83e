"""Set-up probe for ``setup_s``: a fresh interpreter imports ecq (``ecq.cli``
for the cli workload) through the workload module, builds one workload's
literal inputs and query list, prints ``ready`` and exits.

    python3 bench/setup_probe.py WORKLOAD
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], ROOT)
print("ready", flush=True)
