"""The benchmark's own test: its smoke mode must pass and print every declared metric.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_prints_every_declared_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = proc.stdout.splitlines()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        printed = [line.split() for line in lines if line.split()[:1] == [metric["name"]]]
        assert printed, f"{metric['name']} was not printed"
        assert all(fields[2] == metric["unit"] for fields in printed), metric["name"]
