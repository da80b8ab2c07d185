#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny sizes, both modes.

    python3 perfbench/test_smoke.py      # from the repository root

Checks that each run exits 0, reports correct outputs, prints exactly the
metrics BENCHMARK.json names with their units, keeps every end-to-end
metric non-zero and the traced run's span residual at 0, and that the
benchmark refuses to run outside a source checkout.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: incorrect result")
            if got != want:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if trace == 0 and any(m["value"] == 0 for m in metrics.values()):
                failures.append(f"{label}: an end-to-end metric is 0")
            if trace == 1 and metrics["io.span_ios_residual"]["value"] != 0:
                failures.append(f"{label}: span I/O residual is not 0")
            print(f"ok {label}", flush=True)

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench")
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("ran outside a source checkout")
        else:
            print("ok refuses to run outside a source checkout")
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
