"""Run every workload untraced and traced, and check the benchmark itself.

    python3 perfbench/check.py           # smoke setting: tiny orders and grids
    python3 perfbench/check.py --full    # the benchmark's real workloads

Prints every metric of every workload with its name and unit, and fails
unless each run passes its correctness gates and reports exactly the metrics
and units BENCHMARK.json names.  Then checks that the benchmark refuses to
run, printing no result, in a directory holding only BENCHMARK.json and the
benchmark, and when a reference file does not match its sha256.  The smoke
setting takes about a minute on two cores, --full about two minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="real workloads, not the smoke setting")
    full = parser.parse_args().full
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    start = time.perf_counter()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace)] + ([] if full else ["--smoke"])
            proc = run(args, ROOT)
            label = f"{workload} trace={trace}"
            before = len(failures)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(report) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(report)}")
            if not report["correct"] or report["failed"] or report["attempted"] < 1:
                failures.append(f"{label}: not correct: {report}")
            got = {name: m["unit"] for name, m in report["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{label}: metrics {sorted(set(got) ^ set(wanted[trace]))} differ")
            status = "ok" if len(failures) == before else "FAILED"
            print(f"{status} {label} ({time.perf_counter() - start:.1f} s)", flush=True)
            for name, metric in report["metrics"].items():
                print(f"   {name} = {metric['value']:.6g} {metric['unit']}", flush=True)

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        args = ["--workload", "build_fwd", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = run(args, bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print("ok bare directory refused", flush=True)
        # with sources present, a reference file that no longer matches its
        # recorded sha256 must stop the run too
        shutil.copytree(ROOT / "src", bare / "src", ignore=shutil.ignore_patterns("__pycache__"))
        with open(bare / "perfbench" / "ref" / "duffing_bwd_p6.json", "a") as fh:
            fh.write(" ")
        proc = run(args, bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"changed reference: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print("ok changed reference refused", flush=True)

    for failure in failures:
        print("FAIL", failure)
    print(f"{'FAILED' if failures else 'passed'} in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
