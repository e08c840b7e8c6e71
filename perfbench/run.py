"""jetmap benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload build_fwd --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload sweep_taylor --seed 1 --seconds 25 --trace 0 --smoke

Workloads (see BENCHMARK.json for why each was chosen):
  build_fwd     order-3 Duffing map by forward jet transport
  build_bwd     order-2 Duffing map by backward coefficient integration
  sweep_taylor  the criterion-9 sweep (61 omegas) on the order-8 reference map
  scan_exact    3-omega scan of the exact, integrated stroboscopic map

Each run starts the workload in a fresh process (perfbench/workload.py) with
BLAS pinned to one thread.  With ``--trace 0`` it first starts the set-up
alone a few times, and reports as ``setup_s`` the median over those and the
workload's own set-up.  The last line of standard output is the workload's
JSON result.  Exits non-zero, printing no result, when the jetmap sources or
the reference files are missing or do not match.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("build_fwd", "build_bwd", "sweep_taylor", "scan_exact")
SETUP_PROBES = 6
# a run must end within 180 s; leave room to report
DEADLINE_S = 170.0


def _child(args, extra: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.time()),
    ]
    if args.smoke:
        cmd.append("--smoke")
    # run() kills the child and waits for it when the timeout expires
    return subprocess.run(
        cmd + extra, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jetmap benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny orders and grids, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jetmap" / "__init__.py").is_file():
        print(f"no jetmap sources at {ROOT / 'src' / 'jetmap'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    env["PYTHONPATH"] = str(ROOT / "src")
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _child(args, ["--setup-only"], env, deadline - time.monotonic())
                if probe.returncode != 0:
                    return probe.returncode
                setups.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
        result = _child(args, [], env, deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    lines = result.stdout.strip().splitlines()
    if not lines:
        return result.returncode or 4
    report = json.loads(lines[-1])
    if "setup_s" in report["metrics"]:
        setups.append(report["metrics"]["setup_s"]["value"])
        report["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(report))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
