"""Workload definitions and helpers shared by the benchmark and its generator.

Every path here is relative to the checkout root, the directory the benchmark
is started from, so that outputs embedding a path are the same in every
checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "ref"
OUT_DIR = BENCH_DIR / "out"
MANIFEST = REF_DIR / "manifest.json"

# the published expansion point: an unstable fixed point of the exact map at
# beta=0.1, eps=25, omega=1.285, given in (q, p) and converted to the scaled
# frame (z1, z2, sigma) = (q/omega, p/omega^2, 1/omega)
FP_Q, FP_P, FP_OMEGA = 1.26082, 2.05452, 1.285
EXPANSION = [FP_Q / FP_OMEGA, FP_P / FP_OMEGA**2, 1.0 / FP_OMEGA]
BETA, EPS = 0.1, 25.0
MAP_TOL = 1e-9

# reference maps: name -> (order, method); each build is checked against the
# reference of the other route, truncated to the build's order
REF_MAPS = {
    "duffing_fwd_p8": (8, "forward"),
    "duffing_bwd_p6": (6, "backward"),
    "duffing_fwd_p5": (5, "forward"),
}
SWEEP_MAP = "duffing_fwd_p8"
SWEEP_LABELS = "sweep_labels"

# The sweep runs the criterion-9 range, omega 1.24 to 1.30, at a step of
# 1e-3 (61 omegas) so that one call takes about a second; the seed draws an
# offset k * 1e-4, k in 0..N_OFFSETS-1, so that the ten offsets' grids
# together cover the 1e-4 grid from 1.24 to 1.30.  The exact scan runs 3 omegas on the same
# offset, 1.255, 1.270 and 1.285 (periods 1, 2 and 4 for every k), each on
# the sweep grid.
N_OFFSETS = 10
OFFSET_STEP = 1e-4
SWEEP_SPAN, SWEEP_STEP = 0.06, 1e-3
SWEEP_TRANSIENT, SWEEP_RECORD = 2000, 128
EXACT_START, EXACT_STEP, EXACT_N = 1.255, 0.015, 3
# the exact orbits settle on their period within 80 forcing periods
EXACT_TRANSIENT, EXACT_RECORD = 100, 16
EXACT_LABELS = [1, 2, 4]

# pinned to 1 in the workload process: the timings are single-threaded
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def ensure_src_on_path() -> None:
    """Import jetmap from this checkout's sources, never from elsewhere."""
    if not (SRC / "jetmap" / "__init__.py").is_file():
        raise FileNotFoundError(f"no jetmap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def git_rev() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, standing in for a git rev."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "jetmap").rglob("*.py")):
        digest.update(rel(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def grid_start(k: int, base: float = 1.24) -> float:
    return round(base + k * OFFSET_STEP, 4)


def expand_config(order: int, method: str, out: str) -> dict:
    return {
        "expand": {
            "system": "duffing",
            "beta": BETA,
            "eps": EPS,
            "expansion": EXPANSION,
            "order": order,
            "method": method,
            "integrator": {"mode": "adaptive", "tol": MAP_TOL},
            "out": out,
        }
    }


def sweep_config(k: int, out: str, map_file: str, transient: int = SWEEP_TRANSIENT,
                 record: int = SWEEP_RECORD) -> dict:
    start = grid_start(k)
    return {
        "scan": {
            "source": "taylor",
            "beta": BETA,
            "eps": EPS,
            "omega_start": start,
            "omega_stop": round(start + SWEEP_SPAN, 4),
            "omega_step": SWEEP_STEP,
            "transient": transient,
            "record": record,
            "seed_policy": "continue",
            "map_file": map_file,
            "out": out,
        }
    }


def exact_config(k: int, out: str, transient: int = EXACT_TRANSIENT, record: int = EXACT_RECORD) -> dict:
    start = grid_start(k, EXACT_START)
    return {
        "scan": {
            "source": "exact",
            "beta": BETA,
            "eps": EPS,
            "omega_start": start,
            "omega_stop": round(start + EXACT_STEP * (EXACT_N - 1), 4),
            "omega_step": EXACT_STEP,
            "transient": transient,
            "record": record,
            "seed": [FP_Q, FP_P],
            "seed_policy": "fixed",
            "tol": 1e-6,
            "out": out,
        }
    }


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_scan_csv(path: Path):
    """(omega -> list of (q, p)) from a scan CSV, in file order."""
    blocks: dict[float, list] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("omega,"):
                continue
            omega, _, q, p = line.split(",")
            blocks.setdefault(float(omega), []).append((float(q), float(p)))
    return blocks


def read_failures(path: Path) -> list[tuple[float, int]]:
    """(omega, iterate at escape) per line of a scan's .failures sidecar."""
    out = []
    if not path.exists():
        return out
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            omega, message = line.rstrip("\n").split(",", 1)
            tail = message.rsplit(" ", 1)[-1]
            out.append((float(omega), int(tail) if tail.isdigit() else 0))
    return out


def scan_grid(cfg: dict):
    from jetmap import cli

    return cli._omega_grid(cfg["scan"])


def block_at(blocks: dict, omega: float):
    """The (record, 2) samples a scan wrote for omega, or None if it escaped."""
    import numpy as np

    for key, block in blocks.items():
        if abs(key - omega) < 1e-9:
            return np.array(block)
    return None


def labels(blocks: dict, at) -> list:
    """Period labels (int, None for aperiodic, 'escaped') at the omegas `at`."""
    from jetmap import duffing

    out = []
    for omega in at:
        samples = block_at(blocks, omega)
        out.append("escaped" if samples is None
                   else duffing.detect_period(samples, tol=1e-6, max_period=64))
    return out


@contextlib.contextmanager
def step_stats_capture(sink: list):
    """Append the StepStats of every rkf45 call made inside the block.

    integrate() calls jetmap.jetode.rkf45 through the module, so replacing
    the module attribute sees every adaptive integration.
    """
    from jetmap import jetode

    original = jetode.rkf45

    def rkf45(*args, **kwargs):
        state, t, stats = original(*args, **kwargs)
        sink.append(stats)
        return state, t, stats

    jetode.rkf45 = rkf45
    try:
        yield sink
    finally:
        jetode.rkf45 = original
