"""Generate the benchmark's reference files under perfbench/ref.

    python3 perfbench/gen_refs.py maps     # the three reference maps (~5 min)
    python3 perfbench/gen_refs.py labels   # sweep labels for every grid offset (~15 s)

Run from the checkout root at the commit the references should describe.
Each file is recorded in ref/manifest.json with its sha256, the git rev, the
command that made it and, for maps, the RKF45 step statistics.  The benchmark
refuses to run when a file's hash does not match the manifest.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common as cm  # noqa: E402

cm.ensure_src_on_path()
from jetmap import cli  # noqa: E402


def _load_manifest() -> dict:
    if cm.MANIFEST.exists():
        return json.loads(cm.MANIFEST.read_text())
    return {}


def _run_cli(config: dict, workdir: Path) -> tuple[int, list]:
    cfg_path = workdir / "config.json"
    cm.write_json(cfg_path, config)
    sink: list = []
    with cm.step_stats_capture(sink), redirect_stdout(io.StringIO()):
        code = cli.main([next(iter(config)), "--config", str(cfg_path)])
    return code, sink


def gen_maps() -> None:
    manifest = _load_manifest()
    rev = cm.git_rev()
    for name, (order, method) in cm.REF_MAPS.items():
        target = cm.REF_DIR / f"{name}.json"
        config = cm.expand_config(order, method, cm.rel(target))
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            code, stats = _run_cli(config, Path(tmp))
            wall = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"building {name} exited with {code}")
        manifest[name] = {
            "file": target.name,
            "sha256": cm.sha256_file(target),
            "git_rev": rev,
            "command": "jetmap expand --config <config>",
            "config": config,
            "step_stats": [
                {"accepted": s.accepted, "rejected": s.rejected, "h_min": s.h_min, "h_max": s.h_max}
                for s in stats
            ],
            "wall_s": round(wall, 2),
        }
        cm.write_json(cm.MANIFEST, manifest)
        print(f"{name}: {wall:.1f} s, {manifest[name]['step_stats']}", flush=True)


def gen_labels() -> None:
    manifest = _load_manifest()
    map_entry = manifest[cm.SWEEP_MAP]
    map_file = cm.rel(cm.REF_DIR / map_entry["file"])
    if cm.sha256_file(cm.ROOT / map_file) != map_entry["sha256"]:
        raise SystemExit(f"{map_file} does not match its manifest hash")
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        for k in range(cm.N_OFFSETS):
            config = cm.sweep_config(k, str(out), map_file)
            t0 = time.perf_counter()
            code, _ = _run_cli(config, Path(tmp))
            wall = time.perf_counter() - t0
            if code != 0:
                raise SystemExit(f"sweep at offset {k} exited with {code}")
            at = cm.scan_grid(cm.exact_config(k, "unused"))
            labels = cm.labels(cm.read_scan_csv(out), at)
            escaped = len(cm.read_failures(Path(str(out) + ".failures")))
            table[str(k)] = {"labels": labels, "escaped": escaped, "wall_s": round(wall, 2)}
            print(k, round(wall, 1), escaped, labels, flush=True)
    target = cm.REF_DIR / f"{cm.SWEEP_LABELS}.json"
    cm.write_json(target, table)
    manifest[cm.SWEEP_LABELS] = {
        "file": target.name,
        "sha256": cm.sha256_file(target),
        "git_rev": cm.git_rev(),
        "command": "jetmap scan --config <sweep_taylor config for each offset k>",
        "map": cm.SWEEP_MAP,
    }
    cm.write_json(cm.MANIFEST, manifest)


if __name__ == "__main__":
    jobs = {"maps": gen_maps, "labels": gen_labels}
    if len(sys.argv) != 2 or sys.argv[1] not in jobs:
        raise SystemExit(f"usage: gen_refs.py {{{','.join(jobs)}}}")
    jobs[sys.argv[1]]()
