"""One benchmark workload, run in a fresh process by perfbench/run.py.

    python3 perfbench/workload.py --workload build_fwd --seed 1 --seconds 25 --trace 0

Set-up (imports, config file, reference files and their hashes) ends when
the timed call is ready.  The timed section calls ``jetmap.cli.main``
in-process with a config file, as a user runs jetmap, and repeats the same
call while another one still fits in ``--seconds``.

On a shared host a core switches, for seconds to minutes at a time, between
a fast and a slow state about 1.6x apart, and slows down in bursts of
milliseconds within each, so a call's wall time says more about the host
than about jetmap.  The benchmark takes the host out in two ways.  It cuts
each call into windows of about 70 ms at fixed points of the call (see
``clock_marks``) and times a fixed calibration step (see ``Calibration``)
at each window's ends, outside the window: a window's time over the
calibration step next to it is the same in either state.  Then it adds up,
window by window, the lower quartile of each window's relative time over
the run's calls, which leaves the bursts out.  That sum is ``solve_rel``, one call's
time in calibration steps.  Correctness gates run after
the timed section.  With ``--trace 1`` the run makes one traced call and
reports the per-layer metrics instead, after one untraced call that the
tracing overhead is measured against.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Run facts (seed, versions, output hashes) go to standard
error and to perfbench/out/<workload>/record.json.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common as cm  # noqa: E402

# cross-route gate on mixed-relative coefficient differences (measured:
# 7.2e-7 at order 3 forward, 4.4e-8 at order 2 backward), and the gate on |map - exact flow| at probes inside
# the trust region, by map order: about 7x the worst of 240 seeded probes
# (order 3: 4.4e-3, order 2: 5.7e-3)
COEFF_GAP_MAX = 1e-5
PROBE_ERR_MAX = {2: 5e-2, 3: 3e-2}
PROBE_DZ, PROBE_DSIGMA, N_PROBES = 0.05, 0.005, 6

# name -> settings; `why` and the bypassed layers are recorded in BENCHMARK.json.
# A build is checked against the other route's reference map, truncated to the
# build's order.  Each call takes one to three seconds on two cores, so that a
# run holds several calls: order 3 forward (2,239 steps), order 2 backward.
WORKLOADS = {
    "build_fwd": {"kind": "build", "order": 3, "method": "forward", "ref": "duffing_bwd_p6"},
    "build_bwd": {"kind": "build", "order": 2, "method": "backward", "ref": "duffing_fwd_p5"},
    "sweep_taylor": {"kind": "sweep", "transient": cm.SWEEP_TRANSIENT, "record": cm.SWEEP_RECORD},
    "scan_exact": {"kind": "exact", "transient": cm.EXACT_TRANSIENT, "record": cm.EXACT_RECORD},
}
# short orbits that run every code path and gate in seconds; they leave labels
# near a doubling unsettled, so smoke scans are not compared with the
# reference labels
SMOKE = {
    "build_fwd": {"order": 2},
    "build_bwd": {"order": 2},
    "sweep_taylor": {"transient": 500, "record": 64},
    "scan_exact": {"transient": 20, "record": 8},
}


# -- set-up --------------------------------------------------------------------


def verify_references() -> dict:
    """The manifest, after checking every reference file against its hash."""
    manifest = json.loads(cm.MANIFEST.read_text())
    for name, entry in manifest.items():
        path = cm.REF_DIR / entry["file"]
        if not path.is_file() or cm.sha256_file(path) != entry["sha256"]:
            raise SystemExit(f"reference {name} ({cm.rel(path)}) does not match its sha256")
    return manifest


class Workload:
    def __init__(self, name: str, seed: int, smoke: bool):
        import numpy as np

        from jetmap import vareq

        self.name = name
        self.spec = dict(WORKLOADS[name], **(SMOKE[name] if smoke else {}))
        self.kind = self.spec["kind"]
        self.seed = seed
        self.smoke = smoke
        self.manifest = verify_references()
        rng = np.random.default_rng(seed)
        self.k = int(rng.integers(0, cm.N_OFFSETS))
        # uniform in the disc |dz| <= PROBE_DZ times |dsigma| <= PROBE_DSIGMA:
        # at |dz| = 0.5 the order-6 map is off by O(1)
        self.probes = []
        for _ in range(N_PROBES):
            radius = PROBE_DZ * math.sqrt(rng.uniform())
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dsigma = rng.uniform(-PROBE_DSIGMA, PROBE_DSIGMA)
            self.probes.append(np.array([radius * math.cos(angle), radius * math.sin(angle), dsigma]))
        self.micro_rng = np.random.default_rng([seed, 1])
        self.dir = cm.OUT_DIR / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.ref_map = None
        self.ref_labels = None
        spec = self.spec
        if self.kind == "build":
            self.out = self.dir / "map.json"
            config = cm.expand_config(spec["order"], spec["method"], cm.rel(self.out))
            ref_file = cm.REF_DIR / self.manifest[spec["ref"]]["file"]
            self.ref_map = vareq.taylor_map_from_dict(json.loads(ref_file.read_text()))
        else:
            self.out = self.dir / "scan.csv"
            labels = json.loads((cm.REF_DIR / self.manifest[cm.SWEEP_LABELS]["file"]).read_text())
            grid = cm.scan_grid(cm.exact_config(self.k, "unused"))
            # omega -> label of the reference sweep at this grid offset
            self.ref_labels = dict(zip(grid.tolist(), labels[str(self.k)]["labels"]))
            if self.kind == "sweep":
                map_file = cm.rel(cm.REF_DIR / self.manifest[cm.SWEEP_MAP]["file"])
                config = cm.sweep_config(
                    self.k, cm.rel(self.out), map_file, transient=spec["transient"], record=spec["record"]
                )
            else:
                config = cm.exact_config(
                    self.k, cm.rel(self.out), transient=spec["transient"], record=spec["record"]
                )
        self.config = config
        self.command = next(iter(config))
        cm.write_json(self.config_path, config)
        self.argv = [self.command, "--config", cm.rel(self.config_path)]

    def outputs(self) -> list[Path]:
        sidecar = Path(str(self.out) + ".failures")
        return [p for p in (self.out, sidecar) if p.exists()]

    def clear_outputs(self) -> None:
        for path in self.outputs():
            path.unlink()


# -- the timed call ------------------------------------------------------------------


class Call(NamedTuple):
    seconds: float
    windows: list  # (seconds, calibration seconds) per window of the call
    code: int
    step_stats: list
    outputs: dict  # path -> sha256


class Calibration:
    """A fixed calibration step of about 0.4 ms, part of the benchmark and
    calling no jetmap code: an Euler march of a forced cubic oscillator on
    Python floats, as jetode runs scalar states, then products and sums over
    a 1 MB pool of short numpy vectors, as jet arithmetic runs."""

    def __init__(self):
        import numpy as np

        self.pool = [np.linspace(0.0, 1.0, 20) + i for i in range(4000)]
        self.turn = 0

    def step(self) -> float:
        start = time.perf_counter()
        z1, z2 = 0.1, 0.2
        for i in range(700):
            dz1, dz2 = z2, -0.2 * z2 - z1 - z1**3 + math.sin(i * 1e-3)
            z1, z2 = z1 + 1e-3 * dz1, z2 + 1e-3 * dz2
        pool = self.pool
        for _ in range(60):
            self.turn += 13
            a, b = pool[self.turn % 4000], pool[(7 * self.turn + 3) % 4000]
            z1 += float((a * b + a).sum())
        return time.perf_counter() - start

    def best(self) -> float:
        """The shorter of two steps."""
        return min(self.step(), self.step())


# clock marks per window: windows of about 70 ms on two cores
MARKS_PER_WINDOW = {"build": 500, "exact": 12, "sweep": 4}


class Clock:
    """Cuts a call into windows of a fixed number of clock marks, and times
    the calibration step at each window's ends, outside the window."""

    def __init__(self, every: int, calibration: Calibration):
        self.every = every
        self.calibration = calibration
        self.marks = 0
        self.windows: list = []

    def start(self) -> None:
        self.before = self.calibration.best()
        self.opened = time.perf_counter()

    def mark(self) -> None:
        self.marks += 1
        if self.marks % self.every == 0:
            self.stop()
            self.opened = time.perf_counter()

    def stop(self) -> None:
        seconds = time.perf_counter() - self.opened
        after = self.calibration.best()
        self.windows.append((seconds, min(self.before, after)))
        self.before = after


def _marking(fn, clock: Clock):
    def marked(*args, **kwargs):
        clock.mark()
        return fn(*args, **kwargs)

    return marked


@contextlib.contextmanager
def clock_marks(kind: str, clock: Clock):
    """Mark `clock` at fixed points of every call made inside the block: each
    right-side evaluation of an integration (builds), each forcing period of
    the exact map, each omega of a polynomial-map scan.  A point whose
    function is gone is skipped, and the call is then one window."""
    from jetmap import duffing, jetode

    saved = []

    def patch(owner, attr, wrap):
        if attr in vars(owner):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrap(vars(owner)[attr]))

    def marking_rkf45(rkf45):
        def marked(system, *args, **kwargs):
            return rkf45(dataclasses.replace(system, rhs=_marking(system.rhs, clock)), *args, **kwargs)

        return marked

    if kind == "build":
        patch(jetode, "rkf45", marking_rkf45)
    elif kind == "exact":
        patch(duffing.ExactStroboscopicMap, "__call__", lambda fn: _marking(fn, clock))
    else:
        patch(duffing, "_run_poly", lambda fn: _marking(fn, clock))
    try:
        yield clock
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def timed_call(work: Workload, main, calibration: Calibration | None = None) -> Call:
    """One CLI call, with the RKF45 step statistics it produced; with a
    `calibration`, cut into windows timed against it."""
    work.clear_outputs()
    gc.collect()
    stats: list = []
    clock = Clock(MARKS_PER_WINDOW[work.kind], calibration) if calibration else None
    marks = clock_marks(work.kind, clock) if clock else contextlib.nullcontext()
    with cm.step_stats_capture(stats), marks, redirect_stdout(io.StringIO()):
        if clock:
            clock.start()
        start = time.perf_counter()
        code = main(work.argv)
        seconds = time.perf_counter() - start
        if clock:
            clock.stop()
            seconds = sum(w for w, _ in clock.windows)
    windows = clock.windows if clock else [(seconds, math.nan)]
    return Call(seconds, windows, code, stats, {cm.rel(p): cm.sha256_file(p) for p in work.outputs()})


def solve_times(calls: list) -> tuple[float, float]:
    """One call's time in seconds and in calibration steps, with the host's
    slow spells left out: the sum over windows of the lower quartile, over
    the calls, of each window's time and of its time over the calibration
    step at its ends.  Identical calls make the same windows; should they
    not, the lower quartile of whole calls."""
    import numpy as np

    if len({len(c.windows) for c in calls}) != 1:
        seconds = [c.seconds for c in calls]
        relative = [sum(w / cal for w, cal in c.windows) for c in calls]
        return float(np.quantile(seconds, 0.25)), float(np.quantile(relative, 0.25))
    windows = np.array([c.windows for c in calls])  # call, window, (seconds, calibration)
    seconds = np.quantile(windows[..., 0], 0.25, axis=0).sum()
    relative = np.quantile(windows[..., 0] / windows[..., 1], 0.25, axis=0).sum()
    return float(seconds), float(relative)


# -- correctness gates --------------------------------------------------------------


def check_build(work: Workload) -> tuple[list, dict]:
    """Cross-route oracle and exact-flow probes for a built map."""
    import numpy as np

    from jetmap import duffing, jetode, vareq

    problems = []
    tmap = vareq.taylor_map_from_dict(json.loads(work.out.read_text()))
    L = tmap.table.L
    if not np.array_equal(work.ref_map.table.exponents[:L], tmap.table.exponents):
        return ["reference table does not extend the build's table"], {}
    built = tmap.coefficient_matrix()
    ref = work.ref_map.coefficient_matrix()[:, :L]
    gap = float(np.max(np.abs(built - ref) / (1.0 + np.abs(ref))))
    if not gap <= COEFF_GAP_MAX:
        problems.append(f"cross-route coefficient gap {gap:.3e} > {COEFF_GAP_MAX}")

    system = duffing.duffing_scaled_rhs(cm.BETA, cm.EPS, sigma=cm.EXPANSION[2])
    err = 0.0
    for dev in work.probes:
        start = tuple(np.array(cm.EXPANSION) + dev)
        exact, _, _ = jetode.rkf45(system, start, 0.0, duffing.TWO_PI, jetode.adaptive(1e-12))
        err = max(err, float(np.max(np.abs(tmap.final_state(dev)[:2] - np.array(exact[:2])))))
    limit = PROBE_ERR_MAX[tmap.order]
    if not err <= limit:
        problems.append(f"probe error {err:.3e} > {limit} at order {tmap.order}")
    return problems, {"coeff_gap": gap, "probe_err": err}


def _agree(blocks: dict, ref_labels: dict, what: str) -> list:
    """Labels that differ from the reference sweep where both have samples."""
    labels = cm.labels(blocks, list(ref_labels))
    problems = []
    for (omega, want), got in zip(ref_labels.items(), labels):
        if "escaped" not in (got, want) and got != want:
            problems.append(f"{what}: label {got} at omega {omega:.4f}, reference sweep has {want}")
    return problems


def scan_facts(work: Workload) -> dict:
    """Samples, labels and iterate counts read back from a scan's outputs."""
    grid = cm.scan_grid(work.config)
    blocks = cm.read_scan_csv(work.out)
    failures = cm.read_failures(Path(str(work.out) + ".failures"))
    per_omega = work.config["scan"]["transient"] + work.config["scan"]["record"]
    iterates = per_omega * len(blocks) + sum(step for _, step in failures)
    return {
        "grid": grid,
        "blocks": blocks,
        "escaped": len(failures),
        "iterates": iterates,
        "sampled": len(blocks),
        "attempted": int(grid.size),
    }


def check_sweep(work: Workload, facts: dict) -> list:
    """Criterion 9 on the sweep, plus agreement with the reference labels."""
    import numpy as np

    from jetmap import duffing

    problems = []
    first, last = {}, {}
    for omega, period in zip(facts["grid"], cm.labels(facts["blocks"], facts["grid"])):
        if period in (1, 2, 4):
            first.setdefault(period, omega)
            last[period] = omega
    if not set(first) >= {1, 2, 4}:
        return [f"periods 1, 2, 4 not all seen: {sorted(first)}"]
    if not first[1] < first[2] < first[4]:
        problems.append(f"period onsets out of order: {first}")
    if not last[1] < first[2]:
        problems.append("period-1 detections continue past the first period 2")
    for label, value in (("last period-1", last[1]), ("first period-2", first[2])):
        if not 1.263 <= value <= 1.273:
            problems.append(f"{label} omega {value} outside [1.263, 1.273]")
    # the grid omega nearest 1.2902 lies within half a step of it
    near = float(facts["grid"][np.argmin(np.abs(facts["grid"] - 1.2902))])
    chaotic = cm.block_at(facts["blocks"], near)
    if chaotic is None:
        problems.append(f"omega={near:.4f} has no samples")
    elif len(chaotic) != work.config["scan"]["record"] or not np.all(np.isfinite(chaotic)):
        problems.append(f"omega={near:.4f} samples are short or not finite")
    elif np.abs(chaotic).max() >= 50.0:
        problems.append(f"omega={near:.4f} orbit is not bounded by 50")
    elif duffing.detect_period(chaotic, tol=1e-6, max_period=64) is not None:
        problems.append(f"omega={near:.4f} orbit is periodic")
    if not work.smoke:
        problems += _agree(facts["blocks"], work.ref_labels, "sweep")
    return problems


def check_exact(work: Workload, facts: dict) -> list:
    """Labels are periods 1, 2, 4, in doubling order, and agree with the
    reference sweep wherever its orbit did not escape."""
    labels = cm.labels(facts["blocks"], facts["grid"])
    if "escaped" in labels:
        return [f"exact orbits escaped: {labels}"]
    if work.smoke:
        return []
    problems = []
    if labels != cm.EXACT_LABELS:
        problems.append(f"labels {labels}, not the periods {cm.EXACT_LABELS}")
    return problems + _agree(facts["blocks"], work.ref_labels, "exact")


# -- determinism ----------------------------------------------------------------


class History:
    """Output hashes of earlier runs in this checkout, per config and
    sources, kept in perfbench/out/history.json.  The builds' configs do not
    depend on the seed; the scans' do, through the grid offset."""

    path = cm.OUT_DIR / "history.json"

    def __init__(self, work: Workload):
        config = hashlib.sha256(json.dumps(work.config, sort_keys=True).encode()).hexdigest()
        self.key = f"{work.name}|config={config}|src={cm.source_digest()}"
        try:
            self.all = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.all = {}
        self.outputs = self.all.get(self.key)

    def check(self, digests: list) -> list:
        """Outputs must repeat byte for byte, within this run and across runs."""
        problems = []
        if any(d != digests[0] for d in digests[1:]):
            problems.append("outputs differ between calls of this run")
        if self.outputs is not None and self.outputs != digests[0]:
            problems.append(f"outputs differ from an earlier run of the same config: {self.outputs}")
        return problems

    def save(self, digests: dict) -> None:
        self.all[self.key] = digests
        cm.write_json(self.path, self.all)


# -- per-layer metrics ------------------------------------------------------------


def _median_call(fn, batch: int = 10, reps: int = 60) -> float:
    """Median seconds per call over `reps` batches of `batch` calls."""
    fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples)


def micro_calls(rng, p: int, poly_map) -> dict:
    """Seeded single-call timings of the layers at (3, p), and of one step of
    the polynomial map `poly_map`."""
    import numpy as np

    from jetmap import duffing, jet, monoidx, vareq

    table = monoidx.build_table(3, p)
    u = jet.Jet(table, rng.normal(size=table.L))
    v = jet.Jet(table, rng.normal(size=table.L))
    system = duffing.duffing_scaled_rhs(cm.BETA, cm.EPS, sigma=cm.EXPANSION[2])
    center = np.array(cm.EXPANSION) + rng.uniform(-0.05, 0.05, 3) * [1.0, 1.0, 0.1]
    state = jet.state_about(table, center)
    t = float(rng.uniform(0.0, duffing.TWO_PI))
    ctab = vareq.c_coefficients(3, p, table)
    g = rng.normal(size=(3, table.L))
    scratch = np.empty((table.L, table.L))

    omega = float(rng.uniform(1.266, 1.285))
    dsigma = 1.0 / omega - poly_map.expansion_point[2]
    zeta0 = rng.uniform(-0.02, 0.02, 2)

    def per_iterate(n: int = 200) -> float:
        # should the orbit leave the trust region, time the iterates it made
        start = time.perf_counter()
        try:
            duffing.iterate_map(poly_map, zeta0, dsigma, n)
        except duffing.EscapeError as err:
            n = max(err.step, 1)
        return (time.perf_counter() - start) / n

    return {
        "jet.prod_us": 1e6 * _median_call(lambda: jet.prod(u, v)),
        "jet.add_us": 1e6 * _median_call(lambda: u + v),
        "jet.rhs_us": 1e6 * _median_call(lambda: system.rhs(state, t), batch=2),
        "vareq.contraction_us": 1e6 * _median_call(lambda: ctab.contraction_matrix(g, scratch), batch=2),
        "duffing.poly_iterate_us": 1e6 * statistics.median(per_iterate() for _ in range(7)),
        "monoidx.box_pairs": int(table.flat_box.size),
    }


def layer_metrics(work: Workload, tracer, traced_s: float, untraced_s: float,
                  checks: dict, facts: dict | None) -> dict:
    import numpy as np

    from jetmap import vareq

    stats = tracer.step_stats
    accepted = sum(s.accepted for s in stats)
    rejected = sum(s.rejected for s in stats)
    h_min = min((s.h_min for s in stats if s.accepted), default=0.0)
    h_max = max((s.h_max for s in stats), default=0.0)
    # the jet layers at the workload's order; the map step on the order-8
    # map that sweep_taylor iterates
    order = work.spec.get("order", 8)
    sweep_map = cm.REF_DIR / work.manifest[cm.SWEEP_MAP]["file"]
    poly_map = vareq.taylor_map_from_dict(json.loads(sweep_map.read_text()))
    micro = micro_calls(work.micro_rng, order, poly_map)
    periods = tracer.durations("duffing.exact_map")
    return {
        "monoidx.build_table_ms": 1e3 * tracer.total("monoidx.build_table"),
        "monoidx.box_pairs": micro["monoidx.box_pairs"],
        "jet.prod_us": micro["jet.prod_us"],
        "jet.add_us": micro["jet.add_us"],
        "jet.prod_calls": tracer.count("jet.prod"),
        "jet.prod_flops": 2 * tracer.count("jet.prod") * micro["monoidx.box_pairs"],
        "jet.rhs_calls": tracer.count("jet.rhs"),
        "jet.rhs_self_s": tracer.self_time("jet.rhs"),
        "jet.rhs_us": micro["jet.rhs_us"],
        "jetode.steps_accepted": accepted,
        "jetode.steps_rejected": rejected,
        "jetode.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "jetode.h_min": h_min,
        "jetode.h_max": h_max,
        "jetode.self_s": tracer.self_time("jetode.rkf45"),
        "jetode.step_self_us": (
            1e6 * tracer.self_time("jetode.rkf45") / (accepted + rejected) if accepted + rejected else 0.0
        ),
        "vareq.c_table_s": tracer.total("vareq.c_coefficients"),
        "vareq.c_entries": tracer.c_entries,
        "vareq.contraction_calls": tracer.count("vareq.contraction_matrix"),
        "vareq.contraction_us": micro["vareq.contraction_us"],
        "vareq.contraction_self_s": tracer.self_time("vareq.contraction_matrix"),
        "vareq.expand_rhs_self_s": tracer.self_time("vareq.expand_rhs"),
        "vareq.map_load_ms": 1e3 * tracer.total("vareq.taylor_map_from_dict"),
        "vareq.coeff_gap": checks.get("coeff_gap", 0.0),
        "vareq.probe_err": checks.get("probe_err", 0.0),
        "duffing.iterates": facts["iterates"] if facts else 0,
        "duffing.escaped": facts["escaped"] if facts else 0,
        "duffing.poly_iterate_us": micro["duffing.poly_iterate_us"],
        "duffing.scan_self_s": tracer.self_time("duffing.feigenbaum_scan"),
        "duffing.exact_periods": tracer.count("duffing.exact_map"),
        "duffing.exact_period_ms_p50": 1e3 * float(np.percentile(periods, 50)) if periods else 0.0,
        "duffing.exact_period_ms_p90": 1e3 * float(np.percentile(periods, 90)) if periods else 0.0,
        "cli.self_s": tracer.self_time("cli.main"),
        "cli.out_bytes": sum(p.stat().st_size for p in work.outputs()),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.span_name),
    }


# -- metrics and the run ------------------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "solve_rel": "ratio",
    "covered_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "monoidx.build_table_ms": "ms",
    "monoidx.box_pairs": "count",
    "jet.prod_us": "us",
    "jet.add_us": "us",
    "jet.prod_calls": "count",
    "jet.prod_flops": "count",
    "jet.rhs_calls": "count",
    "jet.rhs_self_s": "s",
    "jet.rhs_us": "us",
    "jetode.steps_accepted": "count",
    "jetode.steps_rejected": "count",
    "jetode.accept_ratio": "ratio",
    "jetode.h_min": "1",
    "jetode.h_max": "1",
    "jetode.self_s": "s",
    "jetode.step_self_us": "us",
    "vareq.c_table_s": "s",
    "vareq.c_entries": "count",
    "vareq.contraction_calls": "count",
    "vareq.contraction_us": "us",
    "vareq.contraction_self_s": "s",
    "vareq.expand_rhs_self_s": "s",
    "vareq.map_load_ms": "ms",
    "vareq.coeff_gap": "ratio",
    "vareq.probe_err": "1",
    "duffing.iterates": "count",
    "duffing.escaped": "count",
    "duffing.poly_iterate_us": "us",
    "duffing.scan_self_s": "s",
    "duffing.exact_periods": "count",
    "duffing.exact_period_ms_p50": "ms",
    "duffing.exact_period_ms_p90": "ms",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(args) -> int:
    cm.ensure_src_on_path()
    import numpy as np

    from jetmap import cli

    work = Workload(args.workload, args.seed, args.smoke)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    history = History(work)
    calls = []
    tracer = None
    if args.trace:
        # the tracing overhead is the traced call's time less the untraced
        # call's just before it; the clock marks would hide the tracer's
        # right sides from it
        calls.append(timed_call(work, cli.main))
        if calls[0].code == 0:
            from tracer import Tracer

            tracer = Tracer(run_id=f"{work.name}-{args.seed}-{os.getpid()}")
            with tracer.install():
                calls.append(timed_call(work, cli.main))
    else:
        calibration = Calibration()
        loop_start = time.perf_counter()
        while True:
            calls.append(timed_call(work, cli.main, calibration))
            if calls[-1].code != 0 or time.perf_counter() - loop_start + calls[-1].seconds > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"exit code {c.code}" for c in calls if c.code != 0]
    checks: dict = {}
    facts = None
    if not problems:
        problems += history.check([c.outputs for c in calls])
        if work.kind == "build":
            found, checks = check_build(work)
            problems += found
        else:
            facts = scan_facts(work)
            problems += (check_sweep if work.kind == "sweep" else check_exact)(work, facts)
    if not problems:
        history.save(calls[0].outputs)

    solve_s, solve_rel = (calls[0].seconds, None) if args.trace else solve_times(calls)
    if work.kind == "build":
        iterates = sum(s.accepted + s.rejected for s in calls[0].step_stats)
        covered = 0.0 if problems else 1.0
    else:
        iterates = facts["iterates"] if facts else 0
        covered = facts["sampled"] / facts["attempted"] if facts and not problems else 0.0

    if args.trace:
        if tracer:
            values = layer_metrics(work, tracer, calls[-1].seconds, solve_s, checks, facts)
            tracer.write(work.dir / "spans.csv")
        else:
            values = dict.fromkeys(PER_LAYER, 0)
        metrics = _metrics(values, PER_LAYER)
    else:
        metrics = _metrics(
            {
                "setup_s": setup_s,
                "solve_rel": solve_rel,
                "covered_frac": covered,
                "peak_rss_mb": peak_rss_mb,
            },
            END_TO_END,
        )

    record = {
        "workload": work.name,
        "seed": work.seed,
        "grid_offset_k": work.k,
        "smoke": work.smoke,
        "trace": bool(args.trace),
        "source_sha256": cm.source_digest(),
        "git_rev": cm.git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in cm.BLAS_THREAD_VARS},
        "call_seconds": [c.seconds for c in calls],
        "windows_per_call": [len(c.windows) for c in calls],
        "solve_s": solve_s,
        "iterates": iterates,
        "iterates_per_s": iterates / solve_s,
        "output_sha256": calls[0].outputs,
        "problems": problems,
    }
    cm.write_json(work.dir / "record.json", record)
    print(json.dumps(record), file=sys.stderr)
    for problem in problems:
        print(f"FAILED {work.name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(calls) if problems else 0,
        "metrics": metrics,
    }))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny orders and grids")
    parser.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    parser.add_argument("--t0", type=float, default=None, help="launch time (epoch seconds)")
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.time()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
