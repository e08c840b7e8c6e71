"""The attributes the benchmark under perfbench/ wraps from outside the package.

The tracer replaces each attribute in its owner's ``__dict__``, and the clock
marks cut a workload's calls into windows at fixed points.  A clock mark
whose attribute is gone is skipped and its call is timed as one window, so
renaming one of these names belongs with the hook that names it.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from jetmap import cli, jet, monoidx, vareq
from jetmap import duffing as duf
from jetmap import jetode as ode

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# the points perfbench/workload.py's clock_marks patches: each right side of
# an integration, each period of the exact map, each omega of a scan
CLOCK_MARKS = [(ode, "rkf45"), (duf, "_run_poly"), (duf.ExactStroboscopicMap, "__call__")]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_exist():
    tracer = _load_tracer()
    for owner_spec, attr, name in tracer.SPANS + tracer.HOT:
        assert attr in vars(tracer._owner(owner_spec)), f"{owner_spec}.{attr} ({name})"


@pytest.mark.parametrize("owner, attr", CLOCK_MARKS)
def test_clock_mark_points_exist(owner, attr):
    assert attr in vars(owner)


def test_scan_runs_each_omega_through_the_marked_name(monkeypatch):
    omegas = []
    run = duf._run_poly

    def counted(map_at, omega, *args):
        omegas.append(omega)
        return run(map_at, omega, *args)

    monkeypatch.setattr(duf, "_run_poly", counted)
    duf.feigenbaum_scan("exact", 0.1, 0.0, [1.0, 2.0], transient=1, record=1, tol=1e-6)
    assert omegas == [1.0, 2.0]


def test_exact_scan_calls_the_class_patched_map_once_per_application(monkeypatch):
    # scan_exact's clock marks each call of the class attribute: the orbit
    # kernel must reach it once per map application, not bind it elsewhere
    calls = []
    call = duf.ExactStroboscopicMap.__call__

    def counted(self, point):
        calls.append(point)
        return call(self, point)

    monkeypatch.setattr(duf.ExactStroboscopicMap, "__call__", counted)
    result = duf.feigenbaum_scan("exact", 0.1, 1.5, [1.0, 1.5, 2.0], transient=3, record=2, tol=1e-6)
    assert len(calls) == sum(result.applications) == 15


def test_the_benchmark_calls_keep_their_forms():
    # every call perfbench/workload.py and perfbench/common.py make into the
    # package, in their argument forms, on tiny inputs: a signature change
    # fails here instead of in the benchmark
    rng = np.random.default_rng(0)
    p = 2
    table = monoidx.build_table(3, p)
    assert table.flat_box.size == math.comb(p + 6, 6)
    u, v = (jet.Jet(table, rng.normal(size=table.L)) for _ in range(2))
    assert np.array_equal(jet.prod(u, v).coeffs, (u * v).coeffs)
    assert np.array_equal((u + v).coeffs, u.coeffs + v.coeffs)
    ctab = vareq.c_coefficients(3, p, table)
    assert ctab.values.size == len(ctab.entries) > 0
    g = rng.normal(size=(3, table.L))
    scratch = np.empty((table.L, table.L))
    assert ctab.contraction_matrix(g, scratch) is scratch

    expansion = [0.0, 0.0, 0.5]
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=expansion[2])
    assert len(system.rhs(jet.state_about(table, expansion), 0.3)) == 3
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, expansion, p, ode.adaptive(1e-9))
    loaded = vareq.taylor_map_from_dict(json.loads(json.dumps(vareq.taylor_map_to_dict(tmap))))
    assert np.array_equal(loaded.table.exponents, table.exponents)
    assert np.array_equal(loaded.coefficient_matrix(), tmap.coefficient_matrix())
    assert loaded.order == p and loaded.expansion_point == tuple(expansion)
    dev = np.array([1e-3, -1e-3, 0.0])
    start = tuple(np.array(expansion) + dev)
    exact, _, _ = ode.rkf45(system, start, 0.0, duf.TWO_PI, ode.adaptive(1e-12))
    assert np.max(np.abs(loaded.final_state(dev)[:2] - np.array(exact[:2]))) < 1e-6

    orbit = duf.iterate_map(loaded, rng.uniform(-0.02, 0.02, 2), 0.0, 4)
    assert orbit.shape == (5, 2)
    assert duf.detect_period(orbit, tol=1e-6, max_period=64) is None
    assert duf.EscapeError("escaped", 3).step == 3
    grid = cli._omega_grid({"omega_start": 1.25, "omega_stop": 1.27, "omega_step": 0.01})
    assert np.allclose(grid, [1.25, 1.26, 1.27])

    # the workloads load the read-only maps under perfbench/ref as written
    maps = sorted((PERFBENCH / "ref").glob("duffing_*.json"))
    assert len(maps) == 3
    for path in maps:
        data = json.loads(path.read_text())
        ref_map = vareq.taylor_map_from_dict(data)
        written = vareq.taylor_map_to_dict(ref_map)
        assert written == {"diagnostics": [], **{k: v for k, v in data.items() if k != "config"}}


def test_a_backward_build_contracts_through_the_traced_method_once_per_right_side(monkeypatch):
    # the tracer's vareq.contraction_matrix span counts calls of the class
    # attribute; every right side of the coefficient march must make one
    calls = []
    contraction_matrix = vareq.CCoefficientTable.contraction_matrix

    def counted(self, g, out):
        calls.append(None)
        return contraction_matrix(self, g, out)

    monkeypatch.setattr(vareq.CCoefficientTable, "contraction_matrix", counted)
    tmap = duf.stroboscopic_taylor_map(
        0.1, 1.5, [0.3, 0.4, 0.5], 2, ode.adaptive(1e-9), method="backward"
    )
    _, coefficients = tmap.diagnostics
    attempts = coefficients.accepted + coefficients.rejected
    assert len(calls) == 11 * attempts + coefficients.accepted > 0


def test_an_exact_scan_runs_under_the_tracer():
    # the tracer wraps duffing_rhs's right side, which then carries no
    # expressions; the exact map builds its Taylor marches from the source
    # itself, so a traced scan runs, with its periods on the traced span
    tracer = _load_tracer().Tracer(run_id="test")
    with tracer.install():
        result = duf.feigenbaum_scan("exact", 0.1, 1.5, [1.0, 2.0], transient=3, record=2, tol=1e-6)
    assert not result.failures
    assert tracer.count("duffing.exact_map") == sum(result.applications) > 0
