"""The attributes the benchmark under perfbench/ wraps from outside the package.

The tracer replaces each attribute in its owner's ``__dict__``, and the clock
marks cut a workload's calls into windows at fixed points.  A clock mark
whose attribute is gone is skipped and its call is timed as one window, so
renaming one of these names belongs with the hook that names it.
"""

import importlib.util
from pathlib import Path

import pytest

from jetmap import duffing as duf
from jetmap import jetode as ode

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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
