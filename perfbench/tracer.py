"""Span tracing of calls into jetmap's modules, done from outside the package.

`Tracer.install()` replaces module and class attributes that the library
looks up at call time (for example ``jetmap.jet.prod``, which ``Jet.__mul__``
calls through its module) with wrappers that time each call, and restores
them on exit.  Every wrapped call records a span (name, start, end, parent,
run id) in memory, except the "hot" leaves (the jet product and the scalar
right side, called millions of times), whose calls are only counted and
timed in aggregate; their time is still charged to the enclosing span, so
self times stay exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
from array import array
from pathlib import Path
from time import perf_counter

# wrapped attribute -> span name; the owner is a module or a class.  The right
# sides and rkf45 are wrapped in Tracer.install().
SPANS = [
    ("jetmap.cli", "main", "cli.main"),
    ("jetmap.monoidx", "build_table", "monoidx.build_table"),
    ("jetmap.duffing", "build_table", "monoidx.build_table"),
    ("jetmap.duffing", "stroboscopic_taylor_map", "duffing.stroboscopic_taylor_map"),
    ("jetmap.duffing", "forward_solve", "vareq.forward_solve"),
    ("jetmap.duffing", "backward_solve", "vareq.backward_solve"),
    ("jetmap.duffing", "feigenbaum_scan", "duffing.feigenbaum_scan"),
    ("jetmap.duffing:ExactStroboscopicMap", "__call__", "duffing.exact_map"),
    ("jetmap.vareq", "taylor_map_from_dict", "vareq.taylor_map_from_dict"),
    ("jetmap.vareq", "c_coefficients", "vareq.c_coefficients"),
    ("jetmap.vareq", "expand_rhs", "vareq.expand_rhs"),
    ("jetmap.vareq:CCoefficientTable", "contraction_matrix", "vareq.contraction_matrix"),
]
HOT = [("jetmap.jet", "prod", "jet.prod")]


def _owner(spec: str):
    import importlib

    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """In-memory spans plus per-name aggregates (count, total, self time)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # frames: [child seconds, span index or -1 for a hot call]
        self._stack: list[list] = []
        # name -> [count, total seconds, self seconds]
        self.agg: dict[str, list] = {}
        self.step_stats: list = []
        self.c_entries = 0

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.agg[name] = [0, 0.0, 0.0]
        return self._ids[name]

    def _close(self, name: str, frame: list, duration: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += duration
        entry = self.agg[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[0]

    def span(self, name: str, fn):
        name_id = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][1] if stack else -1)
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.span_end[index] = end
                self._close(name, frame, end - start)

        return traced

    def hot(self, name: str, fn):
        # _close inlined: hot leaves are called millions of times
        self._name_id(name)
        stack = self._stack
        entry = self.agg[name]

        def counted(*args, **kwargs):
            frame = [0.0, -1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]

        return counted

    def traced_rhs(self, system):
        """The system with its right side traced: 'jet.rhs' on jets, hot
        'duffing.rhs' on floats."""
        from jetmap.jet import Jet

        on_jets = self.span("jet.rhs", system.rhs)
        on_floats = self.hot("duffing.rhs", system.rhs)

        def rhs(state, t):
            if type(state[0]) is Jet:
                return on_jets(state, t)
            return on_floats(state, t)

        rhs.traced = True
        return dataclasses.replace(system, rhs=rhs)

    # -- installing ---------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Wrap jetmap's public entry points for the duration of the block."""
        from jetmap import duffing, jetode, vareq

        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for spec, attr, name in SPANS:
            owner = _owner(spec)
            patch(owner, attr, self.span(name, owner.__dict__[attr]))
        for spec, attr, name in HOT:
            owner = _owner(spec)
            patch(owner, attr, self.hot(name, owner.__dict__[attr]))

        c_coefficients = vareq.c_coefficients

        def counted_c_coefficients(*args, **kwargs):
            ctab = c_coefficients(*args, **kwargs)
            self.c_entries += int(ctab.values.size)
            return ctab

        patch(vareq, "c_coefficients", counted_c_coefficients)

        for factory in ("duffing_rhs", "duffing_scaled_rhs"):
            original = duffing.__dict__[factory]
            patch(duffing, factory, lambda *a, _f=original, **kw: self.traced_rhs(_f(*a, **kw)))

        rkf45 = self.span("jetode.rkf45", jetode.rkf45)

        def traced_rkf45(system, *args, **kwargs):
            # the Duffing systems arrive traced; the one other system is the
            # coefficient equations that backward_solve builds internally
            if not getattr(system.rhs, "traced", False):
                system = dataclasses.replace(
                    system, rhs=self.span("vareq.backward_rhs", system.rhs)
                )
            state, t, stats = rkf45(system, *args, **kwargs)
            self.step_stats.append(stats)
            return state, t, stats

        patch(jetode, "rkf45", traced_rkf45)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- reading ------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def durations(self, name: str) -> list[float]:
        name_id = self._ids.get(name)
        return [
            end - start
            for nid, start, end in zip(self.span_name, self.span_start, self.span_end)
            if nid == name_id
        ]

    def write(self, path: Path) -> None:
        """All spans as CSV: index, name, start, end, parent index, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,run\n")
            for i, (nid, parent) in enumerate(zip(self.span_name, self.span_parent)):
                fh.write(
                    f"{i},{self.names[nid]},{self.span_start[i]!r},{self.span_end[i]!r},"
                    f"{parent},{self.run_id}\n"
                )
