"""Registry of golden-value checks behind the ``verify`` CLI command.

Each check recomputes a published or hand-derivable quantity and compares it
at a pinned tolerance.  Structural checks do not depend on the adaptive
integrator's tolerance; the ``rkf`` checks accept the tolerance knob so that
a deliberately degraded run shows exactly which results are
integration-accuracy-bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import duffing as duf
from . import jet as jt
from . import jetode as ode
from . import monoidx as mi
from . import vareq as vq


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str
    ok: bool
    observed: str
    expected: str


def _result(name, kind, ok, observed, expected) -> CheckResult:
    return CheckResult(name, kind, bool(ok), str(observed), str(expected))


def _fmt(values) -> str:
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    return "[" + ", ".join(repr(float(v)) for v in arr) + "]"


# -- individual checks ---------------------------------------------------------


def check_giorgilli_ranks(tol: float) -> CheckResult:
    cases = {(0, 0, 0): 1, (1, 0, 0): 2, (2, 0, 1): 13, (1, 2, 1): 28}
    observed = {j: mi.rank(j) for j in cases}
    return _result(
        "rank-formula", "structural", observed == cases, observed, cases
    )


def check_table_sizes(tol: float) -> CheckResult:
    observed = (mi.table_size(3, 4), mi.table_size(1, 5), mi.table_size(2, 2))
    return _result("table-size", "structural", observed == (35, 6, 6), observed, (35, 6, 6))


def check_gamma_row(tol: float) -> CheckResult:
    table = mi.build_table(3, 4)
    observed = (table.unrank(17), table.unrank(1), table.L)
    expected = ((0, 3, 0), (0, 0, 0), 35)
    return _result("gamma-row-17", "structural", observed == expected, observed, expected)


def check_two_var_rows(tol: float) -> CheckResult:
    table = mi.build_table(2, 3)
    expected = [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
        (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
    ]
    observed = [table.unrank(r) for r in range(1, 11)]
    return _result("two-var-labeling", "structural", observed == expected, observed, expected)


def check_boxes(tol: float) -> CheckResult:
    table = mi.build_table(3, 4)
    observed = (
        [int(r) for r in mi.box(table, 8)],
        [int(r) for r in mi.box_rev(table, 8)],
        [int(r) for r in mi.box(table, 28)],
    )
    expected = ([1, 3, 8], [8, 3, 1], [1, 2, 3, 4, 6, 7, 8, 9, 14, 15, 18, 28])
    return _result("box-tables", "structural", observed == expected, observed, expected)


def check_vector_combination(tol: float) -> CheckResult:
    table = mi.build_table(1, 2)
    u = jt.Jet(table, [1.0, 2.0, 3.0])
    v = jt.Jet(table, [4.0, 5.0, 6.0])
    w = 0.1 * u + 0.2 * v
    expected = np.array([0.9, 1.2, 1.5])
    ok = np.max(np.abs(w.coeffs - expected)) <= 1e-14
    return _result("coordinatewise-ops", "structural", ok, _fmt(w.coeffs), _fmt(expected))


def check_product_dot(tol: float) -> CheckResult:
    table = mi.build_table(3, 4)
    u = np.zeros(table.L)
    v = np.zeros(table.L)
    u[:8] = np.arange(1, 9) * 0.1
    v[:8] = 1.0 + np.arange(1, 9) * 0.1
    w = jt.prod(jt.Jet(table, u), jt.Jet(table, v))
    observed = float(w.coeffs[7])
    ok = abs(observed - 1.45) <= 1e-14
    return _result("product-at-rank-8", "structural", ok, observed, 1.45)


def check_replacement_rule(tol: float) -> CheckResult:
    table = mi.build_table(1, 2)
    z = jt.variable(table, 1)
    a = 2.0 * jt.constant(table, 1.0) + 3.0 * jt.prod(z, z)
    expected = np.array([2.0, 0.0, 3.0])
    ok = np.array_equal(a.coeffs, expected)
    return _result("replacement-rule", "structural", ok, _fmt(a.coeffs), _fmt(expected))


def check_taylor_rule_1var(tol: float) -> CheckResult:
    table = mi.build_table(1, 2)
    shifted = jt.constant(table, 4.0) + jt.variable(table, 1)
    out = jt.polyval_on_jets(lambda z: 1 + 2 * z + 3 * z * z, [shifted])
    expected = np.array([57.0, 26.0, 3.0])
    ok = np.max(np.abs(out.coeffs - expected)) <= 1e-14
    return _result("taylor-rule-1var", "structural", ok, _fmt(out.coeffs), _fmt(expected))


def check_taylor_rule_2var(tol: float) -> CheckResult:
    table = mi.build_table(2, 2)
    g = jt.constant(table, 7.0) + jt.variable(table, 1)
    h = jt.constant(table, 8.0) + jt.variable(table, 2)
    out = jt.polyval_on_jets(
        lambda z1, z2: 1 + 2 * z1 + 3 * z2 + 4 * z1 * z1 + 5 * z1 * z2 + 6 * z2 * z2,
        [g, h],
    )
    expected = np.array([899.0, 98.0, 134.0, 4.0, 5.0, 6.0])
    ok = np.max(np.abs(out.coeffs - expected)) <= 1e-14
    return _result("taylor-rule-2var", "structural", ok, _fmt(out.coeffs), _fmt(expected))


def _decay_system() -> ode.OdeSystem:
    return ode.OdeSystem(dim=1, rhs=lambda state, t: (-2.0 * t * state[0] ** 2,))


def check_rk4_scalar(tol: float) -> CheckResult:
    (z,), _, _ = ode.rk4(_decay_system(), (1.0,), 0.0, 1.0, ode.fixed_step(10))
    observed = f"{z:.6f}"
    return _result("rk4-scalar-decay", "structural", observed == "0.500001", observed, "0.500001")


def check_rk4_jet_1var(tol: float) -> CheckResult:
    table = mi.build_table(1, 5)
    state0 = jt.state_about(table, [1.0])
    (z,), _, _ = ode.rk4(_decay_system(), state0, 0.0, 1.0, ode.fixed_step(100))
    expected = np.array([0.5, 0.25, -0.125, 0.0625, -0.03125, 0.015625])
    ok = np.max(np.abs(z.coeffs - expected)) <= 1e-6
    return _result("rk4-jet-1var", "structural", ok, _fmt(z.coeffs), _fmt(expected))


def _two_var_system() -> ode.OdeSystem:
    return ode.OdeSystem(
        dim=2,
        rhs=lambda state, t: (-state[0] ** 2, 2.0 * (state[0] * state[1])),
    )


def check_rk4_jet_2var(tol: float) -> CheckResult:
    table = mi.build_table(2, 3)
    state0 = jt.state_about(table, [1.0, 2.0])
    (z1, z2), _, _ = ode.rk4(_two_var_system(), state0, 0.0, 1.0, ode.fixed_step(100))
    expected1 = np.array([0.5, 0.25, 0, -0.125, 0, 0, 0.0625, 0, 0, 0])
    expected2 = np.array([8.0, 8, 4, 2, 4, 0, 0, 1, 0, 0])
    residual = abs(z2.coeffs[6])
    ok = (
        np.max(np.abs(z1.coeffs - expected1)) <= 1e-6
        and max(abs(z2.coeffs[i] - expected2[i]) for i in range(10) if i != 6) <= 1e-6
        and residual <= 5e-7
    )
    observed = f"row2={_fmt(z2.coeffs)} residual(r=7)={residual:.3e}"
    return _result("rk4-jet-2var", "structural", ok, observed, f"{_fmt(expected2)} |r7|<=5e-7")


# printed output of the order-3 Duffing map run: beta=.1, eps=1.5,
# start (.3, .4, .5), RK4 with 100 steps over one period
DUFFING_P3_ROW1 = np.array([
    -0.0493158, 0.973942, -0.110494, 5.51271, 3.54684, 3.46678,
    11.2762, 2.36463, 1.0985, 23.3332, -1.03541, -3.23761, -12.8064,
    4.03421, -23.4342, -17.8967, 1.96148, 5.07403, -36.9009, 25.1379,
])
DUFFING_P3_ROW2 = np.array([
    0.439713, 1.05904, 0.427613, 3.3177, 0.0872459, 0.635397, -3.02822,
    1.77416, -4.10115, 3.16981, -2.43002, -5.33643, -7.77038, -6.08476,
    -0.541465, -21.1672, -1.4091, -9.54326, 14.6334, -39.2312,
])


def duffing_p3_rk4_map() -> vq.TaylorMap:
    return duf.stroboscopic_taylor_map(
        beta=0.1,
        eps=1.5,
        expansion=(0.3, 0.4, 0.5),
        p=3,
        cfg=ode.fixed_step(100),
    )


def check_duffing_rk4_map(tol: float) -> CheckResult:
    tmap = duffing_p3_rk4_map()
    row1, row2, row3 = (row.coeffs for row in tmap.rows)
    worst = max(
        np.max(np.abs(row1 - DUFFING_P3_ROW1)), np.max(np.abs(row2 - DUFFING_P3_ROW2))
    )
    const_err = max(abs(row1[0] - -0.0493158), abs(row2[0] - 0.439713))
    expected_row3 = np.zeros(20)
    expected_row3[0] = 0.5
    expected_row3[3] = 1.0
    ok = (
        worst <= 1e-4
        and const_err <= 1e-6
        and np.array_equal(row3, expected_row3)
    )
    observed = f"max|diff|={worst:.2e} const err={const_err:.2e}"
    return _result(
        "duffing-rk4-map", "structural", ok, observed, "<=1e-4, consts <=1e-6, row3 identity"
    )


def check_duffing_forcing(tol: float) -> CheckResult:
    beta, eps = 0.1, 1.5
    z1, z2, z3 = 0.3, 0.4, 0.5
    t = 0.7
    system = duf.duffing_scaled_rhs(beta, eps, sigma=z3)
    table = mi.build_table(3, 3)
    _, g = vq.expand_rhs(system, (z1, z2, z3), t, table)
    s = math.sin(t)
    expected = np.zeros((3, table.L))
    expected[0, 2] = 1.0  # dz1/dt = z2
    row = {
        (1, 0, 0): -3 * z1**2 - z3**2,
        (0, 1, 0): -2 * beta * z3,
        (0, 0, 1): -2 * beta * z2 - 2 * z1 * z3 - 3 * eps * z3**2 * s,
        (2, 0, 0): -3 * z1,
        (1, 0, 1): -2 * z3,
        (0, 1, 1): -2 * beta,
        (0, 0, 2): -z1 - 3 * eps * z3 * s,
        (3, 0, 0): -1.0,
        (1, 0, 2): -1.0,
        (0, 0, 3): -eps * s,
    }
    for exponents, value in row.items():
        expected[1, mi.rank(exponents) - 1] = value
    worst = np.max(np.abs(g - expected))
    ok = worst <= 1e-12
    return _result("duffing-forcing-terms", "structural", ok, f"max|diff|={worst:.2e}", "<=1e-12")


def check_c_table(tol: float) -> CheckResult:
    # published nonzero C^r_{b r' r''} for two variables, degree-two window,
    # in degree>=1 labels; stored table uses full-table ranks (shift by one).
    # The (5, 2, 5, 2) entry is 2, not the printed 1: differentiating the
    # square of the second variable doubles, exactly as in the mirrored
    # (3, 1, 3, 1) entry, and the published backward equations carry the 2.
    published = [
        (1, 1, 1, 1, 1), (1, 2, 2, 1, 1), (2, 1, 1, 2, 1), (2, 2, 2, 2, 1),
        (3, 1, 1, 3, 1), (3, 1, 3, 1, 2), (3, 2, 2, 3, 1), (3, 2, 4, 1, 1),
        (4, 1, 1, 4, 1), (4, 1, 3, 2, 2), (4, 1, 4, 1, 1), (4, 2, 2, 4, 1),
        (4, 2, 4, 2, 1), (4, 2, 5, 1, 2), (5, 1, 1, 5, 1), (5, 1, 4, 2, 1),
        (5, 2, 2, 5, 1), (5, 2, 5, 2, 2),
    ]
    table = mi.build_table(2, 2)
    ctab = vq.c_coefficients(2, 2, table)
    expected = {(r + 1, b, rp + 1, rpp + 1): v for r, b, rp, rpp, v in published}
    entries = ctab.entries
    return _result(
        "c-coefficients-2var",
        "structural",
        entries == expected,
        f"{len(entries)} entries",
        f"{len(expected)} published entries",
    )


def check_rkf45_scalar(tol: float) -> CheckResult:
    (z,), _, _ = ode.rkf45(_decay_system(), (1.0,), 0.0, 1.0, ode.adaptive(tol))
    err = abs(z - 0.5)
    return _result("rkf45-scalar-decay", "rkf", err <= 1e-10, f"|z-0.5|={err:.2e}", "<=1e-10")


def check_rkf45_2var(tol: float) -> CheckResult:
    (z1, z2), _, _ = ode.rkf45(_two_var_system(), (1.0, 2.0), 0.0, 1.0, ode.adaptive(tol))
    err = max(abs(z1 - 0.5), abs(z2 - 8.0))
    return _result("rkf45-2var-decay", "rkf", err <= 1e-10, f"max err={err:.2e}", "<=1e-10")


def check_frame_conversion_orbit(tol: float) -> CheckResult:
    # one period of the (q, p)-frame flow, started at the frame image of the
    # scaled-run start (.3, .4) with omega = 2
    omega = 2.0
    params = duf.DuffingParams(beta=0.1, eps=1.5, omega=omega)
    q0, p0 = duf.to_qp(0.3, 0.4, omega)
    state, _, _ = ode.rkf45(
        duf.duffing_rhs(params), (q0, p0), 0.0, params.period, ode.adaptive(tol)
    )
    expected = duf.to_qp(-0.0493158, 0.439713, omega)
    err = max(abs(state[0] - expected[0]), abs(state[1] - expected[1]))
    ok = err <= 1e-5
    observed = f"(q,p)=({state[0]:.7f}, {state[1]:.7f}) err={err:.2e}"
    return _result("frame-conversion-orbit", "rkf", ok, observed, f"~{expected} (<=1e-5)")


def check_unstable_fixed_point(tol: float) -> CheckResult:
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 25.0, 1.285), tol)
    guess = np.array([1.26082, 2.05452])
    point, multipliers = duf.fixed_point_newton(exact, guess, tol=1e-9)
    dist = float(np.max(np.abs(point - guess)))
    unstable = bool(np.max(np.abs(multipliers)) > 1.0)
    ok = dist <= 1e-3 and unstable
    observed = f"point={point.tolist()} dist={dist:.2e} |mult|max={np.max(np.abs(multipliers)):.4f}"
    return _result("unstable-fixed-point", "rkf", ok, observed, "within 1e-3, one |mult|>1")


CHECKS: list[tuple[str, Callable[[float], CheckResult]]] = [
    ("rank-formula", check_giorgilli_ranks),
    ("table-size", check_table_sizes),
    ("gamma-row-17", check_gamma_row),
    ("two-var-labeling", check_two_var_rows),
    ("box-tables", check_boxes),
    ("coordinatewise-ops", check_vector_combination),
    ("product-at-rank-8", check_product_dot),
    ("replacement-rule", check_replacement_rule),
    ("taylor-rule-1var", check_taylor_rule_1var),
    ("taylor-rule-2var", check_taylor_rule_2var),
    ("rk4-scalar-decay", check_rk4_scalar),
    ("rk4-jet-1var", check_rk4_jet_1var),
    ("rk4-jet-2var", check_rk4_jet_2var),
    ("duffing-rk4-map", check_duffing_rk4_map),
    ("duffing-forcing-terms", check_duffing_forcing),
    ("c-coefficients-2var", check_c_table),
    ("rkf45-scalar-decay", check_rkf45_scalar),
    ("rkf45-2var-decay", check_rkf45_2var),
    ("frame-conversion-orbit", check_frame_conversion_orbit),
    ("unstable-fixed-point", check_unstable_fixed_point),
]


def run_checks(tol: float = 1e-12, names: list[str] | None = None) -> list[CheckResult]:
    selected = CHECKS if names is None else [c for c in CHECKS if c[0] in set(names)]
    return [fn(tol) for _, fn in selected]
