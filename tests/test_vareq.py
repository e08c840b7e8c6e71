"""Variational-equation tests: forcing terms, C table, forward/backward maps."""

import json
import math

import numpy as np
import pytest

from jetmap import duffing as duf
from jetmap import jet as jt
from jetmap import jetode as ode
from jetmap import monoidx as mi
from jetmap import vareq as vq

from conftest import FP_OMEGA, FP_P, FP_Q
from oracles import (
    backward_solve_stacked,
    c_coefficients_by_rank,
    contraction_matrix_add_at,
    fix_parameters,
    forward_variational_rhs,
    lift_parameters,
    linear_matrix,
    two_var_oracle_rhs,
)

# every (m, p) with m <= 3 and p <= 6, and four and five variables at low order
C_TABLE_GRID = [(m, p) for m in (1, 2, 3) for p in range(7)] + [(4, 4), (5, 3), (4, 0), (5, 0)]


@pytest.fixture(scope="module")
def t33():
    return mi.build_table(3, 3)


# -- expand_rhs -----------------------------------------------------------------


def test_expand_rhs_duffing_forcing_terms(t33):
    beta, eps = 0.1, 1.5
    zd = (0.3, 0.4, 0.5)
    t = 0.7
    system = duf.duffing_scaled_rhs(beta, eps, sigma=zd[2])
    fvals, g = vq.expand_rhs(system, zd, t, t33)
    z1, z2, z3 = zd
    s = math.sin(t)

    assert fvals[0] == pytest.approx(z2)
    assert fvals[1] == pytest.approx(
        -2 * beta * z3 * z2 - z3**2 * z1 - z1**3 - eps * z3**3 * s
    )
    assert fvals[2] == 0.0

    def coeff(a, exponents):
        return g[a - 1, mi.rank(exponents) - 1]

    # the eleven nonzero forcing terms of the sigma-lifted system
    assert coeff(1, (0, 1, 0)) == pytest.approx(1.0)
    assert coeff(2, (1, 0, 0)) == pytest.approx(-3 * z1**2 - z3**2)
    assert coeff(2, (0, 1, 0)) == pytest.approx(-2 * beta * z3)
    assert coeff(2, (0, 0, 1)) == pytest.approx(
        -2 * beta * z2 - 2 * z1 * z3 - 3 * eps * z3**2 * s
    )
    assert coeff(2, (2, 0, 0)) == pytest.approx(-3 * z1)
    assert coeff(2, (1, 0, 1)) == pytest.approx(-2 * z3)
    assert coeff(2, (0, 1, 1)) == pytest.approx(-2 * beta)
    assert coeff(2, (0, 0, 2)) == pytest.approx(-z1 - 3 * eps * z3 * s)
    assert coeff(2, (3, 0, 0)) == pytest.approx(-1.0)
    assert coeff(2, (1, 0, 2)) == pytest.approx(-1.0)
    assert coeff(2, (0, 0, 3)) == pytest.approx(-eps * s)

    # everything else vanishes, including the whole lifted-parameter row
    mask = np.ones_like(g, dtype=bool)
    mask[0, mi.rank((0, 1, 0)) - 1] = False
    for exponents in [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 0, 1),
        (0, 1, 1), (0, 0, 2), (3, 0, 0), (1, 0, 2), (0, 0, 3),
    ]:
        mask[1, mi.rank(exponents) - 1] = False
    assert np.all(g[mask] == 0.0)
    assert np.all(g[2] == 0.0)


def test_expand_rhs_zero_system(t33):
    zero = ode.OdeSystem(dim=3, rhs=lambda s, t: (0.0 * s[0], 0.0 * s[1], 0.0 * s[2]))
    fvals, g = vq.expand_rhs(zero, (1.0, -2.0, 0.5), 0.0, t33)
    assert np.all(fvals == 0.0)
    assert np.all(g == 0.0)


def test_expand_rhs_refuses_a_return_of_the_wrong_count_or_shape(t33):
    # a short tuple used to leave rows of g unwritten, and jets over another
    # table of the same length L were copied as they were
    t119 = mi.build_table(1, 19)
    assert t119.L == t33.L
    other = jt.state_about(t119, (1.0,)) * 3
    for wrong, error in (
        (lambda s, t: (s[1], s[0]), ValueError),
        (lambda s, t: np.zeros((2, t33.L)), ValueError),
        (lambda s, t: other, mi.TableMismatchError),
    ):
        with pytest.raises(error):
            vq.expand_rhs(ode.OdeSystem(dim=3, rhs=wrong), (0.3, 0.4, 0.5), 0.7, t33)


def test_expand_rhs_returns_arrays_that_the_next_call_leaves_alone(t33):
    # the Duffing right side returns its memo's own array, which its next
    # evaluation at the same sigma rewrites; expand_rhs hands back copies
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    fvals, g = vq.expand_rhs(system, (0.3, 0.4, 0.5), 0.7, t33)
    kept = fvals.tobytes(), g.tobytes()
    other = vq.expand_rhs(system, (-0.2, 0.9, 0.5), 1.9, t33)
    assert (fvals.tobytes(), g.tobytes()) == kept
    assert not any(np.shares_memory(u, v) for u in (fvals, g) for v in other)


def test_expand_rhs_forcing_matches_sympy_oracle(t33):
    # independent derivation: sympy expansion of f(zd + zeta) in the deviations,
    # in the textbook form; its constant term checks the design value of the
    # jet branch and the value of the float branch, which share no expression
    # with it
    sympy = pytest.importorskip("sympy")
    beta, eps, s_val = 0.1, 1.5, math.sin(0.7)
    zd = (0.3, 0.4, 0.5)
    z = sympy.symbols("zeta1 zeta2 zeta3")
    full = [sympy.Float(zd[a], 30) + z[a] for a in range(3)]
    f2 = (
        -2 * beta * full[2] * full[1]
        - full[2] ** 2 * full[0]
        - full[0] ** 3
        - eps * full[2] ** 3 * s_val
    )
    poly = sympy.Poly(sympy.expand(f2), *z)
    system = duf.duffing_scaled_rhs(beta, eps, sigma=zd[2])
    fvals, g = vq.expand_rhs(system, zd, 0.7, t33)
    value = float(poly.coeff_monomial(1))
    assert fvals[1] == pytest.approx(value, abs=1e-12)
    assert system.rhs(zd, 0.7)[1] == pytest.approx(value, abs=1e-12)
    for r in range(2, t33.L + 1):
        exponents = t33.unrank(r)
        expected = float(poly.coeff_monomial(z[0] ** exponents[0] * z[1] ** exponents[1] * z[2] ** exponents[2]))
        assert g[1, r - 1] == pytest.approx(expected, abs=1e-12)


def test_expand_rhs_hands_each_call_read_only_jets_of_its_own(t33):
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    points = ((0.3, 0.4, 0.5), (-1.0, 2.0, 0.25))
    seen = []

    def keeping_rhs(state, t):
        seen.append(state)
        return system.rhs(state, t)

    keeping = ode.OdeSystem(dim=3, rhs=keeping_rhs)
    for zd in points:
        vq.expand_rhs(keeping, zd, 0.7, t33)
    # the jets handed to the right side stay as they were handed over, on
    # buffers that no other jet of this or a later call shares
    for state, zd in zip(seen, points):
        for a, z in enumerate(state):
            assert z == jt.state_about(t33, zd)[a]
            assert not z.coeffs.flags.writeable
    jets = [z for state in seen for z in state]
    for i, u in enumerate(jets):
        for v in jets[i + 1:]:
            assert not np.shares_memory(u.coeffs, v.coeffs)


# -- C coefficients -----------------------------------------------------------------


def test_c_coefficients_published_two_variable_table():
    table = mi.build_table(2, 2)
    ctab = vq.c_coefficients(2, 2, table)
    # published rows in degree>=1 labels (r, b, r', r'', C); the final row's
    # printed value 1 is a typo for 2: differentiating zeta2^2 doubles,
    # mirroring the (3, 1, 3, 1) entry, and the explicit backward
    # two-variable equations carry the factor 2
    published = [
        (1, 1, 1, 1, 1), (1, 2, 2, 1, 1), (2, 1, 1, 2, 1), (2, 2, 2, 2, 1),
        (3, 1, 1, 3, 1), (3, 1, 3, 1, 2), (3, 2, 2, 3, 1), (3, 2, 4, 1, 1),
        (4, 1, 1, 4, 1), (4, 1, 3, 2, 2), (4, 1, 4, 1, 1), (4, 2, 2, 4, 1),
        (4, 2, 4, 2, 1), (4, 2, 5, 1, 2), (5, 1, 1, 5, 1), (5, 1, 4, 2, 1),
        (5, 2, 2, 5, 1), (5, 2, 5, 2, 2),
    ]
    assert ctab.entries == {
        (r + 1, b, rp + 1, rpp + 1): v for r, b, rp, rpp, v in published
    }


@pytest.mark.parametrize("m,p", C_TABLE_GRID)
def test_c_coefficients_are_the_rank_loops_arrays(m, p):
    table = mi.build_table(m, p)
    ours, loop = vq.c_coefficients(m, p, table), c_coefficients_by_rank(m, p, table)
    for name in ("idx_out", "idx_g", "values"):
        got, want = getattr(ours, name), getattr(loop, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("m,p", C_TABLE_GRID)
def test_c_coefficients_hold_one_entry_per_box_pair_and_variable(m, p):
    # each pair (d, r'') of a box with r'' not constant, for each b
    table = mi.build_table(m, p)
    assert vq.c_coefficients(m, p, table).values.size == m * (math.comb(p + 2 * m, 2 * m) - table.L)


@pytest.mark.parametrize("m,p", [(1, 4), (2, 3), (3, 2)])
def test_c_coefficients_sympy_differentiation_oracle(m, p):
    sympy = pytest.importorskip("sympy")
    table = mi.build_table(m, p)
    ctab = vq.c_coefficients(m, p, table)
    z = sympy.symbols(f"z1:{m + 1}")

    def monomial(r):
        exponents = table.unrank(r)
        out = sympy.Integer(1)
        for a in range(m):
            out *= z[a] ** exponents[a]
        return out

    expected = {}
    for b in range(1, m + 1):
        for rp in range(2, table.L + 1):
            derivative = sympy.diff(monomial(rp), z[b - 1])
            if derivative == 0:
                continue
            for rpp in range(2, table.L + 1):
                product = sympy.expand(derivative * monomial(rpp))
                poly = sympy.Poly(product, *z)
                if sum(poly.total_degree() for _ in (1,)) > p:
                    continue
                monoms = poly.monoms()
                assert len(monoms) == 1
                coeff = int(poly.coeffs()[0])
                r = mi.rank(monoms[0])
                expected[(r, b, rp, rpp)] = coeff
    assert ctab.entries == expected


def test_c_coefficients_single_variable_rule():
    # one variable: C^j_{1, j', j''} = j' exactly when (j'-1) + j'' = j
    table = mi.build_table(1, 5)
    ctab = vq.c_coefficients(1, 5, table)
    for (r, b, rp, rpp), value in ctab.entries.items():
        j, jp, jpp = r - 1, rp - 1, rpp - 1
        assert b == 1
        assert (jp - 1) + jpp == j
        assert value == jp
    expected_count = sum(
        1 for jp in range(1, 6) for jpp in range(1, 6) if (jp - 1) + jpp <= 5
    )
    assert len(ctab.entries) == expected_count


@pytest.mark.parametrize("m,p", [(2, 3), (3, 3)])
def test_c_coefficients_degree_law(m, p):
    table = mi.build_table(m, p)
    ctab = vq.c_coefficients(m, p, table)
    for (r, b, rp, rpp), value in ctab.entries.items():
        assert value >= 1
        assert (table.degrees[rp - 1] - 1) + table.degrees[rpp - 1] == table.degrees[r - 1]


# -- two-variable oracle fixtures ------------------------------------------------------


def test_two_var_oracle_trivial_and_units():
    zeros = np.zeros((2, 5))
    ones = np.ones((2, 5))
    assert np.all(two_var_oracle_rhs(zeros, ones, "forward") == 0.0)
    forward = two_var_oracle_rhs(ones, ones, "forward")
    assert forward[0, 0] == pytest.approx(2.0)
    backward = two_var_oracle_rhs(ones, ones, "backward")
    assert backward[0, 2] == pytest.approx(-5.0)
    with pytest.raises(ValueError):
        two_var_oracle_rhs(ones, ones, "sideways")


@pytest.mark.parametrize("seed", range(5))
def test_backward_contraction_matches_oracle(seed):
    # generic C-contraction against the transcribed backward equations
    rng = np.random.default_rng(seed)
    g15 = rng.normal(size=(2, 5))
    h15 = rng.normal(size=(2, 5))
    table = mi.build_table(2, 2)
    ctab = vq.c_coefficients(2, 2, table)
    g = np.zeros((2, 6))
    h = np.zeros((2, 6))
    g[:, 1:] = g15
    h[:, 1:] = h15
    amat = np.empty((6, 6))
    ctab.contraction_matrix(g, amat)
    generic = -(h @ amat.T)[:, 1:]
    oracle = two_var_oracle_rhs(g15, h15, "backward")
    assert np.max(np.abs(generic - oracle)) < 1e-13


@pytest.mark.parametrize("m,p", [(2, 3), (3, 2), (3, 8)])
def test_contraction_matrix_bits_match_add_at(m, p):
    table = mi.build_table(m, p)
    ctab = vq.c_coefficients(m, p, table)
    g = np.random.default_rng(m * 10 + p).normal(size=(m, table.L))
    amat = np.full((table.L, table.L), np.nan)
    assert ctab.contraction_matrix(g, amat) is amat
    # bit for bit, signs of zero included
    assert amat.tobytes() == contraction_matrix_add_at(ctab, g, table.L).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_forward_composition_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    g15 = rng.normal(size=(2, 5))
    h15 = rng.normal(size=(2, 5))
    table = mi.build_table(2, 2)
    g = np.zeros((2, 6))
    h = np.zeros((2, 6))
    g[:, 1:] = g15
    h[:, 1:] = h15
    generic = forward_variational_rhs(g, h, table)[:, 1:]
    oracle = two_var_oracle_rhs(g15, h15, "forward")
    assert np.max(np.abs(generic - oracle)) < 1e-13


# -- forward solve ------------------------------------------------------------------


def test_forward_solve_single_variable_series():
    system = ode.OdeSystem(dim=1, rhs=lambda s, t: (-2.0 * t * s[0] ** 2,))
    table = mi.build_table(1, 5)
    tmap = vq.forward_solve(system, [1.0], 0.0, 1.0, table, ode.adaptive(1e-12))
    expected = [0.5, 0.25, -0.125, 0.0625, -0.03125, 0.015625]
    assert np.max(np.abs(tmap.rows[0].coeffs - expected)) < 1e-10
    assert tmap.design_endpoint[0] == pytest.approx(0.5, abs=1e-10)
    assert tmap.expansion_point == (1.0,)


def test_forward_solve_zero_rhs_identity():
    zero = ode.OdeSystem(dim=2, rhs=lambda s, t: (0.0 * s[0], 0.0 * s[1]))
    table = mi.build_table(2, 3)
    tmap = vq.forward_solve(zero, [0.7, -0.3], 0.0, 5.0, table, ode.adaptive(1e-12))
    for a in range(2):
        expected = np.zeros(table.L)
        expected[0] = tmap.expansion_point[a]
        expected[table.variable_rank(a + 1) - 1] = 1.0
        assert np.array_equal(tmap.rows[a].coeffs, expected)
    assert tmap.design_endpoint == tmap.expansion_point


def test_forward_solve_constant_linear_system_matches_expm():
    from test_jetode import series_expm

    a = np.array([[0.2, -1.0], [0.9, -0.5]])
    linear = ode.OdeSystem(
        dim=2,
        rhs=lambda s, t: (a[0, 0] * s[0] + a[0, 1] * s[1], a[1, 0] * s[0] + a[1, 1] * s[1]),
    )
    table = mi.build_table(2, 2)
    tmap = vq.forward_solve(linear, [0.4, 0.1], 0.0, 2.0, table, ode.adaptive(1e-12))
    assert np.max(np.abs(linear_matrix(tmap) - series_expm(a, 2.0))) < 1e-9


# -- backward solve -----------------------------------------------------------------


def test_backward_solve_zero_rhs_identity():
    zero = ode.OdeSystem(dim=2, rhs=lambda s, t: (0.0 * s[0], 0.0 * s[1]))
    table = mi.build_table(2, 3)
    tmap = vq.backward_solve(zero, [0.7, -0.3], 0.0, 5.0, table, ode.adaptive(1e-12))
    for a in range(2):
        expected = np.zeros(table.L)
        expected[0] = tmap.expansion_point[a]
        expected[table.variable_rank(a + 1) - 1] = 1.0
        assert np.max(np.abs(tmap.rows[a].coeffs - expected)) < 1e-12


def test_backward_matches_forward_two_variable_pair():
    system = ode.OdeSystem(
        dim=2, rhs=lambda s, t: (-(s[0] ** 2), 2.0 * (s[0] * s[1]))
    )
    table = mi.build_table(2, 3)
    cfg = ode.adaptive(1e-12)
    fwd = vq.forward_solve(system, [1.0, 2.0], 0.0, 1.0, table, cfg)
    bwd = vq.backward_solve(system, [1.0, 2.0], 0.0, 1.0, table, cfg)
    for a in range(2):
        assert np.max(np.abs(fwd.rows[a].coeffs - bwd.rows[a].coeffs)) < 1e-8


def test_backward_matches_forward_duffing():
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    table = mi.build_table(3, 3)
    cfg = ode.adaptive(1e-12)
    fwd = vq.forward_solve(system, [0.3, 0.4, 0.5], 0.0, duf.TWO_PI, table, cfg)
    bwd = vq.backward_solve(system, [0.3, 0.4, 0.5], 0.0, duf.TWO_PI, table, cfg)
    worst = max(
        np.max(np.abs(fwd.rows[a].coeffs - bwd.rows[a].coeffs)) for a in range(3)
    )
    assert worst < 1e-6
    # both track the printed forward pyramids; the print was produced with
    # 100 fixed steps, whose own truncation error (~2e-4 on the largest
    # entries) dominates this comparison
    from jetmap.golden import DUFFING_P3_ROW1, DUFFING_P3_ROW2

    for tmap in (fwd, bwd):
        assert np.max(np.abs(tmap.rows[0].coeffs - DUFFING_P3_ROW1)) < 5e-4
        assert np.max(np.abs(tmap.rows[1].coeffs - DUFFING_P3_ROW2)) < 5e-4


def test_forward_backward_duffing_published_point_order3():
    # the published unstable fixed point, where order-3 coefficients reach
    # 1.7e4: the routes agree to 1e-6 mixed-relative at tol 1e-9, and relative
    # step control builds the forward map in under 1,000 attempted steps
    z1, z2 = duf.to_scaled(FP_Q, FP_P, FP_OMEGA)
    expansion = (z1, z2, 1.0 / FP_OMEGA)
    fwd = duf.stroboscopic_taylor_map(0.1, 25.0, expansion, p=3, cfg=ode.adaptive(1e-9))
    bwd = duf.stroboscopic_taylor_map(
        0.1, 25.0, expansion, p=3, cfg=ode.adaptive(1e-9), method="backward"
    )
    c_fwd, c_bwd = fwd.coefficient_matrix(), bwd.coefficient_matrix()
    assert np.max(np.abs(c_fwd)) > 1e4
    assert np.max(np.abs(c_fwd - c_bwd) / (1.0 + np.abs(c_bwd))) < 1e-6
    (stats,) = fwd.diagnostics
    assert stats.accepted + stats.rejected < 1000


@pytest.fixture(scope="module")
def published_maps():
    """The order-3 forward and order-2 backward maps at tol 1e-9 about the published point."""
    z1, z2 = duf.to_scaled(FP_Q, FP_P, FP_OMEGA)
    expansion = (z1, z2, 1.0 / FP_OMEGA)
    return expansion, {
        (p, method): duf.stroboscopic_taylor_map(
            0.1, 25.0, expansion, p=p, cfg=ode.adaptive(1e-9), method=method
        )
        for p, method in ((3, "forward"), (2, "backward"))
    }


def test_published_point_step_counts(published_maps, m8_map):
    # (accepted, rejected) per integration at tol 1e-9: scalar and jet step
    # counts depend on no machine, so a change of step control shows here
    _, maps = published_maps
    counts = {key: [(s.accepted, s.rejected) for s in tmap.diagnostics] for key, tmap in maps.items()}
    counts[8, "forward"] = [(s.accepted, s.rejected) for s in m8_map[0].diagnostics]
    assert counts == {
        (3, "forward"): [(117, 12)],
        (8, "forward"): [(193, 10)],
        # the scalar design run, then the coefficient march
        (2, "backward"): [(116, 12), (119, 15)],
    }


def test_published_point_maps_keep_their_accuracy(published_maps):
    # the mixed-relative gap of each map at tol 1e-9 to an order-8 forward
    # map at tol 1e-13 stays within what the maps of the controller without
    # the PI term reached, 5.311e-9 and 1.228e-9, so fewer attempts cost no
    # accuracy
    expansion, maps = published_maps
    ref = duf.stroboscopic_taylor_map(0.1, 25.0, expansion, p=8, cfg=ode.adaptive(1e-13))
    bounds = {(3, "forward"): 5.32e-9, (2, "backward"): 1.23e-9}
    for key, tmap in maps.items():
        want = ref.coefficient_matrix()[:, : tmap.table.L]
        gap = np.max(np.abs(tmap.coefficient_matrix() - want) / (1.0 + np.abs(want)))
        assert gap <= bounds[key], key


def test_backward_parameter_row_is_exact_identity():
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    table = mi.build_table(3, 2)
    bwd = vq.backward_solve(system, [0.3, 0.4, 0.5], 0.0, duf.TWO_PI, table, ode.adaptive(1e-10))
    expected = np.zeros(table.L)
    expected[0] = 0.5
    expected[3] = 1.0
    assert np.array_equal(bwd.rows[2].coeffs, expected)


def _map_bits(tmap) -> tuple:
    return [row.coeffs.tobytes() for row in tmap.rows], tmap.design_endpoint, tmap.diagnostics


def _forced_pair():
    """z1' = z2, z2' = -z1^3 + sin(t) z2: two variables and a time-dependent coefficient."""
    return ode.OdeSystem(dim=2, rhs=lambda s, t: (s[1], -(s[0] ** 3) + math.sin(t) * s[1]))


def _lifted_logistic():
    """z' = a z - z^2 with the rate a lifted: a jet and a number on jets."""
    return ode.OdeSystem(dim=2, rhs=lambda s, t: (s[1] * s[0] - s[0] ** 2, 0.0), n_params=1)


@pytest.mark.parametrize(
    "system, zd0, p, t_f",
    [
        (duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5), (0.3, 0.4, 0.5), 2, duf.TWO_PI),
        (duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5), (0.3, 0.4, 0.5), 4, duf.TWO_PI),
        (_forced_pair(), (0.6, -0.2), 3, 2.0),
        (_lifted_logistic(), (0.4, 1.3), 6, 1.5),
    ],
    ids=["duffing-p2", "duffing-p4", "pair-p3", "logistic-lifted-p6"],
)
def test_backward_solve_matches_the_stacking_oracle_byte_for_byte(system, zd0, p, t_f):
    # one expansion per run, the march's own stage array, the right side's
    # own return and a contraction without the parameter rows' entries give
    # the maps, endpoints and step statistics of a right side that stacks
    # its state, makes new jets for every expansion and contracts every
    # entry (the logistic case returns a jet and a number, so its
    # expansion goes through store_rows)
    table, cfg = mi.build_table(len(zd0), p), ode.adaptive(1e-10)
    got = vq.backward_solve(system, zd0, 0.0, t_f, table, cfg)
    want = backward_solve_stacked(system, zd0, 0.0, t_f, table, cfg)
    assert _map_bits(got) == _map_bits(want)


def test_backward_solve_hands_every_expansion_the_same_jets():
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    table = mi.build_table(3, 2)
    seen = []

    def spying_rhs(state, t):
        if isinstance(state[0], jt.Jet):
            seen.append(state)
        return system.rhs(state, t)

    spying = ode.OdeSystem(dim=3, rhs=spying_rhs, n_params=1)
    vq.backward_solve(spying, (0.3, 0.4, 0.5), 0.0, duf.TWO_PI, table, ode.adaptive(1e-8))
    # one tuple of read-only jets for the whole run, rewritten at each expansion
    assert len(seen) > 100
    assert all(state is seen[0] for state in seen)
    assert not any(z.coeffs.flags.writeable for z in seen[0])
    # while expand_rhs hands each call its own
    handed = []
    for _ in range(2):
        vq.expand_rhs(ode.OdeSystem(dim=3, rhs=spying_rhs), (0.3, 0.4, 0.5), 0.7, table)
        handed.append(seen[-1])
    assert handed[0] is not handed[1]
    assert not any(np.shares_memory(u.coeffs, v.coeffs) for u in handed[0] for v in handed[1])


@pytest.mark.parametrize("seed", range(6))
def test_forward_backward_agreement_random_systems(seed):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(1, 4))
    degree = int(rng.integers(1, 4))
    p = int(rng.integers(2, 5))
    coeff_table = mi.build_table(m, degree)
    weights = rng.uniform(-0.5, 0.5, size=(m, coeff_table.L))
    weights *= rng.random(size=weights.shape) < 0.7

    def rhs(state, t):
        out = []
        for a in range(m):
            acc = 0.0 * state[0]
            for i in range(coeff_table.L):
                w = weights[a, i]
                if w == 0.0:
                    continue
                term = w
                for bb, exponent in enumerate(coeff_table.exponents[i]):
                    for _ in range(int(exponent)):
                        term = term * state[bb]
                acc = acc + term
            out.append(acc)
        return tuple(out)

    system = ode.OdeSystem(dim=m, rhs=rhs)
    table = mi.build_table(m, p)
    zd0 = rng.uniform(-0.4, 0.4, size=m)
    cfg = ode.adaptive(1e-12)
    fwd = vq.forward_solve(system, zd0, 0.0, 0.4, table, cfg)
    bwd = vq.backward_solve(system, zd0, 0.0, 0.4, table, cfg)
    worst = max(
        np.max(np.abs(fwd.rows[a].coeffs - bwd.rows[a].coeffs)) for a in range(m)
    )
    assert worst < 1e-8


# -- parameter lifting ----------------------------------------------------------------


def duffing_core_rhs(state, t, params):
    z1, z2 = state
    (s,) = params
    beta, eps = 0.1, 1.5
    return (
        z2,
        -2.0 * beta * (s * z2) - (s**2) * z1 - z1**3 - (eps * math.sin(t)) * s**3,
    )


def test_lift_parameters_builds_scaled_duffing(t33):
    lifted = lift_parameters(duffing_core_rhs, 2, (0.5,))
    assert lifted.dim == 3 and lifted.n_params == 1
    reference = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    state = jt.state_about(t33, [0.3, 0.4, 0.5])
    ours = _coefficient_rows(lifted.rhs(state, 0.9), t33)
    theirs = _coefficient_rows(reference.rhs(state, 0.9), t33)
    assert ours.shape == theirs.shape == (3, t33.L)
    assert ours.tobytes() == theirs.tobytes()


def _coefficient_rows(values, table) -> np.ndarray:
    """A jet right side's return as (m, L) rows: an array as it is, a jet's
    coefficients, a float as its constant row."""
    if isinstance(values, np.ndarray):
        return values
    return np.stack([v.coeffs if isinstance(v, jt.Jet) else jt.constant(table, v).coeffs for v in values])


def test_lifted_map_parameter_row_identity(t33):
    lifted = lift_parameters(duffing_core_rhs, 2, (0.5,))
    tmap = vq.forward_solve(lifted, [0.3, 0.4, 0.5], 0.0, duf.TWO_PI, t33, ode.adaptive(1e-10))
    expected = np.zeros(t33.L)
    expected[0] = 0.5
    expected[3] = 1.0
    assert np.array_equal(tmap.rows[2].coeffs, expected)


def test_lifted_map_restricts_to_unlifted_map():
    lifted = lift_parameters(duffing_core_rhs, 2, (0.5,))
    table3 = mi.build_table(3, 3)
    table2 = mi.build_table(2, 3)
    cfg = ode.adaptive(1e-12)
    full = vq.forward_solve(lifted, [0.3, 0.4, 0.5], 0.0, duf.TWO_PI, table3, cfg)
    plain = vq.forward_solve(
        fix_parameters(lifted, (0.5,)), [0.3, 0.4], 0.0, duf.TWO_PI, table2, cfg
    )
    # coefficients with zero sigma-exponent must coincide with the 2-variable map
    for a in range(2):
        for r3 in range(1, table3.L + 1):
            j1, j2, j3 = table3.unrank(r3)
            if j3 != 0:
                continue
            r2 = mi.rank((j1, j2))
            assert full.rows[a].coeffs[r3 - 1] == pytest.approx(
                plain.rows[a].coeffs[r2 - 1], abs=1e-9
            )


# -- map object behavior ----------------------------------------------------------------


def test_taylor_map_evaluate_and_jacobian():
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    table = mi.build_table(3, 3)
    tmap = vq.forward_solve(system, [0.3, 0.4, 0.5], 0.0, duf.TWO_PI, table, ode.adaptive(1e-10))
    assert np.allclose(tmap.final_state([0, 0, 0]), tmap.design_endpoint, atol=0)
    # the folded map's Jacobian against final_state differenced with sigma fixed
    dev = np.array([1e-3, -2e-3, 5e-4])
    image, jac = duf._Poly2Map(tmap, dev[2]).linearize(dev[:2])
    assert np.max(np.abs(image + tmap.expansion_point[:2] - tmap.final_state(dev)[:2])) < 1e-14
    fd = np.empty((2, 2))
    for b in range(2):
        bump = np.zeros(3)
        bump[b] = 1e-6
        fd[:, b] = (tmap.final_state(dev + bump) - tmap.final_state(dev - bump))[:2] / 2e-6
    assert np.max(np.abs(jac - fd)) < 1e-7


def _oscillator():
    return ode.expression_system(("q", "p"), "t", ("p", "-q"))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t22, t32: vq.expand_rhs(_oscillator(), (0.0, 0.0), 0.0, t32),
         "system dim 2, table m 3, design point length 2 must all agree"),
        (lambda t22, t32: vq.expand_rhs(_oscillator(), (0.0,), 0.0, t22),
         "system dim 2, table m 2, design point length 1 must all agree"),
        (lambda t22, t32: vq.TaylorMap(t22, 0.0, 1.0, (0.0, 0.0), (jt.constant(t22, 0.0),)),
         "need 2 rows, got 1"),
        (lambda t22, t32: vq.TaylorMap(t22, 0.0, 1.0, (0.0,), jt.state_about(t22, (0.0, 0.0))),
         "expansion point length must match variable count"),
        (lambda t22, t32: vq.TaylorMap(t22, 0.0, 1.0, (0.0, 0.0), jt.state_about(t22, (0.0, 0.0)))
         .final_state([0.0]), "expected 2 deviations, got (1,)"),
        (lambda t22, t32: vq.forward_solve(_oscillator(), (0.0, 0.0, 0.0), 0.0, 1.0, t32,
                                           ode.fixed_step(4)),
         "table has m=3, system has dim=2"),
        (lambda t22, t32: vq.backward_solve(_oscillator(), (0.0, 0.0, 0.0), 0.0, 1.0, t32,
                                            ode.adaptive(1e-9)),
         "table has m=3, system has dim=2"),
        (lambda t22, t32: vq.c_coefficients(2, 3, t22), "table is (m=2, p=2), asked for (2, 3)"),
    ],
    ids=["table-m", "point-length", "row-count", "expansion-length", "deviation-length",
         "forward-dim", "backward-dim", "c-table-shape"],
)
def test_vareq_refuses_disagreeing_sizes(call, message):
    with pytest.raises(ValueError) as refused:
        call(mi.build_table(2, 2), mi.build_table(3, 2))
    assert str(refused.value) == message


def test_taylor_map_serialization_round_trip():
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=2, cfg=ode.adaptive(1e-10))
    data = vq.taylor_map_to_dict(tmap)
    assert data["m_dynamical"] == 2 and data["n_params"] == 1 and data["p"] == 2
    back = vq.taylor_map_from_dict(data)
    for a in range(3):
        assert np.array_equal(back.rows[a].coeffs, tmap.rows[a].coeffs)
    assert back.expansion_point == tmap.expansion_point
    assert back.design_endpoint == tmap.design_endpoint


def _small_map_dict(table, row) -> dict:
    """A map file over ``table`` whose every row is ``row``."""
    rows = tuple(jt.Jet(table, row) for _ in range(table.m))
    point = (0.0,) * table.m
    return vq.taylor_map_to_dict(vq.TaylorMap(table, 0.0, 1.0, point, rows))


def test_map_rows_round_trip_dense_or_sparse_in_any_order():
    table = mi.build_table(2, 2)
    u = jt.Jet(table, [1.0, 0.0, -0.5, 0.0, 3.0, 0.0])
    data = _small_map_dict(table, u.coeffs)
    # every rank, written dense
    assert [len(row["coeffs"]) for row in data["rows"]] == [table.L] * 2
    assert data["rows"][0]["coeffs"][0] == {"r": 1, "exponents": [0, 0], "value": 1.0}
    assert vq.taylor_map_from_dict(data).rows[0] == u
    # missing ranks, in any order, read 0
    for row in data["rows"]:
        row["coeffs"] = [entry for entry in reversed(row["coeffs"]) if entry["value"] != 0.0]
    assert len(data["rows"][0]["coeffs"]) == 3
    assert vq.taylor_map_from_dict(data).rows == (u, u)
    data["rows"][1]["coeffs"] = []
    data["design_endpoint"] = [1.0, 0.0]
    assert vq.taylor_map_from_dict(data).rows[1] == jt.constant(table, 0.0)


@pytest.mark.parametrize(
    "entry, change",
    [
        (0, {"r": 0}),  # would write the last coefficient
        (0, {"r": 99}),
        (0, {"r": 7}),  # L + 1
        (0, {"r": 1.0}),
        (0, {"r": "1"}),
        (1, {"r": True}),  # a bool is not a rank
        (1, {"r": 1, "exponents": [0, 0]}),  # rank 1 twice
        (1, {"exponents": [1, 0]}),
        (1, {"exponents": [1, 0, 0]}),
        (2, {"exponents": [2]}),
    ],
)
def test_map_reader_refuses_entries_off_the_table(entry, change):
    table = mi.build_table(2, 2)
    data = _small_map_dict(table, [1.0, 0.0, -0.5, 0.0, 3.0, 0.0])
    # ranks 1, 3 and 5 of six
    data["rows"][0]["coeffs"] = [e for e in data["rows"][0]["coeffs"] if e["value"] != 0.0]
    data["rows"][0]["coeffs"][entry].update(change)
    with pytest.raises(ValueError, match="^coefficient"):
        vq.taylor_map_from_dict(data)


def test_map_file_value_precision_round_trip():
    table = mi.build_table(1, 2)
    coeffs = [1 / 3, np.pi, -2.0 ** -45]
    back = vq.taylor_map_from_dict(json.loads(json.dumps(_small_map_dict(table, coeffs))))
    assert np.array_equal(back.rows[0].coeffs, coeffs)


def test_taylor_map_endpoint_is_the_rows_constants():
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=2, cfg=ode.adaptive(1e-10))
    assert tmap.design_endpoint == tuple(tmap.coefficient_matrix()[:, 0])
    data = vq.taylor_map_to_dict(tmap)
    data["design_endpoint"][1] += 1e-12
    with pytest.raises(ValueError, match="design_endpoint"):
        vq.taylor_map_from_dict(data)


def test_map_diagnostics_record_step_stats():
    system = ode.OdeSystem(dim=2, rhs=lambda s, t: (-(s[0] ** 2), 2.0 * (s[0] * s[1])))
    table = mi.build_table(2, 2)
    cfg = ode.adaptive(1e-12)
    fwd = vq.forward_solve(system, [1.0, 2.0], 0.0, 1.0, table, cfg)
    bwd = vq.backward_solve(system, [1.0, 2.0], 0.0, 1.0, table, cfg)
    # one integration forward; the design run and the coefficient run backward
    assert len(fwd.diagnostics) == 1 and len(bwd.diagnostics) == 2
    for stats in fwd.diagnostics + bwd.diagnostics:
        assert stats.accepted > 0 and stats.rejected >= 0
        assert 0.0 < stats.h_min <= stats.h_max <= 1.0
    fixed = vq.forward_solve(system, [1.0, 2.0], 0.0, 1.0, table, ode.fixed_step(10))
    assert fixed.diagnostics == (ode.StepStats(accepted=10, rejected=0, h_min=0.1, h_max=0.1),)


def test_map_diagnostics_serialized_and_optional():
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=2, cfg=ode.adaptive(1e-10))
    data = vq.taylor_map_to_dict(tmap)
    (stats,) = tmap.diagnostics
    assert data["diagnostics"] == [
        {"accepted": stats.accepted, "rejected": stats.rejected,
         "h_min": stats.h_min, "h_max": stats.h_max}
    ]
    assert vq.taylor_map_from_dict(data).diagnostics == tmap.diagnostics
    # maps written before the field existed still load
    del data["diagnostics"]
    old = vq.taylor_map_from_dict(data)
    assert old.diagnostics == ()
    assert np.array_equal(old.coefficient_matrix(), tmap.coefficient_matrix())
