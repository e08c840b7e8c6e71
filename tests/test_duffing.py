"""Duffing application tests: frames, maps, fixed points, sweeps, attractors."""

import itertools
import math
import struct
import sys
import warnings

import numpy as np
import pytest

from jetmap import duffing as duf
from jetmap import jet as jt
from jetmap import jetode as ode
from jetmap import monoidx as mi
from jetmap import vareq as vq
from jetmap.jet import Jet, state_about

from conftest import FP_OMEGA, FP_P, FP_Q
from oracles import PhasePoint, central_difference_jacobian, horner_loop_linearize, horner_triangle
from oracles import jet_linearize, taylor_march
from oracles import duffing_rhs as closure_rhs
from oracles import duffing_scaled_rhs as full_scaled_rhs


# -- parameters and frames -------------------------------------------------------


def test_params_validation():
    duf.DuffingParams(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        duf.DuffingParams(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        duf.DuffingParams(0.1, -1.0, 1.0)
    with pytest.raises(ValueError):
        duf.DuffingParams(0.1, 1.0, 0.0)
    # the period 2 pi / omega overflows: no integration can span it
    with pytest.raises(ValueError, match="driving frequency 1e-320 has a period"):
        duf.DuffingParams(0.1, 1.0, 1e-320)
    params = duf.DuffingParams(0.1, 1.5, 2.0)
    assert params.period == pytest.approx(math.pi)


def test_frame_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        omega = rng.uniform(0.5, 3.0)
        q, p = rng.uniform(-5, 5, size=2)
        z1, z2 = duf.to_scaled(q, p, omega)
        back = duf.to_qp(z1, z2, omega)
        assert abs(back[0] - q) <= 1e-14 * max(1, abs(q))
        assert abs(back[1] - p) <= 1e-14 * max(1, abs(p))


def test_phase_point_tags():
    point = PhasePoint(0.6, 1.6, "qp")
    scaled = point.as_scaled(2.0)
    assert scaled.frame == "scaled"
    assert (scaled.x1, scaled.x2) == (0.3, 0.4)
    assert scaled.as_qp(2.0) == PhasePoint(0.6, 1.6, "qp")
    assert point.as_qp(2.0) is point
    with pytest.raises(ValueError):
        PhasePoint(0.0, 0.0, "polar")


# -- right sides ------------------------------------------------------------------


def test_duffing_rhs_values():
    params = duf.DuffingParams(0.1, 0.0, 1.0)
    system = duf.duffing_rhs(params)
    assert system.rhs((0.0, 0.0), 0.3) == (0.0, 0.0)
    no_damping = duf.duffing_rhs(duf.DuffingParams(0.0, 0.0, 1.0))
    assert no_damping.rhs((1.0, 0.0), 0.0) == (0.0, -2.0)


def test_duffing_rhs_one_period_matches_scaled_run():
    # the (q, p)-frame orbit started at the frame image of the scaled start
    # reproduces the scaled-run endpoint after exactly one driving period
    params = duf.DuffingParams(0.1, 1.5, 2.0)
    start = duf.to_qp(0.3, 0.4, params.omega)
    state, _, _ = ode.rkf45(
        duf.duffing_rhs(params), start, 0.0, params.period, ode.adaptive(1e-10)
    )
    assert state[0] == pytest.approx(2.0 * -0.0493158, abs=2e-5)
    assert state[1] == pytest.approx(4.0 * 0.439713, abs=2e-5)


_QP_PARAMS = [duf.DuffingParams(0.1, 25.0, 1.2858), duf.DuffingParams(0.05, 1.5, 0.7)]


@pytest.mark.parametrize("params", _QP_PARAMS)
def test_duffing_rhs_values_match_the_closure_on_floats_and_jets(params):
    # the expression system evaluates the closure's operations in its order,
    # on floats and through the jet operators alike
    rhs, want = duf.duffing_rhs(params).rhs, closure_rhs(params).rhs
    rng = np.random.default_rng(7)
    points = [tuple(v) for v in rng.normal(scale=2.0, size=(20, 2)).tolist()]
    points += [(0.0, -0.0), (-0.0, 0.0), (1e100, -1e100)]
    times = rng.uniform(0.0, params.period, size=len(points)).tolist()
    for point, tau in zip(points, times):
        assert _bits_of(rhs(point, tau)) == _bits_of(want(point, tau))
        for order in (1, 2):
            state = state_about(mi.build_table(2, order), point[:2])
            assert _bits_of(rhs(state, tau)) == _bits_of(want(state, tau))


@pytest.mark.parametrize("params", _QP_PARAMS)
@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_exact_period_matches_the_called_closure(params, tol):
    # the expression system's compiled right side and the hand-written
    # closure, each called at every stage of the float march, step alike:
    # the same state, bits and step counts
    runs = [
        ode.rkf45(system, (0.5, -0.25), 0.0, params.period, ode.adaptive(tol))
        for system in (duf.duffing_rhs(params), closure_rhs(params))
    ]
    (state, t, stats), (want_state, want_t, want_stats) = runs
    assert _bits_of(state) == _bits_of(want_state)
    assert (t, stats) == (want_t, want_stats)


def test_duffing_rhs_compiles_once_for_every_omega():
    # each system binds its parameters to the one factory of its source
    ode._rhs_factory.cache_clear()
    systems = [duf.duffing_rhs(duf.DuffingParams(0.1, 25.0, w)) for w in (1.25, 1.27, 1.29)]
    info = ode._rhs_factory.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert [system.rhs.constants[-1] for system in systems] == [1.25, 1.27, 1.29]


def test_scaled_rhs_structure():
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    assert system.dim == 3 and system.n_params == 1
    # scalar evaluation against the hand expansion
    z = (0.2, -0.3, 0.5)
    t = 1.1
    dz = system.rhs(z, t)
    assert dz[0] == pytest.approx(z[1])
    assert dz[1] == pytest.approx(
        -2 * 0.1 * z[2] * z[1] - z[2] ** 2 * z[0] - z[0] ** 3 - 1.5 * z[2] ** 3 * math.sin(t)
    )
    assert dz[2] == 0.0


def _bits_of(values) -> list:
    """Each component's bytes: an array's rows, a jet's coefficients, and a
    float's float64, or, beside jets, its constant row, as the integrator
    stores it."""
    if isinstance(values, np.ndarray):
        return [row.tobytes() for row in values]
    table = next((v.table for v in values if isinstance(v, Jet)), None)
    if table is None:
        return [struct.pack("=d", v) for v in values]
    return [(v if isinstance(v, Jet) else jt.constant(table, v)).coeffs.tobytes() for v in values]


def _map_bits(tmap) -> tuple:
    return [row.coeffs.tobytes() for row in tmap.rows], tmap.design_endpoint, tmap.diagnostics


@pytest.mark.parametrize(
    "method, p, cfg",
    [("forward", 3, ode.adaptive(1e-10)), ("backward", 2, ode.adaptive(1e-10)),
     ("forward", 3, ode.fixed_step(40)), ("forward", 8, ode.adaptive(1e-9)),
     ("backward", 4, ode.adaptive(1e-10))],
    ids=["forward-p3", "backward-p2", "rk4-p3", "forward-p8", "backward-p4"],
)
def test_scaled_rhs_maps_match_the_full_expression(method, p, cfg):
    # the right side on coefficient arrays, with sigma's products kept
    # across stages, leaves every map, its design orbit and its step
    # statistics as the full expression through the jet operators gives
    # them; forward-p8 is the order and tol of the sweeps' map, with its
    # long box segments
    expansion = (0.3, 0.4, 0.5)
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, expansion, p=p, cfg=cfg, method=method)
    solve = vq.forward_solve if method == "forward" else vq.backward_solve
    want = solve(full_scaled_rhs(0.1, 1.5, 0.5), expansion, 0.0, duf.TWO_PI, mi.build_table(3, p), cfg)
    assert _map_bits(tmap) == _map_bits(want)


@pytest.mark.parametrize("solve", [vq.forward_solve, vq.backward_solve], ids=["forward", "backward"])
def test_builds_leave_every_array_of_their_table_unchanged(solve):
    # the right side's sigma memo sums over its own writable copy of
    # seg_starts; a build writes into none of the table's arrays, and
    # leaves them all read-only
    table = mi.build_table(3, 3)
    arrays = [name for name in vars(table) if isinstance(getattr(table, name), np.ndarray)]
    before = {name: getattr(table, name).tobytes() for name in arrays}
    solve(duf.duffing_scaled_rhs(0.1, 1.5, 0.5), (0.3, 0.4, 0.5), 0.0, duf.TWO_PI, table,
          ode.adaptive(1e-10))
    assert len(arrays) == 5
    assert {name: getattr(table, name).tobytes() for name in arrays} == before
    assert not any(getattr(table, name).flags.writeable for name in arrays)


def test_scaled_rhs_scalar_run_matches_the_full_expression():
    runs = [
        ode.integrate(system, (0.3, 0.4, 0.5), 0.0, duf.TWO_PI, ode.adaptive(1e-10))
        for system in (duf.duffing_scaled_rhs(0.1, 1.5, 0.5), full_scaled_rhs(0.1, 1.5, 0.5))
    ]
    (state, t, stats), (want_state, want_t, want_stats) = runs
    assert _bits_of(state) == _bits_of(want_state)
    assert (t, stats) == (want_t, want_stats)


def test_scaled_rhs_makes_sigmas_products_once_per_sigma(monkeypatch):
    # 5 truncated products on the first evaluation at a sigma, 3 after it,
    # for a fresh jet of the same value too; a new sigma pays 5 again.  Jet
    # products and the right side's array products all run the one kernel
    calls = []
    box_sums = jt.box_sums

    def counted(left, right, seg):
        calls.append(1)
        return box_sums(left, right, seg)

    monkeypatch.setattr(jt, "box_sums", counted)
    table = mi.build_table(3, 3)
    rhs = duf.duffing_scaled_rhs(0.1, 1.5, 0.5).rhs
    counts = []
    for center in ((0.3, 0.4, 0.5), (0.3, 0.4, 0.5), (-0.1, 0.2, 0.5), (0.3, 0.4, 0.6)):
        calls.clear()
        rhs(state_about(table, center), 0.7)
        counts.append(len(calls))
    assert counts == [5, 3, 3, 5]


def _sigma_cases():
    table = mi.build_table(3, 3)
    z1, z2, s = state_about(table, (0.3, -0.4, 0.5))
    bumped = s.coeffs.copy()
    bumped[-1] = 1e-3
    # dense jets, unlike a state about a point, make products whose
    # operands are swapped sum their terms in another order and differ
    dense = np.random.default_rng(19).normal(size=(4, table.L))
    d1, d2, ds, ds_bumped = (Jet(table, row) for row in dense)
    # at order 8 a box segment holds up to 48 pairs, which numpy sums in
    # unrolled blocks of 8: a swapped or regrouped operand moves more bits
    table8 = mi.build_table(3, 8)
    dense8 = np.random.default_rng(23).normal(size=(4, table8.L))
    e1, e2, es, es_bumped = (Jet(table8, row) for row in dense8)
    # at these z the sign of sigma**3 decides the sign of the zero result,
    # so reusing 0.0's products for -0.0, or -0.0's for 0.0, moves a bit
    return [
        [(0.0, 1.0, 0.0), (0.0, -1.0, -0.0), (0.0, 1.0, 0.0)],
        [(z1, z2, s), (z1, z2, Jet(table, bumped)), (z1, z2, s)],
        [(d1, d2, ds), (d1, d2, ds_bumped), (d1, d2, ds)],
        [(e1, e2, es), (e1, e2, es_bumped), (e1, e2, es)],
    ]


@pytest.mark.parametrize(
    "states",
    _sigma_cases(),
    ids=["float-signed-zero", "jet-one-coefficient", "jet-dense", "jet-dense-p8"],
)
def test_scaled_rhs_memo_is_keyed_on_sigmas_bits(states):
    # sigma 0.0 then -0.0 differ only in sign, two sigma jets only in one
    # coefficient, or in all: each evaluation gives the full expression's
    # bits
    rhs = duf.duffing_scaled_rhs(0.1, 1.5, 0.5).rhs
    full = full_scaled_rhs(0.1, 1.5, 0.5).rhs
    assert [_bits_of(rhs(state, 0.7)) for state in states] == [
        _bits_of(full(state, 0.7)) for state in states
    ]


# -- polynomial map construction ---------------------------------------------------


def test_stroboscopic_map_matches_published_pyramids():
    from jetmap.golden import DUFFING_P3_ROW1, DUFFING_P3_ROW2, duffing_p3_rk4_map

    tmap = duffing_p3_rk4_map()
    assert np.max(np.abs(tmap.rows[0].coeffs - DUFFING_P3_ROW1)) < 1e-4
    assert np.max(np.abs(tmap.rows[1].coeffs - DUFFING_P3_ROW2)) < 1e-4
    assert tmap.rows[0].coeffs[0] == pytest.approx(-0.0493158, abs=1e-6)
    assert tmap.rows[1].coeffs[0] == pytest.approx(0.439713, abs=1e-6)
    assert tmap.rows[0].coeffs[1] == pytest.approx(0.973942, abs=1e-4)
    assert tmap.rows[0].coeffs[2] == pytest.approx(-0.110494, abs=1e-4)
    assert tmap.rows[0].coeffs[3] == pytest.approx(5.51271, abs=1e-4)


def test_stroboscopic_map_parameter_row_is_identity():
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=3, cfg=ode.adaptive(1e-10))
    expected = np.zeros(tmap.table.L)
    expected[0] = 0.5
    expected[3] = 1.0
    assert np.array_equal(tmap.rows[2].coeffs, expected)


def test_stroboscopic_map_unforced_origin():
    tmap = duf.stroboscopic_taylor_map(0.1, 0.0, (0.0, 0.0, 0.7), p=2, cfg=ode.adaptive(1e-12))
    assert abs(tmap.rows[0].coeffs[0]) < 1e-12
    assert abs(tmap.rows[1].coeffs[0]) < 1e-12


def test_stroboscopic_map_validation():
    with pytest.raises(ValueError):
        duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=0)
    with pytest.raises(ValueError):
        duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4), p=2)
    with pytest.raises(ValueError):
        duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=2, method="sideways")


def test_forward_and_backward_map_methods_agree():
    fwd = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=2, cfg=ode.adaptive(1e-12))
    bwd = duf.stroboscopic_taylor_map(
        0.1, 1.5, (0.3, 0.4, 0.5), p=2, cfg=ode.adaptive(1e-12), method="backward"
    )
    for a in range(3):
        assert np.max(np.abs(fwd.rows[a].coeffs - bwd.rows[a].coeffs)) < 1e-8


# -- map iteration ------------------------------------------------------------------


def _toy_identity_map(shift=(0.0, 0.0)):
    """TaylorMap acting as zeta -> zeta + shift, with a lifted parameter."""
    table = mi.build_table(3, 2)
    rows = []
    for a, c in enumerate((shift[0], shift[1], 0.5)):
        coeffs = np.zeros(table.L)
        coeffs[0] = c
        coeffs[table.variable_rank(a + 1) - 1] = 1.0
        rows.append(Jet(table, coeffs))
    return vq.TaylorMap(
        table=table,
        t_i=0.0,
        t_f=duf.TWO_PI,
        expansion_point=(0.0, 0.0, 0.5),
        rows=tuple(rows),
        n_params=1,
    )


def test_iterate_map_zero_steps_and_identity():
    tmap = _toy_identity_map()
    traj = duf.iterate_map(tmap, (0.2, -0.1), 0.0, 0)
    assert traj.shape == (1, 2)
    assert np.array_equal(traj[0], [0.2, -0.1])
    traj = duf.iterate_map(tmap, (0.2, -0.1), 0.3, 8)
    assert np.allclose(traj, traj[0], atol=0)
    # a zero-iterate orbit returns its start as the final state
    _, applied, closed = _assert_cut_is_exact(duf._Poly2Map(tmap, 0.0), np.array([0.2, -0.1]), 0, 0)
    assert (applied, closed) == (0, False)


def test_iterate_map_matches_direct_row_evaluation(m8_map):
    # the Horner step on the folded block against the unfolded 3-variable
    # rows: an order-3 map, and the order-8 map across the criterion-9 window
    # (dsigma > 0 below omega 1.285, < 0 above it), each from a start whose
    # first four iterates stay inside the trust region
    small = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=3, cfg=ode.adaptive(1e-10))
    tmap8, _ = m8_map
    cases = [(small, 0.02, (0.05, -0.04), 50.0)]
    for omega, zeta in (
        (1.24, (-0.2, 0.3)), (1.26, (-0.1, 0.15)), (1.27, (0.0, 0.0)),
        (1.28, (0.05, -0.04)), (1.29, (0.0, 0.0)), (1.30, (0.05, -0.04)),
    ):
        cases.append((tmap8, 1.0 / omega - tmap8.expansion_point[2], zeta, 10.0))
    assert {np.sign(dsigma) for tmap, dsigma, _, _ in cases if tmap is tmap8} == {-1.0, 1.0}
    for tmap, dsigma, zeta, radius in cases:
        traj = duf.iterate_map(tmap, zeta, dsigma, 4, escape_radius=radius)
        poly = duf._Poly2Map(tmap, dsigma)
        for i in range(1, 5):
            full = np.array([traj[i - 1][0], traj[i - 1][1], dsigma])
            want = tmap.final_state(full)[:2] - np.array(tmap.expansion_point[:2])
            assert np.all(np.abs(traj[i] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            image = poly.linearize(traj[i - 1])[0]
            assert image.tobytes() == np.array(poly(traj[i - 1])).tobytes()


def _toy_overflow_map(nan: bool):
    """TaylorMap with zeta1 -> 1e308 dsigma zeta1^2 (minus 1e308 dsigma
    zeta1 zeta2^2 when ``nan``) and zeta2 -> 2 dsigma zeta2, about sigma =
    0.5.  From (4, 2) at omega = 1 (dsigma = 0.5) one step gives (inf, 2), or
    (inf - inf, 2) = (NaN, 2); at omega = 2 (dsigma = 0) the orbit falls to
    the origin and stays."""
    table = mi.build_table(3, 4)
    rows = np.zeros((3, table.L))
    rows[0, mi.rank((2, 0, 1)) - 1] = 1e308
    if nan:
        rows[0, mi.rank((1, 2, 1)) - 1] = -1e308
    rows[1, mi.rank((0, 1, 1)) - 1] = 2.0
    rows[2, 0] = 0.5
    rows[2, table.variable_rank(3) - 1] = 1.0
    return vq.TaylorMap(
        table=table,
        t_i=0.0,
        t_f=duf.TWO_PI,
        expansion_point=(0.0, 0.0, 0.5),
        rows=tuple(Jet(table, row) for row in rows),
        n_params=1,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("radius", [10.0, math.inf])
def test_non_finite_iterate_escapes(nan, radius):
    # a non-finite iterate, inf or NaN, escapes at once, even with no finite
    # radius
    tmap = _toy_overflow_map(nan)
    first = duf._Poly2Map(tmap, 0.5)((4.0, 2.0))
    assert math.isnan(first[0]) if nan else first[0] == math.inf
    assert first[1] == 2.0
    with pytest.raises(duf.EscapeError) as info:
        duf.iterate_map(tmap, (4.0, 2.0), 0.5, 5, escape_radius=radius)
    assert info.value.step == 1
    result = duf.feigenbaum_scan(
        tmap, 0.1, 1.5, [1.0, 2.0], transient=3, record=4, seed=(4.0, 2.0),
        escape_radius=radius,
    )
    assert result.failures == [(1.0, "orbit escaped at iterate 1")]
    assert result.samples[0].shape == (0, 2)
    assert np.array_equal(result.samples[1], np.zeros((4, 2)))
    # the polynomial map's own orbit kernel escapes where its calls do
    assert _assert_cut_is_exact(duf._Poly2Map(tmap, 0.5), (4.0, 2.0), 3, 4, radius) is None


@pytest.mark.parametrize("radius", [math.nan, -1.0, 0.0])
def test_iterate_map_refuses_an_escape_radius_that_is_not_positive(radius):
    # as scans and attractor samples do, before any step and before the
    # start is tested against the radius
    with pytest.raises(ValueError, match="escape_radius must be > 0"):
        duf.iterate_map(_toy_identity_map(), (0.2, -0.1), 0.0, 5, escape_radius=radius)


def test_iterate_map_refuses_a_negative_count():
    with pytest.raises(ValueError, match="iteration count must be >= 0, got -3"):
        duf.iterate_map(_toy_identity_map(), (0.2, -0.1), 0.0, -3)


def _oscillator_map():
    """A map of two states and no lifted parameter: not a stroboscopic Duffing map."""
    system = ode.expression_system(("q", "p"), "t", ("p", "-q"))
    return vq.forward_solve(system, (0.0, 0.0), 0.0, 1.0, mi.build_table(2, 2), ode.fixed_step(4))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: duf.iterate_map(_oscillator_map(), (0.0, 0.0), 0.0, 1),
         "expected a 2-variable map with one lifted parameter"),
        (lambda: duf.iterate_map(_toy_identity_map(), (0.0, 0.0, 0.0), 0.0, 1),
         "expected a 2-component deviation, got shape (3,)"),
        (lambda: duf.fixed_point_newton(_toy_identity_map(), (0.0, 0.0), k=0),
         "period must be >= 1, got 0"),
        (lambda: duf.fixed_point_newton(_toy_identity_map(), (0.0, 0.0, 0.0)),
         "expected a 2-component guess, got shape (3,)"),
    ],
    ids=["not-two-plus-one", "deviation-shape", "period", "guess-shape"],
)
def test_map_iteration_and_newton_refusals(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_iterate_map_escape():
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=3, cfg=ode.adaptive(1e-10))
    with pytest.raises(duf.EscapeError) as info:
        duf.iterate_map(tmap, (2.0, 2.0), 0.0, 50, escape_radius=5.0)
    assert info.value.step >= 1
    with pytest.raises(duf.EscapeError):
        duf.iterate_map(tmap, (20.0, 0.0), 0.0, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "start, radius",
    [((math.nan, 0.0), 10.0), ((0.0, math.nan), math.inf), ((math.inf, 0.0), 10.0),
     ((-math.inf, 0.0), math.inf), ((8.0, 8.0), 10.0)],
)
def test_iterate_map_refuses_start_outside_trust_region(start, radius):
    # a NaN start, or an inf start under an infinite radius, is refused before
    # any step (no overflow warning) instead of escaping at iterate 1
    with pytest.raises(duf.EscapeError) as info:
        duf.iterate_map(_toy_identity_map(), start, 0.0, 5, escape_radius=radius)
    assert info.value.step == 0
    assert str(info.value) == "starting deviation is outside the trust region"


# -- cycle cuts -----------------------------------------------------------------------


def _stepped_orbit(step, state, transient, record, escape_radius):
    """The orbit loop with no cycle cut: every iterate is stepped."""
    radius = min(escape_radius, sys.float_info.max)
    out = np.empty((record, 2))
    for i in range(transient + record):
        state = step(state)
        if not np.hypot(state[0], state[1]) <= radius:
            raise duf.EscapeError(f"orbit escaped at iterate {i + 1}", i + 1)
        if i >= transient:
            out[i - transient] = state
    return out, state


def _assert_cut_is_exact(step, state, transient, record, escape_radius=10.0):
    """Run ``duf._orbit`` and the stepped oracle from ``state``; the samples,
    the final state (sign bits included) and any escape must agree.  Returns
    the kernel's final state, map applications and cycle flag."""
    try:
        want = _stepped_orbit(step, state, transient, record, escape_radius)
    except duf.EscapeError as err:
        with pytest.raises(duf.EscapeError) as info:
            duf._orbit(step, state, transient, record, escape_radius)
        assert (info.value.step, str(info.value)) == (err.step, str(err))
        return None
    out, final, applied, closed = duf._orbit(step, state, transient, record, escape_radius)
    for got, ref in ((out, want[0]), (np.asarray(final), np.asarray(want[1]))):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    return final, applied, closed


class _Counted:
    """A step function that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, z):
        self.calls += 1
        return self.fn(z)


def _as_array(a, b):
    return np.array([a, b])


def _as_floats(a, b):
    return float(a), float(b)


#: the two shapes a step may return: an array (the exact map) or a pair of
#: Python floats (the polynomial map)
STEP_RETURNS = (_as_array, _as_floats)


def test_cycle_cut_rotation_record_window_mid_cycle():
    # a quarter turn of exactly representable values has period 4; iterate 5
    # repeats iterate 1, and 1001 transient steps start the window mid-cycle
    for pair in STEP_RETURNS:
        rotate = _Counted(lambda z, pair=pair: pair(-z[1], z[0]))
        _, applied, closed = _assert_cut_is_exact(rotate, np.array([0.75, -0.5]), 1001, 7)
        assert (applied, closed) == (5, True)
        rotate.calls = 0
        duf._orbit(rotate, np.array([0.75, -0.5]), 1001, 7, 10.0)
        assert rotate.calls == 5


def test_cycle_cut_fixed_point_after_three_steps():
    def descend(z):
        return np.array([max(z[0] - 1.0, 0.0), z[1]])

    # iterate 3 is the fixed point and iterate 4 repeats it: an orbit of at
    # least four iterates closes there, a shorter one steps to its end
    for transient, record, expected in (
        (2, 5, (4, True)), (0, 9, (4, True)), (6, 1, (4, True)), (1, 3, (4, True)),
        (1, 2, (3, False)),
    ):
        _, applied, closed = _assert_cut_is_exact(descend, np.array([3.0, 0.25]), transient, record)
        assert (applied, closed) == expected


def test_cycle_cut_keeps_the_sign_of_zero():
    # (0.0, 1.0) and (-0.0, 1.0) compare equal but are different states
    for pair in STEP_RETURNS:
        def flip(z, pair=pair):
            return pair(-z[0], z[1])

        final, applied, closed = _assert_cut_is_exact(flip, np.array([0.0, 1.0]), 4, 5)
        assert (applied, closed) == (3, True)
        assert np.signbit(final[0])  # iterate 9 is -0.0


def test_cycle_cut_escape_before_any_repeat():
    def double(z):
        return 2.0 * z

    assert _assert_cut_is_exact(double, np.array([0.1, 0.0]), 5, 5) is None
    with pytest.raises(duf.EscapeError) as info:
        duf._orbit(double, np.array([0.1, 0.0]), 5, 5, 10.0)
    assert info.value.step == 7


def test_cycle_cut_polynomial_map_with_continuation(m8_map):
    # continuation from 1.27 (period 2) to 1.285 (period 4) through the
    # doubling; each omega starts from the previous omega's final state
    tmap, _ = m8_map
    zeta, closed_at = np.zeros(2), []
    for omega in np.linspace(1.27, 1.285, 16):
        dsigma = 1.0 / omega - tmap.expansion_point[2]
        step = duf._Poly2Map(tmap, dsigma)
        zeta, applied, closed = _assert_cut_is_exact(step, zeta, 2000, 128)
        if closed:
            closed_at.append(omega)
    assert closed_at[0] == 1.27 and closed_at[-1] == 1.285
    assert len(closed_at) >= 12
    # chaotic frequencies, where the kernel runs every iterate
    for omega in (1.2902, 1.2964, 1.30):
        step = duf._Poly2Map(tmap, 1.0 / omega - tmap.expansion_point[2])
        _, applied, closed = _assert_cut_is_exact(step, np.array([0.05, -0.04]), 2000, 128)
        assert (applied, closed) == (2128, False)


def test_cycle_cut_exact_map_closes():
    # the orbit settles on a fixed point and wanders over its last bits until
    # an iterate repeats; where that happens (application 89 of the Taylor
    # march) moves with any change to the map's last bits, so the window
    # leaves room for it and the count is not pinned
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 1.5, 1.5), tol=1e-5)
    final, applied, closed = _assert_cut_is_exact(exact, np.zeros(2), 700, 16)
    assert closed
    assert np.max(np.abs(np.subtract(exact(final), final))) <= 1e-12


def test_poly_map_linearize_matches_central_differences(m8_map):
    tmap, _ = m8_map
    for omega in (1.25, 1.285):
        poly = duf._Poly2Map(tmap, 1.0 / omega - tmap.expansion_point[2])
        for zeta in (np.zeros(2), np.array([-0.08, 0.12]), np.array([0.3, -0.2])):
            image, jac = poly.linearize(zeta)
            assert np.array_equal(image, poly(zeta))
            assert np.max(np.abs(jac - central_difference_jacobian(poly, zeta))) <= 1e-8


def _random_map(p: int, rng) -> vq.TaylorMap:
    """TaylorMap of order p with dense random rows about (0.1, -0.2, 0.5)."""
    table = mi.build_table(3, p)
    rows = [Jet(table, rng.standard_normal(table.L)) for _ in range(2)]
    sigma = np.zeros(table.L)
    sigma[0] = 0.5
    if p:
        sigma[table.variable_rank(3) - 1] = 1.0
    return vq.TaylorMap(
        table=table,
        t_i=0.0,
        t_f=duf.TWO_PI,
        expansion_point=(0.1, -0.2, 0.5),
        rows=(*rows, Jet(table, sigma)),
        n_params=1,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compiled_step_matches_the_horner_loop_bit_for_bit(m8_map):
    # the straight-line step makes the loop's operations in the loop's order,
    # and linearize's image is the step's: the same bits at random points,
    # at signed zeros, and through inf and NaN
    rng = np.random.default_rng(16)
    maps = [_random_map(p, rng) for p in (1, 2, 3)]
    maps += [_toy_overflow_map(False), _toy_overflow_map(True), m8_map[0]]
    specials = [
        (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (math.inf, 0.1), (-0.3, math.inf),
        (math.nan, 0.2), (0.1, math.nan), (2.0, 0.0), (4.0, 2.0),
    ]
    pack = struct.Struct("=2d").pack
    for tmap in maps:
        assert tmap.table.p in (1, 2, 3, 4, 8)
        for dsigma in (0.031, -0.027, 0.5, -0.0):
            poly = duf._Poly2Map(tmap, dsigma)
            horner = horner_triangle(poly._block)
            for zeta in rng.uniform(-0.6, 0.6, size=(200, 2)).tolist() + specials:
                want = pack(*horner_loop_linearize(horner, zeta)[0])
                assert pack(*poly(zeta)) == want
                assert poly.linearize(zeta)[0].tobytes() == want
    # the overflow maps leave the floats from a finite start, to inf and to
    # NaN, and a NaN start stays NaN
    assert duf._Poly2Map(maps[3], 0.5)((2.0, 0.0))[0] == math.inf
    assert math.isnan(duf._Poly2Map(maps[4], 0.5)((4.0, 2.0))[0])
    assert math.isnan(duf._Poly2Map(maps[5], 0.01)((math.nan, 0.0))[1])


def test_compiled_step_compiles_once_per_map_order(monkeypatch, m8_map):
    # each order compiles on its first fold; later folds, at any dsigma, bind
    # their coefficients to the same code
    compiled = []
    compile_ = duf._compile

    def counted(source, name):
        compiled.append(name)
        return compile_(source, name)

    duf._horner_factory.cache_clear()
    duf._call_orbit_factory.cache_clear()
    monkeypatch.setattr(duf, "_compile", counted)
    tmap = m8_map[0]
    first, second = duf._Poly2Map(tmap, 0.01), duf._Poly2Map(tmap, -0.02)
    duf._Poly2Map(_toy_overflow_map(False), 0.5)
    duf._Poly2Map(_toy_overflow_map(True), 0.25)
    assert compiled == ["<duffing Horner step, p=8>", "<duffing Horner step, p=4>"]
    assert first._apply.__code__ is second._apply.__code__
    assert first._kernel.__code__ is second._kernel.__code__
    assert first((0.1, 0.2)) != second((0.1, 0.2))
    # every other step, here the exact map of each omega of a scan, runs in
    # one kernel that calls it, compiled on its first orbit
    compiled.clear()
    result = duf.feigenbaum_scan("exact", 0.1, 1.5, [1.0, 1.5, 2.0], transient=2, record=2, tol=1e-6)
    assert result.applications == [4, 4, 4] and not result.failures
    assert compiled == ["<duffing orbit kernel, called step>"]


def test_poly_map_builds_the_linearize_partials_on_first_use(m8_map):
    # scans only call the map, so a fold leaves linearize's partial steps
    # unbuilt; the first linearize folds both once, on the order-7 step
    poly = duf._Poly2Map(m8_map[0], 0.01)
    duf._orbit(poly, (0.0, 0.0), 5, 3, duf.DEFAULT_ESCAPE_RADIUS)
    poly((0.1, 0.2))
    assert "_partials" not in vars(poly)
    image, jac = poly.linearize((0.1, 0.2))
    partials = vars(poly)["_partials"]
    again = poly.linearize((0.1, 0.2))
    assert again[0].tobytes() == image.tobytes() and again[1].tobytes() == jac.tobytes()
    assert vars(poly)["_partials"] is partials and len(partials) == 2
    make7 = duf._horner_factory(7)[0]
    assert all(d.__code__ is make7(*[0.0] * 72)[0].__code__ for d in partials)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_poly_map_linearize_matches_the_derivative_horner_loop(m8_map):
    # the compiled partials against the loop that carries the derivatives
    # through the Horner pass: the image is the step's bit for bit, specials
    # included, and the Jacobian agrees to round-off wherever the loop's is
    # finite; an order-0 map has a zero Jacobian
    rng = np.random.default_rng(23)
    maps = [_random_map(p, rng) for p in (0, 1, 2, 3)]
    maps += [_toy_overflow_map(False), _toy_overflow_map(True), m8_map[0]]
    specials = [
        (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (math.inf, 0.1), (-0.3, math.inf),
        (math.nan, 0.2), (0.1, math.nan), (2.0, 0.0), (4.0, 2.0),
    ]
    for tmap in maps:
        for dsigma in (0.031, -0.027, 0.5, -0.0):
            poly = duf._Poly2Map(tmap, dsigma)
            horner = horner_triangle(poly._block)
            for zeta in rng.uniform(-0.6, 0.6, size=(50, 2)).tolist() + specials:
                want, want_jac = horner_loop_linearize(horner, zeta)
                image, jac = poly.linearize(zeta)
                assert image.tobytes() == struct.pack("=2d", *want) == struct.pack("=2d", *poly(zeta))
                if np.all(np.isfinite(want_jac)):
                    assert np.max(np.abs(jac - want_jac) / (1.0 + np.abs(want_jac))) <= 1e-13
    assert not duf._Poly2Map(maps[0], 0.2).linearize((0.3, -0.1))[1].any()


def test_poly_map_step_returns_python_floats(m8_map):
    # the orbit's next step starts from what this one returned: Python
    # floats keep it off numpy scalars, and array or tuple input is one state
    tmap, _ = m8_map
    poly = duf._Poly2Map(tmap, 1.0 / 1.2902 - tmap.expansion_point[2])
    for zeta in ((0.0, 0.0), (-0.0, 0.1), (0.031, -0.052), (-0.3, 0.2)):
        image = poly(zeta)
        assert type(image) is tuple and [type(v) for v in image] == [float, float]
        assert struct.pack("=2d", *image) == struct.pack("=2d", *poly(np.array(zeta)))
        assert [type(v) for v in poly(image)] == [float, float]


def test_exact_map_step_returns_python_floats():
    # the exact map returns the integrator's float pair, as the polynomial
    # map returns its own: array or tuple input is one state
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 1.5, 1.5), tol=1e-6)
    for point in ((0.0, 0.0), (-0.0, 0.1), (0.3, -0.2)):
        image = exact(point)
        assert type(image) is tuple and [type(v) for v in image] == [float, float]
        assert struct.pack("=2d", *image) == struct.pack("=2d", *exact(np.array(point)))


@pytest.mark.parametrize("source", ["exact", "taylor"])
def test_continuation_scan_hands_a_float_pair_to_the_next_omega(monkeypatch, source):
    # each omega starts from the float pair the omega before it ended on,
    # and the first from the seed as a float pair, whatever sequence it came in
    if source == "taylor":
        source = duf.stroboscopic_taylor_map(0.1, 0.15, (0.0, 0.0, 0.5), p=2, cfg=ode.adaptive(1e-9))
    starts, finals = [], []
    run = duf._run_poly

    def recorded(map_at, omega, state, *args):
        starts.append(state)
        out = run(map_at, omega, state, *args)
        finals.append(out[1])
        return out

    monkeypatch.setattr(duf, "_run_poly", recorded)
    result = duf.feigenbaum_scan(
        source, 0.1, 0.15, [1.9, 2.0, 2.1], transient=3, record=2, seed=np.array([0.01, 0.0]),
        tol=1e-4,
    )
    assert not result.failures and len(starts) == 3
    assert starts[0] == (0.01, 0.0) and starts[1:] == finals[:-1]
    for state in starts + finals:
        assert type(state) is tuple and [type(v) for v in state] == [float, float]


def test_scan_counts_map_applications_and_cycles():
    # the identity repeats its first iterate at the second; an omega that
    # escapes counts the applications up to its escape
    result = duf.feigenbaum_scan(_toy_identity_map(), 0.1, 1.5, [1.0, 2.0], transient=3, record=4)
    assert result.applications == [2, 2] and result.cycles == [True, True]
    with np.errstate(over="ignore"):
        result = duf.feigenbaum_scan(
            _toy_overflow_map(False), 0.1, 1.5, [1.0, 2.0], transient=3, record=4,
            seed=(2.0, 0.0),
        )
    assert result.applications == [1, 2] and result.cycles == [False, True]


# -- fixed points ---------------------------------------------------------------------


def test_newton_exact_unforced_origin():
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 0.0, 1.7), tol=1e-12)
    point, multipliers = duf.fixed_point_newton(exact, (0.1, -0.05), tol=1e-10)
    assert np.max(np.abs(point)) < 1e-9
    mags = np.abs(multipliers)
    assert np.all(mags < 1.0)
    # damped linear oscillator over one period: |multiplier| = e^(-beta T)
    expected = math.exp(-0.1 * 2 * math.pi / 1.7)
    assert mags == pytest.approx([expected, expected], abs=1e-5)


def test_newton_exact_published_unstable_point():
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 25.0, FP_OMEGA), tol=1e-10)
    guess = np.array([FP_Q, FP_P])
    point, multipliers = duf.fixed_point_newton(exact, guess, tol=1e-8)
    assert np.max(np.abs(point - guess)) < 1e-3
    assert np.max(np.abs(multipliers)) > 1.0


def test_newton_period_one_point_is_period_two_point():
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 0.0, 1.7), tol=1e-10)
    p1, m1 = duf.fixed_point_newton(exact, (0.05, 0.0), k=1, tol=1e-9)
    p2, m2 = duf.fixed_point_newton(exact, p1, k=2, tol=1e-9)
    assert np.max(np.abs(p2 - p1)) < 1e-7
    assert np.sort(np.abs(m2)) == pytest.approx(np.sort(np.abs(m1)) ** 2, rel=1e-4)


def test_newton_period_two_converges_quadratically():
    # off a fixed point, J(F(x)) J(x) != J(x) J(F(x)); Newton with the
    # factors swapped converges only linearly (14-17 iterations, not 3-5)
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=3, cfg=ode.adaptive(1e-10))
    point, _ = duf.fixed_point_newton(tmap, (0.05, 0.05), k=2, tol=1e-13)
    orbit = duf.iterate_map(tmap, point, 0.0, 2)
    assert np.max(np.abs(orbit[1] - point)) > 0.1
    assert np.max(np.abs(orbit[2] - point)) < 1e-10
    nudged = point + np.array([1e-3, -1e-3])
    again, _ = duf.fixed_point_newton(tmap, nudged, k=2, tol=1e-12, max_iter=5)
    assert np.max(np.abs(again - point)) < 1e-12


def test_newton_polynomial_map_fixed_point(m8_map):
    tmap, _ = m8_map
    point, multipliers = duf.fixed_point_newton(tmap, (0.01, 0.01), dsigma=0.0, tol=1e-12)
    # the expansion point is the exact map's fixed point (to print precision),
    # so the polynomial map's own fixed point sits within ~1e-5 of zero
    assert np.max(np.abs(point)) < 1e-3
    assert np.max(np.abs(multipliers)) > 1.0
    # iterating from the refined point barely moves
    traj = duf.iterate_map(tmap, point, 0.0, 5)
    steps = np.abs(np.diff(traj, axis=0)).max(axis=1)
    assert np.all(steps < 1e-9)


@pytest.mark.parametrize("omega", [1.25, 1.27, 1.285])
def test_newton_point_on_polynomial_map_is_fixed_under_iterate_map(m8_map, omega):
    # Newton and iterate_map apply the same folded rows
    tmap, _ = m8_map
    dsigma = 1.0 / omega - tmap.expansion_point[2]
    point, _ = duf.fixed_point_newton(tmap, (0.0, 0.0), dsigma=dsigma, tol=1e-12)
    traj = duf.iterate_map(tmap, point, dsigma, 1)
    assert np.max(np.abs(traj[1] - point)) <= 1e-13


def test_newton_singular_jacobian_reported():
    tmap = _toy_identity_map(shift=(0.3, 0.0))
    with pytest.raises(duf.SingularJacobianError):
        duf.fixed_point_newton(tmap, (0.0, 0.0), tol=1e-12)


def test_newton_divergence_reported_as_divergence(m8_map):
    # from (0, 0) the period-2 iteration at omega 1.25 jumps far outside the
    # trust region, where the 2-fold Jacobian would overflow; that is
    # divergence, not a degenerate fixed point, and no overflow warning
    # escapes.  The trust region stops it first; an image that overflows in
    # one application (the toy map from zeta1 = 2) is reported as not finite
    tmap, _ = m8_map
    dsigma = 1.0 / 1.25 - tmap.expansion_point[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(duf.NewtonConvergenceError, match="trust region"):
            duf.fixed_point_newton(tmap, (0.0, 0.0), dsigma=dsigma, k=2, tol=1e-12)
        with pytest.raises(duf.NewtonConvergenceError, match="not finite"):
            duf.fixed_point_newton(_toy_overflow_map(False), (2.0, 0.0), dsigma=0.5)


def test_newton_stops_where_the_polynomial_leaves_its_trust_region(m8_map, monkeypatch):
    # at omega 1.26 the period-2 iteration from (0, 0) steps to |zeta| = 8.8,
    # whose image lies at |zeta| = 2.7e8: one chain from the guess and one
    # application past the step, where it used to wander for 100 calls
    tmap, _ = m8_map
    calls = []
    linearize = duf._Poly2Map.linearize

    def counted(self, zeta):
        calls.append(math.hypot(zeta[0], zeta[1]))
        return linearize(self, zeta)

    monkeypatch.setattr(duf._Poly2Map, "linearize", counted)
    dsigma = 1.0 / 1.26 - tmap.expansion_point[2]
    with pytest.raises(duf.NewtonConvergenceError, match="trust region"):
        duf.fixed_point_newton(tmap, (0.0, 0.0), dsigma=dsigma, k=2)
    assert len(calls) == 3
    assert max(calls) <= duf.DEFAULT_ESCAPE_RADIUS


def test_newton_refuses_no_iterations():
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        duf.fixed_point_newton(_toy_identity_map(), (0.2, -0.1), max_iter=0)


def test_newton_no_convergence_reported():
    tmap = duf.stroboscopic_taylor_map(0.1, 1.5, (0.3, 0.4, 0.5), p=3, cfg=ode.adaptive(1e-10))
    with pytest.raises((duf.NewtonConvergenceError, duf.SingularJacobianError)):
        duf.fixed_point_newton(tmap, (3.0, 3.0), dsigma=0.0, tol=1e-14, max_iter=3)


def test_float_and_jet_kernels_agree_on_one_exact_period():
    # order-0 jets (L = 1) run the array kernel on the same scalar data as
    # the float kernel: the same step sequence, the endpoint to round-off
    params = duf.DuffingParams(0.1, 25.0, 1.2902)
    system, cfg = duf.duffing_rhs(params), ode.adaptive(1e-6)
    floats, t_f, stats_f = ode.rkf45(system, (FP_Q, FP_P), 0.0, params.period, cfg)
    jets, t_j, stats_j = ode.rkf45(
        system, state_about(mi.build_table(2, 0), [FP_Q, FP_P]), 0.0, params.period, cfg
    )
    assert (stats_f.accepted, stats_f.rejected) == (stats_j.accepted, stats_j.rejected)
    assert stats_f.accepted + stats_f.rejected > 30
    assert t_f == t_j == params.period
    assert max(abs(f - j.coeffs[0]) for f, j in zip(floats, jets)) <= 1e-12


def test_exact_scan_runs_on_python_floats(monkeypatch):
    # an np.float64 omega from the grid would turn every coefficient of the
    # exact orbit into a numpy scalar through omega * tau: the constants the
    # Taylor march binds, the states, span and images it sees are floats
    seen = set()
    init, call = ode.TaylorIntegrator.__init__, ode.TaylorIntegrator.__call__

    def spied_init(self, system, tol):
        seen.update(type(v) for v in system.rhs.constants)
        init(self, system, tol)

    def spied_call(self, state0, t0, tf):
        state, t, stats = call(self, state0, t0, tf)
        seen.update(type(v) for v in (*state0, t0, tf, *state, t))
        return state, t, stats

    monkeypatch.setattr(ode.TaylorIntegrator, "__init__", spied_init)
    monkeypatch.setattr(ode.TaylorIntegrator, "__call__", spied_call)
    grid = np.array([1.27, 1.271])
    result = duf.feigenbaum_scan("exact", 0.1, 25.0, grid, transient=2, record=2, tol=1e-6)
    assert [len(s) for s in result.samples] == [2, 2]
    assert seen == {float}


def test_exact_scan_compiles_the_taylor_march_once(monkeypatch):
    # the Taylor march is cached on the expression source and the order:
    # every period of every omega reuses the one made for the first, and
    # each map binds its own constants to it
    ode._taylor_kernel.cache_clear()
    periods = []
    call = duf.ExactStroboscopicMap.__call__

    def counted_period(self, point):
        periods.append(point)
        return call(self, point)

    monkeypatch.setattr(duf.ExactStroboscopicMap, "__call__", counted_period)
    result = duf.feigenbaum_scan(
        "exact", 0.1, 25.0, [1.255, 1.27, 1.285], transient=3, record=2, tol=1e-6
    )
    assert [len(s) for s in result.samples] == [2, 2, 2]
    assert len(periods) == 15
    assert ode._taylor_kernel.cache_info().misses == 1
    # the one march is the (q, p) source's at tol 1e-6's order, 12
    source = duf.duffing_rhs(duf.DuffingParams(0.1, 25.0, 1.3)).rhs.expressions
    ode._taylor_kernel(source, 12)
    assert ode._taylor_kernel.cache_info().misses == 1


def test_one_exact_period_keeps_its_bits():
    # one period of the DOP853 float march, and one of the exact map and of
    # its Jacobian by the Taylor march, pinned as literals (the Taylor ones
    # are :func:`oracles.taylor_march`'s): scalar bits depend neither on the
    # BLAS nor on the Python version, so these hold on every version the
    # suite runs on
    params = duf.DuffingParams(0.1, 25.0, 1.2902)
    state, t, stats = ode.rkf45(
        duf.duffing_rhs(params), (FP_Q, FP_P), 0.0, params.period, ode.adaptive(1e-6)
    )
    assert state == (1.4126347807757242, 1.989731168845492)
    assert t == 4.86993125653355 == params.period
    assert stats == ode.StepStats(29, 6, 0.09895566778223337, 0.29771638319254956)
    exact = duf.ExactStroboscopicMap(params, tol=1e-6)
    assert exact((FP_Q, FP_P)) == (1.4126359817342886, 1.989730404805874)
    assert exact._flow((FP_Q, FP_P), 0.0, params.period) == (
        (1.4126359817342886, 1.989730404805874),
        4.86993125653355,
        ode.StepStats(34, 0, 0.029647519823066126, 0.23926432703396275),
    )
    image, jac = exact.linearize((FP_Q, FP_P))
    assert image.tolist() == [1.4126362296024788, 1.98973054433878]
    assert jac.tolist() == [
        [-1.6499559473038625, 1.0915714643764325],
        [0.1792777990504839, -0.3474452700040144],
    ]


@pytest.mark.parametrize("omega", [1.2902, 1.2554, 2.0])
def test_exact_map_runs_the_series_oracle_bit_for_bit(omega):
    # both Taylor marches of the map, (q, p) and the six-state variational
    # system, against the loops of oracles.taylor_march: state, t and steps
    params = duf.DuffingParams(0.1, 25.0, omega)
    variational = duf._qp_system(params, ("q", "p", "a", "b", "c", "d"), duf._QP + duf._JACOBIAN)
    for tol in (1e-4, 1e-6, 1e-9, 1e-12):
        exact = duf.ExactStroboscopicMap(params, tol)
        for point in ((FP_Q, FP_P), (-0.3, 0.1)):
            for march, system, start in (
                (exact._flow, duf.duffing_rhs(params), point),
                (exact._variational_flow, variational, (*point, 1.0, 0.0, 0.0, 1.0)),
            ):
                got = march(start, 0.0, params.period)
                want = taylor_march(system, start, 0.0, params.period, tol)
                assert [v.hex() for v in got[0]] == [v.hex() for v in want[0]]
                assert got[1:] == want[1:] and got[2].rejected == 0


def test_exact_map_errs_no_more_than_dop853_over_30_periods():
    # the Taylor step rule has no error estimate to reject a step with, so
    # its accuracy is pinned against an oracle: along 30 periods of the
    # orbit from the published point, by DOP853 at tol 1e-14, the worst
    # one-period error of the map at each tol is no larger than DOP853's
    for omega in (1.2902, 1.2554):
        params = duf.DuffingParams(0.1, 25.0, omega)
        system, starts, images = duf.duffing_rhs(params), [(FP_Q, FP_P)], []
        for _ in range(30):
            images.append(ode.rkf45(system, starts[-1], 0.0, params.period, ode.adaptive(1e-14))[0])
            starts.append(images[-1])
        for tol in (1e-6, 1e-9, 1e-12):
            exact, cfg = duf.ExactStroboscopicMap(params, tol), ode.adaptive(tol)
            errors = [0.0, 0.0]
            for start, want in zip(starts, images):
                for i, got in enumerate(
                    (exact(start), ode.rkf45(system, start, 0.0, params.period, cfg)[0])
                ):
                    errors[i] = max(errors[i], *(abs(a - b) for a, b in zip(got, want)))
            taylor, dop853 = errors
            assert 0.0 < taylor <= dop853, (omega, tol, taylor, dop853)


@pytest.mark.parametrize("start", [(1e30, 0.0), (0.0, 1e30), (math.nan, 0.0)])
def test_exact_map_ends_a_blown_up_start_in_an_error(start):
    # coefficients that overflow end the run at once, in a DivergenceError
    # or a StiffnessError, and never leave it looping at h = 0
    for tol in (1e-6, 1e-12):
        exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 25.0, 1.2902), tol)
        for step in (exact, exact.linearize):
            with pytest.raises((ode.DivergenceError, ode.StiffnessError), match="t=0.0"):
                step(start)


def test_exact_map_builds_its_systems_once(monkeypatch):
    # the (q, p) system and its variational one are built at the map's first
    # use of each, and every later period reuses them
    built = []
    expression_system = duf.expression_system

    def counted(*args, **kwargs):
        built.append(args[0])
        return expression_system(*args, **kwargs)

    monkeypatch.setattr(duf, "expression_system", counted)
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 25.0, FP_OMEGA), tol=1e-6)
    assert built == []
    point = (FP_Q, FP_P)
    for _ in range(3):
        point = exact(point)
    assert built == [("q", "p")]
    for _ in range(2):
        exact.linearize(point)
    assert built == [("q", "p"), ("q", "p", "a", "b", "c", "d")]


def test_exact_map_jacobian_determinant_abel():
    # jet transport of the (q, p) system gives the one-period Jacobian; its
    # determinant depends only on the damping integral
    for beta, eps, omega in ((0.1, 1.5, 2.0), (0.1, 25.0, 1.2902), (0.05, 5.5, 1.0)):
        params = duf.DuffingParams(beta, eps, omega)
        table = mi.build_table(2, 1)
        start = duf.to_qp(0.3, 0.4, omega)
        state, _, _ = ode.rkf45(
            duf.duffing_rhs(params),
            state_about(table, start),
            0.0,
            params.period,
            ode.adaptive(1e-12),
        )
        jac = np.array(
            [[state[a].coeffs[table.variable_rank(b + 1) - 1] for b in range(2)] for a in range(2)]
        )
        assert np.linalg.det(jac) == pytest.approx(
            math.exp(-4 * math.pi * beta / omega), abs=1e-8
        )


@pytest.mark.parametrize("k", [1, 2])
def test_newton_exact_multiplier_accuracy(k):
    # damped linear oscillator: the k-fold multipliers have modulus e^(-k beta T)
    # exactly, so the Jacobian's error shows directly; a 1e-6 differencing
    # step on a map integrated at 1e-10 was off by 1.2e-4 (k = 1), 2.0e-4 (k = 2)
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 0.0, 1.7), tol=1e-10)
    _, multipliers = duf.fixed_point_newton(exact, (0.1, -0.05), k=k, tol=1e-10)
    expected = math.exp(-k * 0.1 * 2 * math.pi / 1.7)
    assert np.max(np.abs(np.abs(multipliers) - expected)) <= 1e-8


@pytest.mark.parametrize("k", [1, 2])
def test_newton_exact_iteration_makes_k_float_integrations(monkeypatch, k):
    # an unreachable tolerance runs exactly max_iter iterations, each of k
    # Taylor marches of (q, p) and the Jacobian as six floats, none on jets
    # and no DOP853 run
    calls = []
    call, rkf45 = ode.TaylorIntegrator.__call__, ode.rkf45

    def counted(self, state0, *args):
        calls.append((self.dim, [type(v) for v in state0].count(Jet)))
        return call(self, state0, *args)

    def refused(*args, **kwargs):
        raise AssertionError("the exact map ran DOP853")

    monkeypatch.setattr(ode.TaylorIntegrator, "__call__", counted)
    monkeypatch.setattr(ode, "rkf45", refused)
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 1.5, 2.0), tol=1e-6)
    with pytest.raises(duf.NewtonConvergenceError):
        duf.fixed_point_newton(exact, (0.3, 0.4), k=k, tol=0.0, max_iter=3)
    assert calls == [(6, 0)] * (3 * k)


def test_exact_map_linearize_matches_the_order_1_jet_route():
    # six floats in the Taylor march land on the image and Jacobian of an
    # order-1 jet marched by DOP853 at tol 1e-13, within the map's tol in
    # the mixed-relative measure (worst measured: 1.05 tol at 1e-6, 0.10 tol
    # at 1e-9 and 0.21 tol at 1e-12); the two no longer take the same steps
    cases = [(0.1, 25.0, 1.2902), (0.1, 25.0, 1.26), (0.1, 1.5, 2.0), (0.05, 5.5, 1.0)]
    for beta, eps, omega in cases:
        params = duf.DuffingParams(beta, eps, omega)
        reference = duf.ExactStroboscopicMap(params, 1e-13)
        for point in ((0.5, 0.5), (FP_Q, FP_P), (-0.3, 0.1)):
            want, want_jac, _ = jet_linearize(reference, point)
            for tol in (1e-6, 1e-9, 1e-12):
                image, jac = duf.ExactStroboscopicMap(params, tol).linearize(point)
                for got, ref in ((image, want), (jac, want_jac)):
                    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 2.0 * tol


@pytest.mark.parametrize("point", [(0.3,), (0.3, 0.4, 0.5)])
def test_exact_map_refuses_a_point_of_another_length(point):
    # the count is refused before any step, and no march is made for it:
    # the one compiled is the (q, p) source's, made at the map's first call
    ode._taylor_kernel.cache_clear()
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 1.5, 2.0), tol=1e-6)
    for step in (exact, exact.linearize):
        with pytest.raises(ValueError, match=f"got {len(point)} components, expected 2"):
            step(point)
    assert ode._taylor_kernel.cache_info().currsize == 1


def test_exact_map_linearize_matches_central_differences():
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 25.0, FP_OMEGA), tol=1e-12)
    point = np.array([FP_Q, FP_P])
    image, jac = exact.linearize(point)
    assert np.max(np.abs(image - exact(point))) <= 1e-9
    assert np.max(np.abs(jac - central_difference_jacobian(exact, point))) <= 1e-6


def test_exact_map_linearize_determinant_abel():
    # Liouville: det DF = exp(-4 pi beta / omega) everywhere, a free check of
    # the Jacobian the Taylor march makes; the worst error measured over
    # these cases is 0.056 tol at 1e-6, 0.033 tol at 1e-9, 0.019 tol at 1e-12
    cases = ((0.1, 1.5, 2.0), (0.1, 25.0, 1.2902), (0.05, 5.5, 1.0))
    for (beta, eps, omega), tol in itertools.product(cases, (1e-6, 1e-9, 1e-12)):
        exact = duf.ExactStroboscopicMap(duf.DuffingParams(beta, eps, omega), tol=tol)
        _, jac = exact.linearize(duf.to_qp(0.3, 0.4, omega))
        assert np.linalg.det(jac) == pytest.approx(
            math.exp(-4 * math.pi * beta / omega), abs=0.1 * tol
        )


# -- polynomial-vs-exact local agreement -----------------------------------------------


def test_polynomial_map_local_error_slope_p3():
    beta, eps = 0.1, 1.5
    expansion = (0.3, 0.4, 0.5)
    tmap = duf.stroboscopic_taylor_map(beta, eps, expansion, p=3, cfg=ode.adaptive(1e-13))
    system = duf.duffing_scaled_rhs(beta, eps, sigma=0.5)
    direction = np.array([0.6, -0.55, 0.58])
    direction /= np.linalg.norm(direction)
    deltas = np.array([1e-1, 10**-1.5, 1e-2])
    errors = []
    for delta in deltas:
        dev = delta * direction
        poly = tmap.final_state(dev)[:2]
        start = np.array(expansion) + dev
        exact_state, _, _ = ode.rkf45(
            system, tuple(start), 0.0, duf.TWO_PI, ode.adaptive(1e-13)
        )
        errors.append(np.max(np.abs(poly - np.array(exact_state[:2]))))
    slope = np.polyfit(np.log10(deltas), np.log10(errors), 1)[0]
    assert slope >= 3.5


# -- steady-state sweeps -----------------------------------------------------------------


def test_detect_period_synthetic():
    one = np.tile([[1.0, 2.0]], (32, 1))
    assert duf.detect_period(one) == 1
    two = np.array([[0.0, 0.0], [1.0, 1.0]] * 16)
    assert duf.detect_period(two) == 2
    four = np.array([[0, 0], [1, 0], [2, 0], [3, 0]] * 16, dtype=float)
    assert duf.detect_period(four) == 4
    rng = np.random.default_rng(3)
    noise = rng.normal(size=(200, 2))
    assert duf.detect_period(noise, max_period=64) is None
    # a period-k verdict needs at least 2k samples
    assert duf.detect_period(two[:3], max_period=16) is None
    assert duf.detect_period(two[:4], max_period=16) == 2
    assert duf.detect_period(noise[:5], max_period=64) is None


def test_scan_validation():
    tmap = _toy_identity_map()
    with pytest.raises(ValueError):
        duf.feigenbaum_scan(tmap, 0.1, 1.5, [])
    with pytest.raises(ValueError):
        duf.feigenbaum_scan(tmap, 0.1, 1.5, [1.0, 1.0])
    with pytest.raises(ValueError):
        duf.feigenbaum_scan(tmap, 0.1, 1.5, [1.0, 1.2, 1.1])
    with pytest.raises(ValueError):
        duf.feigenbaum_scan(tmap, 0.1, 1.5, [1.0], transient=0)
    with pytest.raises(ValueError):
        duf.feigenbaum_scan(tmap, 0.1, 1.5, [1.0], seed_policy="random")
    with pytest.raises(ValueError):
        duf.feigenbaum_scan("approximate", 0.1, 1.5, [1.0])


@pytest.mark.parametrize("source", ["exact", "taylor"])
@pytest.mark.parametrize(
    "seed, radius", [((20.0, 0.0), 10.0), ((3.0, 4.0), 4.99), ((1.5e308, 1.5e308), math.inf)]
)
def test_seed_outside_the_escape_radius_is_refused(monkeypatch, source, seed, radius):
    # the start iterate_map refuses at step 0 is refused before any omega
    # runs, where a scan used to report every omega as escaped at iterate 1;
    # |seed| overflowing to inf is outside even an infinite radius
    omegas = []
    run = duf._run_poly

    def counted(map_at, omega, *args):
        omegas.append(omega)
        return run(map_at, omega, *args)

    monkeypatch.setattr(duf, "_run_poly", counted)
    tmap = _toy_identity_map() if source == "taylor" else source
    kwargs = dict(transient=3, seed=seed, escape_radius=radius)
    with pytest.raises(ValueError, match="outside escape_radius"):
        duf.feigenbaum_scan(tmap, 0.1, 1.5, [1.0, 2.0], record=2, **kwargs)
    with pytest.raises(ValueError, match="outside escape_radius"):
        duf.attractor_sample(tmap, 0.1, 1.5, 1.0, count=2, **kwargs)
    assert omegas == []


def test_seed_on_the_escape_radius_runs():
    # on the sphere is inside, as in the orbit's own test
    samples = duf.attractor_sample(
        _toy_identity_map(), 0.1, 1.5, 2.0, transient=3, count=2, seed=(3.0, 4.0),
        escape_radius=5.0,
    )
    assert np.array_equal(samples, [duf.to_qp(3.0, 4.0, 2.0)] * 2)


def test_scan_single_steady_state_small_driving():
    # small driving: one attracting steady state across the sweep
    result = duf.feigenbaum_scan(
        "exact",
        0.1,
        0.15,
        [0.2, 1.0, 2.0, 3.0],
        transient=2000,
        record=8,
        tol=1e-4,
    )
    assert not result.failures
    for omega, block in zip(result.omegas, result.samples):
        spread = np.abs(block - block[0]).max()
        assert spread < 1e-6, f"omega={omega} spread={spread}"
    assert result.periods() == [1, 1, 1, 1]


def test_scan_small_driving_polynomial_map_agrees():
    # the polynomial map about the small-driving steady state finds the same
    # attractor as the exact map
    omega = 1.0
    exact_samples = duf.attractor_sample(
        "exact", 0.1, 0.15, omega, transient=2000, count=4, tol=1e-10
    )
    q_inf, p_inf = exact_samples[-1]
    expansion = (*duf.to_scaled(q_inf, p_inf, omega), 1.0 / omega)
    tmap = duf.stroboscopic_taylor_map(0.1, 0.15, expansion, p=5, cfg=ode.adaptive(1e-10))
    poly_samples = duf.attractor_sample(tmap, 0.1, 0.15, omega, transient=500, count=4)
    assert np.max(np.abs(poly_samples - exact_samples[-1])) < 1e-6


def test_scan_hysteresis_up_vs_down():
    # two saddle-node bifurcations bracket a bistable band: sweeping up stays
    # on the large-amplitude branch, sweeping down on the small one
    omegas = np.round(np.arange(1.5, 3.01, 0.125), 3)
    kwargs = dict(transient=300, record=4, tol=1e-5, seed_policy="continue")
    up = duf.feigenbaum_scan("exact", 0.1, 1.5, omegas, **kwargs)
    down = duf.feigenbaum_scan("exact", 0.1, 1.5, omegas[::-1], **kwargs)
    assert not up.failures and not down.failures
    q_up = {w: s[-1, 0] for w, s in zip(up.omegas, up.samples)}
    q_down = {w: s[-1, 0] for w, s in zip(down.omegas, down.samples)}
    inside = [w for w in q_up if 2.0 <= w <= 2.5]
    assert inside
    for w in inside:
        assert abs(q_up[w] - q_down[w]) > 0.1, f"no branch separation at omega={w}"
    # outside the bistable band both sweeps land on the same attractor
    assert abs(q_up[1.5] - q_down[1.5]) < 1e-5
    assert abs(q_up[3.0] - q_down[3.0]) < 1e-5


def test_scan_divergent_rows_recorded_and_scan_continues(m8_map):
    tmap, _ = m8_map
    # omega far outside the sigma-trust region escapes; the scan reseeds and
    # later omegas recover (closely spaced, so continuation can follow)
    grid = [1.10, 1.27, 1.2701]
    result = duf.feigenbaum_scan(tmap, 0.1, 25.0, grid, transient=200, record=16)
    assert [w for w, _ in result.failures] == [1.10]
    assert result.samples[0].shape == (0, 2)
    assert result.samples[1].shape == (16, 2)
    assert result.samples[2].shape == (16, 2)


def test_scan_fixed_seed_omegas_are_independent(m8_map):
    # under a fixed seed no omega sees another's final state: each row equals
    # a one-omega scan, and the order of the grid does not matter
    tmap, _ = m8_map
    grid = [1.270, 1.275, 1.280]
    kwargs = dict(transient=300, record=8, seed_policy="fixed")
    forward = duf.feigenbaum_scan(tmap, 0.1, 25.0, grid, **kwargs)
    backward = duf.feigenbaum_scan(tmap, 0.1, 25.0, grid[::-1], **kwargs)
    for i, omega in enumerate(grid):
        alone = duf.feigenbaum_scan(tmap, 0.1, 25.0, [omega], **kwargs)
        assert forward.samples[i].shape == (8, 2)
        assert np.array_equal(forward.samples[i], alone.samples[0])
        assert np.array_equal(forward.samples[i], backward.samples[-1 - i])


def test_iterate_map_tail_matches_one_omega_scan(m8_map):
    tmap, _ = m8_map
    omega, seed, transient, record = 1.27, (0.01, -0.02), 200, 16
    dsigma = 1.0 / omega - tmap.expansion_point[2]
    traj = duf.iterate_map(tmap, seed, dsigma, transient + record)
    scan = duf.feigenbaum_scan(
        tmap, 0.1, 25.0, [omega], transient=transient, record=record, seed=seed
    )
    tail = traj[-record:]
    qp = np.column_stack(
        [
            omega * (tmap.expansion_point[0] + tail[:, 0]),
            omega**2 * (tmap.expansion_point[1] + tail[:, 1]),
        ]
    )
    assert np.array_equal(qp, scan.samples[0])


def test_attractor_sample_stable_regime():
    samples = duf.attractor_sample(
        "exact", 0.1, 0.15, 1.0, transient=2000, count=16, tol=1e-6
    )
    assert samples.shape == (16, 2)
    assert np.abs(samples - samples[0]).max() < 1e-6


def test_attractor_sample_polynomial_strange_attractor(m8_map):
    tmap, _ = m8_map
    samples = duf.attractor_sample(tmap, 0.1, 25.0, 1.2902, transient=5000, count=10_000)
    assert samples.shape == (10_000, 2)
    assert np.all(np.isfinite(samples))
    assert np.abs(samples).max() < 50.0
    assert duf.detect_period(samples, tol=1e-6, max_period=64) is None


@pytest.mark.slow
def test_attractor_sample_exact_strange_attractor():
    samples = duf.attractor_sample(
        "exact",
        0.1,
        25.0,
        1.2902,
        transient=2000,
        count=10_000,
        seed=(FP_Q, FP_P),
        tol=1e-6,
    )
    assert np.all(np.isfinite(samples))
    assert np.abs(samples).max() < 50.0
    assert duf.detect_period(samples, tol=1e-6, max_period=64) is None


def test_attractor_sample_escape_reports_the_escape_step(m8_map):
    # from the origin at omega 1.265 the order-8 map leaves its trust region
    # after a few iterates; the error carries that step, as iterate_map's does
    tmap, _ = m8_map
    omega = 1.265
    with pytest.raises(duf.EscapeError) as want:
        duf.iterate_map(tmap, (0.0, 0.0), 1.0 / omega - tmap.expansion_point[2], 50)
    with pytest.raises(duf.EscapeError) as got:
        duf.attractor_sample(tmap, 0.1, 25.0, omega, transient=30, count=20)
    assert want.value.step > 1
    assert (got.value.step, str(got.value)) == (want.value.step, str(want.value))


def test_attractor_sample_validation():
    with pytest.raises(ValueError):
        duf.attractor_sample("exact", 0.1, 1.5, 1.0, count=0)
