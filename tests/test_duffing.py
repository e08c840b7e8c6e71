"""Duffing application tests: frames, maps, fixed points, sweeps, attractors."""

import dataclasses
import math
import struct
import sys
import warnings

import numpy as np
import pytest

from jetmap import duffing as duf
from jetmap import jetode as ode
from jetmap import monoidx as mi
from jetmap import vareq as vq
from jetmap.jet import Jet, state_about

from conftest import FP_OMEGA, FP_P, FP_Q
from oracles import PhasePoint, central_difference_jacobian


# -- parameters and frames -------------------------------------------------------


def test_params_validation():
    duf.DuffingParams(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        duf.DuffingParams(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        duf.DuffingParams(0.1, -1.0, 1.0)
    with pytest.raises(ValueError):
        duf.DuffingParams(0.1, 1.0, 0.0)
    params = duf.DuffingParams(0.1, 1.5, 2.0)
    assert params.sigma == 0.5
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


def test_scaled_rhs_structure():
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    assert system.dim == 3 and system.n_params == 1
    assert system.param_values == (0.5,)
    # scalar evaluation against the hand expansion
    z = (0.2, -0.3, 0.5)
    t = 1.1
    dz = system.rhs(z, t)
    assert dz[0] == pytest.approx(z[1])
    assert dz[1] == pytest.approx(
        -2 * 0.1 * z[2] * z[1] - z[2] ** 2 * z[0] - z[0] ** 3 - 1.5 * z[2] ** 3 * math.sin(t)
    )
    assert dz[2] == 0.0


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
        design_endpoint=(shift[0], shift[1], 0.5),
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
    """TaylorMap with zeta1 -> 1e308 dsigma zeta1^2 (minus 1e308 dsigma zeta1^3
    when ``nan``) and zeta2 -> zeta2, about sigma = 0.5.  From zeta1 = 2 at
    omega = 1 (dsigma = 0.5) one step gives inf, or inf - inf = NaN; at
    omega = 2 (dsigma = 0) the orbit falls to the origin and stays."""
    table = mi.build_table(3, 4)
    rows = np.zeros((3, table.L))
    rows[0, mi.rank((2, 0, 1)) - 1] = 1e308
    if nan:
        rows[0, mi.rank((3, 0, 1)) - 1] = -1e308
    rows[1, table.variable_rank(2) - 1] = 1.0
    rows[2, 0] = 0.5
    rows[2, table.variable_rank(3) - 1] = 1.0
    return vq.TaylorMap(
        table=table,
        t_i=0.0,
        t_f=duf.TWO_PI,
        expansion_point=(0.0, 0.0, 0.5),
        design_endpoint=(0.0, 0.0, 0.5),
        rows=tuple(Jet(table, row) for row in rows),
        n_params=1,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("radius", [10.0, math.inf])
def test_non_finite_iterate_escapes(nan, radius):
    # a non-finite iterate escapes at once, even with no finite radius
    tmap = _toy_overflow_map(nan)
    with pytest.raises(duf.EscapeError) as info:
        duf.iterate_map(tmap, (2.0, 0.0), 0.5, 5, escape_radius=radius)
    assert info.value.step == 1
    result = duf.feigenbaum_scan(
        tmap, 0.1, 1.5, [1.0, 2.0], transient=3, record=4, seed=(2.0, 0.0),
        escape_radius=radius,
    )
    assert result.failures == [(1.0, "orbit escaped at iterate 1")]
    assert result.samples[0].shape == (0, 2)
    assert np.array_equal(result.samples[1], np.zeros((4, 2)))


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


def test_cycle_cut_exact_map_closes():
    # the orbit settles on a fixed point and wanders over its last bits until
    # an iterate repeats; where that happens (application 303 on one numpy
    # build) moves with the order in which the integrator's dots sum, so the
    # window leaves room for it and the count is not pinned
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
    # an np.float64 omega from the grid would turn every stage value of the
    # exact orbit into a numpy scalar through omega * tau
    seen = set()
    duffing_rhs = duf.duffing_rhs

    def spied(params):
        seen.add(type(params.omega))
        system = duffing_rhs(params)

        def rhs(s, t):
            out = system.rhs(s, t)
            seen.update(type(v) for v in (*s, t, *out))
            return out

        return ode.OdeSystem(dim=2, rhs=rhs)

    monkeypatch.setattr(duf, "duffing_rhs", spied)
    grid = np.array([1.27, 1.271])
    result = duf.feigenbaum_scan("exact", 0.1, 25.0, grid, transient=2, record=2, tol=1e-6)
    assert [len(s) for s in result.samples] == [2, 2]
    assert seen == {float}


def test_exact_scan_compiles_the_dop853_attempt_once(monkeypatch):
    # the compiled attempt is cached on the tableau by m: every period of
    # every omega reuses the one made for the first
    compiled = []
    float_kernel = ode._float_kernel

    def counted(tableau, m):
        compiled.append(m)
        return float_kernel(tableau, m)

    monkeypatch.setattr(ode, "_DOP", dataclasses.replace(ode._DOP, kernels={}))
    monkeypatch.setattr(ode, "_float_kernel", counted)
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
    assert compiled == [2]


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
def test_newton_exact_iteration_makes_k_jet_integrations(monkeypatch, k):
    # an unreachable tolerance runs exactly max_iter iterations
    calls = {"jet": 0, "scalar": 0}
    rkf45 = ode.rkf45

    def counted(system, state0, *args, **kwargs):
        calls["jet" if isinstance(state0[0], Jet) else "scalar"] += 1
        return rkf45(system, state0, *args, **kwargs)

    monkeypatch.setattr(ode, "rkf45", counted)
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 1.5, 2.0), tol=1e-6)
    with pytest.raises(duf.NewtonConvergenceError):
        duf.fixed_point_newton(exact, (0.3, 0.4), k=k, tol=0.0, max_iter=3)
    assert calls == {"jet": 3 * k, "scalar": 0}


def test_exact_map_linearize_matches_central_differences():
    exact = duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 25.0, FP_OMEGA), tol=1e-12)
    point = np.array([FP_Q, FP_P])
    image, jac = exact.linearize(point)
    assert np.max(np.abs(image - exact(point))) <= 1e-9
    assert np.max(np.abs(jac - central_difference_jacobian(exact, point))) <= 1e-6


def test_exact_map_linearize_determinant_abel():
    for beta, eps, omega in ((0.1, 1.5, 2.0), (0.1, 25.0, 1.2902), (0.05, 5.5, 1.0)):
        exact = duf.ExactStroboscopicMap(duf.DuffingParams(beta, eps, omega), tol=1e-12)
        _, jac = exact.linearize(duf.to_qp(0.3, 0.4, omega))
        assert np.linalg.det(jac) == pytest.approx(
            math.exp(-4 * math.pi * beta / omega), abs=1e-8
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
