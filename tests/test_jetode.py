"""Integrator tests: published runs, convergence order, scalar/jet consistency."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from jetmap import jet as jt
from jetmap import jetode as ode
from jetmap import monoidx as mi
from jetmap import vareq as vq

from oracles import float_attempt


def decay_system():
    """z' = -2 t z^2, closed form z(t) = z0 / (1 + z0 t^2) from t0 = 0."""
    return ode.OdeSystem(dim=1, rhs=lambda s, t: (-2.0 * t * s[0] ** 2,))


def pair_system():
    """z1' = -z1^2, z2' = 2 z1 z2; z1 = z10/(1+t z10), z2 = z20 (1+t z10)^2."""
    return ode.OdeSystem(
        dim=2, rhs=lambda s, t: (-(s[0] ** 2), 2.0 * (s[0] * s[1]))
    )


def series_expm(a: np.ndarray, t: float) -> np.ndarray:
    """Matrix exponential by plain series summation (independent oracle)."""
    term = np.eye(a.shape[0])
    out = np.eye(a.shape[0])
    for k in range(1, 60):
        term = term @ (a * t) / k
        out = out + term
    return out


# -- config validation ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ode.IntegratorConfig(mode="nope")
    with pytest.raises(TypeError):
        ode.IntegratorConfig(mode="fixed", h=0.1, ns=10)
    with pytest.raises(ValueError):
        ode.IntegratorConfig(mode="fixed", ns=0)
    with pytest.raises(ValueError):
        ode.IntegratorConfig(mode="adaptive", tol=0.0)
    with pytest.raises(ValueError):
        ode.rk4(decay_system(), (1.0,), 0.0, 1.0, ode.adaptive(1e-9))
    with pytest.raises(ValueError):
        ode.rk4(decay_system(), (1.0,), 1.0, 1.0, ode.fixed_step(10))
    with pytest.raises(ValueError):
        ode.rkf45(decay_system(), (1.0,), 0.0, 1.0, ode.fixed_step(10))
    with pytest.raises(ValueError):
        ode.rkf45(decay_system(), (1.0,), 1.0, 1.0, ode.adaptive())


def test_ode_system_validation():
    with pytest.raises(ValueError):
        ode.OdeSystem(dim=0, rhs=lambda s, t: ())
    with pytest.raises(ValueError):
        ode.OdeSystem(dim=2, rhs=lambda s, t: (0, 0), n_params=3)


# -- fixed-step RK4 --------------------------------------------------------------


def test_rk4_scalar_published_run():
    (z,), t, _ = ode.rk4(decay_system(), (1.0,), 0.0, 1.0, ode.fixed_step(10))
    assert t == pytest.approx(1.0, abs=1e-15)
    assert f"{z:.6f}" == "0.500001"


def test_rk4_jet_published_run():
    table = mi.build_table(1, 5)
    state0 = jt.state_about(table, [1.0])
    (z,), t, _ = ode.rk4(decay_system(), state0, 0.0, 1.0, ode.fixed_step(100))
    assert t == pytest.approx(1.0, abs=1e-12)
    expected = [0.5, 0.25, -0.125, 0.0625, -0.03125, 0.015625]
    assert np.max(np.abs(z.coeffs - expected)) < 1e-6


def test_rk4_jet_two_variable_published_run():
    table = mi.build_table(2, 3)
    state0 = jt.state_about(table, [1.0, 2.0])
    (z1, z2), _, _ = ode.rk4(pair_system(), state0, 0.0, 1.0, ode.fixed_step(100))
    expected1 = [0.5, 0.25, 0, -0.125, 0, 0, 0.0625, 0, 0, 0]
    expected2 = [8, 8, 4, 2, 4, 0, 0, 1, 0, 0]
    assert np.max(np.abs(z1.coeffs - expected1)) < 1e-6
    diffs = np.abs(z2.coeffs - expected2)
    assert diffs[6] < 5e-7  # truncation-error residual the source run also shows
    diffs[6] = 0.0
    assert diffs.max() < 1e-6


def test_rk4_divergence_reports_step():
    blow_up = ode.OdeSystem(dim=1, rhs=lambda s, t: (s[0] ** 2,))
    with pytest.raises(ode.DivergenceError) as info:
        ode.rk4(blow_up, (1.0,), 0.0, 50.0, ode.fixed_step(100))
    assert info.value.step is not None and info.value.step > 0


def test_rk4_global_error_fourth_order():
    # halving h shrinks the global error at t=1 by ~16
    errors = []
    for h in (0.1, 0.05, 0.025):
        (z,), _, _ = ode.rk4(decay_system(), (1.0,), 0.0, 1.0, ode.fixed_step(round(1 / h)))
        errors.append(abs(z - 0.5))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


# -- adaptive Dormand-Prince 8(5,3), reached as rkf45 --------------------------------


def test_rkf45_scalar_decay():
    (z,), t, stats = ode.rkf45(decay_system(), (1.0,), 0.0, 1.0, ode.adaptive(1e-12))
    assert t == 1.0
    assert abs(z - 0.5) <= 1e-10
    assert stats.accepted > 0


def test_rkf45_two_variable_closed_form():
    state, _, _ = ode.rkf45(pair_system(), (1.0, 2.0), 0.0, 1.0, ode.adaptive(1e-12))
    assert abs(state[0] - 0.5) <= 1e-10
    assert abs(state[1] - 8.0) <= 1e-10


def test_rkf45_zero_rhs_single_giant_step():
    still = ode.OdeSystem(dim=2, rhs=lambda s, t: (0.0 * s[0], 0.0 * s[1]))
    state, t, stats = ode.rkf45(still, (3.0, -4.0), 0.0, 100.0, ode.adaptive(1e-12))
    assert state == (3.0, -4.0)
    assert t == 100.0
    assert stats.accepted == 1 and stats.rejected == 0


def test_rkf45_ends_exactly_at_tf():
    _, t, _ = ode.rkf45(decay_system(), (1.0,), 0.0, 0.7300000001, ode.adaptive(1e-10))
    assert t == 0.7300000001


def test_rkf45_divergence():
    blow_up = ode.OdeSystem(dim=1, rhs=lambda s, t: (s[0] ** 2,))
    # z' = z^2 from z0=1 blows up at t=1 < tf
    with pytest.raises((ode.DivergenceError, ode.StiffnessError)):
        ode.rkf45(blow_up, (1.0,), 0.0, 2.0, ode.adaptive(1e-10))


@pytest.mark.parametrize("jets", [False, True], ids=["floats", "jets"])
@pytest.mark.parametrize(
    "rhs, start, message",
    [
        # on floats x**3 raises OverflowError, which counts as an infinite
        # error; on jets it overflows to inf; either way every attempt is
        # rejected until the step falls below its minimum
        ("x**3", 1e200, "step collapsed below 6.283185307179586e-12 at t=0.0 chasing non-finite stages"),
        # every estimate is finite, so the first attempt is accepted, and
        # its state overflows
        ("1e307", 1.7e308, "non-finite state near t=0.0"),
    ],
    ids=["collapse", "accepted-overflow"],
)
def test_rkf45_divergence_names_its_step_and_time(rhs, start, message, jets):
    system = ode.expression_system(("x",), "t", (rhs,))
    state0 = jt.state_about(mi.build_table(1, 2), [start]) if jets else (start,)
    with pytest.raises(ode.DivergenceError) as info:
        ode.rkf45(system, state0, 0.0, 2.0 * math.pi, ode.adaptive(1e-12))
    assert (str(info.value), info.value.step, info.value.t) == (message, 0, 0.0)


def test_rkf45_jet_matches_fixed_step_map():
    table = mi.build_table(1, 5)
    state0 = jt.state_about(table, [1.0])
    (adaptive_z,), _, _ = ode.rkf45(decay_system(), state0, 0.0, 1.0, ode.adaptive(1e-12))
    expected = [0.5, 0.25, -0.125, 0.0625, -0.03125, 0.015625]
    assert np.max(np.abs(adaptive_z.coeffs - expected)) < 1e-10


def test_rkf45_error_norm_spans_all_jet_coefficients():
    # the step-control norm is the max over every coefficient of every
    # component, not just the orbit part; on a zero state every weight is 1
    # (stages are rows of the flat state array, as rkf45 holds them)
    table = mi.build_table(1, 2)
    big_tail = jt.Jet(table, [1e-15, 0.0, 7.0])
    small = jt.Jet(table, [2e-15, 0.0, 0.0])
    stages = np.stack([big_tail.coeffs, small.coeffs])
    zero = np.zeros(table.L)
    # a zero 3rd-order row makes the combined estimate |e5|
    weights = np.array([[0.5, 2.0], [0.0, 0.0]])
    norm = ode._error_norm(weights, stages, zero, zero)
    assert norm == pytest.approx(3.5)
    # a one-coefficient row is weighed by the same expression
    scalar_stages = np.array([[-1.0], [0.25]])
    zero = np.zeros(1)
    assert ode._error_norm(weights, scalar_stages, zero, zero) == pytest.approx(0.0)


def test_rkf45_error_norm_is_relative_on_large_coefficients():
    # a difference of 1e-3 on a coefficient of 1e6 is a relative error of 1e-9,
    # while the same difference on a coefficient near 0 counts in full
    weights = np.array([[1.0], [0.0]])
    diff = np.array([[0.0, 1e-3]])
    y = np.array([0.0, 1e6])
    assert ode._error_norm(weights, diff, y, y) == pytest.approx(1e-9, rel=1e-5)
    assert ode._error_norm(weights, diff[:, ::-1], y, y) == pytest.approx(1e-3)


def test_rkf45_error_norm_weight_is_the_larger_of_y_and_y5():
    weights = np.array([[1.0], [0.0]])
    diff = np.array([[1.0]])
    small, large = np.array([1.0]), np.array([-9.0])
    assert ode._error_norm(weights, diff, small, large) == pytest.approx(0.1)
    assert ode._error_norm(weights, diff, large, small) == pytest.approx(0.1)
    assert ode._error_norm(weights, diff, small, small) == pytest.approx(0.5)


def test_rkf45_error_norm_overflow_is_an_infinite_error():
    weights = np.array([[1.0], [0.0]])
    with np.errstate(invalid="ignore"):
        norm = ode._error_norm(weights, np.array([[np.inf]]), np.zeros(1), np.array([np.inf]))
    assert norm == math.inf


def test_rkf45_jet_run_tracks_scalar_run():
    table = mi.build_table(1, 3)
    (scalar_z,), _, _ = ode.rkf45(decay_system(), (1.0,), 0.0, 1.0, ode.adaptive(1e-11))
    (jet_z,), _, _ = ode.rkf45(
        decay_system(), jt.state_about(table, [1.0]), 0.0, 1.0, ode.adaptive(1e-11)
    )
    # separate adaptive step sequences: both sit within tolerance of truth
    assert jet_z.coeffs[0] == pytest.approx(0.5, abs=5e-11)
    assert scalar_z == pytest.approx(0.5, abs=5e-11)
    assert jet_z.coeffs[0] == pytest.approx(scalar_z, rel=1e-9)


# -- scalar/jet consistency and the linear-block oracle -------------------------------


def test_design_orbit_rides_along_fixed_step():
    # with a shared step sequence the orbit slot of the jet run reproduces the
    # scalar run to relative rounding
    cfg = ode.fixed_step(50)
    table = mi.build_table(2, 3)
    scalar_state, _, _ = ode.integrate(pair_system(), (1.0, 2.0), 0.0, 1.0, cfg)
    jet_state, _, _ = ode.integrate(
        pair_system(), jt.state_about(table, [1.0, 2.0]), 0.0, 1.0, cfg
    )
    for scalar, jet in zip(scalar_state, jet_state):
        assert jet.coeffs[0] == pytest.approx(scalar, rel=1e-12)


def test_design_orbit_rides_along_adaptive():
    # adaptive runs choose their own steps; both land on the closed form
    cfg = ode.adaptive(1e-12)
    table = mi.build_table(2, 3)
    scalar_state, _, _ = ode.integrate(pair_system(), (1.0, 2.0), 0.0, 1.0, cfg)
    jet_state, _, _ = ode.integrate(
        pair_system(), jt.state_about(table, [1.0, 2.0]), 0.0, 1.0, cfg
    )
    for scalar, jet, exact in zip(scalar_state, jet_state, (0.5, 8.0)):
        assert scalar == pytest.approx(exact, abs=1e-10)
        assert jet.coeffs[0] == pytest.approx(exact, abs=1e-10)


def test_linear_system_degree_one_block_is_fundamental_matrix():
    a = np.array([[0.3, -1.2], [0.8, -0.4]])
    linear = ode.OdeSystem(
        dim=2,
        rhs=lambda s, t: (a[0, 0] * s[0] + a[0, 1] * s[1], a[1, 0] * s[0] + a[1, 1] * s[1]),
    )
    table = mi.build_table(2, 2)
    state, _, _ = ode.rkf45(
        linear, jt.state_about(table, [0.7, -0.2]), 0.0, 1.5, ode.adaptive(1e-12)
    )
    block = np.array(
        [[state[i].coeffs[table.variable_rank(j + 1) - 1] for j in range(2)] for i in range(2)]
    )
    assert np.max(np.abs(block - series_expm(a, 1.5))) < 1e-9


def test_same_marching_code_for_scalar_and_jet():
    # one generic routine instantiated twice: literally the same function object
    table = mi.build_table(1, 2)
    run = lambda state0: ode.rk4(decay_system(), state0, 0.0, 1.0, ode.fixed_step(10))[0]
    scalar_out = run((1.0,))[0]
    jet_out = run(jt.state_about(table, [1.0]))[0]
    assert isinstance(scalar_out, float)
    assert isinstance(jet_out, jt.Jet)
    assert jet_out.coeffs[0] == pytest.approx(scalar_out, rel=1e-13)


def test_time_dependent_scalar_coefficients_enter_jets():
    # rhs with a pure time function: constant jet offsets must work
    table = mi.build_table(1, 2)
    forced = ode.OdeSystem(dim=1, rhs=lambda s, t: (-s[0] + math.sin(t),))
    (z,), _, _ = ode.rkf45(forced, jt.state_about(table, [0.5]), 0.0, 2.0, ode.adaptive(1e-12))
    # closed form: z = e^-t (z0 + 1/2) + (sin t - cos t)/2
    expected0 = math.exp(-2.0) * (0.5 + 0.5) + (math.sin(2.0) - math.cos(2.0)) / 2
    assert z.coeffs[0] == pytest.approx(expected0, abs=1e-10)
    assert z.coeffs[1] == pytest.approx(math.exp(-2.0), abs=1e-10)


# -- the array state -------------------------------------------------------------


def tuple_step(rhs, state, t, h, a, b, c):
    """One explicit Runge-Kutta step in per-component tuple arithmetic."""
    stages = []
    for i, ci in enumerate(c):
        arg = state
        for aij, k in zip(a[i], stages):
            arg = tuple(z + (h * aij) * kz for z, kz in zip(arg, k))
        stages.append(tuple(rhs(arg, t + ci * h)))
    for bi, k in zip(b, stages):
        state = tuple(z + (h * bi) * kz for z, kz in zip(state, k))
    return state


@pytest.mark.parametrize("jets", [False, True])
def test_array_steps_match_tuple_arithmetic(jets):
    # the array state only reorders float sums: one step of each method
    # agrees with the tuple reference to a few ulps of the coefficients
    table = mi.build_table(2, 3)
    state0 = jt.state_about(table, [1.0, 2.0]) if jets else (1.0, 2.0)
    rhs = pair_system().rhs
    rk4_tableau = (
        [[], [0.5], [0.0, 0.5], [0.0, 0.0, 1.0]],
        [1 / 6, 1 / 3, 1 / 3, 1 / 6],
        [0.0, 0.5, 0.5, 1.0],
    )
    got_rk4, _, _ = ode.rk4(pair_system(), state0, 0.0, 0.1, ode.fixed_step(1))
    # a loose tolerance accepts the first, whole-span step
    got_rkf, _, stats = ode.rkf45(pair_system(), state0, 0.0, 0.1, ode.adaptive(1.0))
    assert (stats.accepted, stats.rejected) == (1, 0)
    rkf_tableau = ([row[:i] for i, row in enumerate(ode._DOP_A)], ode._DOP_B, ode._DOP_C)
    for got, tableau in ((got_rk4, rk4_tableau), (got_rkf, rkf_tableau)):
        want = tuple_step(rhs, state0, 0.0, 0.1, *tableau)
        for g, w in zip(got, want):
            g, w = np.atleast_1d(getattr(g, "coeffs", g)), np.atleast_1d(getattr(w, "coeffs", w))
            assert np.max(np.abs(g - w) / (1.0 + np.abs(w))) <= 1e-14


def test_dop853_tableau_order_conditions():
    # consistency of the nodes, the quadrature conditions of order 8, and
    # error weights that vanish on constants
    assert np.max(np.abs(ode._DOP_A.sum(axis=1) - ode._DOP_C)) <= 1e-15
    assert np.all(np.triu(ode._DOP_A) == 0.0)
    c = np.array(ode._DOP_C)
    for k in range(8):
        assert ode._DOP_B @ c**k == pytest.approx(1 / (k + 1), abs=1e-15), k
    assert abs(ode._DOP_B @ c**8 - 1 / 9) > 1e-6
    assert np.max(np.abs(ode._DOP_E.sum(axis=1))) <= 1e-15


def test_dop853_integrates_degree_seven_quadrature_in_one_step():
    # y' = t^7: the 8th-order weights integrate it exactly, so the whole-span
    # first step is taken at once
    (y,), t, stats = ode.rkf45(
        ode.OdeSystem(dim=1, rhs=lambda s, t: (t**7,)), (0.0,), 0.0, 1.0, ode.adaptive(1.0)
    )
    assert (stats.accepted, stats.rejected, t) == (1, 0, 1.0)
    assert abs(y - 1 / 8) <= 4 * math.ulp(1 / 8)


def test_dop853_right_side_count():
    # stage 0 is f at the state, evaluated once per accepted state and reused
    # by the attempts after a rejection: 11 new stages per attempt
    calls = [0]

    def rhs(s, t):
        calls[0] += 1
        return decay_system().rhs(s, t)

    _, _, stats = ode.rkf45(ode.OdeSystem(dim=1, rhs=rhs), (1.0,), 0.0, 1.0, ode.adaptive(1e-12))
    assert stats.rejected >= 1
    assert calls[0] == 11 * (stats.accepted + stats.rejected) + stats.accepted


def test_error_norm_combines_fifth_and_third_order_estimates():
    # E5^2 / sqrt(E5^2 + 0.01 E3^2) of the two max norms E5 and E3
    k = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 0.0]])
    weights = np.array([[1.0, 0.0], [0.0, 10.0]])
    # entries (e5, e3): (3, 40), (0, 0), (1, 0): E5 = 3, E3 = 40 -> 9 / 5
    assert ode._error_norm(weights, k, np.zeros(3), np.zeros(3)) == pytest.approx(1.8)
    # E5 = 1, E3 = 0 -> 1; E5 = 0 -> 0
    assert ode._error_norm(weights, k[:, 1:], np.zeros(2), np.zeros(2)) == 1.0
    assert ode._error_norm(weights, k[:, 1:2], np.zeros(1), np.zeros(1)) == 0.0


def test_error_norm_combines_norms_not_entries():
    # entries (e5, e3) = (3, 40) and (2, 0): combining the norms E5 = 3 and
    # E3 = 40 gives 1.8, where combining each entry and then taking the max
    # would give max(1.8, 2) = 2
    k = np.array([[3.0, 2.0], [4.0, 0.0]])
    weights = np.array([[1.0, 0.0], [0.0, 10.0]])
    assert ode._error_norm(weights, k, np.zeros(2), np.zeros(2)) == pytest.approx(1.8)


@pytest.mark.parametrize("f, want", [(lambda z: -z, math.exp(-1.0)), (lambda z: 1.0, 2.0)])
def test_non_finite_stage_is_a_rejected_attempt(f, want):
    # the right side returns inf at its 2nd call, stage 1 of the first
    # attempt, which the 8th-order step and both estimates weigh by 0: it
    # reaches them through the stages after it, or, when f ignores the
    # state, through 0 * inf = NaN, and the attempt is rejected
    calls = [0]

    def rhs(s, t):
        calls[0] += 1
        return (math.inf if calls[0] == 2 else f(s[0]),)

    (y,), t, stats = ode.rkf45(ode.OdeSystem(dim=1, rhs=rhs), (1.0,), 0.0, 1.0, ode.adaptive(1e-9))
    assert (stats.accepted, stats.rejected, t) == (4, 1, 1.0)
    assert y == pytest.approx(want, abs=1e-9)


def test_rk4_spans_an_interval_that_ns_does_not_divide():
    # [0, 0.7] in 3 steps: each step is 0.7 / 3, so the run ends at tf
    h = 0.7 / 3
    state, t, stats = ode.rk4(pair_system(), (1.0, 2.0), 0.0, 0.7, ode.fixed_step(3))
    assert abs(t - 0.7) <= math.ulp(0.7)
    assert (stats.accepted, stats.rejected, stats.h_min, stats.h_max) == (3, 0, h, h)
    tableau = ([row[:i] for i, row in enumerate(ode._RK4_A)], ode._RK4_B, ode._RK4_C)
    want = (1.0, 2.0)
    for i in range(3):
        want = tuple_step(pair_system().rhs, want, i * h, h, *tableau)
    assert np.max(np.abs(np.subtract(state, want)) / (1.0 + np.abs(want))) <= 1e-14
    assert ode.integrate(pair_system(), (1.0, 2.0), 0.0, 0.7, ode.fixed_step(3))[0] == state


def test_step_budget_guard_names_the_budget(monkeypatch):
    monkeypatch.setattr(ode, "_MAX_STEPS", 5)
    with pytest.raises(ode.StiffnessError, match="exceeded 5 steps"):
        ode.rkf45(decay_system(), (1.0,), 0.0, 1.0, ode.adaptive(1e-12))


@pytest.mark.parametrize("march", ["rk4", "rkf45"])
def test_returned_jets_are_frozen_and_own_their_buffers(march):
    table = mi.build_table(2, 3)
    seen = []

    def rhs(s, t):
        seen.extend(s)
        return pair_system().rhs(s, t)

    system = ode.OdeSystem(dim=2, rhs=rhs)
    state0 = jt.state_about(table, [1.0, 2.0])
    if march == "rk4":
        state, _, _ = ode.rk4(system, state0, 0.0, 0.5, ode.fixed_step(5))
    else:
        state, _, _ = ode.rkf45(system, state0, 0.0, 0.5, ode.adaptive(1e-10))
    assert all(type(z) is jt.Jet for z in seen)
    assert not any(z.coeffs.flags.writeable for z in seen)
    for z in state:
        assert type(z) is jt.Jet
        assert not z.coeffs.flags.writeable
        assert z.coeffs.flags.owndata
        assert not any(np.shares_memory(z.coeffs, v.coeffs) for v in seen)
    assert not np.shares_memory(state[0].coeffs, state[1].coeffs)
    # the initial jets are left as they were
    assert state0 == jt.state_about(table, [1.0, 2.0])


@pytest.mark.parametrize("march", ["rk4", "rkf45"])
def test_a_jet_march_hands_every_stage_the_same_read_only_jets(march):
    # z1' = z2, z2' = -z1^3: the first derivative is an input jet itself,
    # which the march must read before the next stage rewrites it
    table = mi.build_table(2, 3)
    run, cfg = (ode.rk4, ode.fixed_step(5)) if march == "rk4" else (ode.rkf45, ode.adaptive(1e-10))

    def rhs(s, t):
        return (s[1], -(s[0] ** 3))

    def spying(seen):
        def spy(s, t):
            seen.append(s)
            return rhs(s, t)

        return ode.OdeSystem(dim=2, rhs=spy)

    def copying(s, t):
        return rhs(tuple(jt.Jet(table, z.coeffs) for z in s), t)

    state0 = jt.state_about(table, [1.0, 0.5])
    first, second = [], []
    state, _, _ = run(spying(first), state0, 0.0, 0.5, cfg)
    run(spying(second), state0, 0.0, 0.5, cfg)
    # one tuple per march, handed to every stage
    assert len(first) > 4
    assert all(s is first[0] for s in first) and all(s is second[0] for s in second)
    assert second[0] is not first[0]
    views = (*first[0], *second[0])
    assert all(type(z) is jt.Jet and not z.coeffs.flags.writeable for z in views)
    assert not any(np.shares_memory(u.coeffs, v.coeffs) for u in first[0] for v in second[0])
    assert not any(np.shares_memory(z.coeffs, v.coeffs) for z in state for v in views)
    # a right side that copies its inputs first sees the same values
    copied, _, _ = run(ode.OdeSystem(dim=2, rhs=copying), state0, 0.0, 0.5, cfg)
    assert [z.coeffs.tobytes() for z in copied] == [z.coeffs.tobytes() for z in state]


def test_float_component_on_jet_state_is_a_constant_row():
    # z1' = 1 written as a plain float, z2' = z1: z1 = x1 + t, z2 = x2 + t x1 + t^2/2
    table = mi.build_table(2, 2)
    system = ode.OdeSystem(dim=2, rhs=lambda s, t: (1.0, s[0]))
    state0 = jt.state_about(table, [0.0, 0.0])
    (z1, z2), _, _ = ode.rk4(system, state0, 0.0, 1.0, ode.fixed_step(10))
    # ranks: 1, z1, z2, z1^2, z1 z2, z2^2
    assert z1.coeffs == pytest.approx([1.0, 1.0, 0, 0, 0, 0], abs=1e-14)
    assert z2.coeffs == pytest.approx([0.5, 1.0, 1.0, 0, 0, 0], abs=1e-14)


@pytest.mark.parametrize("march", ["rk4", "rkf45"])
def test_jets_over_different_tables_refused_before_first_step(march):
    calls = []
    system = ode.OdeSystem(dim=2, rhs=lambda s, t: calls.append(t) or (s[0], s[1]))
    state0 = (jt.variable(mi.build_table(2, 2), 1), jt.variable(mi.build_table(2, 3), 2))
    with pytest.raises(mi.TableMismatchError):
        if march == "rk4":
            ode.rk4(system, state0, 0.0, 0.5, ode.fixed_step(5))
        else:
            ode.rkf45(system, state0, 0.0, 1.0, ode.adaptive(1e-10))
    assert calls == []


def test_blow_up_ends_in_numeric_error_without_warnings():
    # z' = z^2 from z0 = 1 blows up at t = 1; overflow inside the state array
    # must surface as the integrator's error, not as a numpy warning
    blow_up = ode.OdeSystem(dim=1, rhs=lambda s, t: (s[0] ** 2,))
    jets = jt.state_about(mi.build_table(1, 4), [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ode.DivergenceError, ode.StiffnessError)):
            ode.rkf45(blow_up, (1.0,), 0.0, 2.0, ode.adaptive(1e-10))
        with pytest.raises(ode.DivergenceError):
            ode.rk4(blow_up, jets, 0.0, 50.0, ode.fixed_step(100))


def test_jet_blow_up_stops_within_step_budget():
    # coefficients of the order-2 jet grow like (1 - t)^-3 towards the blow-up
    # at t = 1; relative step control gives up there as fast as a scalar run
    calls = [0]

    def rhs(s, t):
        calls[0] += 1
        return (s[0] * s[0],)

    state = jt.state_about(mi.build_table(1, 2), [1.0])
    with pytest.raises((ode.DivergenceError, ode.StiffnessError)):
        ode.rkf45(ode.OdeSystem(dim=1, rhs=rhs), state, 0.0, 2.0, ode.adaptive(1e-10))
    assert calls[0] <= 30_000


def test_backward_route_array_right_side_matches_forward(monkeypatch):
    system = pair_system()
    table = mi.build_table(2, 3)
    cfg = ode.adaptive(1e-12)
    returned = []
    rkf45 = ode.rkf45

    def recording_rkf45(sys_, *args):
        def rhs(s, t):
            out = sys_.rhs(s, t)
            returned.append(type(out))
            return out

        return rkf45(ode.OdeSystem(dim=sys_.dim, rhs=rhs), *args)

    monkeypatch.setattr(ode, "rkf45", recording_rkf45)
    bwd = vq.backward_solve(system, [1.0, 2.0], 0.0, 1.0, table, cfg)
    monkeypatch.undo()
    fwd = vq.forward_solve(system, [1.0, 2.0], 0.0, 1.0, table, cfg)
    # the design run returns floats, the coefficient run whole arrays
    assert np.ndarray in returned and tuple in returned
    for a in range(2):
        assert np.max(np.abs(fwd.rows[a].coeffs - bwd.rows[a].coeffs)) < 1e-8


@pytest.mark.parametrize("march", ["rk4", "rkf45"])
@pytest.mark.parametrize("jets", [False, True])
def test_right_side_of_the_wrong_length_is_refused(march, jets):
    # a scalar state once broadcast a one-component right side over both
    # components; both state kinds now refuse too few and too many, from
    # the first call (stage 0) or only from the 3rd (stage 2, on floats
    # inside the compiled attempt)
    state0 = jt.state_about(mi.build_table(2, 2), [1.0, 1.0]) if jets else (1.0, 1.0)
    run, cfg = (ode.rk4, ode.fixed_step(10)) if march == "rk4" else (ode.rkf45, ode.adaptive(1e-9))
    for first_wrong in (1, 3):
        for wrong in (1, 3):
            calls = [0]

            def rhs(s, t):
                calls[0] += 1
                out = pair_system().rhs(s, t)
                return (out * 2)[:wrong] if calls[0] >= first_wrong else out

            with pytest.raises(ValueError, match="components, expected 2"):
                run(ode.OdeSystem(dim=2, rhs=rhs), state0, 0.0, 1.0, cfg)
            assert calls[0] == first_wrong


@pytest.mark.parametrize("march", ["rk4", "rkf45"])
@pytest.mark.parametrize("jets", [False, True])
def test_state_of_the_wrong_length_is_refused(march, jets):
    # a state of other than dim components is refused before the right side
    # runs or an attempt compiles for its length
    def rhs(s, t):
        raise AssertionError("the right side ran")

    run, cfg = (ode.rk4, ode.fixed_step(10)) if march == "rk4" else (ode.rkf45, ode.adaptive(1e-9))
    for n in (1, 3):
        state0 = jt.state_about(mi.build_table(n, 1), [1.0] * n) if jets else (1.0,) * n
        with pytest.raises(ValueError, match=f"got {n} components, expected 2"):
            run(ode.OdeSystem(dim=2, rhs=rhs), state0, 0.0, 1.0, cfg)


@pytest.mark.parametrize("march", ["rk4", "rkf45"])
def test_scalar_run_hands_the_right_side_python_floats(march):
    # numpy scalars in the initial state or the span do not reach the right
    # side: every state component and every time it sees is a Python float
    seen = set()

    def rhs(s, t):
        seen.update(type(v) for v in (*s, t))
        return pair_system().rhs(s, t)

    run, cfg = (ode.rk4, ode.fixed_step(10)) if march == "rk4" else (ode.rkf45, ode.adaptive(1e-9))
    state, t, _ = run(
        ode.OdeSystem(dim=2, rhs=rhs), (np.float64(1.0), 2), np.float64(0.0), np.float64(1.0), cfg
    )
    assert seen == {float}
    assert [type(v) for v in (*state, t)] == [float, float, float]


def test_step_stats_have_slots_and_round_trip():
    stats = ode.StepStats(accepted=3, rejected=1, h_min=0.25, h_max=0.5)
    assert not hasattr(stats, "__dict__")
    d = dataclasses.asdict(stats)
    assert d == {"accepted": 3, "rejected": 1, "h_min": 0.25, "h_max": 0.5}
    assert ode.StepStats(**d) == stats


# -- the compiled float attempt -----------------------------------------------------


def quadratic_rhs(m: int, rng):
    """A random forced quadratic right side on m Python floats."""
    a = rng.normal(size=(m, m)).tolist()
    b = rng.normal(size=m).tolist()

    def rhs(s, t):
        return tuple(
            sum(a[j][i] * s[i] for i in range(m)) - b[j] * s[j] * s[(j + 1) % m] + math.sin(t)
            for j in range(m)
        )

    return rhs


def bits(result):
    new, err = result
    return [v.hex() for v in new], None if err is None else err.hex()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", ["_RK4", "_DOP"])
def test_compiled_attempt_matches_the_sum_oracle_bit_for_bit(name, m):
    tableau = getattr(ode, name)
    attempt = ode._float_kernel(tableau, m)
    rng = np.random.default_rng(m)
    rhs = quadratic_rhs(m, rng)
    runs = [
        (tuple(rng.normal(size=m).tolist()), rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-4.0, 0.0))
        for _ in range(20)
    ]
    runs += [((-0.0,) * m, 0.0, 0.5), ((-0.0,) + (1.0,) * (m - 1), -0.0, 0.125)]
    cases = [(rhs, *run) for run in runs]
    # every stage value -0.0: only the leading 0.0 of each sum makes the
    # stage arguments +0.0, as sum's integer start does
    cases.append((lambda s, t: tuple(0.5 * v for v in s), (-0.0,) * m, 0.0, 0.5))
    for rhs, y, t, h in cases:
        k0 = rhs(y, t)
        assert bits(attempt(rhs, y, t, h, k0)) == bits(float_attempt(tableau, rhs, y, t, h, k0))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", ["_RK4", "_DOP"])
def test_compiled_attempt_carries_an_infinite_stage(name, m):
    # stage 1 returns inf in component 0 and ignores the state: DOP853
    # weighs stage 1 by 0 in the step and both estimates, so the inf reaches
    # them only as 0 * inf = NaN, and the error is infinite
    tableau = getattr(ode, name)

    def rhs_factory():
        calls = [0]

        def rhs(s, t):
            calls[0] += 1
            return (math.inf if calls[0] == 1 else 1.0,) + s[1:]

        return rhs

    y, k0 = (0.5,) * m, (1.0,) + (0.5,) * (m - 1)
    got = ode._float_kernel(tableau, m)(rhs_factory(), y, 0.0, 0.25, k0)
    assert bits(got) == bits(float_attempt(tableau, rhs_factory(), y, 0.0, 0.25, k0))
    assert not math.isfinite(got[0][0])
    if name == "_DOP":
        assert got[1] == math.inf


# -- right sides from expressions ---------------------------------------------------


def quadratic_expressions(m: int, rng) -> ode.OdeSystem:
    """:func:`quadratic_rhs` as an expression system over x0, x1, ... and t."""
    a = rng.normal(size=(m, m)).tolist()
    b = rng.normal(size=m).tolist()
    constants = {f"a{j}_{i}": a[j][i] for j in range(m) for i in range(m)}
    constants.update({f"b{j}": b[j] for j in range(m)})
    expressions = [
        " + ".join(f"a{j}_{i} * x{i}" for i in range(m)) + f" - b{j} * x{j} * x{(j + 1) % m} + sin(t)"
        for j in range(m)
    ]
    return ode.expression_system([f"x{j}" for j in range(m)], "t", expressions, **constants)


def inlined_attempt(tableau, system):
    rhs = system.rhs
    return ode._float_kernel(tableau, system.dim, rhs.expressions)(*rhs.constants)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", ["_RK4", "_DOP"])
def test_inlined_attempt_matches_the_sum_oracle_bit_for_bit(name, m):
    # the oracle calls the expression system's callable at every stage; the
    # inlined attempt writes its expressions into the stages
    tableau = getattr(ode, name)
    rng = np.random.default_rng(10 + m)
    system = quadratic_expressions(m, rng)
    runs = [
        (tuple(rng.normal(size=m).tolist()), rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-4.0, 0.0))
        for _ in range(20)
    ]
    runs += [((-0.0,) * m, 0.0, 0.5), ((-0.0,) + (1.0,) * (m - 1), -0.0, 0.125)]
    # x * x overflows at stage 0 from 1e200 and at stage 1 from 1e153
    overflowing = [((1e200,) * m, 0.0, 0.5), ((1e153,) * m, 0.0, 0.5)]
    cases = [(system, *run) for run in runs + overflowing]
    halving = ode.expression_system(
        [f"x{j}" for j in range(m)], "t", [f"0.5 * x{j}" for j in range(m)]
    )
    cases.append((halving, (-0.0,) * m, 0.0, 0.5))
    for system, y, t, h in cases:
        rhs = system.rhs
        k0 = rhs(y, t)
        got = inlined_attempt(tableau, system)(rhs, y, t, h, k0)
        assert bits(got) == bits(float_attempt(tableau, rhs, y, t, h, k0))
        if (y, t, h) in overflowing:
            assert not all(map(math.isfinite, got[0]))
            assert got[1] in (None, math.inf)


def test_a_wrapped_expression_right_side_is_called_at_every_stage():
    # dataclasses.replace gives a callable without a source: the call path,
    # which makes 11 calls per attempt and one stage 0 per accepted state
    system = ode.expression_system(
        ("q", "p"), "t", ("p", "m2beta * p - q - q**3 + eps * sin(t)"), m2beta=-0.2, eps=25.0
    )
    calls = []

    def counted(state, t):
        calls.append(t)
        return system.rhs(state, t)

    wrapped = dataclasses.replace(system, rhs=counted)
    ode._float_kernel.cache_clear()
    state, _, stats = ode.rkf45(wrapped, (0.5, 0.5), 0.0, 2 * math.pi, ode.adaptive(1e-6))
    assert stats.rejected > 0
    assert len(calls) == 11 * (stats.accepted + stats.rejected) + stats.accepted
    assert ode._float_kernel.cache_info().misses == 1
    want, _, want_stats = ode.rkf45(system, (0.5, 0.5), 0.0, 2 * math.pi, ode.adaptive(1e-6))
    assert bits((state, None)) == bits((want, None)) and stats == want_stats
    # the unwrapped run wrote the expressions into an attempt of its own
    assert ode._float_kernel.cache_info().misses == 2
    ode._float_kernel(ode._DOP, 2, system.rhs.expressions)
    assert ode._float_kernel.cache_info().misses == 2


@pytest.mark.parametrize(
    "states, time, expressions, constants",
    [
        (("q", "p"), "t", ("p",), {}),
        (("q", "p"), "t", ("p", "-q", "q"), {}),
        ((), "t", (), {}),
        (("q p", "r"), "t", ("r", "q"), {}),
        (("q", "1p"), "t", ("q", "q"), {}),
        (("q", "lambda"), "t", ("q", "q"), {}),
        (("q", 2), "t", ("q", "q"), {}),
        (("_y0", "p"), "t", ("p", "-_y0"), {}),
        (("q", "p"), "_t", ("p", "-q"), {}),
        (("q", "p"), "t", ("p", "-_h * q"), {"_h": 1.0}),
        (("q", "p"), "t", ("p", "-q"), {"_k1_0": 1.0}),
        (("q", "sin"), "t", ("sin", "-q"), {}),
        (("q", "p"), "q", ("p", "-q"), {}),
        (("q", "p"), "t", ("p", "-q"), {"p": 1.0}),
        (("q", "p"), "t", ("p", "-q * w"), {}),
        (("q", "p"), "t", ("p", "-_k1_0"), {}),
        (("q", "p"), "t", ("p", "(q := 0.0)"), {}),
        (("q", "p"), "t", ("p", "abs(q)"), {}),
    ],
    ids=[
        "too-few", "too-many", "no-state", "space", "digit-first", "keyword", "not-a-string",
        "reserved-state", "reserved-time", "reserved-constant", "kernel-local-constant",
        "function-name", "time-is-a-state", "constant-is-a-state", "unknown-name",
        "reads-a-kernel-local", "assigns", "calls-a-builtin",
    ],
)
def test_expression_system_refuses_bad_names_and_counts(states, time, expressions, constants):
    with pytest.raises(ValueError):
        ode.expression_system(states, time, expressions, **constants)


def test_expression_system_evaluates_on_floats_and_jets():
    system = ode.expression_system(("q", "p"), "t", ("p", "-k * q + sin(t)"), k=4.0)
    assert system.dim == 2 and system.n_params == 0
    assert system.rhs((1.0, 2.0), 0.0) == (2.0, -4.0)
    q, p = jt.state_about(mi.build_table(2, 1), [1.0, 2.0])
    dq, dp = system.rhs((q, p), 0.0)
    assert dq is p
    assert dp.coeffs.tolist() == [-4.0, -4.0, 0.0]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_adaptive_refuses_a_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="0 < tol < inf"):
        ode.adaptive(tol)
    with pytest.raises(ValueError):
        ode.IntegratorConfig(mode="adaptive", tol=tol)
