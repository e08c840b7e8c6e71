"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1-5 and 10 run the published goldens through the same
checks as ``jetmap verify``.  Criteria 9 and 10 exercise the full epsilon=25 dynamics and dominate
the runtime; everything here stays inside the stated budgets.
"""

import math
import time

import numpy as np
import pytest

from jetmap import duffing as duf
from jetmap import jetode as ode
from jetmap import monoidx as mi
from jetmap import vareq as vq
from jetmap.golden import run_checks


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS  {text}")


def elapsed_guard(t0, budget, label):
    wall = time.time() - t0
    assert wall < budget, f"{label} took {wall:.1f} s, budget {budget} s"
    return wall


def assert_golden(names, budget, label):
    """Run the named ``jetmap verify`` checks; each must pass within budget."""
    t0 = time.time()
    results = run_checks(names=names)
    assert sorted(r.name for r in results) == sorted(names)
    for r in results:
        assert r.ok, f"{r.name}: observed {r.observed}, expected {r.expected}"
    wall = elapsed_guard(t0, budget, label)
    return results, wall


def test_criterion_01_labeling_goldens():
    names = ["rank-formula", "table-size", "gamma-row-17", "box-tables"]
    _, wall = assert_golden(names, 1.0, "labeling goldens")
    report(1, f"labeling goldens exact: {', '.join(names)} ({wall:.3f} s)")


def test_criterion_02_algebra_goldens():
    names = ["replacement-rule", "taylor-rule-1var", "taylor-rule-2var"]
    _, wall = assert_golden(names, 1.0, "algebra goldens")
    report(2, f"algebra goldens exact to 1e-14: {', '.join(names)} ({wall:.3f} s)")


def test_criterion_03_jet_rk4_golden():
    (result,), wall = assert_golden(["rk4-jet-1var"], 1.0, "jet RK4 golden")
    report(3, f"single-variable jet RK4 within 1e-6 of the series: {result.observed} ({wall:.3f} s)")


def test_criterion_04_two_variable_jet_rk4_golden():
    (result,), wall = assert_golden(["rk4-jet-2var"], 1.0, "two-variable jet RK4")
    report(4, f"row-2 pyramid matches, truncation residual <= 5e-7: {result.observed} ({wall:.3f} s)")


def test_criterion_05_duffing_map_golden():
    (result,), wall = assert_golden(["duffing-rk4-map"], 5.0, "Duffing map golden")
    report(5, f"40 printed coefficients within 1e-4, constants within 1e-6: {result.observed} ({wall:.2f} s)")


def _random_polynomial_system(rng):
    m = int(rng.integers(1, 4))
    degree = int(rng.integers(1, 4))
    coeff_table = mi.build_table(m, degree)
    weights = rng.uniform(-0.5, 0.5, size=(m, coeff_table.L))
    weights *= rng.random(size=weights.shape) < 0.7
    exponent_rows = [
        [(b, int(e)) for b, e in enumerate(coeff_table.exponents[i]) if e > 0]
        for i in range(coeff_table.L)
    ]

    def rhs(state, t):
        out = []
        for a in range(m):
            acc = 0.0 * state[0]
            for i, powers in enumerate(exponent_rows):
                w = weights[a, i]
                if w == 0.0:
                    continue
                term = w
                for b, e in powers:
                    for _ in range(e):
                        term = term * state[b]
                acc = acc + term
            out.append(acc)
        return tuple(out)

    return ode.OdeSystem(dim=m, rhs=rhs), m


def test_criterion_06_forward_backward_cross_oracle():
    t0 = time.time()
    cfg = ode.adaptive(1e-12)

    # the criterion-5 system at its criterion-5 expansion point
    system = duf.duffing_scaled_rhs(0.1, 1.5, sigma=0.5)
    table = mi.build_table(3, 3)
    fwd = vq.forward_solve(system, [0.3, 0.4, 0.5], 0.0, duf.TWO_PI, table, cfg)
    bwd = vq.backward_solve(system, [0.3, 0.4, 0.5], 0.0, duf.TWO_PI, table, cfg)
    duffing_worst = max(
        np.max(np.abs(fwd.rows[a].coeffs - bwd.rows[a].coeffs)) for a in range(3)
    )
    assert duffing_worst <= 1e-6

    rng = np.random.default_rng(20240917)
    worst = duffing_worst
    for _ in range(20):
        system, m = _random_polynomial_system(rng)
        p = int(rng.integers(2, 5))
        table = mi.build_table(m, p)
        zd0 = rng.uniform(-0.4, 0.4, size=m)
        fwd = vq.forward_solve(system, zd0, 0.0, 0.4, table, cfg)
        bwd = vq.backward_solve(system, zd0, 0.0, 0.4, table, cfg)
        gap = max(np.max(np.abs(fwd.rows[a].coeffs - bwd.rows[a].coeffs)) for a in range(m))
        worst = max(worst, gap)
        assert gap <= 1e-6
    wall = elapsed_guard(t0, 60.0, "forward/backward cross-oracle")
    report(6, f"Duffing + 20 random systems, max method gap {worst:.2e} <= 1e-6 ({wall:.1f} s)")


def test_criterion_07_order_of_accuracy():
    t0 = time.time()
    decay = ode.OdeSystem(dim=1, rhs=lambda s, t: (-2.0 * t * s[0] ** 2,))
    errors = []
    for h in (0.1, 0.05, 0.025):
        (z,), _, _ = ode.rk4(decay, (1.0,), 0.0, 1.0, ode.fixed_step(round(1 / h)))
        errors.append(abs(z - 0.5))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    for ratio in ratios:
        assert 12.0 <= ratio <= 20.0  # 16 +/- 25%

    beta, eps = 0.1, 1.5
    expansion = (0.3, 0.4, 0.5)
    system = duf.duffing_scaled_rhs(beta, eps, sigma=0.5)
    direction = np.array([0.6, -0.55, 0.58])
    direction /= np.linalg.norm(direction)
    slopes = {}
    for p, deltas in ((3, (1e-1, 1e-2, 1e-3)), (5, (1e-1, 10**-1.5, 1e-2))):
        tmap = duf.stroboscopic_taylor_map(beta, eps, expansion, p=p, cfg=ode.adaptive(1e-13))
        errs = []
        for delta in deltas:
            dev = delta * direction
            poly = tmap.final_state(dev)[:2]
            exact_state, _, _ = ode.rkf45(
                system, tuple(np.array(expansion) + dev), 0.0, duf.TWO_PI, ode.adaptive(1e-13)
            )
            errs.append(np.max(np.abs(poly - np.array(exact_state[:2]))))
        slope = np.polyfit(np.log10(deltas), np.log10(errs), 1)[0]
        slopes[p] = slope
        assert slope >= p + 0.5
    wall = elapsed_guard(t0, 60.0, "order of accuracy")
    report(
        7,
        f"RK4 halving ratios {[f'{r:.1f}' for r in ratios]} in [12, 20]; "
        f"map slopes p=3: {slopes[3]:.2f} >= 3.5, p=5: {slopes[5]:.2f} >= 5.5 ({wall:.1f} s)",
    )


def test_criterion_08_liouville_invariant():
    t0 = time.time()
    worst = 0.0
    for beta, sigma in ((0.1, 0.5), (0.1, 0.8), (0.05, 1.0)):
        tmap = duf.stroboscopic_taylor_map(
            beta, 1.5, (0.3, 0.4, sigma), p=2, cfg=ode.adaptive(1e-12)
        )
        det = np.linalg.det(tmap.linear_matrix())
        gap = abs(det - math.exp(-4 * math.pi * beta * sigma))
        worst = max(worst, gap)
        assert gap <= 1e-8
    wall = elapsed_guard(t0, 30.0, "Liouville invariant")
    report(8, f"degree-1 determinant matches exp(-4 pi beta sigma) within {worst:.2e} ({wall:.1f} s)")


def test_criterion_09_qualitative_dynamics(m8_map):
    tmap, build_seconds = m8_map
    t0 = time.time()
    grid = (12400 + np.arange(601)) / 10000.0
    scan = duf.feigenbaum_scan(
        tmap, 0.1, 25.0, grid, transient=5000, record=256, seed_policy="continue"
    )
    periods = scan.periods(tol=1e-6, max_period=64)

    first = {}
    last = {}
    for omega, period in zip(scan.omegas, periods):
        if period in (1, 2, 4):
            first.setdefault(period, omega)
            last[period] = omega
    assert set(first) >= {1, 2, 4}, f"periods seen: {sorted(set(periods) - {None})}"
    assert first[1] < first[2] < first[4], f"onsets: {first}"
    assert last[1] < first[2], "period-1 detections must end before period 2 begins"
    assert 1.263 <= last[1] <= 1.273, f"last period-1 omega {last[1]}"
    assert 1.263 <= first[2] <= 1.273, f"first period-2 omega {first[2]}"

    idx = int(np.argmin(np.abs(scan.omegas - 1.2902)))
    assert scan.omegas[idx] == pytest.approx(1.2902, abs=1e-12)
    chaotic = scan.samples[idx]
    assert len(chaotic) == 256
    assert np.all(np.isfinite(chaotic))
    assert np.abs(chaotic).max() < 50.0
    assert duf.detect_period(chaotic, tol=1e-6, max_period=64) is None

    wall = time.time() - t0 + build_seconds
    assert wall < 600.0, f"criterion 9 took {wall:.0f} s, budget 600 s"
    report(
        9,
        "period sequence 1 -> 2 -> 4 with the doubling at omega in "
        f"[{last[1]:.4f}, {first[2]:.4f}]; omega=1.2902 bounded and aperiodic "
        f"to period 64 (map build {build_seconds:.0f} s + scan {wall - build_seconds:.0f} s)",
    )


def test_criterion_10_exact_map_unstable_fixed_point():
    (result,), wall = assert_golden(["unstable-fixed-point"], 60.0, "exact-map fixed point")
    report(10, f"Newton landed within 1e-3 of the published point, one |multiplier| > 1: {result.observed} ({wall:.1f} s)")
