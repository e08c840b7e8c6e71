"""Jet algebra tests: published runs, ring laws, and a brute-force product oracle."""

import numpy as np
import pytest

from jetmap import jet as jt
from jetmap import monoidx as mi

from oracles import evaluate


def brute_force_product(table, u_coeffs, v_coeffs):
    """Naive double-loop convolution, dropping degrees above table.p."""
    out = np.zeros(table.L)
    for i in range(table.L):
        if u_coeffs[i] == 0.0:
            continue
        ji = np.array(table.unrank(i + 1))
        for j in range(table.L):
            if v_coeffs[j] == 0.0:
                continue
            total = ji + np.array(table.unrank(j + 1))
            if total.sum() > table.p:
                continue
            out[mi.rank(total.tolist()) - 1] += u_coeffs[i] * v_coeffs[j]
    return out


@pytest.fixture(scope="module")
def t12():
    return mi.build_table(1, 2)


def test_constant_jets(t12):
    assert np.array_equal(jt.constant(t12, 1.0).coeffs, [1, 0, 0])
    assert np.array_equal(jt.constant(t12, 0.0).coeffs, [0, 0, 0])
    c = jt.constant(mi.build_table(3, 3), 1.0)
    assert c.coeffs[0] == 1.0 and not c.coeffs[1:].any() and c.coeffs.size == 20


def test_variable_jets(t12):
    assert np.array_equal(jt.variable(t12, 1).coeffs, [0, 1, 0])
    t32 = mi.build_table(3, 2)
    v2 = jt.variable(t32, 2)
    assert v2.coeffs[2] == 1.0 and np.count_nonzero(v2.coeffs) == 1
    t22 = mi.build_table(2, 2)
    assert np.array_equal(jt.variable(t22, 1).coeffs, [0, 1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        jt.variable(mi.build_table(2, 0), 1)


def test_coordinatewise_combination(t12):
    u = jt.Jet(t12, [1.0, 2.0, 3.0])
    v = jt.Jet(t12, [4.0, 5.0, 6.0])
    w = 0.1 * u + 0.2 * v
    assert np.allclose(w.coeffs, [0.9, 1.2, 1.5], rtol=0, atol=1e-15)
    assert (u + jt.constant(t12, 0.0)) == u
    assert u * 1.0 == u
    assert (u - v).coeffs == pytest.approx([-3, -3, -3])
    assert (1.0 - u).coeffs == pytest.approx([0, -2, -3])


def test_prod_single_variable(t12):
    z = jt.variable(t12, 1)
    assert np.array_equal(jt.prod(z, z).coeffs, [0, 0, 1])
    a = 2 * jt.constant(t12, 1.0) + 3 * jt.prod(z, z)
    assert np.array_equal(a.coeffs, [2, 0, 3])


def test_prod_padded_dot_value():
    table = mi.build_table(3, 4)
    u = np.zeros(table.L)
    v = np.zeros(table.L)
    u[:8] = np.arange(1, 9) * 0.1
    v[:8] = 1.0 + np.arange(1, 9) * 0.1
    w = jt.prod(jt.Jet(table, u), jt.Jet(table, v))
    assert w.coeffs[7] == pytest.approx(1.45, abs=1e-14)


@pytest.mark.parametrize("m,p,seed", [(1, 4, 0), (2, 3, 1), (3, 4, 2), (3, 2, 3)])
def test_prod_matches_brute_force(m, p, seed):
    table = mi.build_table(m, p)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=table.L) * (rng.random(size=table.L) < 0.6)
    v = rng.normal(size=table.L) * (rng.random(size=table.L) < 0.6)
    expected = brute_force_product(table, u, v)
    # the jet product and the array kernel under it
    for w in (jt.prod(jt.Jet(table, u), jt.Jet(table, v)).coeffs, jt.prod_coeffs(table, u, v)):
        assert w.shape == (table.L,)
        assert np.max(np.abs(w - expected)) <= 1e-14 * max(1, np.abs(expected).max())


@pytest.mark.parametrize("m,p,seed", [(2, 3, 10), (3, 3, 11)])
def test_ring_laws(m, p, seed):
    table = mi.build_table(m, p)
    rng = np.random.default_rng(seed)
    u, v, w = (jt.Jet(table, rng.normal(size=table.L)) for _ in range(3))
    one = jt.constant(table, 1.0)
    scale = np.abs((u * v).coeffs).max()
    tol = 1e-12 * max(1.0, scale)

    assert np.max(np.abs((u * v).coeffs - (v * u).coeffs)) <= tol
    assert np.max(np.abs(((u * v) * w).coeffs - (u * (v * w)).coeffs)) <= 1e-12 * max(
        1.0, np.abs(((u * v) * w).coeffs).max()
    )
    assert np.max(np.abs((u * (v + w)).coeffs - (u * v + u * w).coeffs)) <= tol
    assert np.max(np.abs((u * one).coeffs - u.coeffs)) == 0.0


def test_power(t12):
    u = jt.Jet(t12, [0.5, -1.0, 2.0])
    assert jt.power(u, 0) == jt.constant(t12, 1.0)
    assert jt.power(u, 1) == u
    t15 = mi.build_table(1, 5)
    z = jt.variable(t15, 1)
    cubed = jt.power(z, 3)
    expected = np.zeros(6)
    expected[3] = 1.0
    assert np.array_equal(cubed.coeffs, expected)
    # sequential definition: u**n == u * u**(n-1)
    assert jt.power(u, 4) == u * jt.power(u, 3)
    with pytest.raises(ValueError):
        jt.power(u, -1)


def test_table_mismatch_detected(t12):
    other = mi.build_table(2, 2)
    with pytest.raises(mi.TableMismatchError):
        jt.variable(t12, 1) + jt.variable(other, 1)
    with pytest.raises(mi.TableMismatchError):
        jt.prod(jt.variable(t12, 1), jt.variable(other, 1))
    # equal shapes from distinct table objects are compatible
    clone = mi.build_table(1, 2)
    assert (jt.variable(t12, 1) + jt.variable(clone, 1)).coeffs[1] == 2.0


def test_evaluate(t12):
    assert evaluate(jt.constant(t12, 3.5), [17.0]) == 3.5
    assert evaluate(jt.Jet(t12, [2, 0, 3]), [2.0]) == pytest.approx(14.0)
    table = mi.build_table(2, 2)
    g = jt.constant(table, 7.0) + jt.variable(table, 1)
    h = jt.constant(table, 8.0) + jt.variable(table, 2)
    out = 1 + 2 * g + 3 * h + 4 * g * g + 5 * g * h + 6 * h * h
    assert evaluate(out, [0.0, 0.0]) == pytest.approx(899.0)


@pytest.mark.parametrize("seed", range(4))
def test_eval_product_homomorphism(seed):
    # degrees chosen so the product never truncates
    table = mi.build_table(2, 6)
    rng = np.random.default_rng(seed)
    u_coeffs = np.zeros(table.L)
    v_coeffs = np.zeros(table.L)
    low = table.degrees <= 3
    u_coeffs[low] = rng.normal(size=low.sum())
    v_coeffs[low] = rng.normal(size=low.sum())
    u, v = jt.Jet(table, u_coeffs), jt.Jet(table, v_coeffs)
    x = rng.uniform(-0.9, 0.9, size=2)
    lhs = evaluate(jt.prod(u, v), x)
    rhs = evaluate(u, x) * evaluate(v, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_taylor_rule_one_variable(t12):
    shifted = jt.constant(t12, 4.0) + jt.variable(t12, 1)
    out = 1 + 2 * shifted + 3 * shifted * shifted
    assert np.array_equal(out.coeffs, [57, 26, 3])


def test_taylor_rule_two_variables():
    table = mi.build_table(2, 2)
    g = jt.constant(table, 7.0) + jt.variable(table, 1)
    h = jt.constant(table, 8.0) + jt.variable(table, 2)
    out = 1 + 2 * g + 3 * h + 4 * g * g + 5 * g * h + 6 * h * h
    assert np.array_equal(out.coeffs, [899, 98, 134, 4, 5, 6])


def test_taylor_rule_matches_analytic_derivatives():
    # coefficients of F about (7, 8) are the scaled partial derivatives
    table = mi.build_table(2, 2)
    g = jt.constant(table, 7.0) + jt.variable(table, 1)
    h = jt.constant(table, 8.0) + jt.variable(table, 2)
    out = 1 + 2 * g + 3 * h + 4 * g * g + 5 * g * h + 6 * h * h
    # d/dz1 = 2 + 8 z1 + 5 z2 -> 63 at (7,8); d/dz2 = 3 + 5 z1 + 12 z2 -> 134
    assert out.coeffs[1] == pytest.approx(2 + 8 * 7 + 5 * 8)
    assert out.coeffs[2] == pytest.approx(3 + 5 * 7 + 12 * 8)
    assert out.coeffs[3] == pytest.approx(4.0)  # (1/2) d2/dz1^2 = 4
    assert out.coeffs[4] == pytest.approx(5.0)
    assert out.coeffs[5] == pytest.approx(6.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda t: jt.Jet(t, [1.0, 2.0]), ValueError,
         "expected 3 coefficients for (m=1, p=2), got shape (2,)"),
        (lambda t: setattr(jt.constant(t, 1.0), "coeffs", None), AttributeError,
         "Jet is immutable"),
    ],
    ids=["coefficient-count", "attribute"],
)
def test_jet_refusals(t12, call, error, message):
    with pytest.raises(error) as refused:
        call(t12)
    assert str(refused.value) == message


def test_state_about():
    table = mi.build_table(2, 2)
    s = jt.state_about(table, [1.5, -2.0])
    assert s[0].coeffs[0] == 1.5 and s[0].coeffs[1] == 1.0
    assert s[1].coeffs[0] == -2.0 and s[1].coeffs[2] == 1.0
    with pytest.raises(ValueError):
        jt.state_about(table, [1.0])


def test_constructor_copies_the_callers_array():
    table = mi.build_table(2, 2)
    c = np.zeros(table.L)
    u = jt.Jet(table, c)
    c[0] = 1.0  # the caller's array stays writable
    assert u.coeffs[0] == 0.0
    assert not u.coeffs.flags.writeable
