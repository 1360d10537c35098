"""Student-t CDF/quantile against independent oracles.

The package computes t critical values itself (regularized incomplete beta
via continued fraction plus bisection); these tests pin it against scipy
and against direct numeric integration of the density, neither of which
the package imports at runtime.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, stats

from rimkit.special import (
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_quantile,
)

DOFS = (1, 2, 3, 5, 10, 30, 120, 500, 2000)
PROBS = (0.001, 0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.99, 0.999)


def test_incomplete_beta_against_scipy(rng):
    for _ in range(300):
        a = float(rng.uniform(0.1, 50.0))
        b = float(rng.uniform(0.1, 50.0))
        x = float(rng.uniform(0.0, 1.0))
        ours = regularized_incomplete_beta(a, b, x)
        ref = stats.beta.cdf(x, a, b)
        assert ours == pytest.approx(ref, abs=1e-12)


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(2.0, 3.0, -0.1)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 3.0, 0.5)


def test_t_cdf_against_scipy():
    for dof in DOFS:
        for t in (-8.0, -2.5, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5, 8.0):
            ours = student_t_cdf(t, dof)
            ref = stats.t.cdf(t, dof)
            assert ours == pytest.approx(ref, abs=1e-12), (t, dof)


def test_t_cdf_against_direct_integration():
    # Second oracle with no shared machinery: integrate the density.
    for dof in (1, 4, 17):
        const = math.gamma((dof + 1) / 2) / (
            math.sqrt(dof * math.pi) * math.gamma(dof / 2)
        )

        def density(u, nu=dof, c=const):
            return c * (1.0 + u * u / nu) ** (-(nu + 1) / 2)

        for t in (-2.0, -0.5, 0.7, 1.9):
            tail, _err = integrate.quad(density, -np.inf, t)
            assert student_t_cdf(t, dof) == pytest.approx(tail, abs=1e-10)


def test_t_quantile_inverts_cdf():
    for dof in DOFS:
        for p in PROBS:
            q = student_t_quantile(p, dof)
            assert student_t_cdf(q, dof) == pytest.approx(p, abs=1e-10)


def test_t_quantile_against_scipy():
    for dof in DOFS:
        for p in PROBS:
            ours = student_t_quantile(p, dof)
            ref = float(stats.t.ppf(p, dof))
            # Relative tolerance; quantiles far in the tail grow large.
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9), (p, dof)


def test_t_quantile_symmetry_and_median():
    for dof in (1, 7, 100):
        assert student_t_quantile(0.5, dof) == 0.0
        up = student_t_quantile(0.975, dof)
        down = student_t_quantile(0.025, dof)
        assert up == pytest.approx(-down, rel=1e-12)
        assert up > 0


def test_t_quantile_known_value():
    # The classic 1.96: normal limit approached from large dof.
    assert student_t_quantile(0.975, 10_000) == pytest.approx(1.9602, abs=5e-4)
    # Cauchy case has a closed form: tan(pi*(p - 1/2)).
    assert student_t_quantile(0.975, 1) == pytest.approx(
        math.tan(math.pi * 0.475), rel=1e-10
    )


def test_t_quantile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        student_t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        student_t_quantile(1.0, 5)
    with pytest.raises(ValueError):
        student_t_quantile(0.5, 0)


def test_t_quantile_memo_returns_the_computed_values():
    student_t_quantile.cache_clear()
    for dof in (3.0, 2458.0, 22000.0):
        first = student_t_quantile(0.975, dof)
        assert student_t_quantile(0.975, dof) == first
        assert first == student_t_quantile.__wrapped__(0.975, dof)
    assert student_t_quantile.cache_info().hits == 3
