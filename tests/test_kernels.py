"""The numpy kernels against independent references: a 40-digit mpmath
evaluation of the truncated likelihood, the one-column-at-a-time loop the
batched likelihood replaced, and the fixed-point conditions of the biweight
IRLS."""

import math

import mpmath
import numpy as np
import pytest

import profile_null
from profile_null import _kernels


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    n = rng.exponential(400.0, 212)
    z = rng.normal(0.0, np.sqrt(1.0 + 0.14 * n))
    b = 1.645 * np.sqrt(1.0 + 0.1 * n)
    in_null = np.abs(z) <= b
    return z, n, in_null, b


def _mp_loglik(phi, pi0, z, sizes, in_null, b_upper):
    """The truncated-mixture log-likelihood evaluated term by term at 40
    significant digits from the same float64 inputs."""
    with mpmath.workdps(40):
        pi0 = mpmath.mpf(pi0)
        acc = mpmath.mpf(0)
        for zi, ni, inside, bi in zip(z.tolist(), sizes.tolist(),
                                      in_null.tolist(), b_upper.tolist()):
            v = 1 + mpmath.mpf(phi) * mpmath.mpf(ni)
            if inside:
                acc += (mpmath.log(pi0) - (mpmath.log(2 * mpmath.pi) + mpmath.log(v)) / 2
                        - mpmath.mpf(zi) ** 2 / (2 * v))
            else:
                acc += mpmath.log(1 - pi0 * mpmath.erf(mpmath.mpf(bi) / mpmath.sqrt(2 * v)))
        return float(acc)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("phi,pi0", [(0.0, 1.0), (0.05, 0.9), (0.3, 0.8), (2.0, 0.995)])
def test_loglik_matches_mpmath(seed, phi, pi0):
    z, n, in_null, b = _random_problem(seed)
    got = _kernels.null_loglik_core(np.array([phi]), np.array([pi0]),
                                    _kernels.FitArrays(z, n, in_null, b))[0]
    assert got == pytest.approx(_mp_loglik(phi, pi0, z, n, in_null, b), rel=1e-12)


def test_neg_loglik_u_matches_mpmath():
    z, n, in_null, b = _random_problem(11)
    fit = _kernels.FitArrays(z, n, in_null, b)
    for u in (-18.0, -5.0, -2.0, 0.0, 3.0):
        phi = max(0.0, math.exp(u) - _kernels.EPS_PHI)
        got = _kernels.neg_null_loglik_u(np.array([u]), np.array([0.9]), fit)[0]
        assert got == pytest.approx(-_mp_loglik(phi, 0.9, z, n, in_null, b), rel=1e-12)
    # exp(800) overflows a double: the objective reports +inf instead
    assert _kernels.neg_null_loglik_u(np.array([800.0]), np.array([0.9]), fit)[0] == math.inf


def _one_column_neg_loglik_u(u, pi0, z, sizes, in_null, b_upper):
    """The likelihood kernel as it was before batching, one (u, pi0) column
    per call: the bits every column of a batched call must keep."""
    if u > 690.0:
        return math.inf
    phi = max(0.0, math.exp(u) - _kernels.EPS_PHI)
    v = 1.0 + phi * sizes
    out = ~in_null
    acc = 0.0
    if in_null.any():
        zi, vi = z[in_null], v[in_null]
        acc += float(np.sum(math.log(pi0) - 0.5 * (math.log(2.0 * math.pi) + np.log(vi))
                            - 0.5 * zi * zi / vi))
    if out.any():
        arg = b_upper[out] / np.sqrt(v[out]) * (1.0 / math.sqrt(2.0))
        q = 1.0 - np.frompyfunc(math.erfc, 1, 1)(arg).astype(np.float64)
        t = 1.0 - pi0 * q
        if np.any(t <= 0.0):
            return math.inf
        acc += float(np.sum(np.log(t)))
    return -acc


@pytest.mark.parametrize("n_centers", [12, 212, 5000])
def test_batched_columns_keep_the_one_column_bits(n_centers, monkeypatch):
    rng = np.random.default_rng(n_centers)
    n = rng.exponential(400.0, n_centers)
    z = rng.normal(0.0, np.sqrt(1.0 + 0.14 * n))
    # wide bounds on a few centers make Q = 1, so pi0 = 1 has no likelihood
    b = np.where(np.arange(n_centers) < 2, 60.0, 1.645 * np.sqrt(1.0 + 0.1 * n))
    z[:2] = 70.0
    in_null = np.abs(z) <= b
    u = rng.normal(-3.0, 3.0, 30)
    u[5:12] = u[0]          # columns sharing a phi
    u[12] = -40.0           # phi clamped to 0
    u[13] = 800.0           # exp(u) overflows
    pi0 = rng.choice(np.linspace(0.8, 1.0, 41), 30)
    pi0[[0, 7]] = 1.0
    want = [_one_column_neg_loglik_u(float(x), float(p), z, n, in_null, b)
            for x, p in zip(u, pi0)]
    want_reversed = [_one_column_neg_loglik_u(float(x), float(p), z, n, in_null, b)
                     for x, p in zip(u[::-1], pi0)]
    n_out = int(np.sum(~in_null))
    full = _kernels._ERFC_ROW_ELEMENTS
    # blocks of the default size, of one column and of all columns
    for block in (_kernels._BLOCK_ELEMENTS, 1, u.size * n_centers):
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", block)
        got = _kernels.neg_null_loglik_u(u, pi0, _kernels.FitArrays(z, n, in_null, b))
        assert got.tolist() == want
        assert got[0] == math.inf and got[13] == math.inf
        # one erfc row store through two calls: the second call finds the
        # rows of the first, in reverse order and under other pi0; then again
        # with a store of 3 rows, so the oldest are dropped in every block
        for budget in (full, 3 * n_out):
            monkeypatch.setattr(_kernels, "_ERFC_ROW_ELEMENTS", budget)
            fit = _kernels.FitArrays(z, n, in_null, b)
            first = _kernels.neg_null_loglik_u(u, pi0, fit)
            again = _kernels.neg_null_loglik_u(u[::-1], pi0, fit)
            assert first.tolist() == want and again.tolist() == want_reversed
            assert 0 < len(fit.slot) * n_out <= budget
        # a column alone in its call keeps the same bits
        one = _kernels.neg_null_loglik_u(u[3:4], pi0[3:4], _kernels.FitArrays(z, n, in_null, b))
        assert one.tolist() == [want[3]]


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_biweight_reaches_its_fixed_point(seed):
    rng = np.random.default_rng(seed)
    z = np.concatenate([rng.normal(0.3, 1.7, 180), rng.normal(9.0, 0.5, 12)])
    loc, scale, _, converged = _kernels.biweight_irls(z, _kernels.TUKEY_C, 1e-8, 200)
    assert converged
    assert scale == _kernels.MAD_SCALE * float(np.median(np.abs(z - loc)))
    # at the fixed point the biweight-weighted residuals average to zero
    u = np.abs(z - loc) / (_kernels.TUKEY_C * scale)
    w = np.where(u < 1.0, (1.0 - u * u) ** 2, 0.0)
    assert abs(float(np.sum(w * (z - loc)) / np.sum(w))) < 1e-8
    # the far cluster gets no weight, so the location stays near the bulk
    assert abs(loc - 0.3) < 0.5


def test_backend_reports_a_valid_choice():
    assert profile_null.backend() == "numpy"
