"""The numpy kernels against independent references: a 40-digit mpmath
evaluation of the truncated likelihood, of its curvature and of erfc,
central differences of the likelihood for the score and of the score for
the curvature, a one-column-at-a-time loop for the bits of batched calls,
the fixed-point conditions of the biweight IRLS and a plain copy of its
loop for its bits, and ``np.median`` for the median the IRLS takes."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profile_null
from profile_null import _erfc_table, _kernels, z_fixed_effects
from profile_null.simulation import SimConfig, gen_single_measure


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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("phi,pi0", [(0.001, 0.95), (0.05, 0.9), (0.15, 1.0), (0.3, 0.8),
                                     (2.0, 0.995)])
def test_score_matches_central_difference(seed, phi, pi0):
    z, n, in_null, b = _random_problem(seed)
    bounds = list(zip((-b).tolist(), b.tolist()))

    def loglik(x):
        return profile_null.null_loglik(x, pi0, z, n, in_null, bounds)

    h = 1e-4 * phi
    diff = (loglik(phi + h) - loglik(phi - h)) / (2.0 * h)
    got = _kernels.null_score_core(np.array([phi]), np.array([pi0]),
                                   _kernels.FitArrays(z, n, in_null, b))[0][0]
    # the difference's rounding error is about 1e-16 |loglik| / h
    assert got == pytest.approx(diff, rel=1e-6, abs=1e-14 * abs(loglik(phi)) / h)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("phi,pi0", [(0.001, 0.95), (0.05, 0.9), (0.15, 1.0), (0.3, 0.8),
                                     (2.0, 0.995)])
def test_curvature_matches_central_difference(seed, phi, pi0):
    z, n, in_null, b = _random_problem(seed)
    fit = _kernels.FitArrays(z, n, in_null, b)
    h = 1e-4 * phi
    score = _kernels.null_score_core(np.array([phi + h, phi - h]), np.array([pi0, pi0]), fit)[0]
    got = _kernels.null_score_core(np.array([phi]), np.array([pi0]), fit)[1][0]
    assert got == pytest.approx((score[0] - score[1]) / (2.0 * h), rel=1e-6)


def _mp_curvature(phi, pi0, z, sizes, in_null, b_upper):
    """The second phi-derivative of the truncated-mixture log-likelihood,
    term by term at 40 significant digits from the same float64 inputs: the
    derivative of n (z^2/v - 1) / (2 v) in the interval, and of
    pi0 pdf(b) b n / v / (1 - pi0 Q) outside it, with b = B / sqrt(v)."""
    with mpmath.workdps(40):
        phi, pi0 = mpmath.mpf(phi), mpmath.mpf(pi0)
        acc = mpmath.mpf(0)
        for zi, ni, inside, bi in zip(z.tolist(), sizes.tolist(), in_null.tolist(),
                                      b_upper.tolist()):
            ni = mpmath.mpf(ni)
            if inside:
                acc += mpmath.diff(lambda x: ni * (mpmath.mpf(zi) ** 2 / (1 + x * ni) - 1)
                                   / (2 * (1 + x * ni)), phi)
            else:
                def out(x):
                    v = 1 + x * ni
                    b = mpmath.mpf(bi) / mpmath.sqrt(v)
                    pdf = mpmath.exp(-b * b / 2) / mpmath.sqrt(2 * mpmath.pi)
                    return pi0 * pdf * b * ni / v / (1 - pi0 * mpmath.erf(b / mpmath.sqrt(2)))
                acc += mpmath.diff(out, phi)
        return float(acc)


@pytest.mark.parametrize("seed,phi,pi0", [(0, 0.05, 0.9), (1, 0.14, 1.0), (2, 0.3, 0.8),
                                          (3, 0.002, 0.995)])
def test_curvature_matches_mpmath(seed, phi, pi0):
    z, n, in_null, b = _random_problem(seed)
    got = _kernels.null_score_core(np.array([phi]), np.array([pi0]),
                                   _kernels.FitArrays(z, n, in_null, b))[1][0]
    assert got == pytest.approx(_mp_curvature(phi, pi0, z, n, in_null, b), rel=1e-12)


def _one_column(phi, pi0, z, sizes, in_null, b_upper):
    """The log-likelihood and its first and second phi-derivatives of one
    (phi, pi0) column, with the operations in the kernels' order: the bits
    every column of a batched call must keep."""
    v = 1.0 + phi * sizes
    out = ~in_null
    ll = score = curvature = 0.0
    if in_null.any():
        zi, si, vi = z[in_null], sizes[in_null], v[in_null]
        a = 0.5 * zi * zi / vi
        ll += float(np.sum(math.log(pi0) - 0.5 * (np.log(vi) + math.log(2.0 * math.pi)) - a))
        score += float(np.sum((a - 0.5) * si / vi))
        curvature += float(np.sum((0.5 + a * -2.0) * (si / vi) * (si / vi)))
    if out.any():
        so, vo = sizes[out], v[out]
        b = b_upper[out] / np.sqrt(vo)
        # erfc of this column's row alone: the kernels take it over whole blocks
        q = 1.0 - _kernels._erfc(b * (1.0 / math.sqrt(2.0)))
        t = 1.0 - q * pi0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ll = -math.inf if np.any(t <= 0.0) else ll + float(np.sum(np.log(t)))
            h = np.exp(b * b * -0.5) * b * so / vo * (pi0 * (1.0 / math.sqrt(2.0 * math.pi))) / t
            score += float(np.sum(h))
            curvature += float(np.sum(((b * b - 3.0) * so / vo * 0.5 - h) * h))
    return ll, score, curvature


@pytest.mark.parametrize("n_centers", [12, 212, 5000])
def test_batched_columns_keep_the_one_column_bits(n_centers, monkeypatch):
    rng = np.random.default_rng(n_centers)
    n = rng.exponential(400.0, n_centers)
    z = rng.normal(0.0, np.sqrt(1.0 + 0.14 * n))
    # wide bounds on a few centers make Q = 1, so pi0 = 1 has no likelihood
    # and the score of its column is +inf or 0/0
    b = np.where(np.arange(n_centers) < 2, 60.0, 1.645 * np.sqrt(1.0 + 0.1 * n))
    z[:2] = 70.0
    in_null = np.abs(z) <= b
    mixed = np.exp(rng.normal(-3.0, 3.0, 30))
    mixed[5:12] = mixed[0]      # columns sharing a phi
    mixed[12:14] = 0.0
    pi0 = rng.choice(np.linspace(0.8, 1.0, 41), 30)
    pi0[[0, 7, 12]] = 1.0
    distinct = mixed.copy()
    distinct[5:14] = np.exp(rng.normal(-3.0, 3.0, 9))
    # the kernels compute each distinct phi's rows once: mixed phis, all
    # columns at one phi, as in the first step of a fit, and a phi for each
    # column, as in the later steps
    for phi in (mixed, np.full(30, mixed[0]), distinct):
        want = np.array([_one_column(float(x), float(p), z, n, in_null, b)
                         for x, p in zip(phi, pi0)])
        assert want[0, 0] == -math.inf and not math.isfinite(want[0, 1])
        # blocks of the default size, of one column and of all columns
        for block in (_kernels._BLOCK_ELEMENTS, 1, phi.size * n_centers):
            monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", block)
            fit = _kernels.FitArrays(z, n, in_null, b)
            assert _kernels.null_loglik_core(phi, pi0, fit).tolist() == want[:, 0].tolist()
            score, curvature, log_out = _kernels.null_score_core(phi, pi0, fit)
            assert np.array_equal(np.column_stack([score, curvature]), want[:, 1:],
                                  equal_nan=True)
            # the score's out-of-interval sums close the likelihood
            assert _kernels.null_loglik_core(phi, pi0, fit, log_out).tolist() \
                == want[:, 0].tolist()
            # a column alone in its call keeps the same bits
            one = _kernels.null_score_core(phi[3:4], pi0[3:4], fit)
            assert [one[0][0], one[1][0]] == want[3, 1:].tolist()


def _ulps(got, x):
    """|got - erfc(x)| in ulps of erfc(x), from 40-digit mpmath."""
    with mpmath.workdps(40):
        ref = [mpmath.erfc(v) for v in x.tolist()]
        return np.array([float(abs(g - r)) / math.ulp(float(r))
                         for g, r in zip(got.tolist(), ref)])


def _segment_edges():
    """Each segment start of the erfc table and the point where it turns to
    0, with their neighbours one ulp below and above."""
    edges = np.array(_erfc_table.EDGES[1:] + (_erfc_table.ZERO,))
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


def test_erfc_within_4_ulp_of_mpmath():
    rng = np.random.default_rng(20)
    x = np.concatenate([rng.uniform(0.0, 26.0, 16000), rng.uniform(0.0, 2.0, 4000),
                        np.linspace(0.0, 26.0, 1001), _segment_edges(),
                        [5e-324, 1e-300, 1e-17, 1e-8, math.nextafter(26.0, 0.0)]])
    x = np.sort(x[x <= 26.0])
    assert x.size >= 20000
    ulps = _ulps(_kernels._erfc(x), x)
    assert ulps.max() <= 4.0, (x[np.argmax(ulps)], ulps.max())


def test_erfc_is_zero_where_libm_is_and_below_the_normal_range():
    x = np.concatenate([np.linspace(25.0, 40.0, 30001), _segment_edges(), [1e10, 1e300]])
    got = _kernels._erfc(x)
    assert np.all(got[np.array([math.erfc(v) for v in x.tolist()]) == 0.0] == 0.0)
    # from ZERO on erfc is below the smallest normal double, and returns 0
    assert np.all((got == 0.0) == (x >= _erfc_table.ZERO))
    assert np.all(got[x < _erfc_table.ZERO] >= np.finfo(np.float64).tiny)


def test_erfc_is_non_increasing():
    # with the segment edges, but not their neighbours: below x = 1 erfc
    # moves by less than an ulp from one double to the next, and across an
    # edge the two segments' roundings may differ by an ulp either way (in
    # 1 of the 864 steps within 8 ulps of an edge, at 0.46875)
    x = np.sort(np.concatenate([np.random.default_rng(21).uniform(0.0, 30.0, 200000),
                                _erfc_table.EDGES, [_erfc_table.ZERO]]))
    got = _kernels._erfc(x)
    assert got[0] == 1.0 and np.all(np.diff(got) <= 0.0)


def test_erfc_of_a_value_alone_has_its_bits_in_a_block():
    rng = np.random.default_rng(22)
    block = rng.uniform(0.0, 3.0, (41, 65))
    block[::7] = rng.uniform(3.0, 30.0, (6, 65))
    block[0, :3] = _erfc_table.EDGES[1:4]
    whole = _kernels._erfc(block)
    alone = np.array([_kernels._erfc(np.array([v]))[0] for v in block.ravel().tolist()])
    assert whole.tobytes() == alone.reshape(block.shape).tobytes()
    # and in a row of the block on its own, and the block's transpose
    assert _kernels._erfc(block[5]).tobytes() == whole[5].tobytes()
    assert _kernels._erfc(block.T).tobytes() == whole.T.tobytes()


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_biweight_reaches_its_fixed_point(seed):
    rng = np.random.default_rng(seed)
    z = np.concatenate([rng.normal(0.3, 1.7, 180), rng.normal(9.0, 0.5, 12)])
    loc, scale, converged = _kernels.biweight_irls(z)
    assert converged
    assert scale == _kernels.MAD_SCALE * float(np.median(np.abs(z - loc)))
    # at the fixed point the biweight-weighted residuals average to zero
    u = np.abs(z - loc) / (_kernels.TUKEY_C * scale)
    w = np.where(u < 1.0, (1.0 - u * u) ** 2, 0.0)
    assert abs(float(np.sum(w * (z - loc)) / np.sum(w))) < 1e-8
    # the far cluster gets no weight, so the location stays near the bulk
    assert abs(loc - 0.3) < 0.5


def _reference_irls(z):
    """The biweight IRLS written plainly, one new array per operation: the
    bits ``biweight_irls`` must keep."""
    m = float(_kernels._median(z))
    converged = False
    for _ in range(_kernels.IRLS_MAX_ITER):
        resid = z - m
        scale = _kernels.MAD_SCALE * float(_kernels._median(np.abs(resid)))
        if scale <= 0.0:
            converged = True
            break
        u = np.abs(resid) / (_kernels.TUKEY_C * scale)
        w = np.where(u < 1.0, (1.0 - u * u) ** 2, 0.0)
        wsum = float(np.sum(w))
        if wsum == 0.0:
            break
        m_new = float(np.sum(w * z) / wsum)
        converged = abs(m_new - m) < _kernels.IRLS_TOL
        m = m_new
        if converged:
            break
    scale = _kernels.MAD_SCALE * float(_kernels._median(np.abs(z - m)))
    return m, scale, converged


def _assert_irls_bits(z):
    loc, scale, converged = _kernels.biweight_irls(z)
    ref = _reference_irls(z)
    assert (loc.hex(), scale.hex(), converged) == (ref[0].hex(), ref[1].hex(), ref[2])


@st.composite
def _irls_samples(draw):
    """3 to 500 values about a drawn center and spread, some rounded to
    ties, with signed zeros and a share of gross outliers."""
    size = draw(st.integers(3, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-3, 1e3)), size)
    if draw(st.booleans()):
        z = np.round(z, draw(st.integers(0, 2)))
    k = draw(st.integers(0, size // 3))
    z[rng.permutation(size)[:k]] = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(3, 12, k)
    zeros = rng.permutation(size)[:draw(st.integers(0, 3))]
    z[zeros] = rng.choice([-0.0, 0.0], zeros.size)
    return z


@given(_irls_samples())
@settings(max_examples=200, deadline=None)
def test_biweight_keeps_the_bits_of_the_plain_loop(z):
    _assert_irls_bits(z)


def test_biweight_keeps_the_bits_of_the_plain_loop_on_simulated_fits():
    # the initial scales of the ten flagging fits that the root search's
    # evaluation counts are checked on
    cfg = SimConfig(n_centers=212, seed=5, outlier_fraction=0.1)
    for seed in range(10):
        data = gen_single_measure(cfg, np.random.default_rng(seed), gamma_focal=2.0)
        _assert_irls_bits(z_fixed_effects(data.observed, data.expected, data.effective_size))


@pytest.mark.parametrize("size", [3, 4, 11, 212, 1001, 8000])
@pytest.mark.parametrize("ties", [False, True])
def test_median_matches_numpy_bit_for_bit(size, ties):
    x = np.random.default_rng(size).normal(0.0, 3.0, size)
    if ties:
        # whole numbers: from 11 values on, the middle ones repeat, and
        # rounding makes both -0 and +0
        x = np.round(x)
    before = x.copy()
    assert _kernels._median(x).hex() == float(np.median(x)).hex()
    assert x.tolist() == before.tolist()


@pytest.mark.parametrize("x", [[2.0, 1.0, 2.0], [0.1, 0.7, 0.2], [3.0, 1.0, 1.0, 3.0],
                               [0.1, 0.7, 0.2, 0.3], [5.0, 5.0, 5.0, -1.0],
                               [-0.0, 1.0, -1.0], [-0.0, -0.0, 2.0, -3.0]])
def test_median_of_three_and_four(x):
    assert _kernels._median(np.array(x)).hex() == float(np.median(x)).hex()


def test_backend_reports_a_valid_choice():
    assert profile_null.backend() == "numpy"
