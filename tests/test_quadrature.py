"""Gauss-Legendre rules of quadrature._leggauss against independent oracles."""

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import jn_zeros, roots_legendre

from ccr_reduce import QuadratureError, quadrature
from ccr_reduce.quadrature import GL_BLOCK, _J0_ZEROS, _bessel_j0_zeros, _leggauss


def first_split_order() -> int:
    """The smallest n whose half rule needs two node blocks."""
    n = 1
    while (n + 1) // 2 <= GL_BLOCK // (n // 2 + 1):
        n += 1
    return n


SPLIT = first_split_order()
SIZES = sorted({1, 2, 3, 4, 5, 16, 47, 120, 263, 376, 640, 1000, 1024, SPLIT, SPLIT + 1})


def mp_node_and_weight(n: int, x0: float):
    """Node near x0 and its weight 2 / ((1 - x^2) P_n'(x)^2) at 40 digits.

    Newton on the three-term recurrence of P_n; three steps from a double
    node reach the working precision, so the derivative of the last step
    serves the weight.
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(4):
            p0, p1 = mpmath.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            dp = n * (x * p1 - p0) / (x * x - 1)
            x -= p1 / dp
        return x, 2 / ((1 - x * x) * dp * dp)


def longdouble_rule(n: int, x0):
    """All nodes and weights by Newton on the recurrence in extended precision."""
    x = np.asarray(x0, dtype=np.longdouble)
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("n", SIZES)
    def test_nodes_match_numpy_and_scipy(self, n):
        x, _ = _leggauss(n)
        assert np.max(np.abs(x - leggauss(n)[0])) <= 4e-16
        assert np.max(np.abs(x - roots_legendre(n)[0])) <= 4e-16

    @pytest.mark.parametrize("n", [n for n in SIZES if n > 1])
    def test_weights_vs_mpmath(self, n):
        x, w = _leggauss(n)
        for i in sorted({0, n // 4, n // 2, n - 1}):
            xm, wm = mp_node_and_weight(n, float(x[i]))
            assert abs(float(x[i] - xm)) <= 2e-16, (i, x[i])
            assert abs(float(w[i] / wm - 1)) <= 1e-13, (i, x[i])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("n", [47, 263, 640, 1000, 1024, SPLIT + 1])
    def test_every_weight_vs_extended_precision(self, n):
        # every node, not only the edges, the quarter and the middle: the
        # interior is where a rounded argument m theta costs the most
        x, w = _leggauss(n)
        xr, wr = longdouble_rule(n, x)
        assert float(np.max(np.abs(x - xr))) <= 2.5e-16
        assert float(np.max(np.abs(w / wr - 1))) <= 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("n", [24, 32, 39, 40, 41])
    def test_weights_after_the_longest_last_steps(self, n):
        # the last Newton steps are longest (up to 1e-8) near n = 40, where a
        # first-order slope update would err by up to 1.4e-13 in the weights
        x, w = _leggauss(n)
        xr, wr = longdouble_rule(n, x)
        assert float(np.max(np.abs(x - xr))) <= 2.5e-16
        assert float(np.max(np.abs(w / wr - 1))) <= 1e-14

    @pytest.mark.parametrize("n", SIZES)
    def test_even_monomials_exact(self, n):
        x, w = _leggauss(n)
        j = np.arange(n)
        got = np.sum(w[:, None] * x[:, None] ** (2 * j), axis=0)
        np.testing.assert_allclose(got, 2.0 / (2 * j + 1), rtol=5e-14, atol=0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_symmetric_ascending_with_exact_middle(self, n):
        x, w = _leggauss(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        np.testing.assert_array_equal(x[::-1], -x)
        np.testing.assert_array_equal(w[::-1], w)
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])

    def test_one_node(self):
        x, w = _leggauss(1)
        np.testing.assert_array_equal(x, [0.0])
        np.testing.assert_array_equal(w, [2.0])

    @pytest.mark.parametrize("n", [0, -3])
    def test_order_below_one_rejected(self, n):
        with pytest.raises(ValueError):
            _leggauss(n)

    def test_cached_rule_is_read_only(self):
        x, w = _leggauss(16)
        with pytest.raises(ValueError):
            x[0] = 1.0
        with pytest.raises(ValueError):
            w *= 2.0
        # a caller's scaled copy stays writable
        xs, ws = quadrature.gl_nodes(16, 0.0, 3.0)
        xs[0] = 0.0
        np.testing.assert_array_equal(_leggauss(16)[0], _leggauss.__wrapped__(16)[0])

    @pytest.mark.parametrize("n", [2, 47, 1023, SPLIT, 3000])
    def test_temporaries_within_block_bound(self, monkeypatch, n):
        sizes = []
        series = quadrature._legendre_series

        def recording(theta, a, m, scale):
            sizes.append(theta.size * m.size)
            return series(theta, a, m, scale)

        monkeypatch.setattr(quadrature, "_legendre_series", recording)
        # the unwrapped function: a cached rule would skip the sweeps
        _leggauss.__wrapped__(n)
        assert max(sizes) <= GL_BLOCK

    def test_unconverged_rule_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "GL_SWEEPS", 1)
        with pytest.raises(QuadratureError):
            _leggauss.__wrapped__(16)

    @pytest.mark.parametrize("n", [40, 64, 263, 376, 1024])
    def test_one_series_evaluation_per_node(self, monkeypatch, n):
        # from n = 40 the Bessel-zero start is within a step of 1e-8 of every
        # node, so each block of the half rule is evaluated once
        blocks = []
        series = quadrature._legendre_series

        def recording(theta, a, m, scale):
            blocks.append(theta.size)
            return series(theta, a, m, scale)

        monkeypatch.setattr(quadrature, "_legendre_series", recording)
        _leggauss.__wrapped__(n)
        half, rows = (n + 1) // 2, GL_BLOCK // (n // 2 + 1)
        assert blocks == [min(rows, half - first) for first in range(0, half, rows)]


class TestSharedTables:
    # the rule sizes one bhp-average run builds on the seed-42 s0 corpus
    BHP_AVERAGE_SIZES = [1, 18, 20, 26, 29, 31, 32, 40, 42, 44, 45, 47, 48, 51, 54, 60, 62,
                         67, 69, 71, 75, 79, 87, 88, 89, 97, 103, 120, 125, 128, 139, 148,
                         172, 174, 179, 238, 247, 254, 266, 337, 376]

    @staticmethod
    def rules(sizes):
        # fresh tables, so that the first size decides how far they grow
        quadrature._rule_tables.cache_clear()
        return {n: _leggauss.__wrapped__(n) for n in sizes}

    def test_build_order_does_not_matter(self):
        up = self.rules(self.BHP_AVERAGE_SIZES)
        down = self.rules(self.BHP_AVERAGE_SIZES[::-1])
        for n in self.BHP_AVERAGE_SIZES:
            np.testing.assert_array_equal(up[n][0], down[n][0])
            np.testing.assert_array_equal(up[n][1], down[n][1])

    def test_tables_are_read_only_prefixes(self):
        zeros = _bessel_j0_zeros(7)
        with pytest.raises(ValueError):
            zeros[0] = 0.0
        np.testing.assert_array_equal(zeros, _bessel_j0_zeros(300)[:7])


class TestBesselZeros:
    def test_table(self):
        np.testing.assert_allclose(_J0_ZEROS, jn_zeros(0, len(_J0_ZEROS)), rtol=0.0, atol=1e-15)

    def test_mcmahon_up_to_512(self):
        got = _bessel_j0_zeros(512)
        assert got.shape == (512,)
        np.testing.assert_allclose(got, jn_zeros(0, 512), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("count", [1, 3, 5, 6])
    def test_count(self, count):
        np.testing.assert_allclose(_bessel_j0_zeros(count), jn_zeros(0, count),
                                   rtol=0.0, atol=1e-12)
