import math

import numpy as np
import pytest

from ccr_reduce import DomainError, bessel_j0, bessel_y0, hankel2_0, hankel2_0_integral
from ccr_reduce.specfun import SEAM, _hankel2_asymptotic, _j0_series, _y0_series

EULER = 0.5772156649015328606


def j0_oracle(x, terms=30):
    """Independent truncated power series with stdlib factorials."""
    return sum((-1) ** m * (x * x / 4) ** m / math.factorial(m) ** 2
               for m in range(terms))


def y0_oracle(x, terms=30):
    s = 0.0
    harmonic = 0.0
    for m in range(1, terms):
        harmonic += 1.0 / m
        s += (-1) ** (m + 1) * harmonic * (x * x / 4) ** m / math.factorial(m) ** 2
    return 2 / math.pi * ((math.log(x / 2) + EULER) * j0_oracle(x, terms) + s)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_at_one_vs_series_oracle(self):
        assert bessel_j0(1.0) == pytest.approx(j0_oracle(1.0), abs=1e-10)

    def test_against_mpmath_grid(self):
        mp = pytest.importorskip("mpmath")
        for x in np.linspace(0.05, 40.0, 61):
            assert abs(bessel_j0(float(x)) - float(mp.besselj(0, float(x)))) < 1e-12

    def test_bounded(self):
        xs = np.linspace(0.0, 50.0, 301)
        assert all(abs(bessel_j0(float(x))) <= 1.0 + 1e-12 for x in xs)


class TestHankel:
    def test_real_part_is_j0(self):
        assert hankel2_0(1.0).real == pytest.approx(bessel_j0(1.0), abs=1e-13)

    def test_value_at_one_vs_series_oracles(self):
        h = hankel2_0(1.0)
        assert h.real == pytest.approx(j0_oracle(1.0), abs=1e-10)
        assert h.imag == pytest.approx(-y0_oracle(1.0), abs=1e-10)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for x in (0.2, 1.0, 3.7, 12.0, SEAM, 33.0):
            ref = complex(mp.hankel2(0, x))
            assert abs(hankel2_0(x) - ref) < 1e-12

    def test_large_argument_modulus(self):
        # |H0(x)| sqrt(pi x / 2) -> 1
        x = 50.0
        assert abs(hankel2_0(x)) * np.sqrt(np.pi * x / 2) == pytest.approx(1.0, abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            hankel2_0(0.0)
        with pytest.raises(DomainError):
            bessel_y0(-1.0)

    def test_seam_continuity(self):
        series = complex(_j0_series(SEAM), -_y0_series(SEAM))
        asym = _hankel2_asymptotic(SEAM)[0]
        assert abs(series - asym) < 1e-10


class TestIntegralRepresentation:
    @pytest.mark.parametrize("x", [1.0, 5.0])
    def test_matches_series_route(self, x):
        res = hankel2_0_integral(x)
        assert abs(res.value - hankel2_0(x)) < 1e-4
        assert res.method == "integral"

    def test_even_integrand_symmetry(self):
        # the contour evaluation doubles the half line; an explicit two-sided
        # central rule must reproduce the same central contribution
        from ccr_reduce.quadrature import gl_nodes

        x = 1.3
        s0 = min(max(2.5, float(np.log(90.0 / x))), 12.0)
        s, w = gl_nodes(300, -s0, s0)
        full = np.sum(w * np.exp(-1j * x * np.cosh(s)))
        sp, wp = gl_nodes(150, 0.0, s0)
        doubled = 2.0 * np.sum(wp * np.exp(-1j * x * np.cosh(sp)))
        assert abs(full - doubled) < 1e-10

    def test_slow_convergence_flag(self):
        assert "slow-convergence" in hankel2_0_integral(0.05).flags
        assert hankel2_0_integral(1.0).flags == ()

    def test_domain(self):
        with pytest.raises(DomainError):
            hankel2_0_integral(-2.0)


class TestDifferentialIdentities:
    def test_wronskian(self):
        # J0 Y0' - J0' Y0 = 2 / (pi x), derivatives by central differences
        h = 1e-5
        for x in (0.7, 2.3, 9.0, 17.0):
            j0p = (bessel_j0(x + h) - bessel_j0(x - h)) / (2 * h)
            y0p = (bessel_y0(x + h) - bessel_y0(x - h)) / (2 * h)
            w = bessel_j0(x) * y0p - j0p * bessel_y0(x)
            assert w == pytest.approx(2 / (np.pi * x), abs=1e-6)

    def test_bessel_equation_residual(self):
        # h balances stencil truncation (large 4th derivatives near x = 0.5)
        # against roundoff amplification 1/h^2
        h = 2.5e-4
        for x in np.linspace(0.5, 20.0, 14):
            x = float(x)
            vals = [hankel2_0(x + d) for d in (-h, 0.0, h)]
            d2 = (vals[2] - 2 * vals[1] + vals[0]) / (h * h)
            d1 = (vals[2] - vals[0]) / (2 * h)
            residual = d2 + d1 / x + vals[1]
            assert abs(residual) < 1e-6
