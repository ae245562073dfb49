"""Farey polynomials: word-trace oracle, cusp roots, closed forms."""

import cmath
import math

import numpy as np
import pytest

from mobcert import farey
from mobcert.farey import FAREY_WORDS, SLOPES, cusp_residue, farey_poly, solve_cusp
from mobcert.mobius import InvalidInputError, sigma_pq
from mobcert.omega import boundary_cusps
from words import word_trace

RNG = np.random.default_rng(20260814)


class TestSlopes:
    def test_slope_table(self):
        assert SLOPES == ((0, 1), (1, 1), (1, 2), (1, 3))
        assert FAREY_WORDS[(0, 1)] == "Ab"
        assert FAREY_WORDS[(1, 1)] == "AB"
        assert FAREY_WORDS[(1, 2)] == "ABab"
        assert FAREY_WORDS[(1, 3)] == "ABaBAb"

    def test_rejects_unknown_slope(self):
        with pytest.raises(InvalidInputError):
            farey_poly((2, 5), 3, 3)


class TestPolynomialOracle:
    def test_poly_equals_word_trace(self):
        # The Farey polynomial of a slope evaluated at rho must equal the
        # trace of the corresponding word in the actual generators.
        for _ in range(40):
            p, q = (int(v) for v in RNG.integers(2, 15, 2))
            if p == 2 and q == 2:
                continue
            rho = complex(*RNG.normal(0, 3, 2))
            if abs(rho) < 0.05:
                continue
            for slope in SLOPES:
                poly = farey_poly(slope, p, q)
                direct = word_trace(p, q, rho, FAREY_WORDS[slope])
                assert abs(poly(rho) - direct) < 1e-9 * max(1.0, abs(direct))

    def test_degrees_and_leading_coefficients(self):
        for p, q in [(3, 3), (3, 7), (5, 4)]:
            assert farey_poly((0, 1), p, q).degree() == 1
            assert farey_poly((1, 1), p, q).degree() == 1
            p2 = farey_poly((1, 2), p, q)
            assert p2.degree() == 2 and abs(p2.coef[-1] - 1.0) < 1e-12
            p3 = farey_poly((1, 3), p, q)
            assert p3.degree() == 3 and abs(p3.coef[-1] - 1.0) < 1e-12


class TestCusps:
    def test_roots_solve_cusp_equation(self):
        for p in range(2, 10):
            for q in range(max(p, 3), 10):
                for slope in SLOPES:
                    for root in solve_cusp(slope, p, q):
                        assert cusp_residue(slope, p, q, root) < 1e-9

    def test_closed_forms_linear_slopes(self):
        for p, q in [(3, 3), (3, 4), (5, 9)]:
            (r01,) = solve_cusp((0, 1), p, q)
            (r11,) = solve_cusp((1, 1), p, q)
            assert abs(r01 - (2.0 + 2.0 * math.cos(math.pi / p - math.pi / q))) < 1e-9
            assert abs(r11 - (-2.0 - 2.0 * math.cos(math.pi / p + math.pi / q))) < 1e-9
            assert abs((r01 + r11) - sigma_pq(p, q)) < 1e-9

    def test_half_slope_matches_boundary_cusps(self):
        for p, q in [(3, 3), (3, 4), (4, 4), (3, 7)]:
            roots = solve_cusp((1, 2), p, q)
            _, _, ch, chc = boundary_cusps(p, q)
            for target in (ch, chc):
                assert min(abs(r - target) for r in roots) < 1e-9

    def test_residue_positive_off_cusp(self):
        assert cusp_residue((0, 1), 3, 3, 1.0 + 1.0j) > 0.1


# The markings of the acceptance sweeps, a swapped one, a parabolic B and
# two large near-equal orders.  The cubic's roots go through LAPACK, so they
# are compared with the Polynomial-object computation on this machine, not
# with digests pinned across platforms.
PINNED_MARKINGS = [(3, 3), (3, 4), (4, 4), (3, 7), (5, 9), (4, 3), (3, math.inf), (1000, 1001)]


def _bits(zs):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in zs]


class TestCachedCoefficients:
    @pytest.mark.parametrize("p, q", PINNED_MARKINGS)
    def test_roots_and_residues_are_the_polynomial_objects_bit_for_bit(self, p, q):
        for slope in SLOPES:
            poly = farey_poly(slope, p, q) + 2.0
            c = poly.coef
            if len(c) == 2:
                want = [-c[0] / c[1]]
            elif len(c) == 3:
                disc = cmath.sqrt(c[1] * c[1] - 4.0 * c[2] * c[0])
                want = [(-c[1] + disc) / (2.0 * c[2]), (-c[1] - disc) / (2.0 * c[2])]
            else:
                want = list(poly.roots())
            roots = solve_cusp(slope, p, q)
            assert _bits(roots) == _bits(want)
            for z in (*roots, 0j, 1.5 - 0.25j, -3.0, 2j):
                want_residue = abs(complex(farey_poly(slope, p, q)(complex(z))) + 2.0)
                assert cusp_residue(slope, p, q, z).hex() == want_residue.hex()

    def test_cache_is_read_only_and_farey_poly_owns_its_copy(self):
        coefficients = farey._coefficients((1, 3), 3, 4)
        assert not coefficients.flags.writeable
        with pytest.raises(ValueError):
            coefficients[0] = 0.0
        poly = farey_poly((1, 3), 3, 4)
        roots = solve_cusp((1, 3), 3, 4)
        poly.coef[0] = 0.0  # the returned polynomial is the caller's to change
        assert _bits(solve_cusp((1, 3), 3, 4)) == _bits(roots)
        assert farey_poly((1, 3), 3, 4).coef[0] == coefficients[0]
