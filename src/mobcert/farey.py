"""Farey polynomials and cusp root-finding.

P_{r/s}(z) is the trace polynomial of the Farey word of slope r/s in the
marked generators: a degree-s polynomial in the group parameter rho whose
-2 level set picks out the slope-r/s pinching (cusp) parameters.  The
table below covers slopes 0/1, 1/1, 1/2 and 1/3; the matching words are

    0/1 -> A B^-1,   1/1 -> A B,   1/2 -> A B A^-1 B^-1,
    1/3 -> A B A^-1 B A B^-1.

The 0/1 and 1/1 cusps are real, the 1/2 cusps are the conjugate pair
2S +- 2i sqrt(1 - S^2); together they are the four boundary cusps of the
exclusion region Omega.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .mobius import InvalidInputError, pi_over, unhashable_order_error

FAREY_WORDS = {
    (0, 1): "Ab",
    (1, 1): "AB",
    (1, 2): "ABab",
    (1, 3): "ABaBAb",
}

SLOPES = tuple(FAREY_WORDS)


def _check_slope(slope) -> tuple[int, int]:
    slope = (int(slope[0]), int(slope[1]))
    if slope not in SLOPES:
        raise InvalidInputError(f"slope {slope[0]}/{slope[1]} is not in the table")
    return slope


@lru_cache(maxsize=128, typed=True)
def _coefficients(slope: tuple[int, int], p, q) -> np.ndarray:
    """P_{r/s}'s ascending coefficients as one read-only complex array,
    derived once per checked slope and marking."""
    a = cmath.exp(1j * pi_over(p))
    b = cmath.exp(1j * pi_over(q))
    ab, ia_b, a_ib, iab = a * b, b / a, a / b, 1.0 / (a * b)
    if slope == (0, 1):
        coeffs = [a_ib + ia_b, -1.0]
    elif slope == (1, 1):
        coeffs = [ab + iab, 1.0]
    elif slope == (1, 2):
        coeffs = [2.0, ab - a_ib - ia_b + iab, 1.0]
    else:  # (1, 3)
        a2, b2 = a * a, b * b
        coeffs = [
            iab + ab,
            3.0 - 1.0 / a2 - a2 - 1.0 / b2 - b2 + a2 / b2 + b2 / a2,
            ab - 2.0 * a_ib - 2.0 * ia_b + iab,
            1.0,
        ]
    coefficients = np.array(coeffs, dtype=complex)
    coefficients.flags.writeable = False
    return coefficients


def _polynomial(slope, p, q) -> np.ndarray:
    """_coefficients of the slope once _check_slope has accepted it."""
    try:
        return _coefficients(_check_slope(slope), p, q)
    except TypeError as exc:
        raise unhashable_order_error(exc, p, q) from None


def farey_poly(slope, p, q) -> np.polynomial.Polynomial:
    """P_{r/s} as a polynomial in rho (ascending coefficients)."""
    return np.polynomial.Polynomial(_polynomial(slope, p, q))


def solve_cusp(slope, p, q) -> tuple[complex, ...]:
    """All roots of P_{r/s}(z) = -2, the slope-r/s cusp parameters.

    Degrees 1 and 2 use the closed formulas; the cubic 1/3 row uses
    companion-matrix eigenvalues (polyroots), to which + 0.0 writes a -0.0
    part as 0.0, as Polynomial.roots does.  Roots are unordered.
    """
    c = _polynomial(slope, p, q).copy()
    c[0] += 2.0
    if len(c) == 2:
        return (-c[0] / c[1],)
    if len(c) == 3:
        disc = cmath.sqrt(c[1] * c[1] - 4.0 * c[2] * c[0])
        return ((-c[1] + disc) / (2.0 * c[2]), (-c[1] - disc) / (2.0 * c[2]))
    return tuple(complex(r) for r in np.polynomial.polynomial.polyroots(c) + 0.0)


def cusp_residue(slope, p, q, rho: complex) -> float:
    """|P_{r/s}(rho) + 2|, the defect of rho against the cusp equation."""
    coefficients = _polynomial(slope, p, q)
    return abs(complex(np.polynomial.polynomial.polyval(complex(rho), coefficients)) + 2.0)
