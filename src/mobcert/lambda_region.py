"""The lambda coordinate and its feasibility region.

The parameter lambda describes the same marked group as rho through

    rho_minus = -S (lambda - 1)^2 / lambda,
    rho_plus  = +S (lambda + 1)^2 / lambda,      S = sin(pi/p) sin(pi/q),

with rho_minus + rho_plus = sigma = 4S, so the two roots are symmetry
partners.  The pair is free and discrete whenever both of the closed
inequalities

    |lambda cot(pi/q) +- cot(pi/p)| + csc(pi/p) <= |lambda| csc(pi/q)

hold.  lambda and 1/lambda describe the same conjugacy class (rho_minus and
rho_plus are unchanged), but the inequalities are invariant only under
lambda -> -lambda, and they are read at the branch with |lambda| >= 1.
There both hold iff Q(lam) = |lam|^2 + 1 - 2|lam| csc_p csc_q - 2 cot_p cot_q |Re lam|
>= 0, which is symmetric in p and q.  The cascade decides this in the
rho-plane (lambda_slack_rho), with E = (|rho| + |rho - sigma|) / 2:

    slack = E - 2 - 2 cos(pi/p) cos(pi/q) |Re rho - sigma/2| / E.

u = (rho - sigma/2)/S = +-(lam + 1/lam), and its focal sum over +-2 gives
E = S(|lam| + 1/|lam|) and |Re rho - sigma/2| = E |Re lam| / |lam|; with
S csc_p csc_q = 1 and S cot_p cot_q = cos_p cos_q, slack = S Q(lam) / |lam|.

The cascade's LambdaRegion row, which also decides Burau faithfulness, is
lambda_slack_rho.  The lambda-space slack lambda_slack is the paper's direct
formula, the independent reference the tests check it against.  lambda_branches
solves lam - 1/lam = w for every reported branch pair, of a rho and of a
Burau mu.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

import numpy as np

from .mobius import GroupSpec, InvalidInputError, check_marking, gamma_of, sin_sin, unhashable_order_error


def _check_lambda_orders(p, q) -> tuple[float, float]:
    """(pi/p, pi/q) of a finite marking that mobius.check_marking accepts."""
    if p == math.inf or q == math.inf:
        raise InvalidInputError("lambda coordinates need finite orders")
    return check_marking(p, q)


@lru_cache(maxsize=128, typed=True)
def _row_constants(p, q) -> tuple[float, float]:
    """(S, 4 cos(pi/p) cos(pi/q)) of a finite marking, once its orders are
    checked: the constants of lambda_slack_rho, derived once per marking."""
    a, b = _check_lambda_orders(p, q)
    return sin_sin(p, q), 4.0 * (math.cos(a) * math.cos(b))


def lambda_slack(p, q, lam):
    """Worst-case margin over both feasibility inequalities at a complex or
    a complex array lam: the smaller over sign = +-1 of |lam| csc(pi/q)
    - |lam cot(pi/q) + sign cot(pi/p)| - csc(pi/p), the paper's direct
    formula; >= 0 means both inequalities hold.

    A reference for the tests, not a decision: its rounding error is a few
    ulps of |lam| csc(pi/q), so only a margin larger than that has a sign.
    """
    a, b = _check_lambda_orders(p, q)
    sp, sq = math.sin(a), math.sin(b)
    cot_p, cot_q, csc_p, csc_q = math.cos(a) / sp, math.cos(b) / sq, 1.0 / sp, 1.0 / sq
    plus, minus = (abs(lam) * csc_q - abs(lam * cot_q + sign * cot_p) - csc_p for sign in (+1, -1))
    return np.minimum(plus, minus)


def lambda_slack_rho(p, q, rho):
    """The rho-plane lambda slack (module docstring) at a complex or a
    complex array rho; >= 0 means both inequalities hold.  A rho-plane
    length, and the same float for (q, p).  rho is halved first, so abs()
    of a finite complex cannot overflow; an E past the float maximum gives
    +inf (an array warns unless overflow is ignored).  E = 0 only where
    h = 0 and S has underflowed to 0 (p q past ~2e324); the quotient's
    numerator is 0 there too, so it is taken as 0 and the slack is -2."""
    try:
        s, k = _row_constants(p, q)
    except TypeError as exc:
        raise unhashable_order_error(exc, p, q) from None
    h = rho * 0.5
    e = abs(h) + abs(h - 2.0 * s)
    ratio = abs(h.real - s) / (e + (e == 0.0) if s == 0.0 else e)
    return e - 2.0 - k * ratio


def rho_from_lambda(p, q, lam) -> tuple[complex, complex]:
    """(rho_minus, rho_plus) of a nonzero lambda value; the two sum to sigma.

    Each root satisfies rho (rho - sigma) = (lam - 1/lam)^2 S^2, so the
    roots are symmetry partners of one another, and lam and 1/lam give the
    same pair.
    """
    try:
        s = _row_constants(p, q)[0]
    except TypeError as exc:
        raise unhashable_order_error(exc, p, q) from None
    lam = complex(lam)
    if lam == 0:
        raise InvalidInputError("lambda must be nonzero")
    rm = -s * (lam - 1.0) ** 2 / lam
    rp = s * (lam + 1.0) ** 2 / lam
    return rm, rp


def lambda_branches(w: complex) -> tuple[complex, complex]:
    """The two roots of lam - 1/lam = w, largest modulus first.

    The large root is (w +- sqrt(w^2 + 4))/2 with the sign that does not
    cancel, or w (1/2 + sqrt(1 + (2/w)^2)/2) where w^2 overflows.  The small
    root is -1/large, which keeps its digits where |w| is large.
    """
    ww = w * w
    if cmath.isfinite(ww):
        root = cmath.sqrt(ww + 4.0)
        big = max((w + root) / 2.0, (w - root) / 2.0, key=abs)
    else:
        v = 2.0 / w
        big = w * (0.5 + 0.5 * cmath.sqrt(1.0 + v * v))
    return big, -1.0 / big


def lambda_from_rho(spec: GroupSpec) -> tuple[complex, complex]:
    """The two lambda branches of a rho value, largest modulus first.

    lambda_branches(w), w = sqrt(gamma) / S, gamma = rho (rho - sigma).
    rho = 0 and rho = sigma give the degenerate branches lam = +-1.  Where
    w^2 overflows (|rho| from about 1e154 S), gamma is formed with rho
    scaled by m = max(|Re rho|, |Im rho|), which may negate lam (the slack
    is invariant under lam -> -lam); past the float maximum the branches
    are non-finite.  Raises InvalidInputError where S underflows to 0.
    """
    s = _row_constants(spec.p, spec.q)[0]
    if s == 0.0:
        raise InvalidInputError("sin(pi/p) sin(pi/q) underflows to 0 at these orders: no lambda coordinate")
    rho = spec.rho
    gamma = gamma_of(spec)
    if s * s >= sys.float_info.min:
        w = cmath.sqrt(gamma / (s * s))
    else:  # S^2 is subnormal or 0 (p q past ~1e154): do not divide by it
        w = cmath.sqrt(gamma) / s
    if not cmath.isfinite(w * w):  # rescale rho, in numpy: certify's output bytes carry its rounding
        m = max(abs(rho.real), abs(rho.imag))
        u = np.array([rho]) / m
        with np.errstate(over="ignore", invalid="ignore"):
            w = complex((np.sqrt(u * (u - 4.0 * s / m)) / s * m)[0])
    return lambda_branches(w)

