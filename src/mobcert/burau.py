"""Faithfulness certificates for specialized Burau representations of B_3.

The reduced Burau representation at t = mu sends the braid generators to
(after dividing by sqrt(-mu) to reach det 1)

    A = (1/sqrt(-mu)) [[-mu, 1], [0, 1]],
    B = (1/sqrt(-mu)) [[1, 0], [mu, -mu]],

a conjugate pair with the braid relation A B A = B A B.  Writing
z = sqrt(mu) - 1/sqrt(mu), the pair is the (3, 2) marked pair with
parameter rho = sqrt(3) + i z, whose lambda branches are
sqrt(3) lambda = z +- sqrt(z^2 + 3) (lam - 1/lam = 2z/sqrt(3), branch
product -1).  The representation is certified faithful when rho passes
the LambdaRegion row of the cascade at (3, 2) -- the closed inequality
|lambda| >= sqrt(3) -- except at the single boundary point mu = -1, the
known unfaithful specialization.  The scalar certificate, the burau scan
mode and the cascade thus share one slack, lambda_slack_rho, and one rule.

rho is finite for every finite mu != 0 (|z| <= 4.5e161), so a tiny mu gets
a finite slack and, where z^2 overflows, finite branches.

The rule in closed form.  At (3, 2) the row's slack is E - 2 - k |Re h -
S| / E with k = 4 cos(pi/3) cos(pi/2) ~ 1.2e-16, so its last term is below
1e-16, and E = |w + sqrt(3)/2| + |w - sqrt(3)/2| with w = i z / 2 is the
focal sum of the ellipses with foci +-sqrt(3)/2.  On the one through w,
w = (E/2) cos t + i sqrt(E^2 - 3)/2 sin t, so

    F = (Re z)^2 + (Im z)^2 / 4 - 1 = (E^2 - 4)(sin^2 t + cos^2 t / 4),

and |E^2 - 4| / 4 <= |F| <= |E^2 - 4|: sign F = sign(E - 2).  With
R = |mu| and u = Re mu / R, (Re z)^2 = (R - 2 + 1/R)(1 + u)/2 and
(Im z)^2 = (R + 2 + 1/R)(1 - u)/2, so 8 R F is the real polynomial

    H = (5 + 3u)(R^2 + 1) - (14 + 10u) R = 2 (R - 1)^2 + (1 + u)(3R^2 - 10R + 3),

and E >= 2 iff H >= 0: no complex square root.  The curve H = 0 is
cos(arg mu) = (5R^2 - 14R + 5) / (10R - 3R^2 - 3), a ratio in [-1, 1]
exactly for R in ANNULUS_CONJECTURED (it is 1 only at the ends, and -1
only at R = 1, the double point mu = -1).  faithful_mask certifies where
H > M = 8 tau (R^2 + 3R + 1), tau = _TAU = 1e-9, not where H < -M, and
sends the band |H| <= M, with every NaN H (mu = 0) and infinite M (R^2
overflows), to the slack array path, _faithful_mask_direct.  Its codes
are that path's everywhere:

1. Tiny mu.  In floats |mu| >= max(|Re mu|, |Im mu|), so |u| <= 1, and
   5 + 3u is in [2, 8], 14 + 10u in [4, 24].  Where R < 1e-3, H > 1.9 as
   computed and exactly, and E >= 1/sqrt(R) - sqrt(R) > 31: both paths
   certify, as sqrt(mu) and 1/sqrt(mu) stay normal floats.
2. H's rounding.  The magnitudes of H's two terms sum to at most
   8 (R^2 + 1) + 24 R = M / tau.  Where R >= 1e-3 and M is finite, every
   operation rounds by a few ulps, so the computed H is within 1e-14 M / tau
   of the exact H of the float mu.  Outside the band the exact H has the
   computed one's sign and |H| > (tau - 2e-14) 8 (R^2 + 3R + 1).
3. From H to E.  With s = sqrt(R) + 1/sqrt(R) >= 2, R + 3 + 1/R = s^2 + 1
   and E <= |z| + sqrt(3) <= s + sqrt(3).  Then |E - 2| >= |F| / (E + 2)
   = |H| / (8 R (E + 2)) > (tau - 2e-14)(s^2 + 1) / (E + 2), at least
   5 (tau - 2e-14) / (E + 2); as (s^2 + 1) / (s + sqrt(3) + 2) >= 5 /
   (4 + sqrt(3)), |E - 2| > 8e-10, far outside EPS_ALG.
4. The slack's rounding.  The slack path computes E within ~10 ulps of
   s + E, its z from sqrt(mu) and 1/sqrt(mu) and E by two abs() calls.
   Where E < 2, H < 0 puts R in ANNULUS_CONJECTURED (H is linear in u,
   8 (R^2 - 3R + 1) at u = 1 and 2 (R - 1)^2 at u = -1), so s < sqrt(5),
   the error is below 2e-14, and the slack is below -8e-10 + 2e-14 <
   -EPS_ALG.  Where E > 2, E - 2 > (tau - 2e-14)(s^2 + 1) / (s + 3.8) >=
   0.28 tau (s + 1), far above the error, 20 ulps of s + 1: it passes.
5. The guards.  mu = 0 gives u = 0/0, in the band.  Within EPS_ALG of
   mu = -1, |R - 1| <= 1e-12 and 1 + u <= 1e-24, so |H| < 1e-23 and the
   computed |H| < 1e-12 < M: the band.  Outside it mu is neither.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .certificates import (
    CODE_LAMBDA,
    CODE_NONE,
    LAMBDA_REGION,
    Certificate,
    VERDICT_FAITHFUL,
    VERDICT_NONE,
)
from .lambda_region import lambda_branches
from .mobius import EPS_ALG, InvalidInputError

SQRT3 = math.sqrt(3.0)

# |mu| bands: unfaithful specializations can only occur inside the proved
# annulus; the conjectured annulus is the sharper band.
ANNULUS_PROVED = (3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0))
ANNULUS_CONJECTURED = ((3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0)

#: faithful_mask's band half-width, in units of H's scale 8 (R^2 + 3R + 1):
#: far above H's rounding (1e-14 of the scale) and far enough from H = 0 to
#: hold the row's slack clear of EPS_ALG (module docstring).
_TAU = 1e-9


def faithful_certificate(mu: complex) -> Certificate:
    """Faithfulness certificate for the Burau specialization at mu.

    Faithful iff rho passes the closed LambdaRegion row at (3, 2) -- the
    larger branch has |lambda| >= sqrt(3) -- and mu != -1; boundary
    equality is accepted everywhere except that single point.  The slack
    is the row's rho-plane slack, about (|lambda| - sqrt(3))/sqrt(3) near
    the boundary.  The detail carries z, rho and the lambda branches
    (larger first).
    """
    mu = complex(mu)
    if not cmath.isfinite(mu):
        raise InvalidInputError(f"mu must be finite, got {mu!r}")
    if mu == 0:
        raise InvalidInputError("mu must be nonzero")
    r = cmath.sqrt(mu)
    z = r - 1.0 / r
    rho = SQRT3 + 1j * z
    detail = {"z": z, "lambda_branches": lambda_branches(2.0 * z / SQRT3), "rho": rho}
    slack = LAMBDA_REGION.slack(3, 2, rho)
    # abs() of a complex raises OverflowError past the float maximum; the
    # real-part test first keeps it to mu near -1
    if abs(mu.real + 1.0) <= EPS_ALG and abs(mu + 1.0) <= EPS_ALG:
        detail["exception"] = "mu = -1"
        return Certificate(VERDICT_NONE, None, slack, CODE_NONE, detail)
    if LAMBDA_REGION.passes(slack):
        return Certificate(VERDICT_FAITHFUL, LAMBDA_REGION.witness, slack, CODE_LAMBDA, detail)
    return Certificate(VERDICT_NONE, None, slack, CODE_NONE, detail)


def burau_slack_array(mu: np.ndarray) -> np.ndarray:
    """The LambdaRegion row's slack at (3, 2) on rho(mu) = sqrt(3) + i z,
    over an array of mu; where it passes (and mu != -1) faithfulness is
    certified.  mu = 0 gives NaN, without a warning."""
    mu = np.asarray(mu, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(mu)
        return LAMBDA_REGION.slack(3, 2, SQRT3 + 1j * (r - 1.0 / r))


def _faithful_mask_direct(mu: np.ndarray) -> np.ndarray:
    """The closed faithfulness test from the row's slack array, excluding
    mu = -1 and mu = 0: faithful_mask's path in its band."""
    with np.errstate(invalid="ignore"):
        ok = LAMBDA_REGION.passes(burau_slack_array(mu))
    return ok & (np.abs(mu + 1.0) > EPS_ALG) & (mu != 0)


def faithful_mask(mu: np.ndarray) -> np.ndarray:
    """Vectorized closed faithfulness test, excluding mu = -1 (and mu = 0,
    where the representation is undefined).  Decided by the sign of H
    outside a band of half-width 8 _TAU (R^2 + 3R + 1) around its zero set,
    and inside it by the row's slack array; the module docstring proves
    that both give the same codes."""
    mu = np.asarray(mu, dtype=complex)
    if mu.ndim == 0:
        return faithful_mask(mu[None])[0]
    # H = (5 + 3u)(R^2 + 1) - (14 + 10u) R and its margin, in place
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = np.abs(mu)
        u = mu.real / r
        p = r * r
        p += 1.0
        h = 3.0 * u
        h += 5.0
        h *= p  # (5 + 3u)(R^2 + 1)
        u *= 10.0
        u += 14.0
        u *= r  # (14 + 10u) R
        h -= u
        margin = 3.0 * r
        margin += p
        margin *= 8.0 * _TAU
    ok = h > margin
    clear = np.abs(h, out=h) > margin  # False where H is NaN (mu = 0) or the margin infinite
    if not clear.all():
        band = ~clear
        ok[band] = _faithful_mask_direct(mu[band])
    return ok
