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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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
from .mobius import EPS_ALG, InvalidInputError, mat2c

SQRT3 = math.sqrt(3.0)

# |mu| bands: unfaithful specializations can only occur inside the proved
# annulus; the conjectured annulus is the sharper band.
ANNULUS_PROVED = (3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0))
ANNULUS_CONJECTURED = ((3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0)


def _check_mu(mu: complex) -> complex:
    mu = complex(mu)
    if not cmath.isfinite(mu):
        raise InvalidInputError(f"mu must be finite, got {mu!r}")
    if mu == 0:
        raise InvalidInputError("mu must be nonzero")
    return mu


def burau_generators(mu: complex) -> tuple[np.ndarray, np.ndarray]:
    """The normalized (det 1) generator pair (A, B) at t = mu; A B A = B A B
    holds projectively."""
    mu = _check_mu(mu)
    s = cmath.sqrt(-mu)
    A = mat2c(-mu / s, 1.0 / s, 0.0, 1.0 / s)
    B = mat2c(1.0 / s, 0.0, mu / s, -mu / s)
    return A, B


@dataclass(frozen=True)
class BurauPoint:
    """Derived coordinates of a Burau specialization t = mu."""

    mu: complex
    z: complex  # sqrt(mu) - 1/sqrt(mu)
    lam: complex  # lambda branch with |lam| >= 1
    lam_other: complex  # the other branch; product of the two is -1
    rho: complex  # sqrt(3) + i z = i sqrt(mu) + sqrt(3) - i/sqrt(mu)


def mu_coordinates(mu: complex) -> BurauPoint:
    """z, rho and both lambda branches (lam - 1/lam = 2z/sqrt(3))."""
    mu = _check_mu(mu)
    r = cmath.sqrt(mu)
    z = r - 1.0 / r
    lam, lam_other = lambda_branches(2.0 * z / SQRT3)
    return BurauPoint(mu=mu, z=z, lam=lam, lam_other=lam_other, rho=SQRT3 + 1j * z)


def faithful_certificate(mu: complex) -> Certificate:
    """Faithfulness certificate for the Burau specialization at mu.

    Faithful iff rho passes the closed LambdaRegion row at (3, 2) -- the
    larger branch has |lambda| >= sqrt(3) -- and mu != -1; boundary
    equality is accepted everywhere except that single point.  The slack
    is the row's rho-plane slack, about (|lambda| - sqrt(3))/sqrt(3) near
    the boundary.  The detail carries z, rho and the lambda branches
    (larger first).
    """
    pt = mu_coordinates(mu)
    slack = LAMBDA_REGION.slack(3, 2, pt.rho)
    detail = {"z": pt.z, "lambda_branches": (pt.lam, pt.lam_other), "rho": pt.rho}
    # abs() of a complex raises OverflowError past the float maximum; the
    # real-part test first keeps it to mu near -1
    if abs(pt.mu.real + 1.0) <= EPS_ALG and abs(pt.mu + 1.0) <= EPS_ALG:
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


def faithful_mask(mu: np.ndarray) -> np.ndarray:
    """Vectorized closed faithfulness test, excluding mu = -1 (and mu = 0,
    where the representation is undefined)."""
    mu = np.asarray(mu, dtype=complex)
    with np.errstate(invalid="ignore"):
        ok = LAMBDA_REGION.passes(burau_slack_array(mu))
    return ok & (np.abs(mu + 1.0) > EPS_ALG) & (mu != 0)
