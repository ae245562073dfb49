"""Faithfulness certificates for specialized Burau representations of B_3.

The reduced Burau representation at t = mu sends the braid generators to
(after dividing by sqrt(-mu) to reach det 1)

    A = (1/sqrt(-mu)) [[-mu, 1], [0, 1]],
    B = (1/sqrt(-mu)) [[1, 0], [mu, -mu]],

a conjugate pair with the braid relation A B A = B A B.  Writing
z = sqrt(mu) - 1/sqrt(mu), the pair carries the lambda branches
sqrt(3) lambda = z +- sqrt(z^2 + 3) (branch product -1) of a (3, 2)
marked pair, and the parameter rho = sqrt(3) + i z.  The representation
is certified faithful when the larger branch satisfies the closed (3, 2)
lambda inequality |lambda| >= sqrt(3) -- equivalently |z +- sqrt(z^2+3)|
reaches 3 -- except at the single boundary point mu = -1, the known
unfaithful specialization.

Where z^2 overflows (|mu| below ~1e-308) the large branch is taken
without squaring z, so a tiny mu gets a finite branch and slack.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .certificates import (
    CODE_LAMBDA,
    CODE_NONE,
    Certificate,
    VERDICT_FAITHFUL,
    VERDICT_NONE,
)
from .lambda_region import lambda_slack
from .mobius import EPS_ALG, InvalidInputError, mat2c

SQRT3 = math.sqrt(3.0)

# |mu| bands: unfaithful specializations can only occur inside the proved
# annulus; the conjectured annulus is the sharper band.
ANNULUS_PROVED = (3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0))
ANNULUS_CONJECTURED = ((3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0)


@dataclass(frozen=True)
class BurauGenerators:
    """Normalized (det 1) images of the two braid generators."""

    A: np.ndarray
    B: np.ndarray


def _check_mu(mu: complex) -> complex:
    mu = complex(mu)
    if not cmath.isfinite(mu):
        raise InvalidInputError(f"mu must be finite, got {mu!r}")
    if mu == 0:
        raise InvalidInputError("mu must be nonzero")
    return mu


def burau_generators(mu: complex) -> BurauGenerators:
    """The generator pair at t = mu; A B A = B A B holds projectively."""
    mu = _check_mu(mu)
    s = cmath.sqrt(-mu)
    A = mat2c(-mu / s, 1.0 / s, 0.0, 1.0 / s)
    B = mat2c(1.0 / s, 0.0, mu / s, -mu / s)
    return BurauGenerators(A, B)


@dataclass(frozen=True)
class BurauPoint:
    """Derived coordinates of a Burau specialization t = mu."""

    mu: complex
    z: complex  # sqrt(mu) - 1/sqrt(mu)
    lam: complex  # lambda branch with |lam| >= 1
    lam_other: complex  # the other branch; product of the two is -1
    rho: complex  # sqrt(3) + i z = i sqrt(mu) + sqrt(3) - i/sqrt(mu)


def _big_root(z, sqrt):
    """The larger root z +- sqrt(z^2 + 3) as z (1 + sqrt(1 + 3/z^2)), with z unsquared."""
    v = SQRT3 / z
    return z * (1.0 + sqrt(1.0 + v * v))


def mu_coordinates(mu: complex) -> BurauPoint:
    """z, both lambda branches (sqrt(3) lam = z +- sqrt(z^2+3)) and rho."""
    mu = _check_mu(mu)
    r = cmath.sqrt(mu)
    z = r - 1.0 / r
    zz = z * z
    if cmath.isfinite(zz):
        root = cmath.sqrt(zz + 3.0)
        b1 = (z + root) / SQRT3
        b2 = (z - root) / SQRT3
        if abs(b1) < abs(b2):
            b1, b2 = b2, b1
    else:
        b1 = _big_root(z, cmath.sqrt) / SQRT3
        b2 = -1.0 / b1
    return BurauPoint(mu=mu, z=z, lam=b1, lam_other=b2, rho=SQRT3 + 1j * z)


def faithful_certificate(mu: complex) -> Certificate:
    """Faithfulness certificate for the Burau specialization at mu.

    Faithful iff the larger branch reaches |z + sqrt(z^2+3)| >= 3 -- the
    closed (3, 2) lambda inequality |lambda| >= sqrt(3) -- and mu != -1;
    boundary equality is accepted everywhere except that single point.
    The detail carries z, rho and the lambda branches (larger first).
    """
    pt = mu_coordinates(mu)
    slack = lambda_slack(3, 2, pt.lam)
    detail = {"z": pt.z, "lambda_branches": (pt.lam, pt.lam_other), "rho": pt.rho}
    if abs(pt.mu + 1.0) <= EPS_ALG:
        detail["exception"] = "mu = -1"
        return Certificate(VERDICT_NONE, None, slack, CODE_NONE, detail)
    if slack >= -EPS_ALG:
        return Certificate(VERDICT_FAITHFUL, "LambdaRegion", slack, CODE_LAMBDA, detail)
    return Certificate(VERDICT_NONE, None, slack, CODE_NONE, detail)


@dataclass(frozen=True)
class AnnulusReport:
    """Where |mu| sits relative to the proved and conjectured annuli.

    Outside an annulus means faithful according to that source; the
    certificate region must cover the whole complement of the conjectured
    annulus (the strengthened form of the conjecture).
    """

    mu: complex
    abs_mu: float
    in_proved_annulus: bool
    in_conjectured_annulus: bool
    certified_faithful: bool
    slack: float
    verdict: str


def annulus_report(mu: complex) -> AnnulusReport:
    mu = _check_mu(mu)
    r = abs(mu)
    cert = faithful_certificate(mu)
    return AnnulusReport(
        mu=mu,
        abs_mu=r,
        in_proved_annulus=ANNULUS_PROVED[0] <= r <= ANNULUS_PROVED[1],
        in_conjectured_annulus=ANNULUS_CONJECTURED[0] <= r <= ANNULUS_CONJECTURED[1],
        certified_faithful=cert.certified,
        slack=cert.slack,
        verdict=cert.verdict,
    )


def burau_slack_array(mu: np.ndarray) -> np.ndarray:
    """Vectorized faithfulness slack max|z +- sqrt(z^2+3)| - 3.

    Equals sqrt(3) times the (3, 2) lambda slack of the larger branch;
    nonnegative (and mu != -1) certifies faithfulness.
    """
    mu = np.asarray(mu, dtype=complex)
    r = np.sqrt(mu)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = r - 1.0 / r
        zz = z * z
        root = np.sqrt(zz + 3.0)
        big = np.maximum(np.abs(z + root), np.abs(z - root))
        far = ~np.isfinite(zz)
        if far.any():
            big[far] = np.abs(_big_root(z[far], np.sqrt))
    return big - 3.0


def faithful_mask(mu: np.ndarray) -> np.ndarray:
    """Vectorized closed faithfulness test, excluding mu = -1 (and mu = 0,
    where the representation is undefined)."""
    mu = np.asarray(mu, dtype=complex)
    with np.errstate(invalid="ignore"):
        ok = burau_slack_array(mu) >= -EPS_ALG * SQRT3
    return ok & (np.abs(mu + 1.0) > EPS_ALG) & (mu != 0)
