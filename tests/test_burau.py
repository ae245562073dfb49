"""Specialized Burau representation of B_3: faithfulness certificate."""

import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobcert.burau import (
    ANNULUS_CONJECTURED,
    ANNULUS_PROVED,
    burau_generators,
    burau_slack_array,
    faithful_certificate,
    faithful_mask,
    mu_coordinates,
)
from mobcert.certificates import LAMBDA_REGION
from mobcert.lambda_region import lambda_slack, lambda_slack_rho
from mobcert.mobius import EPS_ALG, InvalidInputError, det2, inv2, sigma_pq, tr2
from mobcert.render import scan_csv, scan_pgm
from mobcert.scan import ScanJob, Window, run_scan

SQRT3 = math.sqrt(3.0)
MU_SHARP = (3.0 + math.sqrt(5.0)) / 2.0


def row_slack_of_modulus(r):
    """The (3, 2) rho-plane lambda slack S Q(lam) / |lam| at |lam| = r >= 1:
    S = sqrt(3)/2, Q = r^2 + 1 - 4 r / sqrt(3) (cot(pi/2) = 0)."""
    return SQRT3 / 2.0 * (r - 4.0 / SQRT3 + 1.0 / r)


mu_values = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=30.0, allow_nan=False, allow_infinity=False
)


class TestGenerators:
    @given(mu=mu_values)
    @settings(max_examples=80, deadline=None)
    def test_braid_relation_and_det(self, mu):
        A, B = burau_generators(mu)
        assert abs(det2(A) - 1.0) < 1e-9
        assert abs(det2(B) - 1.0) < 1e-9
        # the defining B_3 relation ABA = BAB survives specialization
        lhs = A @ B @ A
        rhs = B @ A @ B
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(lhs).max())

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            burau_generators(0.0)


    @pytest.mark.parametrize("mu", [complex("nan"), complex("inf"), complex("nan+1j")], ids=["nan", "inf", "nan+1j"])
    def test_rejects_non_finite(self, mu):
        with pytest.raises(InvalidInputError):
            mu_coordinates(mu)
        with pytest.raises(InvalidInputError):
            faithful_certificate(mu)


class TestCoordinates:
    @given(mu=mu_values)
    @settings(max_examples=80, deadline=None)
    def test_gamma_identity(self, mu):
        # tr[A, B] - 2 = -(z^2 + 3) links the braid matrices to the
        # (3, 2) marking with rho = sqrt(3) + i z.
        A, B = burau_generators(mu)
        pt = mu_coordinates(mu)
        gamma = tr2(A @ B @ inv2(A) @ inv2(B)) - 2.0
        assert abs(gamma - (-(pt.z**2 + 3.0))) < 1e-8 * max(1.0, abs(gamma))

    @given(mu=mu_values)
    @settings(max_examples=80, deadline=None)
    def test_z_and_branches(self, mu):
        pt = mu_coordinates(mu)
        r = cmath.sqrt(mu)
        assert abs(pt.z - (r - 1.0 / r)) < 1e-10 * max(1.0, abs(pt.z))
        # sqrt(3) lambda = z +- sqrt(z^2 + 3), branch product -1
        for lam in (pt.lam, pt.lam_other):
            v = SQRT3 * lam
            assert abs(v * v - 2.0 * pt.z * v - 3.0) < 1e-8 * max(1.0, abs(v) ** 2)
        assert abs(pt.lam * pt.lam_other + 1.0) < 1e-9
        assert abs(pt.lam) >= abs(pt.lam_other) - 1e-12
        assert abs(pt.rho - (SQRT3 + 1j * pt.z)) < 1e-12

    def test_rho_of_mu_both_branches_sum_to_sigma(self):
        # the other branch -sqrt(mu) flips z, and gives the symmetry partner
        # of rho under the (3, 2) marking, sigma = 2 sqrt(3)
        mu = 4.0 + 1.0j
        r = -cmath.sqrt(mu)
        rho1 = mu_coordinates(mu).rho
        rho2 = SQRT3 + 1j * (r - 1.0 / r)
        assert abs((rho1 + rho2) - sigma_pq(3, 2)) < 1e-12

    # z = sqrt(mu) - 1/sqrt(mu) squares past the float maximum here
    TINY_MU = [5e-324, 1e-310, -1e-310, 1e-309j]

    @pytest.mark.parametrize("mu", TINY_MU)
    def test_tiny_mu_finite_and_faithful(self, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = mu_coordinates(mu)
            cert = faithful_certificate(mu)
            slack = burau_slack_array(np.array([mu]))[0]
            ok = faithful_mask(np.array([mu]))[0]
        assert all(cmath.isfinite(v) for v in (pt.z, pt.lam, pt.lam_other, pt.rho))
        # sqrt(3) lam = z (1 + sqrt(1 + 3/z^2)), branch product -1
        assert abs(SQRT3 * pt.lam / pt.z - 2.0) < 1e-12
        assert abs(pt.lam * pt.lam_other + 1.0) < 1e-12
        assert cert.verdict == "Faithful" and ok
        assert math.isfinite(cert.slack) and math.isfinite(slack)
        # the rho-plane slack of the (3, 2) lambda row, about |rho| here
        assert math.isclose(slack, cert.slack, rel_tol=1e-12)
        assert math.isclose(slack, row_slack_of_modulus(abs(pt.lam)), rel_tol=1e-12)

    def test_finite_square_keeps_the_direct_formula(self):
        # where w^2 = (2z/sqrt(3))^2 is finite the large branch is the direct
        # root (w +- sqrt(w^2 + 4))/2, bit for bit, and the slack is the
        # LambdaRegion row's on the array rho(mu), bit for bit
        mu = np.array([1e-300, 1e300, 2.0 + 1.0j, -0.5 + 0.2j])
        r = np.sqrt(mu)
        rho = SQRT3 + 1j * (r - 1.0 / r)
        assert (burau_slack_array(mu) == lambda_slack_rho(3, 2, rho)).all()
        for m in mu:
            m = complex(m)
            rs = cmath.sqrt(m)
            w = 2.0 * (rs - 1.0 / rs) / SQRT3
            root = cmath.sqrt(w * w + 4.0)
            pt = mu_coordinates(m)
            assert pt.lam == max((w + root) / 2.0, (w - root) / 2.0, key=abs)
            assert pt.lam_other == -1.0 / pt.lam

    @pytest.mark.parametrize("mu", [1e16j, 1e308])
    def test_small_branch_keeps_its_digits(self, mu):
        # the small branch is -1/lam: a difference of two terms of size |z|
        # would read lam lam' + 1 = -0.40 at 1e16j and a small branch of
        # exactly 0 at 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = mu_coordinates(mu)
        assert abs(pt.lam * pt.lam_other + 1.0) < 1e-15
        w = 2.0 * pt.z / SQRT3
        assert abs(pt.lam + pt.lam_other - w) < 1e-15 * abs(w)
        assert pt.lam_other != 0


class TestFaithfulness:
    def test_sharp_modulus_point(self):
        # mu = (3 + sqrt(5))/2: z = 1 exactly, branches {3, -1}/sqrt(3),
        # slack exactly zero -- certified by the closed inequality.
        pt = mu_coordinates(MU_SHARP)
        assert abs(pt.z - 1.0) < 1e-12
        branch_vals = sorted([SQRT3 * pt.lam, SQRT3 * pt.lam_other], key=lambda v: abs(v))
        assert abs(branch_vals[1] - 3.0) < 1e-9
        assert abs(branch_vals[0] + 1.0) < 1e-9
        cert = faithful_certificate(MU_SHARP)
        assert cert.certified and cert.verdict == "Faithful"
        assert abs(cert.slack) < 1e-9

    def test_minus_one_excluded(self):
        # mu = -1: z = 2i, branches {3i, i}/sqrt(3); modulus reaches the
        # threshold but the point itself is the known unfaithful exception.
        pt = mu_coordinates(-1.0 + 0.0j)
        assert abs(pt.z - 2j) < 1e-12
        vals = sorted([SQRT3 * pt.lam, SQRT3 * pt.lam_other], key=lambda v: abs(v))
        assert abs(vals[1] - 3j) < 1e-9
        assert abs(vals[0] - 1j) < 1e-9
        cert = faithful_certificate(-1.0 + 0.0j)
        assert not cert.certified
        assert cert.detail.get("exception") == "mu = -1"

    def test_reference_values(self):
        assert faithful_certificate(9.0 + 0.0j).certified
        assert faithful_certificate(3.0 + 0.0j).certified
        # branches +-1: |lambda| = sqrt(3) is not reached; slack sqrt(3) - 2
        c1 = faithful_certificate(1.0 + 0.0j)
        assert not c1.certified
        assert math.isclose(c1.slack, SQRT3 - 2.0, rel_tol=1e-15)
        # z = 8/3, |lambda| = (8 + sqrt(91)) / (3 sqrt(3))
        c9 = faithful_certificate(9.0 + 0.0j)
        assert math.isclose(c9.slack, row_slack_of_modulus((8.0 + math.sqrt(91.0)) / (3.0 * SQRT3)), rel_tol=1e-15)
        assert c9.slack > 1.1

    def test_slack_band_is_in_rho_plane_units(self):
        # the closed rule slack >= -EPS_ALG is applied to the rho-plane slack,
        # about (|lambda| - sqrt(3)) / sqrt(3) near the boundary, so it admits
        # |lambda| >= sqrt(3) - 1.7e-12.  Here |lambda| = sqrt(3) - 1.3e-12:
        # Faithful, where the lambda-space rule |lambda| - sqrt(3) >= -EPS_ALG
        # gave NoCertificate
        mu = -0.9848190887401111 + 0.014954296729401247j
        pt = mu_coordinates(mu)
        assert -2e-12 < lambda_slack(3, 2, pt.lam) < -EPS_ALG
        cert = faithful_certificate(mu)
        assert cert.verdict == "Faithful"
        assert -EPS_ALG <= cert.slack < 0.0
        assert math.isclose(cert.slack, lambda_slack(3, 2, pt.lam) / SQRT3, rel_tol=1e-2)
        assert faithful_mask(np.array([mu]))[0]

    @given(mu=mu_values)
    @settings(max_examples=60, deadline=None)
    def test_inversion_invariance(self, mu):
        # the faithful set is invariant under mu -> 1/mu (z flips sign).
        a = faithful_certificate(mu).certified
        b = faithful_certificate(1.0 / mu).certified
        assert a == b


class TestAnnuli:
    def test_constants(self):
        lo, hi = ANNULUS_PROVED
        assert abs(lo - (3.0 - 2.0 * math.sqrt(2.0))) < 1e-12
        assert abs(hi - (3.0 + 2.0 * math.sqrt(2.0))) < 1e-12
        lo_c, hi_c = ANNULUS_CONJECTURED
        assert abs(lo_c - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-12
        assert abs(hi_c - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-12
        assert lo < lo_c < hi_c < hi

    def test_unfaithful_moduli_inside_conjectured_annulus(self):
        # every non-certified mu on a real/imaginary probe grid has modulus
        # within the conjectured annulus (the acceptance test scans 400^2).
        vals = np.concatenate(
            [
                np.linspace(-3.5, 3.5, 141),
                1j * np.linspace(-3.5, 3.5, 141),
                (1 + 1j) * np.linspace(-2.5, 2.5, 101),
            ]
        )
        vals = vals[np.abs(vals) > 1e-9]
        mask = faithful_mask(vals)
        lo_c, hi_c = ANNULUS_CONJECTURED
        bad = vals[~mask]
        bad = bad[np.abs(bad + 1.0) > 1e-9]  # mu = -1 is excluded by fiat
        assert (np.abs(bad) >= lo_c - 1e-9).all()
        assert (np.abs(bad) <= hi_c + 1e-9).all()

    def test_mask_matches_scalar(self):
        # faithful_mask (the burau scan mode) agrees with the scalar
        # certificate, including the excluded point mu = -1 and a finite mu
        # whose modulus passes the float maximum.
        rng = np.random.default_rng(4)
        mu = rng.uniform(-4.0, 4.0, 200) + 1j * rng.uniform(-4.0, 4.0, 200)
        mu = np.append(mu, [-1.0, 1.0, 3.0, 1.7e308 + 1.7e308j])
        mask = faithful_mask(mu)
        for ok, m in zip(mask, mu):
            assert bool(ok) == faithful_certificate(complex(m)).certified

    def test_scalar_and_array_paths_disagree_at_the_boundary(self):
        # faithful_certificate takes the slack from a Python complex and
        # faithful_mask from a numpy array; their last bits differ, and here
        # they straddle the closed rule's threshold -EPS_ALG.  The scalar
        # path says Faithful, the scan says not certified.  Pinned, not
        # tuned away: a Boundary result (ROADMAP item 7) is the fix.
        mu = 2.485424786162156 - 0.7995652751013667j
        cert = faithful_certificate(mu)
        arr = burau_slack_array(np.array([mu]))[0]
        assert cert.verdict == "Faithful"
        assert not faithful_mask(np.array([mu]))[0]
        assert arr < -EPS_ALG <= cert.slack
        assert cert.slack - arr < 1e-15

    def test_slack_array_matches_scalar(self):
        # both are the LambdaRegion row's slack at rho(mu), S Q(lam) / |lam|
        # of the larger branch
        rng = np.random.default_rng(2)
        mu = rng.normal(0, 2, 30) + 1j * rng.normal(0, 2, 30)
        mu = mu[np.abs(mu) > 0.05]
        arr = burau_slack_array(mu)
        for v, m in zip(arr, mu):
            pt = mu_coordinates(complex(m))
            assert abs(v - faithful_certificate(complex(m)).slack) < 1e-14
            assert abs(v - LAMBDA_REGION.slack(3, 2, pt.rho)) < 1e-14
            assert abs(v - row_slack_of_modulus(abs(pt.lam))) < 1e-9

    @pytest.mark.parametrize(
        "window, res, csv_sha, pgm_sha",
        [
            (  # the standard mu window
                (-4.0, 4.0, -4.0, 4.0), 64,
                "9be437aa772bbca3cc667caf03ce08b2fd1e0082d0a16f5356bdc96245710aa3",
                "abba2560041c6afa57d3ec7a7042fd88d59f7e3f6a74eea0b4d22ecf64a4e0f4",
            ),
            (  # tiny mu: z^2 overflows on every pixel
                (-1e-300, 1e-300, -1e-300, 1e-300), 64,
                "ccae8a9a95d139b3a793a4433dcd154c6339210ba98b8e499e4a868901152ca2",
                "e1fb2d3f6d649a3427ca48c47b381c45723b81d80d88bf6157f3d0e2647d3b3c",
            ),
            (  # around mu = -1, a pixel centre on it
                (-1.02, -0.98, -0.02, 0.02), 63,
                "66cb7a8c9e8d2252bc31cb6db271ab1503b5d3e6f7a4aa5c687efc486c7957ac",
                "2cc578dea3fab8f90083d13ecfd2d01c9d0d4750f3bebd4506bf626f5dbb3a32",
            ),
        ],
    )
    def test_burau_scan_digests_pinned(self, window, res, csv_sha, pgm_sha):
        # recorded when the burau scan thresholded sqrt(3)|lambda| - 3
        result = run_scan(ScanJob(3, 3, Window(*window), res, "burau"))
        assert hashlib.sha256(scan_csv(result)).hexdigest() == csv_sha
        assert hashlib.sha256(scan_pgm(result)).hexdigest() == pgm_sha
