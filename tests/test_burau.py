"""Specialized Burau representation of B_3: faithfulness certificate."""

import cmath
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobcert import burau
from mobcert.burau import (
    ANNULUS_CONJECTURED,
    ANNULUS_PROVED,
    burau_slack_array,
    faithful_certificate,
    faithful_mask,
)
from mobcert.certificates import LAMBDA_REGION
from mobcert.lambda_region import lambda_slack, lambda_slack_rho
from mobcert.mobius import EPS_ALG, InvalidInputError, sigma_pq
from mobcert.render import scan_csv, scan_pgm
from mobcert.scan import ScanJob, Window, run_scan
from words import burau_pair, trace_of

SQRT3 = math.sqrt(3.0)
MU_SHARP = (3.0 + math.sqrt(5.0)) / 2.0
# |mu| = 3/2 and cos(arg mu) = -19/21: a non-real point of the certified
# set's boundary H = 0
MU_ON_CURVE = complex(-1.5 * 19.0 / 21.0, 1.5 * math.sqrt(80.0) / 21.0)
# faithful_certificate and faithful_mask straddle the closed rule's
# threshold -EPS_ALG here; mpmath gives E - 2 = -9.9976e-13
MU_DISAGREE = 2.485424786162156 - 0.7995652751013667j


def row_faithful_mask(mu):
    """faithful_mask as it was before it decided mu by the sign of H: the
    row's slack array under the closed rule, less mu = -1 and mu = 0.  The
    reference that the closed form must match on every pixel."""
    mu = np.asarray(mu, dtype=complex)
    with np.errstate(invalid="ignore"):
        ok = LAMBDA_REGION.passes(burau_slack_array(mu))
    return ok & (np.abs(mu + 1.0) > EPS_ALG) & (mu != 0)


def exact_sign_of_h(mu):
    """The exact sign of H = (5 + 3u)(R^2 + 1) - (14 + 10u) R at the float
    mu = x + iy (R = |mu|, u = x / R), in rational arithmetic: sqrt(N) H =
    sqrt(N) A + B with N = x^2 + y^2, A = 5N + 5 - 10x, B = 3xN + 3x - 14N,
    and where A and B have opposite signs, squaring decides."""
    x, y = Fraction(mu.real), Fraction(mu.imag)
    n = x * x + y * y
    a = 5 * n + 5 - 10 * x
    b = 3 * x * n + 3 * x - 14 * n
    if (a >= 0) == (b >= 0) or a == 0 or b == 0:
        total = a + b
    else:
        total = (n * a * a - b * b) * (1 if a > 0 else -1)
    return (total > 0) - (total < 0)


def point_on_curve(t, upper):
    """The point of H = 0 at modulus R = lo + t (hi - lo) of the conjectured
    annulus (lo, hi), above or below the real axis."""
    lo, hi = ANNULUS_CONJECTURED
    r = lo + t * (hi - lo)
    c = min(1.0, max(-1.0, (5.0 * r * r - 14.0 * r + 5.0) / (10.0 * r - 3.0 * r * r - 3.0)))
    return complex(r * c, r * math.sqrt(1.0 - c * c) * (1.0 if upper else -1.0))


def _zoom(centre, half_width):
    """The window of the given half-width around centre."""
    c = complex(centre)
    return (c.real - half_width, c.real + half_width, c.imag - half_width, c.imag + half_width)


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
        A, B = burau_pair(mu)
        assert abs(np.linalg.det(A) - 1.0) < 1e-9
        assert abs(np.linalg.det(B) - 1.0) < 1e-9
        # the defining B_3 relation ABA = BAB survives specialization
        lhs = A @ B @ A
        rhs = B @ A @ B
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(lhs).max())

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError, match="^mu must be nonzero$"):
            faithful_certificate(0.0)

    @pytest.mark.parametrize("mu", [complex("nan"), complex("inf"), complex("nan+1j")], ids=["nan", "inf", "nan+1j"])
    def test_rejects_non_finite(self, mu):
        with pytest.raises(InvalidInputError):
            faithful_certificate(mu)


class TestCoordinates:
    @given(mu=mu_values)
    @settings(max_examples=80, deadline=None)
    def test_gamma_identity(self, mu):
        # tr[A, B] - 2 = -(z^2 + 3) links the braid matrices to the
        # (3, 2) marking with rho = sqrt(3) + i z.
        z = faithful_certificate(mu).detail["z"]
        gamma = trace_of(*burau_pair(mu), "ABab") - 2.0
        assert abs(gamma - (-(z**2 + 3.0))) < 1e-8 * max(1.0, abs(gamma))

    @given(mu=mu_values)
    @settings(max_examples=80, deadline=None)
    def test_z_and_branches(self, mu):
        d = faithful_certificate(mu).detail
        z, (lam, lam_other) = d["z"], d["lambda_branches"]
        r = cmath.sqrt(mu)
        assert abs(z - (r - 1.0 / r)) < 1e-10 * max(1.0, abs(z))
        # sqrt(3) lambda = z +- sqrt(z^2 + 3), branch product -1
        for branch in (lam, lam_other):
            v = SQRT3 * branch
            assert abs(v * v - 2.0 * z * v - 3.0) < 1e-8 * max(1.0, abs(v) ** 2)
        assert abs(lam * lam_other + 1.0) < 1e-9
        assert abs(lam) >= abs(lam_other) - 1e-12
        assert abs(d["rho"] - (SQRT3 + 1j * z)) < 1e-12

    def test_rho_of_mu_both_branches_sum_to_sigma(self):
        # the other branch -sqrt(mu) flips z, and gives the symmetry partner
        # of rho under the (3, 2) marking, sigma = 2 sqrt(3)
        mu = 4.0 + 1.0j
        r = -cmath.sqrt(mu)
        rho1 = faithful_certificate(mu).detail["rho"]
        rho2 = SQRT3 + 1j * (r - 1.0 / r)
        assert abs((rho1 + rho2) - sigma_pq(3, 2)) < 1e-12

    # z = sqrt(mu) - 1/sqrt(mu) squares past the float maximum here
    TINY_MU = [5e-324, 1e-310, -1e-310, 1e-309j]

    @pytest.mark.parametrize("mu", TINY_MU)
    def test_tiny_mu_finite_and_faithful(self, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = faithful_certificate(mu)
            slack = burau_slack_array(np.array([mu]))[0]
            ok = faithful_mask(np.array([mu]))[0]
        z, (lam, lam_other), rho = cert.detail["z"], cert.detail["lambda_branches"], cert.detail["rho"]
        assert all(cmath.isfinite(v) for v in (z, lam, lam_other, rho))
        # sqrt(3) lam = z (1 + sqrt(1 + 3/z^2)), branch product -1
        assert abs(SQRT3 * lam / z - 2.0) < 1e-12
        assert abs(lam * lam_other + 1.0) < 1e-12
        assert cert.verdict == "Faithful" and ok
        assert math.isfinite(cert.slack) and math.isfinite(slack)
        # the rho-plane slack of the (3, 2) lambda row, about |rho| here
        assert math.isclose(slack, cert.slack, rel_tol=1e-12)
        assert math.isclose(slack, row_slack_of_modulus(abs(lam)), rel_tol=1e-12)

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
            lam, lam_other = faithful_certificate(m).detail["lambda_branches"]
            assert lam == max((w + root) / 2.0, (w - root) / 2.0, key=abs)
            assert lam_other == -1.0 / lam

    @pytest.mark.parametrize("mu", [1e16j, 1e308])
    def test_small_branch_keeps_its_digits(self, mu):
        # the small branch is -1/lam: a difference of two terms of size |z|
        # would read lam lam' + 1 = -0.40 at 1e16j and a small branch of
        # exactly 0 at 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = faithful_certificate(mu).detail
        lam, lam_other = d["lambda_branches"]
        assert abs(lam * lam_other + 1.0) < 1e-15
        w = 2.0 * d["z"] / SQRT3
        assert abs(lam + lam_other - w) < 1e-15 * abs(w)
        assert lam_other != 0


class TestFaithfulness:
    def test_sharp_modulus_point(self):
        # mu = (3 + sqrt(5))/2: z = 1 exactly, branches {3, -1}/sqrt(3),
        # slack exactly zero -- certified by the closed inequality.
        d = faithful_certificate(MU_SHARP).detail
        assert abs(d["z"] - 1.0) < 1e-12
        branch_vals = sorted([SQRT3 * lam for lam in d["lambda_branches"]], key=lambda v: abs(v))
        assert abs(branch_vals[1] - 3.0) < 1e-9
        assert abs(branch_vals[0] + 1.0) < 1e-9
        cert = faithful_certificate(MU_SHARP)
        assert cert.certified and cert.verdict == "Faithful"
        assert abs(cert.slack) < 1e-9

    def test_minus_one_excluded(self):
        # mu = -1: z = 2i, branches {3i, i}/sqrt(3); modulus reaches the
        # threshold but the point itself is the known unfaithful exception.
        d = faithful_certificate(-1.0 + 0.0j).detail
        assert abs(d["z"] - 2j) < 1e-12
        vals = sorted([SQRT3 * lam for lam in d["lambda_branches"]], key=lambda v: abs(v))
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
        cert = faithful_certificate(mu)
        lam = cert.detail["lambda_branches"][0]
        assert -2e-12 < lambda_slack(3, 2, lam) < -EPS_ALG
        assert cert.verdict == "Faithful"
        assert -EPS_ALG <= cert.slack < 0.0
        assert math.isclose(cert.slack, lambda_slack(3, 2, lam) / SQRT3, rel_tol=1e-2)
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
        mu = MU_DISAGREE
        cert = faithful_certificate(mu)
        arr = burau_slack_array(np.array([mu]))[0]
        assert cert.verdict == "Faithful"
        assert not faithful_mask(np.array([mu]))[0]
        assert arr < -EPS_ALG <= cert.slack
        assert cert.slack - arr < 1e-15
        # exactly, H < 0 at the float mu, so E < 2: the scan is right and
        # the scalar path's Faithful is a false positive of the -EPS_ALG band
        assert exact_sign_of_h(mu) == -1

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 18: the closed rule slack >= -EPS_ALG certifies inside the band",
    )
    def test_no_certificate_where_h_is_negative(self):
        # E - 2 = -9.9976e-13 at this mu, yet the scalar slack -9.9988e-13
        # passes the closed rule
        assert exact_sign_of_h(MU_DISAGREE) == -1
        assert faithful_certificate(MU_DISAGREE).verdict == "NoCertificate"

    def test_exact_sign_of_h(self):
        # the oracle on points of known sign: H = 2 (R - 1)^2 >= 0 on the
        # negative axis, 0 at mu = -1, 8 (R^2 - 3R + 1) on the positive one
        assert exact_sign_of_h(-1.0 + 0.0j) == 0
        assert exact_sign_of_h(-2.0 + 0.0j) == 1
        assert exact_sign_of_h(1.0 + 0.0j) == -1
        assert exact_sign_of_h(3.0 + 0.0j) == 1
        assert exact_sign_of_h(complex(MU_SHARP)) == 1  # MU_SHARP rounds up
        assert exact_sign_of_h(complex(math.nextafter(MU_SHARP, 0.0))) == -1

    def test_slack_array_matches_scalar(self):
        # both are the LambdaRegion row's slack at rho(mu), S Q(lam) / |lam|
        # of the larger branch
        rng = np.random.default_rng(2)
        mu = rng.normal(0, 2, 30) + 1j * rng.normal(0, 2, 30)
        mu = mu[np.abs(mu) > 0.05]
        arr = burau_slack_array(mu)
        for v, m in zip(arr, mu):
            cert = faithful_certificate(complex(m))
            assert abs(v - cert.slack) < 1e-14
            assert abs(v - LAMBDA_REGION.slack(3, 2, cert.detail["rho"])) < 1e-14
            assert abs(v - row_slack_of_modulus(abs(cert.detail["lambda_branches"][0]))) < 1e-9

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
            (  # the benchmark's mu window and resolution
                (-4.0, 4.0, -4.0, 4.0), 256,
                "417c50b4341bb21f5007a483c6000f73a32ed6f7dffe13f9d848632d8ce0d6ab",
                "a77a380b0157113faf342e0660e96d7b021e207dba302d3aafec31b5d82f44f1",
            ),
            # zooms on the boundary |lambda| = sqrt(3): at mu = (3 + sqrt(5))/2,
            # at mu = -1 (the last one lies inside the mu = -1 exclusion) and at
            # a non-real point of the curve
            (
                _zoom(MU_SHARP, 1e-6), 63,
                "682f05f5d7ce75a14b5e48af5d972059b667f588ba84f167bde17cf5cf813622",
                "b2362fa5c44a44e155795a1c39548bb6cccdd4d067512acdecbcffe26916272d",
            ),
            (
                _zoom(MU_SHARP, 1e-10), 63,
                "e66c07222feb950a1bd51bea0b23a0563b00be883536aa2baae6e28e92c858d3",
                "f1e620ce516d35933c385d0e3a2d956f2011a783d573438cde0a3d2cb7b7d92f",
            ),
            (
                _zoom(MU_SHARP, 1e-13), 63,
                "70f96ae99cc684245b0a084122f064e5e0783ab6c90c1a548745d4df841918db",
                "c2c32894f10e0f5b1ab73188684184de8ca3a55e4b20ab5b14e718d195df9877",
            ),
            (
                _zoom(-1.0, 1e-6), 63,
                "22880c50bb89f7bff37450e94b6ad1275d39afce7364bc69fccd08d71186e62f",
                "bcf082f20a712a06ea8bcd4bd90bc10918d8f7e908a5d83ea7563a9d125a5fa2",
            ),
            (
                _zoom(-1.0, 1e-10), 63,
                "4facfad4108e3447a6829b6b2a72655a3030d3c726eefda358917dd65de3ca3b",
                "bcf082f20a712a06ea8bcd4bd90bc10918d8f7e908a5d83ea7563a9d125a5fa2",
            ),
            (
                _zoom(-1.0, 1e-13), 63,
                "7fbcaf122dfa5882108044eebc23e07e8c718188e52fce0370ed6b57bcec6e64",
                "b6c4c3f5409dcb131b4295adab1057780abbc7aa2dfd4013fa864627ea449e88",
            ),
            (
                _zoom(MU_ON_CURVE, 1e-6), 63,
                "06027f593dce94f4c10d8cf6d18096e7e9628786e6cfe31c1c3c73bad0b6cc51",
                "c436c38912fc40c78129466786ed273ae3809e2c46df13c5c65cb88285a7868b",
            ),
            (
                _zoom(MU_ON_CURVE, 1e-10), 63,
                "ebe3e25b077c803b7da63030d1c481c29cb96940c42b93a9796a7f64af61922b",
                "a447bfd9e78ddedde84685544823fe5b0be22313d4782951fb4c0f85fa7f0ecf",
            ),
            (
                _zoom(MU_ON_CURVE, 1e-13), 63,
                "46e33f647bea832e2e2e13540839f29754cbd5f578652410dde252090d295e1e",
                "c2c32894f10e0f5b1ab73188684184de8ca3a55e4b20ab5b14e718d195df9877",
            ),
            (  # a window at scale 1e200: |mu|^2 overflows on every pixel
                (-1e200, 3e200, -2e200, 2e200), 64,
                "4f0ab8fe80b9310e452fb4f055c2f8f3f78dfe37eb07e6bb40ebdd13db9b98a4",
                "e1fb2d3f6d649a3427ca48c47b381c45723b81d80d88bf6157f3d0e2647d3b3c",
            ),
        ],
    )
    def test_burau_scan_digests_pinned(self, window, res, csv_sha, pgm_sha):
        # the first three were recorded when the burau scan thresholded
        # sqrt(3)|lambda| - 3, the others from the slack array path before the
        # scan decided mu by the sign of H
        result = run_scan(ScanJob(3, 3, Window(*window), res, "burau"))
        assert hashlib.sha256(scan_csv(result)).hexdigest() == csv_sha
        assert hashlib.sha256(scan_pgm(result)).hexdigest() == pgm_sha


class TestClosedForm:
    """faithful_mask decides mu by the sign of H, and runs the row's slack
    array only in a thin band around H = 0."""

    def test_h_is_8_r_times_the_ellipse_test(self):
        # H = 8 R ((Re z)^2 + (Im z)^2 / 4 - 1), whose sign is that of the
        # row's slack E - 2
        rng = np.random.default_rng(6)
        mu = rng.uniform(-4.0, 4.0, 500) + 1j * rng.uniform(-4.0, 4.0, 500)
        r, u = np.abs(mu), mu.real / np.abs(mu)
        h = (5.0 + 3.0 * u) * (r * r + 1.0) - (14.0 + 10.0 * u) * r
        root = np.sqrt(mu)
        z = root - 1.0 / root
        assert np.allclose(h, 8.0 * r * (z.real**2 + z.imag**2 / 4.0 - 1.0), rtol=0.0, atol=1e-12)
        slack = burau_slack_array(mu)
        clear = np.abs(slack) > 1e-12
        assert (np.sign(h[clear]) == np.sign(slack[clear])).all()

    @given(
        centre=st.one_of(
            st.sampled_from([-1.0, 0.0, MU_SHARP, 1.0 / MU_SHARP]).map(complex),
            st.builds(point_on_curve, st.floats(0.0, 1.0), st.booleans()),
            st.builds(complex, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
        ),
        log_half_width=st.floats(-14.0, 300.0),
        res=st.integers(2, 64),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mask_matches_the_row_path(self, centre, log_half_width, res):
        window = Window(*_zoom(centre, 10.0**log_half_width))
        job = ScanJob(3, 3, window, res, "burau")
        mu = job.xs()[None, :] + 1j * job.ys()[:, None]
        assert (faithful_mask(mu) == row_faithful_mask(mu)).all()
        assert (run_scan(job).codes == 4 * row_faithful_mask(mu)).all()

    def test_band_alone_runs_the_row(self, monkeypatch):
        sizes = []

        def counted(mu):
            sizes.append(np.size(mu))
            return burau_slack_array(mu)

        monkeypatch.setattr(burau, "burau_slack_array", counted)
        # clear of H = 0 (|mu| > (3 + sqrt(5))/2 throughout), and the
        # benchmark window, which H = 0 crosses between pixel centres
        for window, res in [((3.0, 5.0, -1.0, 1.0), 64), ((-4.0, 4.0, -4.0, 4.0), 256)]:
            run_scan(ScanJob(3, 3, Window(*window), res, "burau"))
        assert sizes == []
        # the centre pixel is mu = -1 exactly, on the double point of H = 0
        result = run_scan(ScanJob(3, 3, Window(-1.5, -0.5, -0.5, 0.5), 3, "burau"))
        assert sizes == [1]
        assert result.codes[1, 1] == 0  # mu = -1 is excluded

    def test_guards_and_non_finite_h(self):
        # mu = 0 (H is NaN) and |mu|^2 overflowing go through the row, as do
        # a NaN mu and a 0-d array
        mu = np.array([0.0, -1.0, 1.7e308 + 1.7e308j, 1e200j, complex("nan"), 1e-320])
        assert faithful_mask(mu).tolist() == row_faithful_mask(mu).tolist()
        assert faithful_mask(mu).tolist() == [False, False, True, True, False, True]
        assert faithful_mask(np.asarray(9.0 + 0.0j)) == np.True_
        assert faithful_mask(np.asarray(1.0 + 0.0j)) == np.False_
