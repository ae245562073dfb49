"""Certificates: disk tests, line families, lambda, combined cascade."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobcert.certificates import (
    CODE_DISKS_ELLIPTIC,
    CODE_DISKS_GENERAL,
    CODE_IM_BOUND,
    CODE_LAMBDA,
    CODE_LINE_FAMILY,
    WITNESS_OF_CODE,
    anchor_search,
    anchor_search_bulk,
    anchor_slack,
    canonical_anchors,
    cert_combined,
    cert_disks_elliptic,
    cert_disks_general,
    cert_general_ray,
    cert_im_bound,
    cert_lambda,
    cert_line_family,
    combined_codes_array,
    disk_centers_elliptic,
    disk_slack,
    disk_slack_array,
    lambda_feasible,
    line_distance,
)
from mobcert.lambda_region import LambdaParams
from mobcert.mobius import (
    EPS_ALG,
    GroupSpec,
    InvalidInputError,
    PreconditionError,
    SharedFixedPointError,
    make_generators,
    sigma_pq,
)
from mobcert.omega import build_omega, omega_margin, rho_star

RNG = np.random.default_rng(20260814)


class TestDiskFamily:
    def test_centers_closed_under_symmetries(self):
        # The four-center set is closed under conjugation and z -> sigma - z.
        for p, q in [(3, 3), (3, 7), (4, 5), (2, 5)]:
            centers = disk_centers_elliptic(p, q)
            sigma = sigma_pq(p, q)
            for c in centers:
                assert min(abs(c.conjugate() - d) for d in centers) < 1e-12
                assert min(abs((sigma - c) - d) for d in centers) < 1e-12

    def test_rho_zero_and_sigma_covered(self):
        # rho = 0 and rho = sigma are reducible pairs: the disk union must
        # contain them (slack <= 0), and symmetry gives them equal slack.
        for p, q in [(3, 3), (3, 7), (5, 4)]:
            s0 = disk_slack(p, q, 0.0)
            ss = disk_slack(p, q, sigma_pq(p, q))
            assert s0 < -EPS_ALG
            assert abs(s0 - ss) < 1e-12
        # for p = q they sit exactly on the boundary circle of one disk
        for p in (3, 4, 7):
            centers = disk_centers_elliptic(p, p)
            sigma = sigma_pq(p, p)
            assert min(abs(abs(0.0 - c) - 2.0) for c in centers) < 1e-12
            assert min(abs(abs(sigma - c) - 2.0) for c in centers) < 1e-12

    def test_slack_array_matches_scalar(self):
        rho = RNG.uniform(-6.0, 12.0, 600) + 1j * RNG.uniform(-6.0, 6.0, 600)
        arr = disk_slack_array(3, 4, rho)
        assert arr.shape == rho.shape
        want = np.array([disk_slack(3, 4, complex(z)) for z in rho[:50]])
        assert np.abs(arr[:50] - want).max() < 1e-12

    def test_slack_array_infinite_q(self):
        rho = RNG.uniform(-6.0, 12.0, 100) + 1j * RNG.uniform(-6.0, 6.0, 100)
        arr = disk_slack_array(3, math.inf, rho)
        want = np.array([disk_slack(3, math.inf, complex(z)) for z in rho])
        assert np.abs(arr - want).max() < 1e-12

    def test_strictness(self):
        spec = GroupSpec(3, 3, 6.0 + 0.0j)
        cert = cert_disks_elliptic(spec)
        assert cert.certified and cert.witness == "DisksElliptic"
        assert abs(cert.slack - 2.0) < 1e-12
        # boundary point: strict test must refuse
        boundary = GroupSpec(3, 3, 4.0 + 0.0j)
        assert not cert_disks_elliptic(boundary).certified

    def test_needs_order_three(self):
        with pytest.raises(PreconditionError):
            cert_disks_elliptic(GroupSpec(2, 5, 6.0))


class TestDisksGeneral:
    def test_matches_swapped_elliptic_family(self):
        # Key identity: the general disk test applied to B of the (p, q)
        # marking is the elliptic disk test of the swapped marking (q, p).
        for _ in range(40):
            p, q = (int(v) for v in RNG.integers(2, 10, 2))
            if p == 2 and q == 2:
                continue
            rho = complex(*RNG.normal(0, 3, 2))
            if abs(rho) < 0.2 or abs(rho - sigma_pq(p, q)) < 0.2:
                continue
            _, B = make_generators(GroupSpec(p, q, rho))
            try:
                cert = cert_disks_general(p, B)
            except PreconditionError:
                continue  # disks outside the sector: identity not applicable
            assert abs(cert.slack - disk_slack(q, p, rho)) < 1e-10

    def test_shared_fixed_point_detection(self):
        # rho = sigma makes B share a fixed point with A (quartic root).
        p, q = 3, 4
        sigma = sigma_pq(p, q)
        _, B = make_generators(GroupSpec(p, q, complex(sigma)))
        with pytest.raises(SharedFixedPointError):
            cert_disks_general(p, B)

    def test_upper_triangular_shares_infinity(self):
        Y = np.array([[2.0, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(SharedFixedPointError):
            cert_disks_general(3, Y)

    def test_det_check(self):
        Y = np.array([[2.0, 0.0], [1.0, 2.0]], dtype=complex)
        with pytest.raises(InvalidInputError):
            cert_disks_general(3, Y)

    def test_order_two_allowed(self):
        # unlike the elliptic shortcut, the general test accepts p = 2
        _, B = make_generators(GroupSpec(2, 5, 7.0 + 0.5j))
        cert = cert_disks_general(2, B)
        assert cert.certified


class TestLineFamily:
    def test_anchor_must_be_strict(self):
        spec = GroupSpec(3, 3, 4.0)
        with pytest.raises(PreconditionError):
            cert_line_family(spec, rho_star(3, 3))  # anchor slack is exactly 0
        with pytest.raises(InvalidInputError):
            cert_line_family(spec, 0.0)

    def test_certifies_points_on_line(self):
        anchor = 7.0 + 0.3j  # far outside all disks
        for t in (-3.0, -0.5, 0.0, 0.7, 12.0):
            rho = anchor * (1.0 + 1j * t)
            cert = cert_line_family(GroupSpec(3, 4, rho), anchor)
            assert cert.certified and cert.witness == "LineFamily"
            assert abs(cert.slack - disk_slack(3, 4, anchor)) < 1e-12
        off = anchor * (1.01 + 0.5j)  # radial offset leaves the line
        assert not cert_line_family(GroupSpec(3, 4, off), anchor).certified

    def test_line_distance(self):
        anchor = 2.0 + 1.0j
        assert line_distance(anchor * (1.0 + 3.0j), anchor) < 1e-12
        # distance is measured transversally in units of |anchor|
        d = line_distance(anchor * (1.1 + 3.0j), anchor)
        assert abs(d - 0.1 * abs(anchor)) < 1e-12


class TestGeneralRay:
    def test_reduces_to_marked_line(self):
        # For Y = B_rho the recovered rho_0 is rho itself and the ray is
        # rho (1 + i t) -- the marked line family.
        p, q = 3, 4
        rho = 7.0 + 0.4j
        _, B = make_generators(GroupSpec(p, q, rho))
        for t in (0.0, 0.8, -2.0):
            cert = cert_general_ray(p, q, B, t)
            assert cert.certified
            assert abs(cert.detail["rho0"] - rho) < 1e-9
            assert abs(cert.detail["rho_t"] - rho * (1.0 + 1j * t)) < 1e-8

    def test_requires_certified_base(self):
        _, B = make_generators(GroupSpec(3, 4, 1.5 + 0.2j))  # deep inside disks
        with pytest.raises(PreconditionError):
            cert_general_ray(3, 4, B, 1.0)


class TestImBound:
    def test_closed_at_boundary(self):
        from mobcert.omega import im_bound

        b = im_bound(3, 3)
        assert cert_im_bound(GroupSpec(3, 3, 1.5 + 1j * b)).certified
        assert cert_im_bound(GroupSpec(3, 3, 1.5 - 1j * b)).certified
        assert not cert_im_bound(GroupSpec(3, 3, 1.5 + 1j * (b - 1e-6))).certified

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            cert_im_bound(GroupSpec(2, 5, 3.0 + 2.0j))
        with pytest.raises(PreconditionError):
            cert_im_bound(GroupSpec(math.inf, 5, 3.0 + 2.0j))


class TestLambdaCert:
    def test_feasible_region_boundary(self):
        cert = lambda_feasible(LambdaParams(3, 3, 3.0))
        assert cert.certified and abs(cert.slack) < 1e-12
        assert not lambda_feasible(LambdaParams(3, 3, 2.9)).certified

    def test_cert_lambda_branches_detail(self):
        spec = GroupSpec(3, 3, -1.0 + 0.0j)
        cert = cert_lambda(spec)
        assert cert.certified
        big, small = cert.detail["lambda_branches"]
        assert abs(big - 3.0) < 1e-9
        assert abs(big * small + 1.0) < 1e-12


class TestAnchorSearch:
    def test_finds_line_through_far_point(self):
        spec = GroupSpec(3, 3, 9.0 + 0.1j)
        cert = anchor_search(spec)
        assert cert.certified
        a = cert.detail["anchor"]
        w = cert.detail["symmetry_image"]
        assert line_distance(w, a) < 1e-6 * abs(w)

    def test_no_false_positive_at_degenerate_points(self):
        # rho = 0 and rho = sigma are reducible/shared-fixed-point markings;
        # the anchor circle stays inside the closed disk union, so the
        # search must not report a strictly certified line.
        for p, q in [(3, 3), (3, 5), (4, 7)]:
            sigma = sigma_pq(p, q)
            slack, _, _ = anchor_search_bulk(p, q, np.array([0.0 + 0.0j, sigma + 0.0j]))
            assert (slack <= EPS_ALG).all()

    def test_bulk_matches_scalar(self):
        rho = np.array([9.0 + 0.1j, 3.9 + 0.05j, 1.5 + 0.4j])
        slack, anchor, w = anchor_search_bulk(3, 3, rho)
        for k, z in enumerate(rho):
            cert = anchor_search(GroupSpec(3, 3, complex(z)))
            assert abs(cert.slack - slack[k]) < 1e-9

    def test_order_two_families_excluded(self):
        # A disk family only anchors lines when its A-order is >= 3; with
        # p = q = 2 there is no family at all, and with a single order 2
        # only the other marking's family may certify.
        with pytest.raises(PreconditionError):
            anchor_slack(2, 2, 5.0)
        with pytest.raises(PreconditionError):
            anchor_search_bulk(2, 2, np.array([9.0 + 0.0j]))
        s25, fam25 = anchor_slack(2, 5, 5.0)
        s52, fam52 = anchor_slack(5, 2, 5.0)
        assert fam25 == "swapped" and fam52 == "elliptic"
        assert abs(s25 - s52) < 1e-12
        cert = anchor_search(GroupSpec(2, 5, 9.0 + 0.1j))
        assert cert.certified and cert.detail["family"] == "swapped"


class TestCanonicalAnchors:
    def test_count_and_membership(self):
        a33 = canonical_anchors(3, 3)
        assert len(a33) == 4
        a34 = canonical_anchors(3, 4)
        assert len(a34) == 8
        rs = rho_star(3, 4)
        assert any(abs(a - rs) < 1e-12 for a in a34)
        assert any(abs(a - rs.conjugate()) < 1e-12 for a in a34)
        sigma = sigma_pq(3, 4)
        assert any(abs(a - (sigma - rs)) < 1e-12 for a in a34)

    def test_never_certify_a_line(self):
        # cert_combined does not try the canonical anchors: none of them
        # passes the strict disk test under either marking, so no line
        # through one is ever certified.  Orders 2 and inf have none.
        orders = list(range(3, 41)) + [100, 1000, 10**6]
        worst = -math.inf
        for p in orders:
            for q in orders:
                for a in canonical_anchors(p, q):
                    worst = max(worst, anchor_slack(p, q, a)[0])
        assert worst <= EPS_ALG
        for p, q in [(2, 5), (5, 2), (2, 40), (math.inf, 4), (3, math.inf), (math.inf, math.inf)]:
            with pytest.raises(ValueError):
                canonical_anchors(p, q)


class TestCombined:
    def test_array_rejects_dihedral(self):
        # like cert_combined, whatever the input size
        for rho in (np.array([9.0 + 0.0j]), np.empty(0, dtype=complex)):
            with pytest.raises(InvalidInputError):
                combined_codes_array(2, 2, rho)

    def test_witness_precedence(self):
        # outside everything -> elliptic disks fire first
        c = cert_combined(GroupSpec(3, 3, 9.0))
        assert c.code == CODE_DISKS_ELLIPTIC
        # high imaginary part, inside disks -> im bound
        c = cert_combined(GroupSpec(3, 3, 1.5 + 1.9j))
        assert c.code == CODE_IM_BOUND
        # real boundary cusp of the lambda oval -> lambda (closed)
        c = cert_combined(GroupSpec(3, 3, -1.0 + 0.0j))
        assert c.code == CODE_LAMBDA
        assert abs(c.slack) < 1e-9

    def test_swapped_disk_step(self):
        # The two non-shared disks of each family sit on Re z = sigma / 2,
        # the elliptic (7, 3) pair at height 2 cos(pi/7) sin(pi/3) and the
        # swapped (3, 7) pair much closer to the real axis, so just above
        # the swapped disks only the swapped family certifies.
        p, q = 7, 3
        z = 0.5 * sigma_pq(p, q) + 3.0j
        assert disk_slack(p, q, z) <= EPS_ALG  # inside an elliptic disk
        assert disk_slack(q, p, z) > EPS_ALG  # outside all swapped disks
        cert = cert_combined(GroupSpec(p, q, z))
        assert cert.code == CODE_DISKS_GENERAL
        assert cert.detail.get("family") == "swapped"

    def test_uncertified_interior(self):
        c = cert_combined(GroupSpec(3, 3, 1.5 + 0.2j))
        assert not c.certified
        assert c.verdict == "NoCertificate"

    @staticmethod
    def assert_scalar_matches_array(p, q, xs, ys):
        # The closed forms alone, then the full cascade with the anchor search.
        grid = (xs[None, :] + 1j * ys[:, None]).ravel()
        closed = combined_codes_array(p, q, grid, search=False)
        full = combined_codes_array(p, q, grid, search=True)
        for z, c0, c1 in zip(grid, closed, full):
            spec = GroupSpec(p, q, complex(z))
            assert cert_combined(spec, search=False).code == int(c0), f"closed forms differ at {z}"
            cert = cert_combined(spec, search=True)
            assert cert.code == int(c1), f"scalar/array mismatch at {z}"
            assert cert.witness == WITNESS_OF_CODE[int(c1)]

    def test_scalar_matches_array_codes(self):
        self.assert_scalar_matches_array(3, 4, np.linspace(-2.5, 5.5, 21), np.linspace(-2.0, 2.0, 11))

    @pytest.mark.parametrize(
        "p,q",
        [(5, 9), (2, 5), (5, 2), (3, math.inf), (math.inf, 4), (math.inf, math.inf), (10**6, 7)],
    )
    def test_scalar_matches_array_codes_markings(self, p, q):
        # 23 x 19 grid of the standard window; (3, 4) is the test above.
        self.assert_scalar_matches_array(p, q, np.linspace(-3.0, 6.0, 23), np.linspace(-4.5, 4.5, 19))

    @given(
        re=st.floats(min_value=-6.0, max_value=9.0),
        im=st.floats(min_value=-5.0, max_value=5.0),
        pq=st.sampled_from([(3, 3), (3, 4), (4, 4), (3, 7)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_certificates_only_outside_omega(self, re, im, pq):
        # soundness spot check: any certified point must lie outside Omega
        # (or on its boundary for the closed tests).
        p, q = pq
        region = build_omega(p, q)
        cert = cert_combined(GroupSpec(p, q, complex(re, im)), search=False)
        if cert.certified:
            assert omega_margin(region, complex(re, im)) <= 1e-9
