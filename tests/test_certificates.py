"""Certificates: disk tests, line families, lambda, combined cascade."""

import cmath
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mobcert import certificates
from mobcert.certificates import (
    CASCADE,
    CODE_DISKS_ELLIPTIC,
    CODE_DISKS_GENERAL,
    CODE_IM_BOUND,
    CODE_LAMBDA,
    CODE_LINE_FAMILY,
    LINE_FAMILY,
    _anchor_centers,
    _anchor_slack_at,
    _bisectors,
    _circle_bound,
    _circle_max,
    _grid_max,
    _search_anchors,
    anchor_search,
    anchor_search_bulk,
    cert_combined,
    cert_disks_elliptic,
    cert_im_bound,
    cert_lambda,
    cert_line_family,
    combined_codes_array,
    disk_centers_elliptic,
    disk_slack,
    disk_slack_array,
    dominant_marking,
    line_distance,
)
from mobcert.lambda_region import (
    lambda_from_rho,
    lambda_slack,
    lambda_slack_rho,
    rho_from_lambda,
)
from mobcert.mobius import (
    EPS_ALG,
    GroupSpec,
    InvalidInputError,
    PreconditionError,
    det2,
    gamma_of,
    inv2,
    make_generators,
    sigma_pq,
    tr2,
)
from mobcert.omega import boundary_cusps, build_omega, omega_margin, rho_star
from mobcert.render import region_polygon
from words import word_trace

RNG = np.random.default_rng(20260814)


def witness_of(code):
    """The witness of the CASCADE row with this code; None for code 0."""
    return next((stage.witness for stage in CASCADE if stage.code == code), None)


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
        # Key identity: the general isometric-disk test applied to B of the
        # (p, q) marking is the elliptic disk test of the swapped marking
        # (q, p).  The general test's four moduli, from the entries of B and
        # alpha = exp(i pi / p), are the distances from rho to the swapped
        # disk centers.
        for _ in range(40):
            p, q = (int(v) for v in RNG.integers(2, 10, 2))
            if p == 2 and q == 2:
                continue
            rho = complex(*RNG.normal(0, 3, 2))
            spec = GroupSpec(p, q, rho)
            _, B = make_generators(spec)
            a, c, d = B[0, 0], B[1, 0], B[1, 1]
            al = spec.alpha
            t = al - al.conjugate()
            moduli = (
                abs(c - d * t),
                abs(c + a * t),
                abs(c + a * al + d * al.conjugate()),
                abs(c - a * al.conjugate() - d * al),
            )
            assert abs(min(moduli) - 2.0 - disk_slack(q, p, rho)) < 1e-10

    def test_shared_fixed_point_detection(self):
        # rho = sigma makes B share a fixed point with A: the commutator
        # trace is 2 (gamma = 0), and no stage of the cascade certifies it.
        p, q = 3, 4
        spec = GroupSpec(p, q, complex(sigma_pq(p, q)))
        A, B = make_generators(spec)
        assert abs(tr2(A @ B @ inv2(A) @ inv2(B)) - 2.0) < 1e-12
        assert gamma_of(spec) == 0
        fixed = 0.5j / math.sin(math.pi / p)  # A's finite fixed point
        image = (B[0, 0] * fixed + B[0, 1]) / (B[1, 0] * fixed + B[1, 1])
        assert abs(image - fixed) < 1e-12
        cert = cert_combined(spec)
        assert not cert.certified and cert.code == 0
        assert combined_codes_array(p, q, np.array([spec.rho]))[0] == 0

    def test_upper_triangular_shares_infinity(self):
        # A fixes infinity, so any upper-triangular Y shares that fixed point
        # and the commutator trace tr[A, Y] is exactly 2.
        A, _ = make_generators(GroupSpec(3, 4, 1.0))
        for Y in (
            np.array([[2.0, 1.0], [0.0, 0.5]], dtype=complex),
            np.array([[1j, 3.0 - 1j], [0.0, -1j]], dtype=complex),
        ):
            assert abs(tr2(A @ Y @ inv2(A) @ inv2(Y)) - 2.0) < 1e-12

    def test_det_check(self):
        # inv2 is the adjugate: the inverse only of a det-1 matrix, which the
        # generators are; for det 4 it gives 4 times the inverse.
        for _ in range(10):
            p, q = (int(v) for v in RNG.integers(3, 10, 2))
            for m in make_generators(GroupSpec(p, q, complex(*RNG.normal(0, 3, 2)))):
                assert abs(det2(m) - 1.0) < EPS_ALG
                assert np.abs(m @ inv2(m) - np.eye(2)).max() < 1e-10
        Y = np.array([[2.0, 0.0], [1.0, 2.0]], dtype=complex)
        assert det2(Y) == 4.0
        assert np.abs(Y @ inv2(Y) - 4.0 * np.eye(2)).max() == 0

    def test_order_two_allowed(self):
        # p = 2 has no (p, q) disk family, but the DisksGeneral stage runs
        # the disk test of the swapped marking (5, 2) and certifies.
        spec = GroupSpec(2, 5, 7.0 + 0.5j)
        with pytest.raises(PreconditionError):
            cert_disks_elliptic(spec)
        assert cert_disks_elliptic(spec.swapped()).certified
        cert = cert_combined(spec)
        assert cert.certified and cert.code == CODE_DISKS_GENERAL
        assert cert.witness == witness_of(CODE_DISKS_GENERAL) == "DisksGeneral"
        assert abs(cert.slack - disk_slack(5, 2, spec.rho)) < 1e-15
        assert combined_codes_array(2, 5, np.array([spec.rho]))[0] == CODE_DISKS_GENERAL


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
        # A certified rho anchors the marked line rho (1 + i t): every point
        # on it is certified through that anchor.
        p, q = 3, 4
        rho = 7.0 + 0.4j
        assert cert_disks_elliptic(GroupSpec(p, q, rho)).certified
        for t in (0.0, 0.8, -2.0):
            cert = cert_line_family(GroupSpec(p, q, rho * (1.0 + 1j * t)), rho)
            assert cert.certified and cert.code == CODE_LINE_FAMILY
            assert cert.detail == {"anchor": rho, "on_line": True}
        off = cert_line_family(GroupSpec(p, q, rho * (1.0 + 0.8j) + 0.1), rho)
        assert not off.certified and off.detail == {"on_line": False}

    def test_requires_certified_base(self):
        base = 1.5 + 0.2j  # deep inside the disks
        assert not cert_disks_elliptic(GroupSpec(3, 4, base)).certified
        with pytest.raises(PreconditionError):
            cert_line_family(GroupSpec(3, 4, base * (1.0 + 1j)), base)


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
        # lam = 3 lies on the (3, 3) boundary (its rho_plus is the cusp 4),
        # lam = 2.9 just inside the uncertified oval
        _, rho = rho_from_lambda(3, 3, 3.0)
        cert = cert_lambda(GroupSpec(3, 3, rho))
        assert cert.certified and abs(cert.slack) < 1e-12
        _, rho = rho_from_lambda(3, 3, 2.9)
        assert not cert_lambda(GroupSpec(3, 3, rho)).certified

    def test_cert_lambda_branches_detail(self):
        # certify reports the branches of lambda_from_rho, beside the verdict
        spec = GroupSpec(3, 3, -1.0 + 0.0j)
        assert cert_lambda(spec).certified
        big, small = lambda_from_rho(spec)
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
        # the anchor circle stays inside the closed disk union, so neither
        # the closed-form search nor the row may report a strictly
        # certified line.
        for p, q in [(3, 3), (3, 5), (4, 7)]:
            rho = np.array([0.0, sigma_pq(p, q)], dtype=complex)
            slack, _, _ = _search_anchors(p, q, rho, _circle_max)
            assert (slack <= EPS_ALG).all()
            assert (LINE_FAMILY.slack(p, q, rho) <= EPS_ALG).all()

    def test_bulk_matches_scalar(self):
        # anchor_search, the grid search, certifies the points the closed
        # form certifies, with at most its slack; the bulk anchor is a witness.
        rho = np.array([9.0 + 0.1j, 3.9 + 0.05j, 1.5 + 0.4j])
        slack, anchor, w = _search_anchors(3, 3, rho, _circle_max)
        for k, z in enumerate(rho):
            cert = anchor_search(GroupSpec(3, 3, complex(z)))
            assert cert.certified == (slack[k] > EPS_ALG) == (k == 0)
            assert cert.slack <= slack[k] + 1e-12
        assert cert_line_family(GroupSpec(3, 3, complex(w[0])), complex(anchor[0])).certified

    def test_order_two_families_excluded(self):
        # A disk family only anchors lines when its A-order is >= 3; with
        # p = q = 2 there is no family at all, and with a single order 2
        # only the other marking's family may certify.
        with pytest.raises(PreconditionError):
            dominant_marking(2, 2)
        with pytest.raises(PreconditionError):
            anchor_search_bulk(2, 2, np.array([9.0 + 0.0j]))
        assert dominant_marking(2, 5) == dominant_marking(5, 2) == (5, 2)
        s25, s52 = (_search_anchors(p, q, np.array([5.0 + 0.0j]), _circle_max)[0][0] for p, q in ((2, 5), (5, 2)))
        assert abs(s25 - s52) < 1e-12
        for p, q in ((2, 5), (5, 2)):
            cert = anchor_search(GroupSpec(p, q, 9.0 + 0.1j))
            assert cert.certified and set(cert.detail) == {"anchor", "symmetry_image"}
            # the anchor passes the (5, 2) disk test, which reports its slack
            assert abs(disk_slack(*dominant_marking(p, q), cert.detail["anchor"]) - cert.slack) < 1e-12

    # (p, q, rho, certified, slack, anchor, symmetry image) at residual
    # points, which no closed row certifies; the floats as float.hex.
    # certify prints this slack, so any change to the search's arithmetic
    # shows here first.
    SEARCH_BITS = [
        (3, 3, 3.75 + 0.75j, True, "0x1.85f39c276a280p-5",
         ("0x1.bd43f54ea6082p+1", "0x1.6a9be7a5cb94cp+0"), ("0x1.e000000000000p+1", "0x1.8000000000000p-1")),
        (3, 3, -0.75 + 0.5j, False, "-0x1.45d218e72b360p-5",
         ("0x1.b21b20272c38dp+1", "-0x1.6175f17d3558dp+0"), ("0x1.dffffffffffffp+1", "-0x1.0000000000000p-1")),
        (3, 4, 3.5 + 1.0j, True, "0x1.abe6f95038300p-4",
         ("0x1.82dafd622c63cp+1", "0x1.cd2ad2ef79d14p+0"), ("0x1.c000000000000p+1", "0x1.0000000000000p+0")),
        (3, 4, 3.5 + 0.75j, False, "-0x1.a7473cd8f7000p-7",
         ("0x1.7815ec714c449p+1", "0x1.b6a2f7a206753p+0"), ("0x1.c000000000000p+1", "0x1.8000000000000p-1")),
        (5, 9, 2.75 + 1.25j, True, "0x1.171794ba24340p-4",
         ("0x1.ce1a2f38be288p+0", "0x1.095336101f48bp+1"), ("0x1.6000000000000p+1", "0x1.4000000000000p+0")),
        (5, 9, -1.0 + 0.5j, False, "-0x1.bc5ff15346138p-1",
         ("0x1.6ee245f5ec6aap+0", "-0x1.0555a49cf196fp+0"), ("0x1.cddbf5f4c7e6dp+0", "-0x1.0000000000000p-1")),
    ]

    @pytest.mark.parametrize("p, q, rho, certified, slack, anchor, image", SEARCH_BITS)
    def test_single_point_search_bits(self, p, q, rho, certified, slack, anchor, image):
        spec = GroupSpec(p, q, rho)
        assert not cert_combined(spec, search=False).certified  # a residual point
        cert = anchor_search(spec)
        assert cert.certified == certified
        assert cert.slack.hex() == slack
        a, w = cert.detail["anchor"], cert.detail["symmetry_image"]
        assert (a.real.hex(), a.imag.hex()) == anchor
        assert (w.real.hex(), w.imag.hex()) == image


SCREEN_ORDERS = st.sampled_from([2, 3, 4, 5, 9, 10**6, math.inf])
RESIDUAL_MARKINGS = [(3, 3), (3, 4), (5, 9), (2, 5), (3, math.inf), (math.inf, math.inf), (10**6, 7)]
RESIDUAL_WINDOWS = [(-3.0, 6.0, -4.5, 4.5), (0.2, 1.2, -0.5, 0.5)]  # the second lies inside Omega
FAR = [50.0, 50.0j, -50.0]  # three disks that miss every circle below


def circle_max(centers, w) -> tuple[float, complex]:
    slack, anchor = _circle_max(np.asarray(centers, dtype=complex), np.array([w], dtype=complex))
    return float(slack[0]), complex(anchor[0])


def sampled_max(centers, w, n=4000) -> float:
    """The best anchor slack over n evenly spaced points of w's anchor circle."""
    on_circle = w / 2.0 + abs(w) / 2.0 * np.exp(2j * np.pi * np.arange(n) / n)
    return float(_anchor_slack_at(np.asarray(centers, dtype=complex), on_circle).max())


def window_grid(window, n) -> np.ndarray:
    """The n x n points of window (re_min, re_max, im_min, im_max), edges included."""
    xs = np.linspace(window[0], window[1], n)
    ys = np.linspace(window[2], window[3], n)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def assert_witness(p, q, anchor, w):
    """(anchor, w) is a line-family certificate under the family that anchors it."""
    assert cert_line_family(GroupSpec(*dominant_marking(p, q), complex(w)), anchor).certified


class TestCircleMax:
    """_circle_max, the closed-form best anchor of anchor_search_bulk."""

    @given(
        p=SCREEN_ORDERS,
        q=SCREEN_ORDERS,
        modulus=st.one_of(
            st.floats(min_value=EPS_ALG, max_value=1e-6, exclude_min=True),  # tiny
            st.floats(min_value=1e-6, max_value=12.0),  # standard
            st.floats(min_value=12.0, max_value=1e300),  # huge
        ),
        theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=80, deadline=None)
    @example(p=3, q=3, modulus=3.0, theta=0.0)  # rho = sigma
    @example(p=5, q=9, modulus=1.0, theta=0.3)
    @example(p=2, q=5, modulus=3.0, theta=0.1)  # c2 = c4: a pair without a bisector
    def test_max_bounds_every_anchor(self, p, q, modulus, theta):
        assume(not (p == 2 and q == 2))
        centers = _anchor_centers(p, q)
        w = modulus * cmath.exp(1j * theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slack, anchor = circle_max(centers, w)
            best = sampled_max(centers, w)
            bound = float(_circle_bound(centers, np.array([w]))[0])
        assert slack >= best - 1e-12 * (1.0 + abs(w))
        # the screen's bound b(w) lies above every anchor of the circle
        assert bound >= max(slack, best) - 1e-12 * (1.0 + abs(w))
        assert abs(abs(anchor - w / 2.0) - abs(w) / 2.0) <= 1e-13 * abs(w)  # on the circle
        assert _anchor_slack_at(centers, np.array([anchor]))[0] == slack

    def test_center_on_the_circle_center(self):
        # a disk centered at m = w/2 is at distance R from the whole circle:
        # it has no far point, and the maximum lies where another disk ties
        # with it or at another disk's far point
        for centers in ([1.0, *FAR], [1.0, 2.5 + 1.0j, *FAR[:2]], [1.0, 1.0 - 0.8j, *FAR[:2]]):
            slack, anchor = circle_max(centers, 2.0)
            assert abs(abs(anchor - 1.0) - 1.0) < 1e-15
            assert slack >= sampled_max(centers, 2.0) - 1e-12
        assert circle_max([1.0, *FAR], 2.0)[0] == -1.0

    def test_equal_centers(self):
        # two equal centers have no bisector; the family is decided by the
        # other candidates, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (5.0, 2.0 + 3.0j, 0.5j):
                centers = [1.5, 1.5, *FAR[:2]]
                slack, _ = circle_max(centers, w)
                assert slack >= sampled_max(centers, w) - 1e-12
                assert slack == circle_max([1.5, *FAR], w)[0]

    def test_bisectors_cached_per_centre_set(self):
        # read-only, one entry per set of centre values, and a set that
        # differs in one centre has bisectors of its own
        a = np.array([1.0, 2.0j, *FAR[:2]], dtype=complex)
        b = a.copy()
        b[1] = 3.0j
        unit, mid = _bisectors(a.tobytes())
        assert _bisectors(a.copy().tobytes())[0] is unit
        assert not (unit.flags.writeable or mid.flags.writeable)
        assert len(unit) == len(mid) == 6
        assert not np.array_equal(_bisectors(b.tobytes())[1], mid)


class TestCircleScreen:
    """Pinned cases of the anchor circle (they once tested the arc-cover
    screen that anchor_search_bulk used before its closed form), checked
    against _circle_max, anchor_search_bulk and the grid search."""

    def test_one_disk_holds_the_circle(self):
        # the circle inside one disk: every anchor is uncertified
        for centers, w in (([1.0, *FAR], 2.0), ([0.5 + 0.5j, *FAR], 1.0j)):  # concentric, inside
            slack, _ = circle_max(centers, w)
            assert slack <= EPS_ALG and slack >= sampled_max(centers, w) - 1e-12
        # w = 5 lies 1.5 outside the same disk, and so does part of its circle
        assert circle_max([1.5, *FAR], 5.0) == (1.5, 5.0)

    def test_tangent_circles(self):
        # inside the radius-2 disk, touching its boundary at w:
        # |c - w/2| + |w|/2 = 2
        assert circle_max([1.5, *FAR], 3.5) == (0.0, 3.5)
        # reaching 4 EPS_ALG past it: w itself is the best anchor
        w = 3.5 + 4 * EPS_ALG
        slack, anchor = circle_max([1.5, *FAR], w)
        assert slack > EPS_ALG and anchor == w
        # outside the disk, touching it at 0: the far point, w, is 1 outside
        assert circle_max([-2.0, *FAR], 1.0) == (1.0, 1.0)
        # two disks whose boundaries cross the circle at 0 and at w: every
        # anchor lies in one of them, the tie points 0 and w on both
        s3 = math.sqrt(3.0)
        centers = [1.0 + s3 * 1j, 1.0 - s3 * 1j, 50.0, 50.0j]
        slack, anchor = circle_max(centers, 2.0)
        assert abs(slack) < 1e-15 and min(abs(anchor), abs(anchor - 2.0)) < 1e-15

    @pytest.mark.parametrize("p,q", [(3, 3), (3, 5), (4, 7), (5, 9), (math.inf, math.inf)])
    def test_rho_zero_and_sigma(self, p, q):
        # w = 0 is skipped and the circle of w = sigma lies in the disks:
        # neither point certifies, and the closed form is the circle's
        # maximum, at least the grid's best anchor
        sigma = sigma_pq(p, q)
        rho = np.array([0.0, sigma], dtype=complex)
        bulk = _search_anchors(p, q, rho, _circle_max)
        grid = _search_anchors(p, q, rho, _grid_max)
        assert (grid[0] <= bulk[0] + 1e-12).all() and (bulk[0] <= EPS_ALG).all()
        assert (bulk[2] == sigma).all()  # each point's searched circle: w = sigma
        if sigma:  # sigma = 0 for (inf, inf): no circle to search
            assert bulk[0][0] == bulk[0][1] == circle_max(_anchor_centers(p, q), sigma)[0]

    @pytest.mark.parametrize("p,q", [(2, 5), (5, 2), (2, math.inf)])
    def test_single_order_two_family(self, p, q):
        # one family, whose c2 and c4 agree up to rounding
        centers = _anchor_centers(p, q)
        assert centers.shape == (4,) and abs(centers[1] - centers[3]) < 1e-15
        for w in (0.5 + 0.2j, 9.0 + 0.1j):
            slack, anchor = circle_max(centers, w)
            assert slack >= sampled_max(centers, w) - 1e-12
            assert (slack > EPS_ALG) == (w == 9.0 + 0.1j)
        slack, anchor, w = _search_anchors(p, q, np.array([9.0 + 0.1j]), _circle_max)
        assert slack[0] > EPS_ALG
        assert_witness(p, q, complex(anchor[0]), w[0])
        # anchor_search_bulk is _circle_max on the family's centres, per circle
        bulk = anchor_search_bulk(p, q, w)
        assert (float(bulk[0][0]), complex(bulk[1][0])) == circle_max(centers, w[0])

    def test_tiny_w(self):
        # the two-circle search skips a w with |w| <= EPS_ALG, about the
        # point 0, and the row's screen never passes one; a circle just
        # larger is decided like any other; no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = np.array([0.0, EPS_ALG, 1e-13j, 2.2250738585072014e-308, 5e-324])
            slack, anchor, w = _search_anchors(3, 3, tiny, _circle_max)
            assert (slack <= EPS_ALG).all() and (w == sigma_pq(3, 3) - tiny).all()
            assert (_circle_bound(_anchor_centers(3, 3), tiny) <= 0.0).all()
            assert (LINE_FAMILY.slack(3, 3, tiny) <= EPS_ALG).all()
            for w in (2 * EPS_ALG, 1e-11j):
                assert circle_max(_anchor_centers(3, 3), w)[0] < 0.0  # 0 lies in the disk at c2
                assert circle_max([3.0, *FAR], w)[0] > 0.99

    @pytest.mark.parametrize("p,q", RESIDUAL_MARKINGS)
    @pytest.mark.parametrize("window", RESIDUAL_WINDOWS)
    def test_screen_keeps_every_certified_point(self, p, q, window):
        # every residual pixel of a 48 x 48 scan: the closed form and the
        # grid search certify the same points, the closed form's slack is
        # never below the grid's, and each certified anchor is a witness
        # (the second window lies inside Omega)
        grid = window_grid(window, 48)
        residual = grid[combined_codes_array(p, q, grid, search=False) == 0]
        assert residual.size
        bulk = _search_anchors(p, q, residual, _circle_max)
        oracle = _search_anchors(p, q, residual, _grid_max)
        assert np.array_equal(bulk[0] > EPS_ALG, oracle[0] > EPS_ALG)
        assert (bulk[0] >= oracle[0] - 1e-12).all()
        certified = bulk[0] > EPS_ALG
        for anchor, w in zip(bulk[1][certified], bulk[2][certified]):
            assert_witness(p, q, complex(anchor), w)


class TestLineFamilyRow:
    """The LineFamily row of CASCADE: the circle-bound screen of each
    anchor circle, then anchor_search_bulk on the circles it lets through."""

    @staticmethod
    def per_circle(p, q, rho):
        """The row's slack from each circle on its own: _circle_max of
        w = rho and of w = sigma - rho (one call for each) where
        _circle_bound(w) is positive, the bound elsewhere, and per rho the
        larger of the two."""
        centers = _anchor_centers(p, q)
        values = []
        for w in (rho, sigma_pq(p, q) - rho):
            value = _circle_bound(centers, w)
            searched = value > 0.0
            value[searched] = _circle_max(centers, w[searched])[0]
            values.append(value)
        return np.maximum(*values)

    @pytest.mark.parametrize("p,q", RESIDUAL_MARKINGS)
    @pytest.mark.parametrize("window", RESIDUAL_WINDOWS)
    def test_screen_changes_no_code(self, p, q, window):
        sigma = sigma_pq(p, q)
        rho = np.concatenate([window_grid(window, 96), [0.0, sigma, 1e-13, 5e-324, 4.0]])
        slack = LINE_FAMILY.slack(p, q, rho)
        # bit for bit the per-circle oracle
        assert np.array_equal(slack, self.per_circle(p, q, rho))
        # the unscreened search of both circles certifies the same points,
        # and where a point certifies its slack is the row's, bit for bit
        both = _search_anchors(p, q, rho, _circle_max)[0]
        certified = both > EPS_ALG
        assert np.array_equal(slack > EPS_ALG, certified)
        assert np.array_equal(slack[certified], both[certified])
        # the unscreened cascade: the closed rows, then the two-circle
        # search on every residual point
        reference = combined_codes_array(p, q, rho, search=False)
        residual = np.flatnonzero(reference == 0)
        found = _search_anchors(p, q, rho[residual], _circle_max)[0] > EPS_ALG
        reference[residual[found]] = CODE_LINE_FAMILY
        assert np.array_equal(combined_codes_array(p, q, rho), reference)

    def test_near_the_float_maximum(self):
        # the bounds pass the float maximum without a warning and both
        # circles of every point are searched; every point is far outside
        # the disks
        rho = np.array([1.7e308, -1.7e308, 1.7e308j, 1.2e308 + 1.2e308j, 1.7e308 + 1.7e308j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slack = LINE_FAMILY.slack(3, 4, rho)
            assert np.array_equal(slack, self.per_circle(3, 4, rho))
            assert np.array_equal(slack, _search_anchors(3, 4, rho, _circle_max)[0])
        assert (slack > 1e307).all()

    @staticmethod
    def outside_omega(p, q, site, shift, log_half):
        """The pixels of a grid that no closed row certifies and that lie
        outside Omega by more than 1e-9.  site < 0: the standard window at
        48 x 48, moved by shift of a pixel; else a 16 x 16 zoom of
        half-width 10**log_half about a vertex of Omega or a boundary cusp."""
        region = build_omega(p, q)
        if site < 0:
            lo = (-3.0 - 4.5j) + shift * 9.0 / 48 * (1 + 1j)
            n, size = 48, 9.0
        else:
            sites = region_polygon(region) + list(boundary_cusps(p, q))
            n, size = 16, 2.0 * 10.0**log_half
            lo = sites[site % len(sites)] - size / 2 * (1 + 1j)
        steps = (np.arange(n) + 0.5) * (size / n)
        rho = (lo.real + steps[None, :]) + 1j * (lo.imag + steps[:, None])
        rho = rho.ravel()
        residual = combined_codes_array(p, q, rho, search=False) == 0
        return rho[residual & (omega_margin(region, rho) < -1e-9)]

    @given(
        p=st.integers(3, 60),
        q=st.integers(3, 60),
        site=st.integers(-2, 15),
        shift=st.floats(0.0, 1.0),
        log_half=st.floats(-8.0, -2.0),
    )
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_certifies_every_residual_point_outside_omega(self, p, q, site, shift, log_half):
        # ROADMAP item 17, step 2: the paper proves every rho outside Omega
        # free and discrete, and in a scan the row certifies the residual
        # points there
        rho = self.outside_omega(p, q, site, shift, log_half)
        slack = LINE_FAMILY.slack(p, q, rho)
        assert LINE_FAMILY.passes(slack).all(), rho[~LINE_FAMILY.passes(slack)]

    @pytest.mark.parametrize("p, q, site", [(3, 4, -1), (4, 3, -1), (5, 9, 0), (9, 5, 3), (7, 7, 1)])
    def test_outside_omega_has_residual_points(self, p, q, site):
        # the property above is not vacuous: both kinds of grid hold such points
        assert self.outside_omega(p, q, site, 0.0, -2.0).size


def canonical_anchors(p, q) -> list[complex]:
    """The distinguished anchors: rho_star under both markings, their
    conjugates, and the sigma - z images of all four."""
    sigma = sigma_pq(p, q)
    base = [rho_star(p, q)]
    if p != q:
        base.append(rho_star(q, p))
    out = []
    for r in base:
        for w in (r, r.conjugate()):
            out.extend([w, sigma - w])
    return out


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
                    worst = max(worst, disk_slack(p, q, a), disk_slack(q, p, a))
        assert worst <= EPS_ALG
        for p, q in [(2, 5), (5, 2), (2, 40), (math.inf, 4), (3, math.inf), (math.inf, math.inf)]:
            with pytest.raises(ValueError):
                canonical_anchors(p, q)


# cyclically reduced words of at least two syllables, so of infinite order
# in Z_p * Z_q for p, q >= 3; a lower-case letter is an inverse
INFINITE_ORDER_WORDS = ("AB", "Ab", "AAB", "ABB", "AABB", "ABAb", "ABab")


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
        assert cert.code == CODE_DISKS_GENERAL and cert.detail == {}
        assert dominant_marking(p, q) == (q, p)

    def test_uncertified_interior(self):
        c = cert_combined(GroupSpec(3, 3, 1.5 + 0.2j))
        assert not c.certified
        assert c.verdict == "NoCertificate"

    # SHA-256 of the combined_codes_array(search=True) codes (uint8, rows of
    # constant Im rho, bottom row first) on each test grid, recorded before
    # cert_combined became the size-1 case of the same table.
    CODE_DIGESTS = {
        (3, 4): "e3f2a6f8c6dc50ea786edee1ec7b830e49c5f68da627ad604936984e7ef192f9",
        (5, 9): "d0071d7654e2c209db37dfd1a59c752f5c642fa613c562a0b0bf89ef9dac91b6",
        (2, 5): "17bca4a82ca361bfa4b1d65fa72a50826c78df60d21a18a4108c0d904d9dd0a3",
        (5, 2): "6aeebe2e27e15144d088a5e97394f29729945d03689adb9f471e209cdbcf8841",
        (3, math.inf): "e5b7250c9a866b98274663c750caf32280f41400986280d9ffe2a51b3a3c97ca",
        (math.inf, 4): "2fff145a2513300516bca0f2b976983396eea5fc3303ced9f970672f2fbdf60e",
        (math.inf, math.inf): "76426f54df4ca89f7eab15fa397a3fd3bcc78908a4fcb1522749d5def274fba8",
        (10**6, 7): "3e6f78db5ca921edddf611cbf09626957f23741b40ca48dd8fcb2bcb42e19678",
    }

    def assert_codes_pinned(self, p, q, xs, ys):
        grid = (xs[None, :] + 1j * ys[:, None]).ravel()
        full = combined_codes_array(p, q, grid, search=True)
        assert hashlib.sha256(full.tobytes()).hexdigest() == self.CODE_DIGESTS[(p, q)]
        # cert_combined runs the same rows on one point: the closed forms
        # everywhere, the anchor search on two residual points of each outcome
        closed = combined_codes_array(p, q, grid, search=False)
        for z, c0 in zip(grid, closed):
            assert cert_combined(GroupSpec(p, q, complex(z)), search=False).code == c0, z
        residual = np.flatnonzero(closed == 0)
        for code in (CODE_LINE_FAMILY, 0):
            for k in residual[full[residual] == code][:2]:
                cert = cert_combined(GroupSpec(p, q, complex(grid[k])), search=True)
                assert cert.code == code and cert.witness == witness_of(code), grid[k]

    def test_scalar_matches_array_codes(self):
        self.assert_codes_pinned(3, 4, np.linspace(-2.5, 5.5, 21), np.linspace(-2.0, 2.0, 11))

    @pytest.mark.parametrize(
        "p,q",
        [(5, 9), (2, 5), (5, 2), (3, math.inf), (math.inf, 4), (math.inf, math.inf), (10**6, 7)],
    )
    def test_scalar_matches_array_codes_markings(self, p, q):
        # 23 x 19 grid of the standard window; (3, 4) is the test above.
        self.assert_codes_pinned(p, q, np.linspace(-3.0, 6.0, 23), np.linspace(-4.5, 4.5, 19))

    def test_slack_is_the_firing_rows_array_slack(self):
        # At these points the scalar references and the array functions
        # round the slack differently (abs and np.abs round complex moduli
        # differently); certify reports the number a scan thresholds.
        for rho, code, array_slack, scalar in [
            (-3.0 + 0.1j, CODE_DISKS_ELLIPTIC, disk_slack_array, cert_disks_elliptic),
            (-1.3 + 0.8j, CODE_LAMBDA, certificates.LAMBDA_REGION.slack, cert_lambda),
        ]:
            cert = cert_combined(GroupSpec(3, 4, rho))
            assert cert.code == code
            assert cert.slack == array_slack(3, 4, np.array([rho]))[0]
            assert cert.slack != scalar(GroupSpec(3, 4, rho)).slack

    @pytest.mark.parametrize(
        "p, q, rho, pq_slack, qp_slack",
        [
            (5, 2, 3.171623961439875 + 0.10159719476956752j, -3.077e-12, -9.992e-13),
            (10**6, 2, 2.0000062831833074 + 0j, None, None),
        ],
    )
    def test_swapped_lambda_row_fires_near_the_boundary(self, p, q, rho, pq_slack, qp_slack):
        # The (p, q) and (q, p) lambda regions are one set (test_lambda.py,
        # TestSwappedMarking).  In lambda space the two slacks have different
        # scales, so the closed rule's -EPS_ALG split them at these points,
        # within rounding of the boundary, and a (q, p) row gave code 4.  The
        # rho-plane slack is one float for both markings, so the cascade has
        # one lambda row, and these points fail it (code 0).  At (10**6, 2)
        # |lam| csc(pi/q) is ~2e11 for the swapped marking (2, 10**6), so the
        # lambda-space slacks are rounding noise there and are not pinned.
        z = np.array([rho])
        if pq_slack is not None:
            big_pq, _ = lambda_from_rho(GroupSpec(p, q, rho))
            big_qp, _ = lambda_from_rho(GroupSpec(q, p, rho))
            slack_pq = lambda_slack(p, q, np.array([big_pq]))[0]
            slack_qp = lambda_slack(q, p, np.array([big_qp]))[0]
            assert math.isclose(slack_pq, pq_slack, rel_tol=1e-3) and slack_pq < -EPS_ALG
            assert math.isclose(slack_qp, qp_slack, rel_tol=1e-3) and slack_qp >= -EPS_ALG
        slack = certificates.LAMBDA_REGION.slack(p, q, z)[0]
        assert slack == certificates.LAMBDA_REGION.slack(q, p, z)[0]
        assert lambda_slack_rho(p, q, rho) == lambda_slack_rho(q, p, rho)
        assert -2.1e-12 < slack < -EPS_ALG
        assert sum(stage.code == CODE_LAMBDA for stage in certificates.CASCADE) == 1
        assert combined_codes_array(p, q, z)[0] == 0
        assert cert_combined(GroupSpec(p, q, rho)).code == 0

    @pytest.mark.parametrize(
        "p, q, rho, witness",
        [(3, 7, -2.14 + 0.2j, "DisksElliptic"), (3, 3, 3.25 + 1.25j, "LambdaRegion")],
    )
    def test_some_certified_points_lie_inside_omega(self, p, q, rho, witness):
        # Omega is a polygon around the uncertified set, not its outline: its
        # vertical line Re z = 4S - 2 - 2 cos(a - b) = -2 - 2 cos(a + b) meets
        # the exclusion disk about -2 cos(a + b) only on the real axis, so the
        # disks certify points between that disk and the line, inside Omega.
        # The lambda row does the same near Omega's corners.
        a, b = math.pi / p, math.pi / q
        s = math.sin(a) * math.sin(b)
        assert 4 * s - 2 - 2 * math.cos(a - b) == pytest.approx(-2 - 2 * math.cos(a + b))
        cert = cert_combined(GroupSpec(p, q, rho), search=False)
        assert cert.witness == witness and cert.slack > EPS_ALG
        assert omega_margin(build_omega(p, q), rho) > 0

    @given(
        word=st.sampled_from(INFINITE_ORDER_WORDS),
        theta=st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True),
        pq=st.sampled_from([(3, 3), (3, 4), (4, 4), (3, 7)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_certificate_where_a_word_is_elliptic(self, word, theta, pq):
        # soundness spot check: where a word of infinite order in Z_p * Z_q
        # has trace 2 cos(theta), real in (-2, 2), it is elliptic, so <A, B>
        # is not discrete and free and no row may certify.  The trace is a
        # polynomial in rho of degree the number of B syllables; its roots
        # include Omega's whole real diameter (AB, Ab) and the rho where the
        # commutator ABab is elliptic.  Near a parabolic word (theta near 0
        # or pi) the float rho may lie on a closed row's boundary, which
        # certifies within its tolerance, |slack| <= EPS_ALG.
        p, q = pq
        degree = len(re.findall("[Bb]+", word))
        xs = np.arange(1.0, degree + 2.0)
        coef = np.polyfit(xs, [word_trace(p, q, x, word) for x in xs], degree)
        coef[-1] -= 2.0 * math.cos(theta)
        for rho in np.roots(coef):
            assert rho == 0 or abs(word_trace(p, q, rho, word) - 2.0 * math.cos(theta)) < 1e-9
            cert = cert_combined(GroupSpec(p, q, complex(rho)))
            assert not cert.certified or abs(cert.slack) <= EPS_ALG


# orders from 2 to 10^9 and inf; magnitudes of rho from 1e-300 to 1e300
property_orders = st.one_of(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=13, max_value=10**9),
    st.just(math.inf),
)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def reference_closed_code(p, q, rho) -> int:
    """The closed-form cascade from the per-stage scalar certificates.  It
    tries the swapped disks at every marking, also where the cascade skips
    them because the (p, q) disks certify everything they do."""
    spec = GroupSpec(p, q, rho)
    steps = [
        (CODE_DISKS_ELLIPTIC, cert_disks_elliptic, spec),
        (CODE_DISKS_GENERAL, cert_disks_elliptic, spec.swapped()),
        (CODE_IM_BOUND, cert_im_bound, spec),
        (CODE_LAMBDA, cert_lambda, spec),
    ]
    for code, test, marked in steps:
        try:
            if test(marked).certified:
                return code
        except (PreconditionError, InvalidInputError):
            continue
    return 0


def assert_closed_codes_agree(p, q, rho):
    """combined_codes_array gives the scalar references' closed-form code."""
    if p == 2 and q == 2:
        with pytest.raises(InvalidInputError):
            cert_combined(GroupSpec(p, q, rho), search=False)
        with pytest.raises(InvalidInputError):
            combined_codes_array(p, q, np.array([rho]), search=False)
        return
    code = int(combined_codes_array(p, q, np.array([rho]), search=False)[0])
    assert reference_closed_code(p, q, rho) == code


class TestScalarArrayProperties:
    @given(
        p=property_orders,
        q=property_orders,
        exponent=st.floats(min_value=-300.0, max_value=300.0),
        theta=angles,
    )
    @settings(max_examples=150, deadline=None)
    def test_any_magnitude(self, p, q, exponent, theta):
        assert_closed_codes_agree(p, q, 10.0**exponent * cmath.exp(1j * theta))

    @given(
        p=property_orders,
        q=property_orders,
        swapped=st.booleans(),
        k=st.integers(min_value=0, max_value=3),
        theta=angles,
    )
    @settings(max_examples=150, deadline=None)
    @example(p=630646483, q=2, swapped=False, k=0, theta=2.0)  # lambda slack cancellation
    @example(p=92480960, q=92480960, swapped=False, k=1, theta=0.0)  # rho = 4, the 0/1 cusp
    def test_on_disk_circles(self, p, q, swapped, k, theta):
        # rho on the boundary circle of one exclusion disk of either family
        center = disk_centers_elliptic(*((q, p) if swapped else (p, q)))[k]
        assert_closed_codes_agree(p, q, center + 2.0 * cmath.exp(1j * theta))


disk_orders = st.one_of(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=13, max_value=10**9),
    st.just(math.inf),
)
ULPS = 8 * np.finfo(float).eps  # a few ulps of a slack of size ~2


class TestDominantFamily:
    """For 3 <= p <= q <= inf the four (p, q) disks lie inside the union of
    the four (q, p) disks, so the (p, q) family decides (module docstring)."""

    @given(p=disk_orders, q=disk_orders, k=st.integers(0, 3), r=st.floats(0.0, 2.0), theta=angles)
    @settings(max_examples=200, deadline=None)
    @example(p=3, q=4, k=0, r=2.0, theta=0.0)
    @example(p=3, q=math.inf, k=1, r=2.0, theta=1.0)
    @example(p=10**9, q=math.inf, k=0, r=2.0, theta=3.0)
    def test_swapped_disks_cover_the_dominant_disks(self, p, q, k, r, theta):
        p, q = sorted((p, q))
        z = disk_centers_elliptic(p, q)[k] + r * cmath.exp(1j * theta)
        assert disk_slack(q, p, z) <= ULPS

    @given(
        p=disk_orders,
        q=disk_orders,
        k=st.integers(0, 3),
        r=st.floats(2.0, 3.0),
        theta=angles,
    )
    @settings(max_examples=200, deadline=None)
    def test_swapped_row_certifies_only_where_the_dominant_row_does(self, p, q, k, r, theta):
        # points just outside a (q, p) disk, where that family may certify
        p, q = sorted((p, q))
        z = disk_centers_elliptic(q, p)[k] + r * cmath.exp(1j * theta)
        swapped = disk_slack(q, p, z)
        if swapped > EPS_ALG:
            assert disk_slack(p, q, z) > EPS_ALG
        if swapped > 0.0:
            assert swapped <= disk_slack(p, q, z) + ULPS

    @pytest.mark.parametrize(
        "p, q, dominant_p, dominant_q",
        [
            (3, 4, 3, 4),
            (4, 3, 3, 4),
            (3, 3, 3, 3),
            (2, 5, 5, 2),
            (5, 2, 5, 2),
            (3, math.inf, 3, math.inf),
            (math.inf, 4, 4, math.inf),
            (math.inf, math.inf, math.inf, math.inf),
        ],
    )
    def test_rows_read_the_dominant_marking(self, p, q, dominant_p, dominant_q):
        # DisksGeneral runs where the dominant marking is (q, p); the line
        # family anchors on that marking's four disks
        dominant = (dominant_p, dominant_q)
        assert dominant_marking(p, q) == dominant
        general = next(s for s in certificates.CASCADE if s.code == CODE_DISKS_GENERAL)
        assert general.applies(p, q) == (dominant != (p, q))
        assert np.array_equal(_anchor_centers(p, q), disk_centers_elliptic(*dominant))
