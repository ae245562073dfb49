"""Lambda coordinate: slacks, branches, and the outline of the lambda row."""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobcert.certificates import LAMBDA_REGION, cert_combined, cert_lambda
from mobcert.lambda_region import (
    lambda_branches,
    lambda_from_rho,
    lambda_slack,
    lambda_slack_rho,
    rho_from_lambda,
)
from mobcert.mobius import EPS_ALG, GroupSpec, InvalidInputError, sigma_pq, sin_sin
from mobcert.omega import im_bound
from mobcert.render import _ray_lambda_exits

finite_orders = st.integers(min_value=2, max_value=30)
lam_values = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=50.0, allow_nan=False, allow_infinity=False
)


class TestRhoFromLambda:
    @given(p=finite_orders, q=finite_orders, lam=lam_values)
    @settings(max_examples=100, deadline=None)
    def test_inverse_gives_the_same_pair(self, p, q, lam):
        if p == 2 and q == 2:
            with pytest.raises(InvalidInputError):
                rho_from_lambda(p, q, lam)
            return
        rm1, rp1 = rho_from_lambda(p, q, lam)
        rm2, rp2 = rho_from_lambda(p, q, 1.0 / lam)
        assert abs(rm1 - rm2) < 1e-9 * max(1.0, abs(rm1))
        assert abs(rp1 - rp2) < 1e-9 * max(1.0, abs(rp1))

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidInputError):
            rho_from_lambda(3, 3, 0.0)
        with pytest.raises(InvalidInputError):
            rho_from_lambda(2, 2, 2.0)
        with pytest.raises(InvalidInputError):
            rho_from_lambda(3, math.inf, 2.0)


class TestSlack:
    @given(p=finite_orders, q=finite_orders, lam=lam_values)
    @settings(max_examples=120, deadline=None)
    def test_negation_and_conjugation_invariance(self, p, q, lam):
        if p == 2 and q == 2:
            return
        s = lambda_slack(p, q, lam)
        assert abs(s - lambda_slack(p, q, -lam)) < 1e-12
        assert abs(s - lambda_slack(p, q, lam.conjugate())) < 1e-12

    def test_monotone_in_modulus_along_direction(self):
        # slack strictly increases with |lam| along a fixed direction, which
        # is why testing the larger branch alone is sharp.
        for p, q in [(3, 3), (3, 7), (5, 4)]:
            for theta in np.linspace(0.0, math.pi, 7):
                rs = np.linspace(1.0, 8.0, 25)
                vals = [lambda_slack(p, q, r * cmath.exp(1j * theta)) for r in rs]
                diffs = np.diff(vals)
                assert (diffs > 0).all()

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(5)
        lam = rng.normal(0, 2, 40) + 1j * rng.normal(0, 2, 40)
        lam = lam[np.abs(lam) > 0.1]
        arr = lambda_slack(3, 7, lam)
        for v, l in zip(arr, lam):
            assert abs(v - lambda_slack(3, 7, complex(l))) < 1e-12


class TestBranches:
    @given(p=finite_orders, q=finite_orders, lam=lam_values)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, p, q, lam):
        if p == 2 and q == 2:
            return
        rm, rp = rho_from_lambda(p, q, lam)
        assert abs((rm + rp) - sigma_pq(p, q)) < 1e-9 * max(1.0, abs(rm) + abs(rp))
        for rho in (rm, rp):
            if abs(rho) > 1e6:
                continue
            big, small = lambda_from_rho(GroupSpec(p, q, rho))
            assert abs(big) >= abs(small)
            assert abs(big * small + 1.0) < 1e-6 * max(1.0, abs(big))
            # the recovered branch set contains lambda, up to sign
            match = min(
                abs(big - lam),
                abs(big + lam),
                abs(small - lam),
                abs(small + lam),
            )
            assert match < 1e-6 * max(1.0, abs(lam))

    @given(
        log_w=st.floats(min_value=-300.0, max_value=300.0),
        theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=300, deadline=None)
    @example(log_w=math.log10(2.0), theta=math.pi / 2.0)  # near the double root lam = i
    @example(log_w=0.0, theta=math.pi / 2.0)  # both roots on the unit circle
    @example(log_w=154.13, theta=0.0)  # w^2 overflows
    @example(log_w=300.0, theta=2.0)
    def test_roots_of_lam_minus_inverse(self, log_w, theta):
        # lam - 1/lam = w: the sum is w and the product -1, each to 1e-15 of
        # the size of the terms (|lam| >= 1); the large root comes first.
        # Where w lies in i [-2, 2] both roots have modulus 1, and rounding
        # may put either a unit in the last place to either side of it.
        w = 10.0**log_w * cmath.exp(1j * theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big, small = lambda_branches(w)
        assert abs(big * small + 1.0) < 1e-15
        assert abs(big + small - w) < 1e-15 * abs(big)
        assert abs(big) >= 1.0 - 1e-15 and abs(small) <= 1.0 + 1e-15

    def test_small_branch_keeps_its_digits(self):
        # at (3, 4), rho = 1e8 the small branch is about -S/rho = -6.1237e-9;
        # a difference of two terms of size |rho|/S would read exactly 0
        big, small = lambda_from_rho(GroupSpec(3, 4, 1e8))
        assert math.isclose(small.real, -sin_sin(3, 4) / 1e8, rel_tol=1e-7)
        assert abs(big * small + 1.0) < 1e-15

    def test_underflowed_s_raises(self):
        # p q past ~2e324: S is 0 and lambda has no float value
        with pytest.raises(InvalidInputError):
            lambda_from_rho(GroupSpec(10**200, 10**200, 1))

    @pytest.mark.parametrize("exponent, rho", [(90, 0.0), (90, 1.0), (90, 2.0 + 1.0j), (90, 1e300), (80, 1e-150)])
    def test_underflowed_s_squared(self, exponent, rho):
        # S^2 is 0 at p = q = 10**90 (S ~ 1e-179) and subnormal at 10**80:
        # w is sqrt(gamma) / S there, not sqrt(gamma / S^2), which divided by
        # zero or by a float of ~17 bits (off by 5e-7 at 10**80, rho = 1e-150)
        order = 10**exponent
        s = sin_sin(order, order)
        assert s > 0.0 and s * s < sys.float_info.min
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big, small = lambda_from_rho(GroupSpec(order, order, rho))
        if rho == 1e300:  # |lam| ~ 1e479
            assert not cmath.isfinite(big)
            return
        assert cmath.isfinite(big) and cmath.isfinite(small)
        assert abs(big * small + 1.0) < 1e-15
        # |lam - 1/lam| = |w| = sqrt(|rho| |rho - sigma|) / S
        w_abs = math.sqrt(abs(rho)) * math.sqrt(abs(rho - 4.0 * s)) / s
        assert math.isclose(abs(big + small), w_abs, rel_tol=1e-14, abs_tol=1e-15)

    def test_array_branch_slack_matches_scalar(self):
        # lambda_slack_rho on an array (the lambda scan mode) and on each
        # Python complex (cert_lambda) is one formula, rounded alike up to
        # abs versus np.abs; its sign is that of lambda_slack on the larger
        # lambda branch.
        rng = np.random.default_rng(6)
        rho = rng.uniform(-6.0, 12.0, 600) + 1j * rng.uniform(-6.0, 6.0, 600)
        arr = lambda_slack_rho(3, 5, rho)
        for z, v in zip(rho, arr):
            assert abs(lambda_slack_rho(3, 5, complex(z)) - v) < 1e-14
            big, _ = lambda_from_rho(GroupSpec(3, 5, complex(z)))
            lam_slack = lambda_slack(3, 5, big)
            if abs(lam_slack) > 1e-9:
                assert (v > 0) == (lam_slack > 0)


class TestHugeRho:
    # rho (rho - sigma) overflows from |rho| ~ 1e154 S on
    HUGE = [1e160, 1e200, 1e300 + 1j, -1e300j]

    @pytest.mark.parametrize("p, q", [(3, 4), (5, 9)])
    def test_branch_finite_quiet_and_scalar_matches_array(self, p, q):
        s = sin_sin(p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slack = LAMBDA_REGION.slack(p, q, np.array(self.HUGE))
            for rho, slack_k in zip(self.HUGE, slack):
                big, small = lambda_from_rho(GroupSpec(p, q, rho))
                assert cmath.isfinite(big) and cmath.isfinite(small)
                assert abs(big * small + 1.0) < 1e-12
                # |lam| ~ |rho| / S, the large branch
                assert math.isclose(abs(big), abs(rho) / s, rel_tol=1e-12)
                assert lambda_slack(p, q, big) > 0.0
                # the rho-plane slack is ~ |rho| there
                assert math.isclose(lambda_slack_rho(p, q, rho), slack_k, rel_tol=1e-12)
                assert math.isclose(slack_k, abs(rho), rel_tol=1e-9)


class TestSlackRange:
    # the ends of the float range, and large orders.  PAST_MAX: branches
    # whose modulus itself passes the float maximum, inf+nanj; for the last
    # |rho| itself does, abs() of it raises OverflowError, and the branch is
    # nan+nanj.
    PAST_MAX = [(5, 9, 1e308), (5, 9, -1e308j), (3, 4, 1.7e308), (3, 4, 1.7e308 + 1.7e308j)]

    @pytest.mark.parametrize("p, q, rho", PAST_MAX)
    def test_branch_past_the_float_maximum_certifies(self, p, q, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big, _ = lambda_from_rho(GroupSpec(p, q, rho))
            # the rho-plane slack needs no branch: E = (|rho| + |rho - sigma|)/2
            # is finite but for the last, whose slack is +inf
            cert = cert_lambda(GroupSpec(p, q, rho))
            row = LAMBDA_REGION.slack(p, q, np.array([rho]))[0]
        assert not cmath.isfinite(big)
        assert cert.certified and cert.slack > 1e307
        assert math.isclose(cert.slack, row, rel_tol=1e-15)
        assert (cert.slack == math.inf) == (rho == self.PAST_MAX[-1][2])

    def test_past_the_float_maximum_needs_a_float_bound(self):
        # the reference at a non-finite branch is NaN, never a certificate;
        # the rho-plane row decides such rho without a branch
        p = q = 10**160
        lam = complex(math.inf, math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slack = lambda_slack(p, q, np.array([lam]))[0]
            scalar = lambda_slack(p, q, lam)
        assert not slack >= -EPS_ALG and not scalar >= -EPS_ALG

    def test_direct_formula_up_to_the_cutoff(self):
        # the reference is the direct formula, bit for bit, on an array and
        # on each Python complex; up to |lam| csc(pi/q) = 1024 its rounding
        # error, a few ulps of that product, stays below EPS_ALG
        cot_p, cot_q = 1.0 / math.tan(math.pi / 5), 1.0 / math.tan(math.pi / 9)
        csc_p, csc_q = 1.0 / math.sin(math.pi / 5), 1.0 / math.sin(math.pi / 9)
        rng = np.random.default_rng(8)
        lam = rng.normal(0, 50, 200) + 1j * rng.normal(0, 50, 200)
        lam = np.append(lam[np.abs(lam) <= 1024.0 / csc_q], 1024.0 / csc_q)
        rhs = np.abs(lam) * csc_q
        want = np.minimum(
            rhs - np.abs(lam * cot_q + cot_p) - csc_p,
            rhs - np.abs(lam * cot_q - cot_p) - csc_p,
        )
        assert (lambda_slack(5, 9, lam) == want).all()
        for l in lam:
            l = complex(l)
            direct = min(abs(l) * csc_q - abs(l * cot_q + s * cot_p) - csc_p for s in (+1, -1))
            assert lambda_slack(5, 9, l) == direct

    @pytest.mark.parametrize("p, q", [(2, 10**9), (3, 10**6), (10**6, 7), (10**9, 10**9), (3, 4)])
    def test_no_cancellation_at_large_orders(self, p, q):
        # The 1/2 cusps 2S +- i im_bound(p, q) lie on the closed lambda
        # boundary (lam = +-i s, s = csc_p csc_q + sqrt((csc_p csc_q)^2 - 1)).
        # In lambda space |lam| csc_q reaches 1e26 here, and the direct
        # formula's rounding with it; the rho-plane slack is a difference of
        # rho-plane lengths of size 2, and a closed row certifies each cusp.
        s = sin_sin(p, q)
        for cusp in (complex(2.0 * s, im_bound(p, q)), complex(2.0 * s, -im_bound(p, q))):
            assert abs(lambda_slack_rho(p, q, cusp)) <= EPS_ALG
            cert = cert_combined(GroupSpec(p, q, cusp), search=False)
            assert cert.certified
            assert cert.witness == ("LambdaRegion" if p == 2 else "ImBound")


class TestSwappedMarking:
    # Squaring either family of inequalities gives one condition, symmetric
    # in p and q: for |lam| >= 1 both hold iff
    #     Q(lam) = |lam|^2 + 1 - 2 |lam| csc_p csc_q - 2 cot_p cot_q |Re lam| >= 0,
    # so the (p, q) and (q, p) lambda regions are the same set.
    @given(
        p=finite_orders,
        q=finite_orders,
        theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        scale=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    @example(p=5, q=2, theta=0.1, scale=1e-7)
    @example(p=2, q=30, theta=1.5, scale=-1e-6)
    def test_both_markings_share_the_sign_of_q(self, p, q, theta, scale):
        # lam at e^scale times the outer boundary point at angle theta
        if p == 2 and q == 2:
            return
        cot_p, cot_q = 1.0 / math.tan(math.pi / p), 1.0 / math.tan(math.pi / q)
        csc_p, csc_q = 1.0 / math.sin(math.pi / p), 1.0 / math.sin(math.pi / q)
        # the outer boundary radius solves r^2 - 2 B r + 1 = 0, r >= 1
        b = csc_p * csc_q + abs(math.cos(theta)) * cot_p * cot_q
        lam = (b + math.sqrt(b * b - 1.0)) * cmath.exp(1j * theta) * math.exp(scale)
        if abs(lam) < 1.0:
            return
        r = abs(lam)
        quad = r * r + 1.0 - 2.0 * r * csc_p * csc_q - 2.0 * cot_p * cot_q * abs(lam.real)
        if abs(quad) <= 1e-9 * r * r:
            return
        assert (lambda_slack(p, q, lam) > 0) == (lambda_slack(q, p, lam) > 0) == (quad > 0)


class TestRhoPlaneSlack:
    # lambda_slack_rho decides the lambda inequalities at rho without a
    # lambda branch: it is S Q(lam) / |lam| (the Q of TestSwappedMarking)
    # at either root rho of lam, and the same float for (p, q) and (q, p).
    @given(
        p=st.one_of(st.integers(min_value=2, max_value=12), st.integers(min_value=13, max_value=10**9)),
        q=st.one_of(st.integers(min_value=2, max_value=12), st.integers(min_value=13, max_value=10**9)),
        log_r=st.floats(min_value=0.0, max_value=6.0),
        theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=300, deadline=None)
    @example(p=3, q=3, log_r=math.log10(3.0), theta=0.0)  # the 0/1 cusp rho = 4
    @example(p=1000, q=7, log_r=5.5, theta=1.0)
    def test_is_the_symmetric_q_condition(self, p, q, log_r, theta):
        if p == 2 and q == 2:
            return
        lam = 10.0**log_r * cmath.exp(1j * theta)
        cot_p, cot_q = 1.0 / math.tan(math.pi / p), 1.0 / math.tan(math.pi / q)
        csc_p, csc_q = 1.0 / math.sin(math.pi / p), 1.0 / math.sin(math.pi / q)
        r = abs(lam)
        quad = r * r + 1.0 - 2.0 * r * csc_p * csc_q - 2.0 * cot_p * cot_q * abs(lam.real)
        s = sin_sin(p, q)
        for rho in rho_from_lambda(p, q, lam):
            slack = lambda_slack_rho(p, q, rho)
            assert slack == lambda_slack_rho(q, p, rho)
            if abs(quad) > 1e-9 * r * r:
                assert (slack > 0) == (lambda_slack(p, q, lam) > 0) == (lambda_slack(q, p, lam) > 0)
                assert (slack > 0) == (quad > 0)
            if max(p, q) <= 1000:
                # relative to the size of its terms, E = S (r + 1/r) and 2
                scale = s * (r + 1.0 / r) + 2.0
                assert math.isclose(slack, s * quad / r, rel_tol=1e-12, abs_tol=1e-12 * scale)

    def test_underflowed_s(self):
        # p q past ~2e324: S is 0, so E = 0 at rho = 0; the slack there is
        # -2 for a scalar and an array, without an error or a warning, and
        # is E - 2 - 4 cos cos |Re h - S| / E everywhere else
        p = q = 10**200
        assert sin_sin(p, q) == 0.0
        rho = np.array([0.0, 5e-324, 1.0, -2.0 + 0.5j, 1e-300j, 3.0 + 4.0j])  # 5e-324 / 2 is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lambda_slack_rho(p, q, 0j) == -2.0
            slack = lambda_slack_rho(p, q, rho)
        assert (slack[:2] == -2.0).all()
        h = rho[2:] / 2.0
        e = 2.0 * np.abs(h)
        assert np.array_equal(slack[2:], e - 2.0 - 4.0 * (np.abs(h.real) / e))


class TestCachedRowConstants:
    # lambda_slack_rho reads S and 4 cos(pi/p) cos(pi/q) from a per-marking
    # cache; the slack keeps the bits of the formula computed afresh
    @staticmethod
    def uncached(p, q, rho):
        a, b = math.pi / p, math.pi / q
        s = math.sin(a) * math.sin(b)
        h = rho * 0.5
        e = abs(h) + abs(h - 2.0 * s)
        ratio = abs(h.real - s) / (e + (e == 0.0) if s == 0.0 else e)
        return e - 2.0 - 4.0 * (math.cos(a) * math.cos(b)) * ratio

    # at (10**200, 10**200) S underflows to 0
    @pytest.mark.parametrize(
        "p, q", [(3, 3), (3, 4), (4, 3), (3, 2), (5, 9), (1000, 1001), (10**200, 10**200)]
    )
    def test_slack_is_the_uncached_formula_bit_for_bit(self, p, q):
        rho = np.array([0.0, 1.0, -2.0 + 0.5j, 3.0 + 4.0j, 1e-300j, 0.3 - 1.7j, 12.5 + 0.0j])
        assert lambda_slack_rho(p, q, rho).tobytes() == self.uncached(p, q, rho).tobytes()
        for z in rho.tolist():
            assert lambda_slack_rho(p, q, z).hex() == self.uncached(p, q, z).hex()


def _outline(p, q, thetas):
    """The points where rays from sigma/2 leave the set the lambda row
    leaves uncertified, as compare-lambda finds them."""
    center = complex(sigma_pq(p, q) / 2.0, 0.0)
    es = [cmath.exp(1j * phi) for phi in thetas]
    t = _ray_lambda_exits(p, q, center, es, 8.0 + abs(sigma_pq(p, q)))
    return [center + tk * e for e, tk in zip(es, t)]


class TestBoundary:
    def test_imaginary_axis_point(self):
        # the ray up from sigma/2 = 2S leaves the uncertified set at the 1/2
        # cusp rho = 2S + 2i sqrt(1 - S^2), the image of lam = i s with
        # s = csc csc + sqrt(csc^2 csc^2 - 1)
        for p, q in [(3, 3), (3, 5), (4, 7)]:
            S = math.sin(math.pi / p) * math.sin(math.pi / q)
            (rho,) = _outline(p, q, [math.pi / 2.0])
            expected = 2.0 * S + 2j * math.sqrt(1.0 - S * S)
            assert abs(rho - expected) < 1e-9

    def test_rho_boundary_endpoints(self):
        # along the real axis the (3, 3) outline meets rho = 4 and rho = -1,
        # the pair of lam = 3, up to the closed rule's EPS_ALG
        right, left = _outline(3, 3, [0.0, math.pi])
        assert abs(right - 4.0) < 1e-12
        assert abs(left - (-1.0)) < 1e-12
