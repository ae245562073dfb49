"""Matrix layer: group specs, generators, traces, gamma, symmetry image."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobcert.certificates import disk_centers_elliptic
from mobcert.mobius import (
    EPS_ALG,
    GroupSpec,
    InvalidInputError,
    det2,
    gamma_of,
    inv2,
    make_generators,
    pi_over,
    sigma_pq,
    symmetry_image,
    tr2,
)

RNG = np.random.default_rng(20260814)


def random_spec(rng=RNG) -> GroupSpec:
    """A random marking with finite orders in 3..14 and |rho| >= 0.1."""
    p, q = (int(v) for v in rng.integers(3, 15, 2))
    rho = complex(*rng.normal(0, 3, 2))
    while abs(rho) < 0.1:
        rho = complex(*rng.normal(0, 3, 2))
    return GroupSpec(p, q, rho)


def act(m: np.ndarray, z: complex) -> complex:
    """The Mobius map of m at a finite point z with m(z) finite."""
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def power(m: np.ndarray, k: int) -> np.ndarray:
    """m^k by repeated products; negative k uses inv2."""
    step = m if k >= 0 else inv2(m)
    out = np.eye(2, dtype=complex)
    for _ in range(abs(k)):
        out = out @ step
    return out


def apex(p) -> complex:
    """The finite fixed point of A for a finite order p."""
    return 0.5j / math.sin(math.pi / p)


class TestGenerators:
    def test_traces_and_det(self):
        for p, q in [(3, 3), (2, 5), (7, 4), (math.inf, 3), (3, math.inf)]:
            A, B = make_generators(GroupSpec(p, q, 1.7 - 0.3j))
            assert abs(det2(A) - 1) < EPS_ALG and abs(det2(B) - 1) < EPS_ALG
            if p != math.inf:
                assert abs(tr2(A) - 2 * math.cos(math.pi / p)) < EPS_ALG
            else:
                assert abs(tr2(A) - 2) < EPS_ALG
            if q != math.inf:
                assert abs(tr2(B) - 2 * math.cos(math.pi / q)) < EPS_ALG

    def test_orders_are_exact(self):
        # A has order p: A^p = -I (trace 2cos(pi/p) lifts the rotation by 2pi/p).
        for p in (2, 3, 5, 8):
            A, _ = make_generators(GroupSpec(p, 3, 1.0 + 1.0j))
            acc = np.eye(2, dtype=complex)
            for _ in range(p):
                acc = acc @ A
            assert np.abs(acc + np.eye(2)).max() < 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidInputError):
            make_generators(GroupSpec(2, 2, 1.0))
        with pytest.raises(InvalidInputError):
            make_generators(GroupSpec(3, 3, 0.0))

    @pytest.mark.parametrize("rho", [complex("nan"), complex("inf"), complex("nan+1j")], ids=["nan", "inf", "nan+1j"])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(InvalidInputError):
            GroupSpec(3, 4, rho)

    def test_gamma_formula(self):
        # gamma = tr[A,B] - 2 = rho (rho - sigma) for random markings.
        for _ in range(30):
            p, q = (int(v) for v in RNG.integers(2, 12, 2))
            if p == 2 and q == 2:
                continue
            rho = complex(*RNG.normal(0, 2, 2))
            if abs(rho) < 0.1:
                continue
            spec = GroupSpec(p, q, rho)
            A, B = make_generators(spec)
            gamma_mat = tr2(A @ B @ inv2(A) @ inv2(B)) - 2.0
            assert abs(gamma_mat - gamma_of(spec)) < 1e-10
            assert abs(gamma_of(spec) - rho * (rho - sigma_pq(p, q))) < 1e-10

    def test_symmetry_image_preserves_gamma(self):
        spec = GroupSpec(3, 7, 2.3 + 0.4j)
        image = GroupSpec(3, 7, symmetry_image(spec))
        assert abs(gamma_of(spec) - gamma_of(image)) < 1e-12


class TestGeneratorPower:
    @given(
        p=st.one_of(st.integers(min_value=2, max_value=24), st.just(math.inf)),
        k=st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_repeated_product(self, p, k):
        # Closed form of A^k: [[alpha^k, s_k], [0, alpha^-k]] with
        # s_k = (alpha^k - alpha^-k) / (alpha - alpha^-1), or k for p = inf.
        A, _ = make_generators(GroupSpec(p, 3, 1.0 + 1.0j))
        if p == math.inf:
            want = np.array([[1.0, k], [0.0, 1.0]], dtype=complex)
        else:
            a = cmath.exp(1j * math.pi / p)
            s_k = (a**k - a**-k) / (a - 1.0 / a)
            want = np.array([[a**k, s_k], [0.0, a**-k]])
        assert np.abs(power(A, k) - want).max() < 1e-9

    def test_infinite_order_is_translation(self):
        A, B = make_generators(GroupSpec(math.inf, math.inf, 2.5 - 1j))
        assert np.abs(power(A, 5) - np.array([[1, 5], [0, 1]])).max() == 0
        assert np.abs(power(B, -3) - np.array([[1, 0], [-3 * (2.5 - 1j), 1]])).max() == 0


class TestTraceIdentity:
    def test_conjugation_invariance(self):
        # tr[A, A^n B A^m] = tr[A, B] = gamma + 2: conjugating B by powers of
        # A does not change the group's commutator trace.
        for _ in range(60):
            spec = random_spec()
            A, B = make_generators(spec)
            n, m = (int(v) for v in RNG.integers(-8, 9, 2))
            Bt = power(A, n) @ B @ power(A, m)
            t1 = tr2(A @ B @ inv2(A) @ inv2(B))
            t2 = tr2(A @ Bt @ inv2(A) @ inv2(Bt))
            assert abs(t1 - t2) < 1e-10 * max(1.0, abs(t1))
            assert abs(t1 - 2.0 - gamma_of(spec)) < 1e-10 * max(1.0, abs(t1))


class TestFixedPointsAndDisks:
    def test_fixed_points_are_fixed(self):
        # A fixes infinity and i / (2 sin(pi/p)); B fixes 0 and
        # 2i sin(pi/q) / rho.
        for _ in range(20):
            spec = random_spec()
            A, B = make_generators(spec)
            assert A[1, 0] == 0 and B[0, 1] == 0
            zb = 2j * math.sin(math.pi / spec.q) / spec.rho
            for m, z in ((A, apex(spec.p)), (B, 0.0), (B, zb)):
                assert abs(act(m, z) - z) < 1e-9 * max(1.0, abs(z))

    def test_isometric_disks_radius_and_centers(self):
        # B's isometric disk (center -d/c) and that of B^-1 (center a/c),
        # both of radius 1/|rho|, relate to the swapped exclusion disks:
        # the distance from rho to a (q, p) center is
        # 2 sin(pi/p) |rho| |center - apex of A|.  So rho clears that disk
        # exactly when the isometric disk subtends a half-angle below pi/p
        # at A's fixed point.
        for _ in range(40):
            spec = random_spec()
            _, B = make_generators(spec)
            a, _, c, d = B.ravel()
            Bi = inv2(B)
            assert abs(-Bi[1, 1] / Bi[1, 0] - a / c) < 1e-12 * abs(a / c)
            assert abs(1.0 / abs(Bi[1, 0]) - 1.0 / abs(c)) < 1e-12 / abs(c)
            centers = disk_centers_elliptic(spec.q, spec.p)
            scale = 2.0 * math.sin(math.pi / spec.p) * abs(spec.rho)
            for z in (-d / c, a / c):
                dist = scale * abs(z - apex(spec.p))
                assert min(abs(abs(spec.rho - ck) - dist) for ck in centers) < 1e-10 * max(1.0, dist)

    def test_isometric_circle_maps_to_partner(self):
        # B maps the boundary of its isometric disk onto the boundary of the
        # isometric disk of B^-1.
        for _ in range(20):
            spec = random_spec()
            _, B = make_generators(spec)
            a, _, c, d = B.ravel()
            radius = 1.0 / abs(c)
            for ang in np.linspace(0.0, 2.0 * math.pi, 7):
                z = -d / c + radius * cmath.exp(1j * ang)
                assert abs(abs(act(B, z) - a / c) - radius) < 1e-9 * max(1.0, radius)

    def test_upper_triangular_rejected(self):
        # rho = 0 makes B diagonal, so B shares infinity with A: the pair is
        # reducible, gamma vanishes and make_generators refuses it.
        spec = GroupSpec(3, 5, 0.0)
        assert gamma_of(spec) == 0
        with pytest.raises(InvalidInputError):
            make_generators(spec)


class TestSectorNormalization:
    def test_recomposition_and_trace(self):
        # A^p = -I, so A^n B A^m recomposes as +-A^(n mod p) B A^(m mod p)
        # with the same commutator trace.
        for _ in range(25):
            spec = random_spec()
            A, B = make_generators(spec)
            p = spec.p
            n, m = (int(v) for v in RNG.integers(-3 * p, 3 * p + 1, 2))
            full = power(A, n) @ B @ power(A, m)
            reduced = power(A, n % p) @ B @ power(A, m % p)
            sign = (-1) ** ((n - n % p) // p + (m - m % p) // p)
            assert np.abs(full - sign * reduced).max() < 1e-9 * max(1.0, abs(spec.rho))
            t1 = tr2(A @ full @ inv2(A) @ inv2(full))
            t2 = tr2(A @ reduced @ inv2(A) @ inv2(reduced))
            assert abs(t1 - t2) < 1e-9 * max(1.0, abs(t1))

    def test_preconditions(self):
        # orders are integers >= 2 or inf; the symmetry image needs finite ones
        for bad in (1, 0, -3, 2.5, math.nan):
            with pytest.raises(InvalidInputError):
                pi_over(bad)
            with pytest.raises(InvalidInputError):
                GroupSpec(bad, 3, 1.0)
            with pytest.raises(InvalidInputError):
                GroupSpec(3, bad, 1.0)
        for p, q in ((math.inf, 3), (3, math.inf)):
            with pytest.raises(InvalidInputError):
                symmetry_image(GroupSpec(p, q, 1.0))

    @pytest.mark.parametrize("digits, bits", [(400, 1329), (5000, 16610)])
    def test_order_past_the_float_range(self, digits, bits):
        # named by its size: no digits, and no ValueError from converting
        # an integer of more than 4300 digits to decimal
        n = 10**digits
        with pytest.raises(InvalidInputError) as err:
            pi_over(n)
        assert str(err.value) == (
            f"order must be an integer from 2 to the float maximum or inf, got an integer of {bits} bits"
        )
        for spec, name in ((lambda: GroupSpec(n, 3, 1.0), "p"), (lambda: GroupSpec(3, -n, 1.0), "q")):
            with pytest.raises(InvalidInputError, match=f"^{name} must be .* got an integer of {bits} bits$"):
                spec()


class TestSector:
    def test_apex_and_containment(self):
        # A is the rotation by 2 pi / p about its fixed point (the apex):
        # A(apex + w) = apex + alpha^2 w, and A^p is the identity on points.
        p = 4
        A, _ = make_generators(GroupSpec(p, 3, 1.0))
        top = apex(p)
        assert abs(top - 0.5j / math.sin(math.pi / 4)) < 1e-12
        alpha2 = cmath.exp(2j * pi_over(p))
        for w in (-1j, 0.3 + 0.2j, 2.0):
            assert abs(act(A, top + w) - (top + alpha2 * w)) < 1e-12
            z = top + w
            for _ in range(p):
                z = act(A, z)
            assert abs(z - (top + w)) < 1e-12

    def test_infinite_order_half_plane(self):
        # For p = inf, A is the translation z -> z + 1: parabolic, with no
        # finite fixed point.
        A, _ = make_generators(GroupSpec(math.inf, 3, 1.0))
        assert tr2(A) == 2 and A[1, 0] == 0
        for z in (-1j, 2.0 + 3.0j):
            assert act(A, z) == z + 1
