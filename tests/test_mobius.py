"""Matrix layer: generators, powers, disks, sector normalization."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobcert.mobius import (
    EPS_ALG,
    FixesInfinityError,
    GroupSpec,
    InvalidInputError,
    PreconditionError,
    SectorK,
    det2,
    fixed_points,
    gamma_of,
    generator_power,
    inv2,
    isometric_disks,
    make_generators,
    mobius_apply,
    normalize_into_sector,
    sigma_pq,
    symmetry_image,
    tr2,
)

RNG = np.random.default_rng(20260814)


def random_sl2(rng=RNG) -> np.ndarray:
    m = rng.normal(0, 1, (2, 2)) + 1j * rng.normal(0, 1, (2, 2))
    return m / np.sqrt(np.linalg.det(m))


orders = st.one_of(st.integers(min_value=2, max_value=40), st.just(math.inf))


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
        A = generator_power(p, 1)
        direct = np.eye(2, dtype=complex)
        step = A if k >= 0 else inv2(A)
        for _ in range(abs(k)):
            direct = direct @ step
        assert np.abs(generator_power(p, k) - direct).max() < 1e-9

    def test_infinite_order_is_translation(self):
        assert np.abs(generator_power(math.inf, 5) - np.array([[1, 5], [0, 1]])).max() == 0


class TestTraceIdentity:
    def test_conjugation_invariance(self):
        # tr[A, A^n Y A^m] = tr[A, Y]: the certificate's key exact identity.
        for _ in range(60):
            p = int(RNG.integers(2, 15))
            Y = random_sl2()
            A = generator_power(p, 1)
            n, m = (int(v) for v in RNG.integers(-8, 9, 2))
            Yt = generator_power(p, n) @ Y @ generator_power(p, m)
            t1 = tr2(A @ Y @ inv2(A) @ inv2(Y))
            t2 = tr2(A @ Yt @ inv2(A) @ inv2(Yt))
            assert abs(t1 - t2) < 1e-10


class TestFixedPointsAndDisks:
    def test_fixed_points_are_fixed(self):
        for _ in range(20):
            m = random_sl2()
            for z in fixed_points(m):
                if z == math.inf:
                    continue
                assert abs(mobius_apply(m, z) - z) < 1e-8

    def test_isometric_disks_radius_and_centers(self):
        m = random_sl2()
        a, b, c, d = m.ravel()
        d1, d2 = isometric_disks(m)
        assert abs(d1.center - (-d / c)) < 1e-12
        assert abs(d2.center - (a / c)) < 1e-12
        assert abs(d1.radius - 1.0 / abs(c)) < 1e-12
        assert abs(d2.radius - d1.radius) < 1e-12

    def test_isometric_circle_maps_to_partner(self):
        # Y maps the boundary of its isometric disk onto the boundary of the
        # isometric disk of Y^{-1}.
        for _ in range(20):
            m = random_sl2()
            if abs(m[1, 0]) < 1e-6:
                continue
            d1, d2 = isometric_disks(m)
            for ang in np.linspace(0.0, 2.0 * math.pi, 7):
                z = d1.center + d1.radius * cmath.exp(1j * ang)
                w = mobius_apply(m, z)
                assert abs(abs(w - d2.center) - d2.radius) < 1e-9

    def test_upper_triangular_rejected(self):
        m = np.array([[2.0, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(FixesInfinityError):
            isometric_disks(m)


class TestSectorNormalization:
    def _in_sector(self, p, Y) -> bool:
        s = SectorK(p)
        lim = math.pi / p + 1e-12

        def ang(c):
            w = c - s.apex
            return 0.0 if abs(w) < 1e-12 else cmath.phase(w * 1j)

        d1, d2 = isometric_disks(Y)
        return abs(ang(d1.center)) <= lim and abs(ang(d2.center)) <= lim

    def test_matches_brute_force(self):
        # Oracle: enumerate all |m|, |n| <= p and take the smallest
        # (|m|+|n|, m, n) whose disks land in the sector.
        for _ in range(25):
            p = int(RNG.integers(3, 8))
            Y = random_sl2()
            if abs(Y[1, 0]) < 1e-6:
                continue
            yt, m, n = normalize_into_sector(p, Y)
            assert self._in_sector(p, yt)
            best = None
            for m2 in range(-p, p + 1):
                for n2 in range(-p, p + 1):
                    cand = generator_power(p, n2) @ Y @ generator_power(p, m2)
                    if self._in_sector(p, cand):
                        key = (abs(m2) + abs(n2), m2, n2)
                        best = key if best is None or key < best else best
            assert best == (abs(m) + abs(n), m, n)

    def test_recomposition_and_trace(self):
        for _ in range(25):
            p = int(RNG.integers(3, 10))
            Y = random_sl2()
            if abs(Y[1, 0]) < 1e-6:
                continue
            yt, m, n = normalize_into_sector(p, Y)
            rec = generator_power(p, n) @ Y @ generator_power(p, m)
            assert np.abs(rec - yt).max() < 1e-12
            A = generator_power(p, 1)
            t1 = tr2(A @ Y @ inv2(A) @ inv2(Y))
            t2 = tr2(A @ yt @ inv2(A) @ inv2(yt))
            assert abs(t1 - t2) < 1e-10

    def test_preconditions(self):
        Y = random_sl2()
        with pytest.raises(PreconditionError):
            normalize_into_sector(2, Y)
        with pytest.raises(PreconditionError):
            normalize_into_sector(math.inf, Y)


class TestSector:
    def test_apex_and_containment(self):
        s = SectorK(4)
        assert abs(s.apex - 0.5j / math.sin(math.pi / 4)) < 1e-12
        # the axis points toward -i: apex - i t is inside for t > 0
        assert s.contains(s.apex - 1j)
        assert not s.contains(s.apex + 1j)

    def test_infinite_order_half_plane(self):
        s = SectorK(math.inf)
        assert s.contains(-1j)
