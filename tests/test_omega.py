"""The exclusion region Omega: sides, markers, symmetry, cusps."""

import math

import numpy as np
import pytest

from mobcert.certificates import disk_centers_elliptic, disk_slack
from mobcert.mobius import EPS_ALG, UnsupportedError, sigma_pq
from mobcert.omega import (
    boundary_cusps,
    build_omega,
    im_bound,
    omega_margin,
    rho_star,
    x_pq,
    xi,
)
from mobcert.render import region_polygon


class TestXi:
    def test_closed_form(self):
        # xi(p) = sqrt(2) sqrt(7 - cos(2 pi / p))
        for p in range(3, 40):
            expected = math.sqrt(2.0) * math.sqrt(7.0 - math.cos(2.0 * math.pi / p))
            assert abs(xi(p) - expected) < 1e-12
        assert abs(xi(math.inf) - 2.0 * math.sqrt(3.0)) < 1e-12

    def test_rejects_small_orders(self):
        with pytest.raises(UnsupportedError):
            xi(2)


class TestMarkers:
    def test_x_pp_is_four(self):
        for p in range(3, 40):
            assert abs(x_pq(p, p) - 4.0) < 1e-12

    def test_x_pq_is_squared_modulus_over_real_part(self):
        # Oracle: the line through 0 scaled so Re = x crosses at
        # x = |rho*|^2 / Re(rho*); the long closed form must agree.
        for p in range(3, 16):
            for q in range(p, 16):
                rs = rho_star(p, q)
                assert abs(x_pq(p, q) - abs(rs) ** 2 / rs.real) < 1e-10

    def test_rho_star_on_exactly_two_circles(self):
        for p in range(3, 12):
            for q in range(p, 12):
                rs = rho_star(p, q)
                dists = [abs(rs - c) for c in disk_centers_elliptic(p, q)]
                on = [abs(d - 2.0) < 1e-9 for d in dists]
                assert sum(on) == 2
                assert all(d > 2.0 + 1e-9 for d, o in zip(dists, on) if not o)

    def test_im_bound_value(self):
        for p, q in [(3, 3), (3, 7), (5, 9)]:
            S = math.sin(math.pi / p) * math.sin(math.pi / q)
            assert abs(im_bound(p, q) - 2.0 * math.sqrt(1.0 - S * S)) < 1e-12


class TestRegionShape:
    def test_line_counts(self):
        assert len(build_omega(3, 3).lines) == 6
        assert len(build_omega(5, 5).lines) == 6
        assert len(build_omega(3, 4).lines) == 12
        assert len(build_omega(3, 7).lines) == 12

    def test_marking_order_irrelevant(self):
        a = build_omega(3, 7)
        b = build_omega(7, 3)
        assert a == b

    def test_rejects_unsupported_orders(self):
        with pytest.raises(UnsupportedError):
            build_omega(2, 5)
        with pytest.raises(UnsupportedError):
            build_omega(3, math.inf)

    def test_contains_symmetry_center(self):
        for p, q in [(3, 3), (3, 4), (4, 4), (3, 7), (5, 9)]:
            region = build_omega(p, q)
            center = 2.0 * math.sin(math.pi / p) * math.sin(math.pi / q)
            assert omega_margin(region, center) > EPS_ALG

    def test_symmetry_center_is_far_inside_every_side(self):
        # build_omega orients each side by the side of it that sigma/2 lies
        # on, with no check that it lies off the side: its margin is at
        # least 1 (sqrt(7)/2 at (3, 3), the least), over orders 3..119 and
        # 10^3..10^18
        orders = [*range(3, 120), *(10**k for k in range(3, 19))]
        least = math.inf
        for i, p in enumerate(orders):
            for q in orders[i:]:
                center = sigma_pq(p, q) / 2.0
                least = min(least, *(line.margin(center) for line in build_omega(p, q).lines))
        assert least == pytest.approx(math.sqrt(7.0) / 2.0, rel=1e-12)
        assert least >= 1.0

    def test_margin_invariant_under_symmetries(self):
        # Omega is closed under conjugation and under z -> sigma - z.
        rng = np.random.default_rng(9)
        for p, q in [(3, 3), (3, 5), (4, 7)]:
            region = build_omega(p, q)
            sigma = sigma_pq(p, q)
            z = rng.normal(0, 3, 50) + 1j * rng.normal(0, 3, 50)
            m = omega_margin(region, z)
            assert np.abs(m - omega_margin(region, z.conj())).max() < 1e-9
            assert np.abs(m - omega_margin(region, sigma - z)).max() < 1e-9

    def test_margin_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        region = build_omega(3, 7)
        z = rng.uniform(-6.0, 12.0, 600) + 1j * rng.uniform(-6.0, 6.0, 600)
        arr = omega_margin(region, z)
        assert arr.shape == z.shape
        want = np.array([omega_margin(region, complex(v)) for v in z[:50]])
        assert np.abs(arr[:50] - want).max() < 1e-12

    @pytest.mark.parametrize("p, q", [(3, 4), (5, 9), (7, 7)])
    def test_point_margin_is_the_grid_margin(self, p, q):
        # A Python complex takes numpy's complex division, as a grid does,
        # so each point's margin is the grid's bit for bit (256^2 pixel
        # centres of the window [-3, 6] x [-4.5, 4.5]).
        region = build_omega(p, q)
        xs = -3.0 + (np.arange(256) + 0.5) * (9.0 / 256)
        ys = -4.5 + (np.arange(256) + 0.5) * (9.0 / 256)
        grid = omega_margin(region, xs[None, :] + 1j * ys[:, None])
        points = [[omega_margin(region, complex(x, y)) for x in xs.tolist()] for y in ys.tolist()]
        assert np.array_equal(np.array(points), grid)

    def test_point_margin_past_the_float_range(self):
        # the quotient overflows to an infinity of the right sign, without
        # RuntimeWarning (an error under the test policy)
        assert omega_margin(build_omega(3, 4), 1.7e308 + 1.7e308j) == -math.inf

    def test_polygon_vertices_on_boundary(self):
        for p, q in [(3, 3), (4, 4), (3, 4), (3, 7)]:
            region = build_omega(p, q)
            poly = region_polygon(region)
            assert len(poly) >= 6
            for v in poly:
                assert abs(omega_margin(region, v)) < 1e-7

    def test_hexagon_vertices_left_of_dropped_verticals(self):
        # For p = q the vertical supporting lines Re = 2 + 2cos(0) = 4 and
        # Re = sigma - 4 touch Omega only at the real vertices, so they are
        # not sides; every other vertex lies strictly inside them.
        for p in (3, 4, 6, 10):
            region = build_omega(p, p)
            sigma = sigma_pq(p, p)
            for v in region_polygon(region):
                assert v.real <= 4.0 + 1e-9
                assert v.real >= sigma - 4.0 - 1e-9
                if abs(v.imag) > 1e-9:
                    assert v.real < 4.0 - 1e-9

    def test_verticals_are_genuine_sides_for_distinct_orders(self):
        # For p != q the vertical Re = 2 + 2cos(pi/p - pi/q) carries a whole
        # edge: two distinct polygon vertices realize it.
        for p, q in [(3, 4), (3, 7), (5, 9)]:
            region = build_omega(p, q)
            v = 2.0 + 2.0 * math.cos(math.pi / p - math.pi / q)
            hits = [z for z in region_polygon(region) if abs(z.real - v) < 1e-9]
            assert len(hits) >= 2


class TestBoundaryCusps:
    def test_closed_forms(self):
        for p, q in [(3, 3), (3, 4), (4, 4), (3, 7), (5, 9)]:
            c01, c11, ch, chc = boundary_cusps(p, q)
            S = math.sin(math.pi / p) * math.sin(math.pi / q)
            assert abs(c01 - (2.0 + 2.0 * math.cos(math.pi / p - math.pi / q))) < 1e-12
            assert abs(c11 - (-2.0 - 2.0 * math.cos(math.pi / p + math.pi / q))) < 1e-12
            assert abs(c01 + c11 - sigma_pq(p, q)) < 1e-12
            assert abs(ch - (2.0 * S + 2j * math.sqrt(1.0 - S * S))) < 1e-12
            assert abs(chc - ch.conjugate()) < 1e-12

    def test_cusps_on_boundary(self):
        for p, q in [(3, 3), (3, 4), (4, 4), (3, 7), (5, 9)]:
            region = build_omega(p, q)
            for z in boundary_cusps(p, q):
                assert abs(omega_margin(region, z)) < 1e-9

    def test_real_cusps_touch_disks(self):
        # rho_{0/1} is the tangency point of the vertical support with the
        # disk around 2cos(pi/p - pi/q): its disk slack is exactly zero.
        for p, q in [(3, 3), (3, 4), (5, 9)]:
            c01, c11, _, _ = boundary_cusps(p, q)
            assert abs(disk_slack(p, q, c01)) < 1e-12
            assert abs(disk_slack(p, q, c11)) < 1e-12
