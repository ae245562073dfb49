"""The exclusion region Omega_{p,q} bounded by twelve oriented lines.

Every rho outside the closed region is certified free and discrete by one
of the concrete certificates; the region is sharp at four cusp groups on
its boundary.  The twelve lines are

  (1) Re z = 2 + 2 cos(pi/p - pi/q) and its reflection in Re z = 2S,
  (2) Im z = +-2 sqrt(1 - S^2),
  (3) the line through rho*_{p,q} and the real point x_{p,q}, its
      conjugate, and the reflections of both in Re z = 2S,
  (4) the same four lines built from the swapped marking (q, p),

with S = sin(pi/p) sin(pi/q).  For p = q the two slant families coincide
and the vertical lines (1) touch the region only at its two real vertices,
leaving the hexagon bounded by 6 lines.

omega_margin is the margin at any points; outside_grid decides which
pixels of a grid lie outside, from a bisection on each pixel row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .mobius import (
    EPS_ALG,
    InvalidInputError,
    UnsupportedError,
    pi_over,
    sigma_pq,
    sin_sin,
    unhashable_order_error,
)


def _require_orders(p, q) -> None:
    for name, n in (("p", p), ("q", q)):
        if n == math.inf or pi_over(n) > math.pi / 3:  # pi_over rejects a non-order
            raise UnsupportedError(f"Omega_{{p,q}} needs finite orders 3 <= p, q; got {name} = {n!r}")


def xi(p) -> float:
    """sqrt(2) sqrt(7 - cos(2 pi/p)); equals 2 sqrt(3) in the limit p = inf."""
    if p == math.inf:
        return 2.0 * math.sqrt(3.0)
    if pi_over(p) > math.pi / 3:
        raise UnsupportedError(f"xi needs an order p >= 3 or inf, got {p!r}")
    return math.sqrt(2.0) * math.sqrt(7.0 - math.cos(2.0 * math.pi / p))


@lru_cache(maxsize=128, typed=True)
def _tangency(p, q) -> tuple[complex, float]:
    """(rho*_{p,q}, x_{p,q}) of a marking that _require_orders accepts, with
    xi(p) and the sines and cosines derived once per marking."""
    _require_orders(p, q)
    x = xi(p)
    sp, cp = math.sin(pi_over(p)), math.cos(pi_over(p))
    sq, cq = math.sin(pi_over(q)), math.cos(pi_over(q))
    rs = complex(cp * cq + 0.5 * sq * (4.0 * sp + x), 0.5 * x * cq + cp * sq)
    tp, tq = 2.0 * math.pi / p, 2.0 * math.pi / q
    num = (
        math.cos(tp - tq)
        - math.cos(tp)
        - math.cos(tq)
        + x * (sp - math.sin(pi_over(p) - tq))
        + 5.0
    )
    return rs, num / rs.real


def rho_star(p, q) -> complex:
    """The tangency point rho*_{p,q} on the boundary of the disk union."""
    try:
        return _tangency(p, q)[0]
    except TypeError as exc:
        raise unhashable_order_error(exc, p, q) from None


def x_pq(p, q) -> float:
    """Real-axis intercept of the line through rho*_{p,q} with direction
    i rho*_{p,q}; the closed form agrees with |rho*|^2 / Re(rho*)."""
    try:
        return _tangency(p, q)[1]
    except TypeError as exc:
        raise unhashable_order_error(exc, p, q) from None


@lru_cache(maxsize=128, typed=True)
def _levels(p, q) -> tuple[float, float, float, float]:
    """(S, sigma, 2 sqrt(1 - S^2), 2 + 2 cos(pi/p - pi/q)) of a marking:
    the symmetry constants, the height of the horizontal sides and the
    abscissa of the first vertical side, derived once per marking."""
    s = sin_sin(p, q)
    v = 2.0 + 2.0 * math.cos(pi_over(p) - pi_over(q))
    return s, sigma_pq(p, q), 2.0 * math.sqrt(max(1.0 - s * s, 0.0)), v


def im_bound(p, q) -> float:
    """2 sqrt(1 - S^2), the height of the horizontal boundary lines."""
    try:
        return _levels(p, q)[2]
    except TypeError as exc:
        raise unhashable_order_error(exc, p, q) from None


@dataclass(frozen=True)
class OrientedLine:
    """Line {point + t * direction} with a chosen inside half-plane.

    side = +1 marks the half-plane to the left of the direction as inside,
    side = -1 the right; margin() is positive strictly inside.
    """

    point: complex
    direction: complex
    side: int

    def __post_init__(self):
        d = complex(self.direction)
        r = abs(d)
        if r == 0.0:
            raise InvalidInputError("line direction must be nonzero")
        object.__setattr__(self, "direction", d / r)
        object.__setattr__(self, "point", complex(self.point))
        if self.side not in (+1, -1):
            raise InvalidInputError(f"side must be +1 or -1, got {self.side!r}")

    def margin(self, z):
        """Signed distance of z into the inside half-plane (array-aware).
        It reads only point, direction and side, so outside_grid also
        evaluates it on all of a region's sides at once, stacked."""
        return self.side * ((z - self.point) / self.direction).imag


def _line_through(a: complex, b: complex, inner: complex) -> OrientedLine:
    d = b - a
    probe = ((inner - a) / d).imag
    if abs(probe) < EPS_ALG:
        raise InvalidInputError("inner reference point lies on the line")
    return OrientedLine(a, d, +1 if probe > 0 else -1)


@dataclass(frozen=True)
class OmegaRegion:
    """Omega_{p,q} as an intersection of open half-planes."""

    lines: tuple


def build_omega(p, q) -> OmegaRegion:
    """The oriented boundary lines of Omega_{p,q} (12, or 6 when p = q).

    Lines are oriented so the symmetry center 2S is inside.  For p = q the
    swapped slant family is the first one, so it is built once, and the
    two vertical lines meet the closed hexagon only at its real vertices
    x_{p,p} = 4 and sigma - 4, so they are omitted as redundant.
    """
    _require_orders(p, q)
    if p > q:
        p, q = q, p
    _, sigma, h, v = _levels(p, q)
    inner = complex(sigma / 2.0, 0.0)

    lines: list[OrientedLine] = []
    if p != q:
        for x0 in (v, sigma - v):
            lines.append(_line_through(x0, x0 + 1j, inner))
    for y0 in (h, -h):
        lines.append(_line_through(1j * y0, 1j * y0 + 1.0, inner))
    for a, b in ((p, q), (q, p)) if p != q else ((p, q),):
        rs, x0 = _tangency(a, b)
        for z0, x1 in (
            (rs, x0),
            (rs.conjugate(), x0),
            (sigma - rs, sigma - x0),
            (sigma - rs.conjugate(), sigma - x0),
        ):
            lines.append(_line_through(z0, x1, inner))
    return OmegaRegion(tuple(lines))


def omega_margin(region: OmegaRegion, z):
    """min over boundary lines of the inside margin (array-aware);
    positive strictly inside Omega, negative outside.  A point takes
    numpy's complex division too, so its margin is a grid's bit for bit.
    Near the float maximum the complex quotient in OrientedLine.margin can
    overflow; the margin is then an infinity of the right sign, so overflow
    is ignored here, once per call."""
    z = np.asarray(z)
    with np.errstate(over="ignore"):
        margins = [line.margin(z) for line in region.lines]
    out = margins[0]
    for m in margins[1:]:
        out = np.minimum(out, m)
    return out


def outside_grid(region: OmegaRegion, xs, ys) -> np.ndarray:
    """omega_margin(region, xs[None, :] + 1j * ys[:, None]) < -EPS_ALG, the
    pixels strictly outside Omega, from len(xs).bit_length() margins per
    side and row rather than one per side and pixel.

    Along a row (y fixed) each side's margin, as computed in floats, is
    monotone in x.  numpy divides a complex a + ib by the unit D with
    Smith's algorithm: where |Re D| >= |Im D| the imaginary part is
    (b - a r) s with r = Im D / Re D and s = 1 / (Re D + Im D r), and
    otherwise (b r - a) s with r = Re D / Im D and s = 1 / (Im D + Re D r).
    Here a = x - Re P and b = y - Im P, with P the line's point; r, s and b
    are fixed along the row.  Each IEEE operation on the way from x (a
    difference with a constant, a product with a constant, fused or not,
    and the sign flip by side) is monotone in its argument, so the margin
    is too.  s has the sign of the larger of Re D and Im D, so in both
    cases the margin moves with x against side * Im D, and is constant
    along the row where r is 0.  No margin here is NaN: the windows are
    finite, |r| <= 1 and s is finite and nonzero, so a rounding overflows at
    most to an infinity of the right sign (ignored, as in omega_margin).

    So a side's outside pixels in a row (margin < -EPS_ALG) are a prefix
    of the columns where side * Im D <= 0 and a suffix otherwise, and a
    row's outside pixels, which are outside some side, are one prefix and
    one suffix.  Each (side, row) count is found at once by a bisection on
    the column index, at the pixel centres themselves, so the mask is the
    grid oracle's bit for bit.
    """
    n = len(xs)
    # the lines' fields stacked into (sides, 1) columns, for
    # OrientedLine.margin on a (sides, rows) array
    sides = SimpleNamespace(**{f: np.array([[getattr(line, f)] for line in region.lines])
                               for f in ("point", "direction", "side")})
    suffix = sides.side * sides.direction.imag > 0
    iy = 1j * ys
    # k: the count of leading columns where the side's pixels are outside
    # (prefix sides) or not outside (suffix sides), built bit by bit.  It
    # grows to c where column c - 1 holds, read at x_at[c] = xs[min(c, n) - 1]:
    # a count past n reads the last column, so it is taken only where every
    # column holds, and then means n.
    steps = n.bit_length()
    x_at = np.concatenate((xs[:1], xs, np.repeat(xs[-1:], (1 << steps) - 1 - n)))
    k = np.zeros((len(region.lines), len(iy)), dtype=np.intp)
    with np.errstate(over="ignore"):
        for bit in reversed(range(steps)):
            longer = k + (1 << bit)
            holds = (OrientedLine.margin(sides, x_at[longer] + iy) < -EPS_ALG) != suffix
            k = np.where(holds, longer, k)
    prefix_end = np.where(suffix, 0, k).max(axis=0)
    suffix_start = np.where(suffix, k, n).min(axis=0)
    # compared in the narrowest unsigned dtype that holds every count (up to
    # 2**steps - 1), ~3x faster than in intp against the stride-0 columns
    dtype = np.min_scalar_type((1 << steps) - 1)
    cols = np.arange(n, dtype=dtype)
    return (cols < prefix_end.astype(dtype)[:, None]) | (cols >= suffix_start.astype(dtype)[:, None])


def boundary_cusps(p, q) -> tuple[complex, complex, complex, complex]:
    """The four cusp parameters on the boundary of Omega_{p,q}.

    Returns (rho_{0/1}, rho_{1/1}, rho_{1/2}^+, rho_{1/2}^-); the first two
    are symmetry partners on the vertical lines (the real vertices when
    p = q), the last two sit on the horizontal lines Im z = +-2 sqrt(1-S^2).
    """
    _require_orders(p, q)
    s, _, h, v = _levels(p, q)
    rho01 = complex(v, 0.0)
    rho11 = complex(-2.0 - 2.0 * math.cos(pi_over(p) + pi_over(q)), 0.0)
    half = complex(2.0 * s, h)
    return rho01, rho11, half, half.conjugate()
