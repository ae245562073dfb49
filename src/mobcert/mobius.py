"""Core types for two-generator Mobius groups with elliptic generators.

Matrices are 2x2 complex numpy arrays normalized to determinant 1.
Group parameters follow the (p, q, rho) convention:

    A = [[alpha, 1], [0, 1/alpha]],   alpha = exp(i*pi/p)
    B = [[beta, 0], [rho, 1/beta]],   beta  = exp(i*pi/q)

so A is elliptic of order p fixing infinity and B is elliptic of order q
fixing 0.  An order of ``math.inf`` means a parabolic generator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

EPS_ALG = 1e-12  # algebraic identities (traces, determinants)
EPS_GEO = 1e-9  # geometric predicates (distances, incidence)

INF_POINT = complex(math.inf, 0.0)


class InvalidInputError(ValueError):
    """A group spec or argument is outside the supported domain."""


class UndefinedFixedPointsError(ValueError):
    """Fixed points requested for a matrix too close to the identity."""


class FixesInfinityError(ValueError):
    """Isometric disks requested for a matrix with c = 0."""


class SharedFixedPointError(ValueError):
    """Two elements share a fixed point where a precondition forbids it."""


class PreconditionError(ValueError):
    """A certificate was invoked outside its hypotheses."""


class UnsupportedError(ValueError):
    """A parameter combination the implementation does not cover."""


def _valid_order(n) -> bool:
    if n == math.inf:
        return True
    return isinstance(n, (int, np.integer)) and n >= 2


def pi_over(n) -> float:
    """pi/n for an integer order n >= 2, or 0.0 for n = inf."""
    if not _valid_order(n):
        raise InvalidInputError(f"order must be an integer >= 2 or inf, got {n!r}")
    if n == math.inf:
        return 0.0
    return math.pi / n


def sin_sin(p, q) -> float:
    """S = sin(pi/p) * sin(pi/q)."""
    return math.sin(pi_over(p)) * math.sin(pi_over(q))


def sigma_pq(p, q) -> float:
    """sigma = 4 sin(pi/p) sin(pi/q), the symmetry constant rho -> sigma - rho."""
    return 4.0 * sin_sin(p, q)


@dataclass(frozen=True)
class GroupSpec:
    """Marked pair (p, q, rho).  rho = 0 is allowed (reducible pair);
    a non-finite rho is rejected."""

    p: object
    q: object
    rho: complex

    def __post_init__(self):
        if not _valid_order(self.p):
            raise InvalidInputError(f"p must be an integer >= 2 or inf, got {self.p!r}")
        if not _valid_order(self.q):
            raise InvalidInputError(f"q must be an integer >= 2 or inf, got {self.q!r}")
        rho = complex(self.rho)
        if not cmath.isfinite(rho):
            raise InvalidInputError(f"rho must be finite, got {rho!r}")
        object.__setattr__(self, "rho", rho)

    @property
    def alpha(self) -> complex:
        return cmath.exp(1j * pi_over(self.p))

    @property
    def beta(self) -> complex:
        return cmath.exp(1j * pi_over(self.q))

    @property
    def sigma(self) -> float:
        return sigma_pq(self.p, self.q)

    def swapped(self) -> "GroupSpec":
        return GroupSpec(self.q, self.p, self.rho)


def mat2c(a, b, c, d) -> np.ndarray:
    """2x2 complex matrix from entries."""
    return np.array([[a, b], [c, d]], dtype=complex)


def det2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def tr2(m: np.ndarray) -> complex:
    return m[0, 0] + m[1, 1]


def inv2(m: np.ndarray) -> np.ndarray:
    """Inverse of a det-1 matrix (adjugate)."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def mobius_apply(m: np.ndarray, z: complex) -> complex:
    """Apply the Mobius transformation of m to z (inf aware)."""
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if z == INF_POINT or (isinstance(z, complex) and cmath.isinf(z)):
        return a / c if c != 0 else INF_POINT
    num = a * z + b
    den = c * z + d
    if den == 0:
        return INF_POINT
    return num / den


def make_generators(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """The marked generators (A, B) for a spec; errors on degenerate specs."""
    if spec.p == 2 and spec.q == 2:
        raise InvalidInputError("p = q = 2 is a degenerate (dihedral) spec")
    if spec.rho == 0:
        raise InvalidInputError("rho = 0 gives a reducible pair")
    a = spec.alpha
    b = spec.beta
    A = mat2c(a, 1.0, 0.0, 1.0 / a)
    B = mat2c(b, 0.0, spec.rho, 1.0 / b)
    return A, B


def gamma_of(spec: GroupSpec) -> complex:
    """gamma = tr[A,B] - 2 = rho * (rho - sigma)."""
    return spec.rho * (spec.rho - spec.sigma)


def symmetry_image(spec: GroupSpec) -> complex:
    """The partner parameter sigma - rho; gamma_of is invariant under it."""
    if spec.p == math.inf or spec.q == math.inf:
        raise InvalidInputError("symmetry image needs finite orders")
    return spec.sigma - spec.rho


def fixed_points(m: np.ndarray) -> tuple[complex, complex]:
    """Fixed points of a det-1 matrix on the Riemann sphere.

    Returns a pair; INF_POINT marks the point at infinity.  A parabolic
    returns its single fixed point twice.  Raises for (near-)identity.
    """
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if abs(b) < EPS_ALG and abs(c) < EPS_ALG and abs(a - d) < EPS_ALG:
        raise UndefinedFixedPointsError("matrix is (projectively) the identity")
    if abs(c) < EPS_ALG:
        # fixes infinity; finite fixed point from (a - d) z + b = 0
        if abs(a - d) < EPS_ALG:
            return INF_POINT, INF_POINT  # parabolic fixing infinity
        return INF_POINT, b / (d - a)
    disc = cmath.sqrt((a - d) ** 2 + 4.0 * b * c)
    z1 = ((a - d) + disc) / (2.0 * c)
    z2 = ((a - d) - disc) / (2.0 * c)
    return z1, z2


@dataclass(frozen=True)
class Disk:
    """Closed disk in the plane."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise InvalidInputError(f"disk radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", complex(self.center))

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        return abs(z - self.center) <= self.radius + tol


def isometric_disks(m: np.ndarray) -> tuple[Disk, Disk]:
    """Isometric disk of m and of its inverse.

    For m = [[a, b], [c, d]] with c != 0 these are the disks of radius 1/|c|
    centered at -d/c and a/c; m maps the first boundary circle onto the
    second.  Raises if m fixes infinity (c = 0).
    """
    a, _, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if abs(c) < EPS_ALG:
        raise FixesInfinityError("isometric disks undefined: matrix has c = 0")
    r = 1.0 / abs(c)
    return Disk(-d / c, r), Disk(a / c, r)


@dataclass(frozen=True)
class SectorK:
    """Open sector with apex at the finite fixed point of A.

    The apex is P = (i/2) csc(pi/p); the sector opens toward 0 (axis
    direction -i from the apex) with half-angle pi/p, so A, which rotates
    by 2 pi / p about P, tiles the plane near P by copies of the sector.
    """

    p: object

    def __post_init__(self):
        if not _valid_order(self.p):
            raise InvalidInputError(f"sector needs an order >= 2 or inf, got {self.p!r}")

    @property
    def apex(self) -> complex:
        if self.p == math.inf:
            return INF_POINT
        return 0.5j / math.sin(pi_over(self.p))

    @property
    def half_angle(self) -> float:
        return pi_over(self.p)

    def _angle_from_axis(self, z: complex) -> float:
        """Angle of z - apex measured from the -i axis, in (-pi, pi]."""
        w = (z - self.apex) * 1j  # rotate so the axis -i lands on +1
        return cmath.phase(w)

    def contains(self, z: complex, tol: float = EPS_GEO) -> bool:
        """Membership in the closed sector (within tol in angle/offset)."""
        if self.p == math.inf:
            # degenerate limit: half-plane Im z < apex height -> everything
            return True
        w = z - self.apex
        if abs(w) <= tol:
            return True
        return abs(self._angle_from_axis(z)) <= self.half_angle + tol / max(abs(w), tol)

    def distance(self, z: complex) -> float:
        """Euclidean distance from z to the closed sector."""
        if self.p == math.inf:
            return 0.0
        w = (z - self.apex) * 1j
        r = abs(w)
        if r == 0.0:
            return 0.0
        phi = cmath.phase(w)
        h = self.half_angle
        if abs(phi) <= h:
            return 0.0
        # distance to the nearer boundary ray from the apex
        psi = min(abs(phi - h), abs(phi + h))
        if psi >= math.pi / 2.0:
            return r  # projection falls behind the apex
        return r * math.sin(psi)


def disk_meets_sector(disk: Disk, sector: SectorK, tol: float = EPS_GEO) -> bool:
    return sector.distance(disk.center) <= disk.radius + tol


def _turns_into_range(angle: float, p: int) -> list[int]:
    """Integers m with angle - m * 2pi/p in [-pi/p, pi/p] mod 2pi, ties both ways."""
    step = 2.0 * math.pi / p
    x = angle / step
    k = round(x)
    cands = {k}
    if abs(abs(x - math.floor(x + 0.5)) - 0.5) < 1e-9:
        cands.update({math.floor(x + 0.5), math.ceil(x - 0.5)})
    for m in list(cands):  # m and -m turn the same way when 2|m| = p
        if 2 * abs(m) == p:
            cands.add(-m)
    out = []
    for m in cands:
        resid = math.remainder(angle - m * step, 2.0 * math.pi)
        if abs(resid) <= step / 2.0 + 1e-9:
            out.append(int(m))
    return sorted(out)


def generator_power(p, k: int) -> np.ndarray:
    """A^k in closed form for the canonical generator A of order p."""
    a = cmath.exp(1j * pi_over(p))
    if abs(a - a.conjugate()) < EPS_ALG:  # p = inf: A is the translation z+1
        return mat2c(1.0, float(k), 0.0, 1.0)
    ak = a**k
    return mat2c(ak, (ak - ak.conjugate()) / (a - a.conjugate()), 0.0, ak.conjugate())


def normalize_into_sector(p, Y: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Conjugating powers landing the isometric disks of Y in the sector.

    Returns (Ytilde, m, n) with Ytilde = A^n Y A^m whose isometric-disk
    centers lie in the closed sector of A; the disks of Ytilde are
    A^(-m)(D1) and A^n(D2) for the original disks (D1, D2), with the same
    radius, and tr[A, Ytilde] = tr[A, Y].  Ties in the rotation choice are
    broken by the smallest |m| + |n|, then the smallest m, then n.
    """
    if p == math.inf or not _valid_order(p) or p < 3:
        raise PreconditionError(f"normalization needs a finite order p >= 3, got {p!r}")
    sector = SectorK(p)
    d1, d2 = isometric_disks(Y)
    apex = sector.apex
    step = 2.0 * math.pi / p

    def axis_angle(center: complex) -> float:
        w = center - apex
        if abs(w) < EPS_ALG:
            return 0.0  # disk centered at the apex: any power works
        return cmath.phase(w * 1j)  # angle measured from the -i axis

    # A^(-m) rotates by -m * step, so we need angle(D1) - m * step in range;
    # A^n rotates by +n * step, so we need angle(D2) + n * step in range.
    ms = _turns_into_range(axis_angle(d1.center), int(p))
    ns = [-k for k in _turns_into_range(axis_angle(d2.center), int(p))]
    best = None
    for m in ms:
        for n in ns:
            key = (abs(m) + abs(n), m, n)
            if best is None or key < best[0]:
                best = (key, m, n)
    _, m, n = best
    ytilde = generator_power(p, n) @ Y @ generator_power(p, m)
    return ytilde, m, n
