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
import sys
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

EPS_ALG = 1e-12  # algebraic identities (traces, determinants)
_ORDER_MAX = int(sys.float_info.max)  # the largest order: past it, pi/n overflows converting n


class InvalidInputError(ValueError):
    """A group spec or argument is outside the supported domain."""


class PreconditionError(ValueError):
    """A certificate was invoked outside its hypotheses."""


class UnsupportedError(ValueError):
    """A parameter combination the implementation does not cover."""


def _valid_order(n) -> bool:
    """The one rule for an order: an integer from 2 up to _ORDER_MAX, or inf.

    3.0 hashes and compares equal to 3 but is no order, so every cache keyed
    by a marking is an lru_cache(typed=True): a float never finds the entry
    of the integer that passed this rule."""
    return isinstance(n, (int, np.integer)) and 2 <= n <= _ORDER_MAX or n == math.inf


def past_range_message(name: str, size: str) -> str:
    """The message for an integer order past the float range, named by its
    size: its digits can run to thousands, and past 4300 Python refuses to
    convert them."""
    return f"{name} must be an integer from 2 to the float maximum or inf, got an integer of {size}"


def _order_error(name: str, n) -> InvalidInputError:
    if isinstance(n, int) and abs(n) > _ORDER_MAX:
        return InvalidInputError(past_range_message(name, f"{n.bit_length()} bits"))
    return InvalidInputError(f"{name} must be an integer >= 2 or inf, got {n!r}")


def unhashable_order_error(exc: TypeError, *orders) -> Exception:
    """What to raise where a cache keyed by a marking raised exc, the
    TypeError of an unhashable key: the order rule's error for the first
    unhashable order (a list, a 0-d array: no order is one), else exc.
    Each entry point catches the TypeError where it first consults its
    cache, so a cache hit pays nothing."""
    bad = [n for n in orders if not isinstance(n, Hashable)]
    return _order_error("order", bad[0]) if bad else exc


def pi_over(n) -> float:
    """pi/n for an order n (_valid_order), or 0.0 for n = inf."""
    if n == math.inf:
        return 0.0
    if not _valid_order(n):
        raise _order_error("order", n)
    return math.pi / n


def check_marking(p, q) -> tuple[float, float]:
    """(pi_over(p), pi_over(q)); InvalidInputError unless both are orders and
    the marking is not the dihedral p = q = 2, which no family covers."""
    if p == 2 and q == 2:
        raise InvalidInputError("p = q = 2 is a degenerate (dihedral) spec")
    return pi_over(p), pi_over(q)


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
            raise _order_error("p", self.p)
        if not _valid_order(self.q):
            raise _order_error("q", self.q)
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


def make_generators(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """The marked generators (A, B) for a spec; errors on degenerate specs."""
    check_marking(spec.p, spec.q)
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
