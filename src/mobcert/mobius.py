"""Core types for two-generator Mobius groups with elliptic generators.

Group parameters follow the (p, q, rho) convention:

    A = [[alpha, 1], [0, 1/alpha]],   alpha = exp(i*pi/p)
    B = [[beta, 0], [rho, 1/beta]],   beta  = exp(i*pi/q)

so A is elliptic of order p fixing infinity and B is elliptic of order q
fixing 0.  An order of ``math.inf`` means a parabolic generator.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

EPS_ALG = 1e-12  # the float tolerance of every slack rule and equality test
_ORDER_MAX = int(sys.float_info.max)  # the largest order: past it, pi/n overflows converting n


class InvalidInputError(ValueError):
    """A group spec or argument is outside the supported domain."""


class PreconditionError(ValueError):
    """A certificate was invoked outside its hypotheses."""


class UnsupportedError(ValueError):
    """A parameter combination the implementation does not cover."""


def _valid_order(n) -> bool:
    """The one rule for an order: an integer from 2 up to _ORDER_MAX, or inf.

    No array is an order, not even one equal to inf (its == is an array).
    3.0 equals 3 but is no order either: marking_cache keeps a float from
    the entry of the integer that passed this rule."""
    return isinstance(n, (int, np.integer)) and 2 <= n <= _ORDER_MAX or not isinstance(n, np.ndarray) and n == math.inf


def past_range_message(name: str, size: str) -> str:
    """The message for an integer order past the float range, named by its
    size: its digits can run to thousands, and past 4300 Python refuses to
    convert them."""
    return f"{name} must be an integer from 2 to the float maximum or inf, got an integer of {size}"


def _order_error(name: str, n) -> InvalidInputError:
    if isinstance(n, int) and abs(n) > _ORDER_MAX:
        return InvalidInputError(past_range_message(name, f"{n.bit_length()} bits"))
    return InvalidInputError(f"{name} must be an integer >= 2 or inf, got {n!r}")


def marking_cache(fn):
    """fn, whose first two arguments are the orders, behind the one gate of
    every cache keyed by a marking: an lru_cache(maxsize=128, typed=True),
    typed so that 3.0 never finds the entry of 3.  An unhashable order (a
    list, an array) is no order: the TypeError of hashing it becomes the
    order rule's error, and any other TypeError stands."""
    cached = functools.lru_cache(maxsize=128, typed=True)(fn)

    @functools.wraps(fn)
    def gate(*args):
        try:
            return cached(*args)
        except TypeError:
            for n in args[:2]:
                if not isinstance(n, Hashable):
                    raise _order_error("order", n) from None
            raise

    return gate


def pi_over(n) -> float:
    """pi/n for an order n (_valid_order), or 0.0 for n = inf."""
    if not _valid_order(n):
        raise _order_error("order", n)
    return 0.0 if n == math.inf else math.pi / n


def check_marking(p, q) -> tuple[float, float]:
    """(pi_over(p), pi_over(q)); InvalidInputError unless both are orders and
    the marking is not the dihedral p = q = 2, which no family covers."""
    angles = pi_over(p), pi_over(q)  # first: == on a non-order need not be a bool
    if p == 2 and q == 2:
        raise InvalidInputError("p = q = 2 is a degenerate (dihedral) spec")
    return angles


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
    def sigma(self) -> float:
        return sigma_pq(self.p, self.q)

    def swapped(self) -> "GroupSpec":
        return GroupSpec(self.q, self.p, self.rho)


def gamma_of(spec: GroupSpec) -> complex:
    """gamma = tr[A,B] - 2 = rho * (rho - sigma)."""
    return spec.rho * (spec.rho - spec.sigma)


def symmetry_image(spec: GroupSpec) -> complex:
    """The partner parameter sigma - rho; gamma_of is invariant under it."""
    if spec.p == math.inf or spec.q == math.inf:
        raise InvalidInputError("symmetry image needs finite orders")
    return spec.sigma - spec.rho
