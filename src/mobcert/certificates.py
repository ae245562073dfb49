"""Free-product / discreteness certificates for (p, q, rho) groups.

Each certificate is a sufficient condition: a ``FreeDiscrete`` verdict
proves the marked group is discrete and a free product Z_p * Z_q, while
``NoCertificate`` only means this particular test was inconclusive.

The combined cascade is the table CASCADE of Stage rows, each with a code,
a witness, a precondition on (p, q), an array slack function and a rule:
open conditions are strict (slack > EPS_ALG), closed ones accept slack >=
-EPS_ALG, so exact boundary points such as cusps fail the strict tests.

1. DisksElliptic -- rho avoids the four exclusion disks of radius 2 (strict).
2. DisksGeneral  -- the same for the swapped marking (q, p), which describes
   the same group, so its certificates apply (strict).  It runs only where
   dominant_marking picks (q, p): p > q >= 3, or p = 2 < q.  Elsewhere it
   certifies nothing that DisksElliptic does not (see below).
3. ImBound       -- |Im rho| >= 2 sqrt(1 - S^2), finite p, q >= 3 (closed).
4. LambdaRegion  -- rho meets the lambda inequalities, decided in the
   rho-plane by lambda_slack_rho; finite orders (closed).  The slack is the
   same float for (p, q) and (q, p), so one row serves both markings.
5. LineFamily    -- rho lies on a line {a (1 + i t)} through an anchor a
   that the disks of dominant_marking(p, q) certify (strict).  The anchors
   for rho lie on the circles with diameters [0, rho] and [0, sigma - rho].
   The row's array slack screens each circle on its own: an anchor a on
   the circle of w, with centre w/2 and radius |w|/2, has
   |a - c_k| <= |w/2 - c_k| + |w|/2 for every disk centre c_k, so its
   slack is at most b(w) = min_k |w/2 - c_k| + |w|/2 - 2 (_circle_bound).
   The circles with b(w) > 0, of all the rho at once, go to
   anchor_search_bulk in one call, which finds the best anchor on each in
   closed form (_circle_max); a circle with b(w) <= 0 keeps b(w), and the
   slack at rho is the larger of its two circles' values.  The screen
   holds back only circles that could not certify: a screened circle has
   |w| <= 4 (b(w) >= |w| - 4, as |c_k| <= 2), so its computed best anchor
   slack lies within ~1e-15 of the true one, which is <= b(w) <= 0, far
   below EPS_ALG.  A searched circle has |w| > 2 - |c_k| for every k
   (b(w) <= |c_k| + |w| - 2), and each family has a centre with
   |c_k| <= sqrt(3) (|c1| = 2 sin(pi/q), or |c4| = 2 sin(pi/p) where
   q = 2), so |w| > 2 - sqrt(3) and no circle shrinks to the point 0.
   Every code is thus the search's, and where rho certifies its slack is
   the larger circle maximum.  anchor_search, the row at one point for
   cert_combined and certify, searches both circles of rho on a t grid
   with golden-section refinement instead.

One disk family decides.  Let 3 <= p <= q <= inf, centre the plane at
sigma/2 and let a = pi/p >= b = pi/q.  The (p, q) centres are (+-k, 0) and
(0, +-h), the (q, p) centres (+-k, 0) and (0, +-h'), with k = 2 cos a cos b,
h = 2 cos a sin b and h' = 2 sin a cos b = h + 2 sin(a - b) >= h.  Take a
point (x, y) of D((0, h), 2).  If y >= (h + h')/2 it is nearer (0, h')
than (0, h), so it lies in D((0, h')); if y <= (h - h')/2 it lies in
D((0, -h')) the same way.  In the strip between, (|x| - k)^2 + y^2 is
convex in |x|, and at the edge |x| = sqrt(4 - (y - h)^2) of the disk it is
convex in y, so it is at most 4 once it is at |x| = 0 (where it is
k^2 + y^2 <= k^2 + sin^2(a + b) <= 4) and at the two ends of the strip,
where it reads cos(a -+ b) <= sqrt(4 - sin^2(a -+ b)).  So the point lies in
D((+-k, 0)), and with conjugation U(p, q) is inside U(q, p), the unions of
the four closed disks.  Outside a union the disk slack is the distance to
it, so wherever the (q, p) slack is positive it is at most the (p, q)
slack: the (q, p) disks certify no point and no anchor that the (p, q)
disks do not.  Where one order is 2 only the other marking has a family.

combined_codes_array runs the rows over an array, the disks and lambda scan
modes run single rows, and cert_combined is the size-1 case, so certify and
a scan give a point that a closed row decides one code and one slack.  The
scalar per-stage tests (cert_disks_elliptic, cert_im_bound, cert_lambda,
cert_line_family) apply a row's rule to a slack taken at one Python
complex: three re-run their row's formula in scalar arithmetic, and
cert_lambda runs the row's own lambda_slack_rho.  They catch faults in
the array path only, not in a row's formula; the lambda formula's
independent check is lambda_slack, the paper's formula in lambda space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .lambda_region import lambda_slack_rho
from .mobius import (
    EPS_ALG,
    GroupSpec,
    InvalidInputError,
    PreconditionError,
    check_marking,
    marking_cache,
    pi_over,
    sigma_pq,
)
from .omega import im_bound

VERDICT_FREE = "FreeDiscrete"
VERDICT_FAITHFUL = "Faithful"  # used by the Burau faithfulness certificate
VERDICT_NONE = "NoCertificate"

CODE_NONE = 0
CODE_DISKS_ELLIPTIC = 1
CODE_DISKS_GENERAL = 2
CODE_LINE_FAMILY = 3
CODE_LAMBDA = 4
CODE_IM_BOUND = 5

# anchor search grid: |t| log-spaced in [1e-3, 1e3], both signs
SEARCH_T_MIN = 1e-3
SEARCH_T_MAX = 1e3
SEARCH_T_POINTS = 512
SEARCH_BRACKETS = 4  # coarse maxima refined per point when none certifies
SEARCH_ITERS = 60  # golden-section steps per refinement

LINE_TOL = 1e-9  # how far rho may lie from a line {anchor (1 + i t)} and be on it


@dataclass(frozen=True)
class Certificate:
    verdict: str
    witness: str | None
    slack: float
    code: int = CODE_NONE
    detail: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.verdict != VERDICT_NONE


def _family_ok(p) -> bool:
    """Whether the disk family with A-order p exists (p >= 3 or inf)."""
    return p == math.inf or p >= 3


def dominant_marking(p, q) -> tuple:
    """The marking whose disks certify whatever either marking's disks
    certify: (min(p, q), max(p, q)), or, where one order is 2, the marking
    whose A-order is the other one (see the module docstring)."""
    if not (_family_ok(p) or _family_ok(q)):
        raise PreconditionError("a disk family needs an order >= 3 (or inf)")
    return (q, p) if not _family_ok(p) or (_family_ok(q) and q < p) else (p, q)


def disk_centers_elliptic(p, q) -> tuple[complex, complex, complex, complex]:
    """Centers of the four radius-2 exclusion disks for the (p, q) marking."""
    a = cmath.exp(1j * pi_over(p))
    sq = math.sin(pi_over(q))
    c1 = -2j * a * sq
    c2 = complex(2.0 * math.cos(pi_over(p) - pi_over(q)), 0.0)
    c3 = 2j * sq / a
    c4 = complex(-2.0 * math.cos(pi_over(p) + pi_over(q)), 0.0)
    return c1, c2, c3, c4


@marking_cache
def _centers_array(p, q) -> np.ndarray:
    centers = np.array(disk_centers_elliptic(p, q), dtype=complex)
    centers.flags.writeable = False
    return centers


def modulus(z: complex) -> float:
    """abs(z), or +inf past the float maximum, where abs() raises
    OverflowError and np.abs, the rows' modulus, gives inf."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def disk_slack(p, q, z: complex) -> float:
    """min_k |z - c_k| - 2 over the four exclusion disks; > 0 certifies."""
    z = complex(z)
    return min(modulus(z - c) for c in disk_centers_elliptic(p, q)) - 2.0


def disk_slack_array(p, q, rho: np.ndarray) -> np.ndarray:
    """Vectorized disk_slack: min_k |rho - c_k| - 2 over an array of rho."""
    centers = _centers_array(p, q)
    return np.minimum.reduce(np.abs(np.subtract.outer(centers, rho)), axis=0) - 2.0


@dataclass(frozen=True)
class Stage:
    """One row of the cascade table: slack(p, q, rho array) is the row's
    slack where applies(p, q); a strict row certifies where slack >
    EPS_ALG, a closed one where slack >= -EPS_ALG."""

    code: int
    witness: str
    applies: Callable
    slack: Callable
    strict: bool

    def passes(self, slack):
        return slack > EPS_ALG if self.strict else slack >= -EPS_ALG

    def require(self, p, q) -> None:
        """Raise PreconditionError unless the row applies to (p, q)."""
        if not self.applies(p, q):
            raise PreconditionError(f"{self.witness} test does not apply to orders ({p}, {q})")

    def certificate(self, slack: float, detail: dict | None = None) -> Certificate:
        detail = {} if detail is None else detail
        if self.passes(slack):
            return Certificate(VERDICT_FREE, self.witness, slack, self.code, detail)
        return Certificate(VERDICT_NONE, None, slack, CODE_NONE, detail)


def _finite(p, q) -> bool:
    return p != math.inf and q != math.inf


DISKS_ELLIPTIC = Stage(
    CODE_DISKS_ELLIPTIC, "DisksElliptic", lambda p, q: _family_ok(p), disk_slack_array, strict=True
)
IM_BOUND = Stage(
    CODE_IM_BOUND, "ImBound", lambda p, q: _finite(p, q) and p >= 3 and q >= 3,
    lambda p, q, rho: np.abs(rho.imag) - im_bound(p, q), strict=False,
)


def _lambda_row_slack(p, q, rho: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # E past the float maximum: slack +inf
        return lambda_slack_rho(p, q, rho)


LAMBDA_REGION = Stage(CODE_LAMBDA, "LambdaRegion", _finite, _lambda_row_slack, strict=False)
LINE_FAMILY = Stage(
    CODE_LINE_FAMILY, "LineFamily", lambda p, q: _family_ok(p) or _family_ok(q),
    lambda p, q, rho: _line_family_slack(p, q, rho), strict=True,
)
CASCADE = (
    DISKS_ELLIPTIC,
    Stage(  # the disks of the swapped marking (q, p), where they are the dominant family
        CODE_DISKS_GENERAL, "DisksGeneral", lambda p, q: dominant_marking(p, q) != (p, q),
        lambda p, q, rho: disk_slack_array(q, p, rho), strict=True,
    ),
    IM_BOUND,
    LAMBDA_REGION,
    LINE_FAMILY,
)


@marking_cache
def _stages(p, q, search: bool) -> tuple[Stage, ...]:
    """The rows of CASCADE whose preconditions (p, q) meets, the line
    family only with search, once check_marking has accepted (p, q): an
    invalid order or p = q = 2 is rejected before any row runs."""
    check_marking(p, q)
    rows = CASCADE if search else CASCADE[:-1]
    return tuple(stage for stage in rows if stage.applies(p, q))


def cert_disks_elliptic(spec: GroupSpec) -> Certificate:
    """rho outside all four exclusion disks (strict): the DisksElliptic row
    at one point, its slack from the scalar disk_slack."""
    DISKS_ELLIPTIC.require(spec.p, spec.q)
    return DISKS_ELLIPTIC.certificate(disk_slack(spec.p, spec.q, spec.rho))


def cert_im_bound(spec: GroupSpec) -> Certificate:
    """|Im rho| >= 2 sqrt(1 - S^2) (closed): the ImBound row at one point,
    its slack in scalar arithmetic."""
    IM_BOUND.require(spec.p, spec.q)
    return IM_BOUND.certificate(abs(spec.rho.imag) - im_bound(spec.p, spec.q))


def line_distance(rho: complex, anchor: complex) -> float:
    """Transverse distance from rho to the line {anchor (1 + i t)}.

    The line passes through the anchor in direction i*anchor, so the
    distance is |Re(rho/anchor) - 1| * |anchor|.  Where the quotient is not
    finite (from |anchor| ~ 2^1023 it overflows to inf / inf), it is taken
    again with both operands scaled by the power of two that brings the
    anchor's larger part into [0.5, 1); a finite quotient is kept as it is.
    """
    ratio = rho / anchor
    if not cmath.isfinite(ratio):
        scale = math.ldexp(1.0, -math.frexp(max(abs(anchor.real), abs(anchor.imag)))[1])
        ratio = (rho * scale) / (anchor * scale)
    return abs(ratio.real - 1.0) * modulus(anchor)


def cert_line_family(spec: GroupSpec, anchor: complex) -> Certificate:
    """Certified line {anchor (1 + i t)} through a strictly certified anchor.

    Raises PreconditionError unless the anchor passes the elliptic disk
    test of the spec's marking strictly; returns NoCertificate when rho is
    not within LINE_TOL of the line (not-applicable, not an error).
    """
    anchor = complex(anchor)
    if anchor == 0:
        raise InvalidInputError("line family needs a nonzero anchor")
    DISKS_ELLIPTIC.require(spec.p, spec.q)
    slack = disk_slack(spec.p, spec.q, anchor)
    if not DISKS_ELLIPTIC.passes(slack):
        raise PreconditionError("anchor must pass the elliptic disk test strictly")
    if not line_distance(spec.rho, anchor) <= LINE_TOL:  # a NaN distance is off the line
        return Certificate(VERDICT_NONE, None, slack, CODE_NONE, {"on_line": False})
    return LINE_FAMILY.certificate(slack, {"anchor": anchor, "on_line": True})


def _anchor_slack_at(centers: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Disk slack at anchor array a: (distance to the nearest of centers)
    - 2, elementwise."""
    near = np.full(a.shape, np.inf)
    for c in centers:
        np.minimum(near, np.abs(a - c), out=near)
    return near - 2.0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_bulk(centers, w, t_lo, t_hi):
    """Vectorized golden-section maximization of anchor slack over t."""
    lo = np.asarray(t_lo, dtype=float).copy()
    hi = np.asarray(t_hi, dtype=float).copy()
    for _ in range(SEARCH_ITERS):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1 = _anchor_slack_at(centers, w / (1.0 + 1j * x1))
        f2 = _anchor_slack_at(centers, w / (1.0 + 1j * x2))
        take_left = f1 >= f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
    tm = 0.5 * (lo + hi)
    return tm, _anchor_slack_at(centers, w / (1.0 + 1j * tm))


def _grid_max(centers, w):
    """Best (slack, anchor) over the anchor circle of each w by search.

    The anchors w / (1 + i t) are sampled on a log-spaced t grid (|t| in
    [SEARCH_T_MIN, SEARCH_T_MAX], both signs); where the best grid slack
    does not certify, golden-section refines the SEARCH_BRACKETS best
    coarse maxima, one pass per bracket.
    """
    half = np.geomspace(SEARCH_T_MIN, SEARCH_T_MAX, SEARCH_T_POINTS // 2)
    tgrid = np.concatenate([-half[::-1], half])
    prof = _anchor_slack_at(centers, w[:, None] / (1.0 + 1j * tgrid[None, :]))
    idx = prof.argmax(axis=1)
    slack = prof[np.arange(len(w)), idx]
    t_at = tgrid[idx]
    need = slack <= EPS_ALG
    if need.any():
        sub_prof = prof[need]
        sub_w = w[need]
        interior = sub_prof[:, 1:-1]
        is_max = (interior >= sub_prof[:, :-2]) & (interior >= sub_prof[:, 2:])
        ranked = np.where(is_max, interior, -np.inf)
        order = np.argsort(ranked, axis=1)[:, ::-1][:, :SEARCH_BRACKETS] + 1
        t_lo, t_hi = tgrid[order - 1], tgrid[order + 1]
        sub_best = slack[need].copy()
        sub_t = t_at[need].copy()
        for b in range(order.shape[1]):
            tb, fb = _refine_bulk(centers, sub_w, t_lo[:, b], t_hi[:, b])
            better = fb > sub_best
            sub_best = np.where(better, fb, sub_best)
            sub_t = np.where(better, tb, sub_t)
        slack[need] = sub_best
        t_at[need] = sub_t
    return slack, w / (1.0 + 1j * t_at)


@lru_cache(maxsize=128)
def _bisectors(key: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(unit normals, midpoints) of the perpendicular bisectors of each pair
    of distinct centers in the centre set key (its complex bytes), read-only:
    they depend on the centers alone, so they are derived once per set."""
    centers = np.frombuffer(key, dtype=complex)
    j, k = np.triu_indices(len(centers), 1)
    d = centers[k] - centers[j]
    pair = d != 0.0
    unit = d[pair] / np.abs(d[pair])
    mid = (centers[j] + centers[k])[pair] / 2.0
    unit.flags.writeable = mid.flags.writeable = False
    return unit, mid


def _circle_max(centers, w):
    """Best (slack, anchor) over the anchor circle of each w, in closed form.

    The circle has center m = w/2 and radius R = |w|/2.  On it
    f(a) = min_k |a - c_k| is the minimum of four smooth functions, so f is
    largest where one term is active at its own maximum, the far point
    m + R (m - c)/|m - c| from a center c, or where two terms tie, at the
    <= 2 points where the circle meets the perpendicular bisector of two
    centers.  The slack f - 2 is thus largest at one of these <= 16
    points.  A center at m has no far point and equal centers (c2 = c4 for
    the family (p, 2)) have no bisector.  Needs |w| > 0.
    """
    m = w[:, None] / 2.0
    rad = np.abs(m)
    off = m - centers
    dist = np.abs(off)
    far = m + rad * (off / np.where(dist > 0.0, dist, 1.0))  # dropped where dist = 0
    # each bisector's foot, as a signed multiple of the radius from m along its unit normal
    unit, mid = _bisectors(centers.tobytes())
    foot = (unit.conj() * (mid - m)).real / rad
    meets = np.abs(foot) <= 1.0
    base = m + unit * rad * foot
    half = unit * 1j * rad * np.sqrt(np.where(meets, (1.0 - foot) * (1.0 + foot), 0.0))
    cand = np.concatenate([far, base + half, base - half], axis=1)
    slack = np.where(
        np.concatenate([dist > 0.0, meets, meets], axis=1), _anchor_slack_at(centers, cand), -np.inf
    )
    best = slack.argmax(axis=1)
    rows = np.arange(len(w))
    return slack[rows, best], cand[rows, best]


def _anchor_centers(p, q) -> np.ndarray:
    """The 4 disk centers that anchor lines: those of dominant_marking(p, q)."""
    return _centers_array(*dominant_marking(p, q))


def _search_anchors(p, q, rho: np.ndarray, circle_max):
    """(slack, anchor, symmetry_image) arrays: the best anchor that
    circle_max(centers, w) finds on the anchor circles of w = rho and
    w = sigma - rho, rho's on a tie; a w with |w| <= EPS_ALG is skipped."""
    centers = _anchor_centers(p, q)
    rho = np.asarray(rho, dtype=complex)
    flat = rho.ravel()
    best_slack = np.full(flat.shape, -np.inf)
    best_anchor = np.zeros(flat.shape, dtype=complex)
    best_w = flat.copy()
    for w_all in (flat, sigma_pq(p, q) - flat):
        sel = np.flatnonzero(np.abs(w_all) > EPS_ALG)
        slack, anchor = circle_max(centers, w_all[sel])
        better = slack > best_slack[sel]
        upd = sel[better]
        best_slack[upd] = slack[better]
        best_anchor[upd] = anchor[better]
        best_w[upd] = w_all[upd]
    return (
        best_slack.reshape(rho.shape),
        best_anchor.reshape(rho.shape),
        best_w.reshape(rho.shape),
    )


def _circle_bound(centers, w):
    """b(w) = min_k |w/2 - c_k| + |w|/2 - 2 for each w: no anchor on the
    circle with diameter [0, w] has a larger slack; +inf past the float
    maximum."""
    m = w / 2.0
    with np.errstate(over="ignore"):
        return _anchor_slack_at(centers, m) + np.abs(m)


def _line_family_slack(p, q, rho: np.ndarray) -> np.ndarray:
    """The LineFamily row's array slack: the larger, per rho, of its two
    circles' values, those of w = rho and w = sigma - rho.  A circle's
    value is anchor_search_bulk's maximum where its bound b(w) is
    positive, and b(w) (<= 0) elsewhere; the passing circles of all the
    rho go to anchor_search_bulk in one call."""
    w = np.stack([rho, sigma_pq(p, q) - rho])
    slack = _circle_bound(_anchor_centers(p, q), w)
    search = slack > 0.0
    slack[search] = anchor_search_bulk(p, q, w[search])[0]
    return np.maximum(slack[0], slack[1])


def anchor_search_bulk(p, q, w: np.ndarray):
    """The best line anchor on the anchor circle of each w, in closed form.

    The anchors a = w / (1 + i t) fill the circle with diameter [0, w]
    (less the point 0, which lies in the closed disk at c2 and never
    certifies).  _circle_max finds the largest anchor slack on each circle
    under the disks of dominant_marking(p, q) exactly, at a cost
    proportional to the circles.  Returns (slack, anchor) arrays; an entry
    with slack > EPS_ALG carries a certified line {anchor (1 + i t)}
    through w.  w is a 1-d array with |w| > 0.  Raises PreconditionError
    when no anchor family is valid (p = q = 2).
    """
    return _circle_max(_anchor_centers(p, q), w)


def cert_lambda(spec: GroupSpec) -> Certificate:
    """The closed LambdaRegion row at one point, its slack lambda_slack_rho
    of the Python complex rho.  Boundary equality is accepted."""
    return LAMBDA_REGION.certificate(lambda_slack_rho(spec.p, spec.q, spec.rho))


def anchor_search(spec: GroupSpec) -> Certificate:
    """The LineFamily row for a single spec, with the anchor it found.

    It searches each anchor circle on a t grid with golden-section
    refinement (_grid_max), not in closed form like anchor_search_bulk: the
    slack it reports is the best anchor slack found, at most the circle's
    maximum.  A certified anchor passes the disk test of
    dominant_marking(p, q).
    """
    slack, anchor, w = _search_anchors(spec.p, spec.q, np.array([spec.rho]), _grid_max)
    detail = {"anchor": complex(anchor[0]), "symmetry_image": complex(w[0])}
    return LINE_FAMILY.certificate(float(slack[0]), detail)


def cert_combined(spec: GroupSpec, search: bool = True) -> Certificate:
    """The cascade at one point: the first row of CASCADE that certifies.

    The rows run on a size-1 array, so the code and slack are those of
    combined_codes_array; the LineFamily row runs as anchor_search, which
    keeps the anchor in the detail.  On failure returns NoCertificate with
    the largest slack seen.  search=False leaves out the LineFamily row.
    """
    p, q = spec.p, spec.q
    rho = np.array([spec.rho])
    best = -math.inf
    for stage in _stages(p, q, search):
        if stage is LINE_FAMILY:
            cert = anchor_search(spec)
        else:
            cert = stage.certificate(float(stage.slack(p, q, rho)[0]))
        if cert.certified:
            return cert
        best = max(best, cert.slack)
    return Certificate(VERDICT_NONE, None, best, CODE_NONE)


def combined_codes_array(p, q, rho: np.ndarray, search: bool = True) -> np.ndarray:
    """cert_combined codes over an array of rho values.

    Each row of CASCADE decides the points that no earlier row certified;
    with search=False the LineFamily row (the anchor search) is left out.
    Like cert_combined it rejects an invalid order and the dihedral marking
    p = q = 2 outright, for any rho array, the empty one included.
    """
    stages = _stages(p, q, search)
    rho = np.asarray(rho, dtype=complex)
    flat = rho.ravel()
    codes = np.zeros(flat.shape, dtype=np.uint8)
    rest = np.arange(flat.size)
    for stage in stages:
        if rest.size == 0:
            break
        hit = stage.passes(stage.slack(p, q, flat[rest]))
        codes[rest[hit]] = stage.code
        rest = rest[~hit]
    return codes.reshape(rho.shape)
