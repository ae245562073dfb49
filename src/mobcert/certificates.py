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
   the same group, so its certificates apply (strict).
3. ImBound       -- |Im rho| >= 2 sqrt(1 - S^2), finite p, q >= 3 (closed).
4. LambdaRegion  -- rho meets the lambda inequalities, decided in the
   rho-plane by lambda_slack_rho; finite orders (closed).  The slack is the
   same float for (p, q) and (q, p), so one row serves both markings.
5. LineFamily    -- rho lies on a line {a (1 + i t)} through an anchor a
   that the disk tests certify: the anchor search (strict).  The anchors
   for rho lie on the circles with diameters [0, rho] and [0, sigma - rho].
   anchor_search_bulk, the row's array slack, skips the golden-section
   refinement of each circle that the exclusion disks of every family
   cover (_circle_covered, an exact arc-cover test): no anchor there can
   certify, so a scan's codes are those of the full search.  anchor_search,
   the row at one point for cert_combined and certify, refines every
   circle, so the slack it reports for an uncertified point is the best
   anchor slack found.

combined_codes_array runs the rows over an array, the disks and lambda scan
modes run single rows, and cert_combined is the size-1 case, so certify and
a scan give a point one code and one slack.  The scalar per-stage tests
(cert_disks_elliptic, cert_im_bound, cert_lambda, cert_line_family) apply a
row's rule to a slack computed in scalar arithmetic: they are the
independent references for checking a witness.
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
    pi_over,
    sin_sin,
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
SEARCH_CHUNK = 4096  # points searched at once

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


def disk_centers_elliptic(p, q) -> tuple[complex, complex, complex, complex]:
    """Centers of the four radius-2 exclusion disks for the (p, q) marking."""
    a = cmath.exp(1j * pi_over(p))
    sq = math.sin(pi_over(q))
    c1 = -2j * a * sq
    c2 = complex(2.0 * math.cos(pi_over(p) - pi_over(q)), 0.0)
    c3 = 2j * sq / a
    c4 = complex(-2.0 * math.cos(pi_over(p) + pi_over(q)), 0.0)
    return c1, c2, c3, c4


@lru_cache(maxsize=128)
def _centers_array(p, q) -> np.ndarray:
    centers = np.array(disk_centers_elliptic(p, q), dtype=complex)
    centers.flags.writeable = False
    return centers


def disk_slack(p, q, z: complex) -> float:
    """min_k |z - c_k| - 2 over the four exclusion disks; > 0 certifies."""
    z = complex(z)
    return min(abs(z - c) for c in disk_centers_elliptic(p, q)) - 2.0


def disk_slack_array(p, q, rho: np.ndarray) -> np.ndarray:
    """Vectorized disk_slack: min_k |rho - c_k| - 2 over an array of rho."""
    return np.minimum.reduce(np.abs(np.subtract.outer(_centers_array(p, q), rho)), axis=0) - 2.0


@dataclass(frozen=True)
class Stage:
    """One row of the cascade table: slack(p, q, rho array) is the row's
    slack where applies(p, q); a strict row certifies where slack >
    EPS_ALG, a closed one where slack >= -EPS_ALG.  detail is the default
    detail of the row's certificates."""

    code: int
    witness: str
    applies: Callable
    slack: Callable
    strict: bool
    detail: dict = field(default_factory=dict)

    def passes(self, slack):
        return slack > EPS_ALG if self.strict else slack >= -EPS_ALG

    def certificate(self, slack: float, detail: dict | None = None) -> Certificate:
        detail = dict(self.detail if detail is None else detail)
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
    lambda p, q, rho: anchor_search_bulk(p, q, rho)[0], strict=True,
)
CASCADE = (
    DISKS_ELLIPTIC,
    Stage(  # the same disks under the swapped marking (q, p), which describes the same group
        CODE_DISKS_GENERAL, "DisksGeneral", lambda p, q: _family_ok(q),
        lambda p, q, rho: disk_slack_array(q, p, rho), strict=True, detail={"family": "swapped"},
    ),
    IM_BOUND,
    LAMBDA_REGION,
    LINE_FAMILY,
)

WITNESS_OF_CODE = {CODE_NONE: None, **{stage.code: stage.witness for stage in CASCADE}}


@lru_cache(maxsize=128)
def _stages(p, q, search: bool) -> tuple[Stage, ...]:
    """The rows of CASCADE whose preconditions (p, q) meets, the line
    family only with search.  The dihedral marking p = q = 2 is rejected
    outright: no certificate family covers it."""
    if p == 2 and q == 2:
        raise InvalidInputError("p = q = 2 is a degenerate (dihedral) spec")
    rows = CASCADE if search else CASCADE[:-1]
    return tuple(stage for stage in rows if stage.applies(p, q))


def _require(stage: Stage, spec: GroupSpec) -> None:
    if not stage.applies(spec.p, spec.q):
        raise PreconditionError(f"{stage.witness} test does not apply to orders ({spec.p}, {spec.q})")


def cert_disks_elliptic(spec: GroupSpec) -> Certificate:
    """rho outside all four exclusion disks (strict): the DisksElliptic row
    at one point, its slack from the scalar disk_slack."""
    _require(DISKS_ELLIPTIC, spec)
    return DISKS_ELLIPTIC.certificate(disk_slack(spec.p, spec.q, spec.rho))


def cert_im_bound(spec: GroupSpec) -> Certificate:
    """|Im rho| >= 2 sqrt(1 - S^2) (closed): the ImBound row at one point,
    its slack in scalar arithmetic."""
    _require(IM_BOUND, spec)
    return IM_BOUND.certificate(abs(spec.rho.imag) - im_bound(spec.p, spec.q))


def anchor_slack(p, q, a: complex) -> tuple[float, str]:
    """Best disk slack of an anchor under either valid marking order.

    The swapped marking (q, p) describes the same group, so a line can be
    anchored on whichever disk family certifies a; a family only takes part
    when its A-order is >= 3 (or inf).  Returns (slack, family) with family
    in {"elliptic", "swapped"}.
    """
    candidates = []
    if _family_ok(p):
        candidates.append((disk_slack(p, q, a), "elliptic"))
    if _family_ok(q):
        candidates.append((disk_slack(q, p, a), "swapped"))
    if not candidates:
        raise PreconditionError("anchor test needs an order >= 3 (or inf)")
    return max(candidates, key=lambda pair: pair[0])


def line_distance(rho: complex, anchor: complex) -> float:
    """Transverse distance from rho to the line {anchor (1 + i t)}.

    The line passes through the anchor in direction i*anchor, so the
    distance is |Re(rho/anchor) - 1| * |anchor|.
    """
    return abs((rho / anchor).real - 1.0) * abs(anchor)


def cert_line_family(spec: GroupSpec, anchor: complex) -> Certificate:
    """Certified line {anchor (1 + i t)} through a strictly certified anchor.

    Raises PreconditionError unless the anchor passes the elliptic disk
    test of the spec's marking strictly; returns NoCertificate when rho is
    farther than LINE_TOL from the line (not-applicable, not an error).
    """
    anchor = complex(anchor)
    if anchor == 0:
        raise InvalidInputError("line family needs a nonzero anchor")
    _require(DISKS_ELLIPTIC, spec)
    slack = disk_slack(spec.p, spec.q, anchor)
    if not DISKS_ELLIPTIC.passes(slack):
        raise PreconditionError("anchor must pass the elliptic disk test strictly")
    if line_distance(spec.rho, anchor) > LINE_TOL:
        return Certificate(VERDICT_NONE, None, slack, CODE_NONE, {"on_line": False})
    return LINE_FAMILY.certificate(slack, {"anchor": anchor, "on_line": True})


def _anchor_slack_at(centers: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Best family slack at anchor array a: max over the rows of centers of
    (distance to the row's nearest disk center) - 2, elementwise."""
    best = np.full(a.shape, -np.inf)
    for row in centers:
        fam = np.full(a.shape, np.inf)
        for c in row:
            np.minimum(fam, np.abs(a - c), out=fam)
        np.maximum(best, fam, out=best)
    return best - 2.0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _anchor_slack_few(centers: np.ndarray, a: np.ndarray) -> np.ndarray:
    """_anchor_slack_at in one broadcast over all disk centers: a handful of
    numpy calls on (a.size, families, 4) arrays, for short arrays of a."""
    return np.abs(a[..., None, None] - centers).min(axis=-1).max(axis=-1) - 2.0


def _refine_bulk(centers, w, t_lo, t_hi, slack_at=_anchor_slack_at):
    """Vectorized golden-section maximization of anchor slack over t."""
    lo = np.asarray(t_lo, dtype=float).copy()
    hi = np.asarray(t_hi, dtype=float).copy()
    for _ in range(SEARCH_ITERS):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1 = slack_at(centers, w / (1.0 + 1j * x1))
        f2 = slack_at(centers, w / (1.0 + 1j * x2))
        take_left = f1 >= f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
    tm = 0.5 * (lo + hi)
    return tm, slack_at(centers, w / (1.0 + 1j * tm))


def _search_chunk(centers, tgrid, w, live=None):
    """Best (slack, t) over the anchor circle of each w in one chunk.

    Where the best grid slack does not certify, golden-section refines the
    SEARCH_BRACKETS best coarse maxima.  With live (anchor_search_bulk) only
    the live w are refined, all their brackets in one pass; without it
    (anchor_search) every such w is, one pass per bracket.
    """
    prof = _anchor_slack_at(centers, w[:, None] / (1.0 + 1j * tgrid[None, :]))
    idx = prof.argmax(axis=1)
    slack = prof[np.arange(len(w)), idx]
    t_at = tgrid[idx]
    need = slack <= EPS_ALG
    if live is not None:
        need &= live
    if need.any():
        sub_prof = prof[need]
        sub_w = w[need]
        interior = sub_prof[:, 1:-1]
        is_max = (interior >= sub_prof[:, :-2]) & (interior >= sub_prof[:, 2:])
        ranked = np.where(is_max, interior, -np.inf)
        order = np.argsort(ranked, axis=1)[:, ::-1][:, :SEARCH_BRACKETS] + 1
        t_lo, t_hi = tgrid[order - 1], tgrid[order + 1]
        n_b = order.shape[1]
        if live is None:  # anchor_search: its per-query cost as before (ROADMAP item 1)
            passes = [_refine_bulk(centers, sub_w, t_lo[:, b], t_hi[:, b]) for b in range(n_b)]
        else:
            tb, fb = _refine_bulk(
                centers, np.repeat(sub_w, n_b), t_lo.ravel(), t_hi.ravel(), _anchor_slack_few
            )
            passes = zip(tb.reshape(-1, n_b).T, fb.reshape(-1, n_b).T)
        sub_best = slack[need].copy()
        sub_t = t_at[need].copy()
        for tb, fb in passes:
            better = fb > sub_best
            sub_best = np.where(better, fb, sub_best)
            sub_t = np.where(better, tb, sub_t)
        slack[need] = sub_best
        t_at[need] = sub_t
    return slack, t_at


def _anchor_centers(p, q) -> np.ndarray:
    """One row of 4 disk centers per family that may anchor a line: the
    elliptic family needs p >= 3 (or inf), the swapped family q >= 3."""
    centers = np.array([_centers_array(a, b) for a, b in ((p, q), (q, p)) if _family_ok(a)])
    if not len(centers):
        raise PreconditionError("anchor test needs an order >= 3 (or inf)")
    return centers


def _circle_covered(centers: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Whether every family's disks cover the anchor circle of each w.

    centers holds one row of 4 disk centers per family; the disks have
    radius r = 2 + EPS_ALG/2.  The anchor circle has diameter [0, w]
    (center w/2, radius R = |w|/2) and holds every anchor w / (1 + i t).
    A disk at distance D from the circle's
    center holds the whole circle (D + R <= r), misses it, or covers one
    arc of half-angle acos((R^2 + D^2 - r^2) / (2 R D)) about the direction
    of its center.  The arc endpoints of a family cut the circle into gaps
    that are each covered or uncovered as a whole, so the family covers the
    circle iff one disk holds it or every gap midpoint lies in some arc.
    An anchor with slack > EPS_ALG lies more than EPS_ALG/2 outside every
    disk of its family, so a covered circle holds none.
    """
    r = 2.0 + EPS_ALG / 2.0
    covered = np.zeros(w.shape, dtype=bool)
    # The disks lie within |z| <= max |c| + r, and the circle passes through w.
    idx = np.flatnonzero(np.abs(w) <= np.abs(centers).max() + r)
    mid = w[idx, None, None] / 2.0
    rad = np.abs(mid)
    dist = np.abs(centers - mid)  # (points, families, 4)
    held = (dist + rad <= r).any(axis=-1)  # by one disk of the family
    covered[idx] = held.all(axis=-1)
    # the arcs, only where some family holds the circle in no single disk
    part = ~covered[idx]
    idx, mid, rad, dist, held = idx[part], mid[part], rad[part], dist[part], held[part]
    arc = (dist < rad + r) & (dist + r > rad)
    # R = 0 gives 0/0 and a tiny R a quotient past the float maximum, both
    # where there is no arc
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cos_half = (rad * rad + dist * dist - r * r) / (2.0 * rad * dist)
        half = np.where(arc, np.arccos(np.clip(cos_half, -1.0, 1.0)), -1.0)  # -1: no arc
    phi = np.angle(centers - mid)
    # A disk without an arc adds two arbitrary endpoints: they only split gaps.
    ends = np.sort(np.concatenate([phi - half, phi + half], axis=-1) % (2.0 * np.pi), axis=-1)
    gap_mid = (ends + np.concatenate([ends[..., 1:], ends[..., :1] + 2.0 * np.pi], axis=-1)) / 2.0
    off = (gap_mid[..., :, None] - phi[..., None, :] + np.pi) % (2.0 * np.pi) - np.pi
    in_arc = (np.abs(off) <= half[..., None, :]).any(axis=-1)
    covered[idx] = (held | in_arc.all(axis=-1)).all(axis=-1)
    return covered


def _search_anchors(p, q, rho: np.ndarray, screen: bool):
    """The anchor search of anchor_search_bulk (screen=True: a w whose
    anchor circle _circle_covered is not refined) and of anchor_search
    (screen=False: every w is)."""
    centers = _anchor_centers(p, q)
    half = np.geomspace(SEARCH_T_MIN, SEARCH_T_MAX, SEARCH_T_POINTS // 2)
    tgrid = np.concatenate([-half[::-1], half])
    rho = np.asarray(rho, dtype=complex)
    flat = rho.ravel()
    sigma = 4.0 * sin_sin(p, q)
    best_slack = np.full(flat.shape, -np.inf)
    best_t = np.zeros(flat.shape)
    best_w = flat.copy()
    for w_all in (flat, sigma - flat):
        ok = np.abs(w_all) > EPS_ALG
        idx_ok = np.nonzero(ok)[0]
        for lo in range(0, len(idx_ok), SEARCH_CHUNK):
            sel = idx_ok[lo : lo + SEARCH_CHUNK]
            live = ~_circle_covered(centers, w_all[sel]) if screen else None
            slack, t_at = _search_chunk(centers, tgrid, w_all[sel], live)
            better = slack > best_slack[sel]
            upd = sel[better]
            best_slack[upd] = slack[better]
            best_t[upd] = t_at[better]
            best_w[upd] = w_all[upd]
    best_anchor = np.where(
        np.abs(best_w) > EPS_ALG, best_w / (1.0 + 1j * best_t), 0.0
    )
    return (
        best_slack.reshape(rho.shape),
        best_anchor.reshape(rho.shape),
        best_w.reshape(rho.shape),
    )


def anchor_search_bulk(p, q, rho: np.ndarray):
    """Search certified line anchors for many rho values at once.

    For each rho the search scans anchors a = w / (1 + i t) on the circle
    through 0 and w, for w = rho and its symmetry image sigma - rho, over a
    log-spaced t grid (|t| in [1e-3, 1e3]); coarse local maxima are refined
    by golden-section when no strictly positive slack appears on the grid.
    A w whose whole anchor circle the disks cover (_circle_covered) is not
    refined: no anchor on it can certify, so it keeps its grid slack.  The
    screen decides no code, it only skips work, so the codes are those of
    the full search; where neither circle of a rho is covered, slack,
    anchor and image are too.  The grid still runs on every w: it is one
    pass proportional to the points, while the refinement is SEARCH_ITERS
    steps whose cost is nearly fixed, so skipping the grid too would leave
    a scan's time to whether a few near misses happen to fall in it.
    Returns (slack, anchor, symmetry_image) arrays; entries with slack >
    EPS_ALG carry a certified line through rho or its symmetry image.
    Raises PreconditionError when no anchor family is valid (p = q = 2).
    """
    return _search_anchors(p, q, rho, screen=True)


def cert_lambda(spec: GroupSpec) -> Certificate:
    """The closed LambdaRegion row at one point, its slack lambda_slack_rho
    of the Python complex rho.  Boundary equality is accepted."""
    return LAMBDA_REGION.certificate(lambda_slack_rho(spec.p, spec.q, spec.rho))


def anchor_search(spec: GroupSpec) -> Certificate:
    """The LineFamily row for a single spec, with the anchor it found.

    Unlike anchor_search_bulk it refines every w, covered circles
    included, so the slack of a point it does not certify (which certify
    reports) is the search's best anchor slack.
    """
    slack, anchor, w = _search_anchors(spec.p, spec.q, np.array([spec.rho]), screen=False)
    s = float(slack[0])
    detail = {
        "anchor": complex(anchor[0]),
        "symmetry_image": complex(w[0]),
        "family": anchor_slack(spec.p, spec.q, complex(anchor[0]))[1] if LINE_FAMILY.passes(s) else None,
    }
    return LINE_FAMILY.certificate(s, detail)


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
    Like cert_combined it rejects the dihedral marking p = q = 2 outright,
    for any rho array, the empty one included.
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
