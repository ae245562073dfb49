"""Free-product / discreteness certificates for (p, q, rho) groups.

Each certificate is a sufficient condition: a ``FreeDiscrete`` verdict
proves the marked group is discrete and a free product Z_p * Z_q, while
``NoCertificate`` only means this particular test was inconclusive.

Available tests, in the order cert_combined applies them:

1. DisksElliptic -- rho avoids the four exclusion disks of radius 2.
2. DisksGeneral  -- the disk test of the swapped marking (q, p): rho
   avoids the four exclusion disks of the (q, p) family.  The swapped
   marking describes the same group, so its certificates apply.
3. ImBound       -- |Im rho| >= 2 sqrt(1 - S^2) (closed).
4. LambdaRegion  -- the lambda branch of rho satisfies the closed
   lambda-coordinate inequalities.
5. LineFamily    -- rho lies on a certified line {a (1 + i t)} through an
   anchor a that the disk tests certify strictly (the anchor search).

Open conditions (disks, lines) are certified strictly (slack > EPS_ALG);
closed conditions (im bound, lambda) allow slack >= -EPS_ALG, so exact
boundary points such as cusps are rejected by the strict tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .lambda_region import (
    LambdaParams,
    lambda_from_rho,
    lambda_from_rho_array,
    lambda_slack,
    lambda_slack_array,
)
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

WITNESS_OF_CODE = {
    CODE_NONE: None,
    CODE_DISKS_ELLIPTIC: "DisksElliptic",
    CODE_DISKS_GENERAL: "DisksGeneral",
    CODE_LINE_FAMILY: "LineFamily",
    CODE_LAMBDA: "LambdaRegion",
    CODE_IM_BOUND: "ImBound",
}

# anchor search grid: |t| log-spaced in [1e-3, 1e3], both signs
SEARCH_T_MIN = 1e-3
SEARCH_T_MAX = 1e3
SEARCH_T_POINTS = 512


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


def _min_order(p) -> None:
    if not _family_ok(p):
        raise PreconditionError(f"test needs order >= 3 (or inf), got {p}")


def disk_centers_elliptic(p, q) -> tuple[complex, complex, complex, complex]:
    """Centers of the four radius-2 exclusion disks for the (p, q) marking."""
    a = cmath.exp(1j * pi_over(p))
    sq = math.sin(pi_over(q))
    c1 = -2j * a * sq
    c2 = complex(2.0 * math.cos(pi_over(p) - pi_over(q)), 0.0)
    c3 = 2j * sq / a
    c4 = complex(-2.0 * math.cos(pi_over(p) + pi_over(q)), 0.0)
    return c1, c2, c3, c4


def disk_slack(p, q, z: complex) -> float:
    """min_k |z - c_k| - 2 over the four exclusion disks; > 0 certifies."""
    z = complex(z)
    return min(abs(z - c) for c in disk_centers_elliptic(p, q)) - 2.0


def disk_slack_array(p, q, rho: np.ndarray) -> np.ndarray:
    """Vectorized disk_slack: min_k |rho - c_k| - 2 over an array of rho."""
    rho = np.asarray(rho, dtype=complex)
    d = np.full(rho.shape, np.inf)
    for c in disk_centers_elliptic(p, q):
        np.minimum(d, np.abs(rho - c), out=d)
    return d - 2.0


def cert_disks_elliptic(spec: GroupSpec) -> Certificate:
    """rho outside all four exclusion disks (strict)."""
    _min_order(spec.p)
    slack = disk_slack(spec.p, spec.q, spec.rho)
    if slack > EPS_ALG:
        return Certificate(VERDICT_FREE, "DisksElliptic", slack, CODE_DISKS_ELLIPTIC)
    return Certificate(VERDICT_NONE, None, slack)


def cert_im_bound(spec: GroupSpec) -> Certificate:
    """|Im rho| >= 2 sqrt(1 - S^2), a closed condition (finite p, q >= 3)."""
    for n in (spec.p, spec.q):
        if n == math.inf or n < 3:
            raise PreconditionError(f"im-bound test needs finite orders >= 3, got {n}")
    slack = abs(spec.rho.imag) - im_bound(spec.p, spec.q)
    if slack >= -EPS_ALG:
        return Certificate(VERDICT_FREE, "ImBound", slack, CODE_IM_BOUND)
    return Certificate(VERDICT_NONE, None, slack)


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


def cert_line_family(spec: GroupSpec, anchor: complex, tol: float = 1e-9) -> Certificate:
    """Certified line {anchor (1 + i t)} through a strictly certified anchor.

    Raises PreconditionError unless the anchor passes the elliptic disk
    test of the spec's marking strictly; returns NoCertificate when rho is
    farther than tol from the line (not-applicable, not an error).
    """
    anchor = complex(anchor)
    if anchor == 0:
        raise InvalidInputError("line family needs a nonzero anchor")
    _min_order(spec.p)
    slack = disk_slack(spec.p, spec.q, anchor)
    if not slack > EPS_ALG:
        raise PreconditionError("anchor must pass the elliptic disk test strictly")
    if line_distance(spec.rho, anchor) > tol:
        return Certificate(VERDICT_NONE, None, slack, CODE_NONE, {"on_line": False})
    detail = {"anchor": anchor, "on_line": True}
    return Certificate(VERDICT_FREE, "LineFamily", slack, CODE_LINE_FAMILY, detail)


def _search_t_grid(n: int = SEARCH_T_POINTS) -> np.ndarray:
    half = np.geomspace(SEARCH_T_MIN, SEARCH_T_MAX, n // 2)
    return np.concatenate([-half[::-1], half])


def _valid_families(p, q) -> np.ndarray:
    """Disk centers of the valid anchor families, one row of 4 per family.

    The elliptic family needs order p >= 3 (or inf), the swapped family
    order q >= 3 (or inf); p = q = 2 leaves nothing to anchor a line on.
    """
    rows = []
    if _family_ok(p):
        rows.append(disk_centers_elliptic(p, q))
    if _family_ok(q):
        rows.append(disk_centers_elliptic(q, p))
    if not rows:
        raise PreconditionError("anchor test needs an order >= 3 (or inf)")
    return np.array(rows, dtype=complex)


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


def _refine_bulk(centers, w, t_lo, t_hi, iters: int = 60):
    """Vectorized golden-section maximization of anchor slack over t."""
    lo = np.asarray(t_lo, dtype=float).copy()
    hi = np.asarray(t_hi, dtype=float).copy()
    for _ in range(iters):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1 = _anchor_slack_at(centers, w / (1.0 + 1j * x1))
        f2 = _anchor_slack_at(centers, w / (1.0 + 1j * x2))
        take_left = f1 >= f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
    tm = 0.5 * (lo + hi)
    return tm, _anchor_slack_at(centers, w / (1.0 + 1j * tm))


def _search_chunk(centers, tgrid, w, n_brackets, iters):
    """Best (slack, t) over the anchor circle of each w in one chunk."""
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
        order = np.argsort(ranked, axis=1)[:, ::-1][:, :n_brackets] + 1
        sub_best = slack[need].copy()
        sub_t = t_at[need].copy()
        for b in range(order.shape[1]):
            cols = order[:, b]
            tb, fb = _refine_bulk(centers, sub_w, tgrid[cols - 1], tgrid[cols + 1], iters)
            better = fb > sub_best
            sub_best = np.where(better, fb, sub_best)
            sub_t = np.where(better, tb, sub_t)
        slack[need] = sub_best
        t_at[need] = sub_t
    return slack, t_at


def anchor_search_bulk(
    p,
    q,
    rho: np.ndarray,
    n_t: int = SEARCH_T_POINTS,
    n_brackets: int = 4,
    iters: int = 60,
    chunk: int = 4096,
):
    """Search certified line anchors for many rho values at once.

    For each rho the search scans anchors a = w / (1 + i t) on the circle
    through 0 and w, for w = rho and its symmetry image sigma - rho, over a
    log-spaced t grid (|t| in [1e-3, 1e3]); coarse local maxima are refined
    by golden-section when no strictly positive slack appears on the grid.
    Returns (slack, anchor, symmetry_image) arrays; entries with slack >
    EPS_ALG carry a certified line through rho or its symmetry image.
    Raises PreconditionError when no anchor family is valid (p = q = 2).
    """
    rho = np.asarray(rho, dtype=complex)
    flat = rho.ravel()
    sigma = 4.0 * sin_sin(p, q)
    centers = _valid_families(p, q)
    tgrid = _search_t_grid(n_t)
    best_slack = np.full(flat.shape, -np.inf)
    best_t = np.zeros(flat.shape)
    best_w = flat.copy()
    for w_all in (flat, sigma - flat):
        ok = np.abs(w_all) > EPS_ALG
        idx_ok = np.nonzero(ok)[0]
        for lo in range(0, len(idx_ok), chunk):
            sel = idx_ok[lo : lo + chunk]
            slack, t_at = _search_chunk(centers, tgrid, w_all[sel], n_brackets, iters)
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


def anchor_search(spec: GroupSpec, n_t: int = SEARCH_T_POINTS) -> Certificate:
    """Certified-line anchor search for a single spec."""
    rho = np.array([spec.rho], dtype=complex)
    slack, anchor, w = anchor_search_bulk(spec.p, spec.q, rho, n_t=n_t)
    s = float(slack[0])
    detail = {
        "anchor": complex(anchor[0]),
        "symmetry_image": complex(w[0]),
        "family": anchor_slack(spec.p, spec.q, complex(anchor[0]))[1] if s > EPS_ALG else None,
    }
    if s > EPS_ALG:
        return Certificate(VERDICT_FREE, "LineFamily", s, CODE_LINE_FAMILY, detail)
    return Certificate(VERDICT_NONE, None, s, CODE_NONE, detail)


def lambda_feasible(params: LambdaParams) -> Certificate:
    """Closed lambda-coordinate certificate at a given lambda value.

    FreeDiscrete iff both sign choices of |lam cot(pi/q) +- cot(pi/p)| +
    csc(pi/p) <= |lam| csc(pi/q) hold; boundary equality is accepted.
    """
    slack = lambda_slack(params.p, params.q, params.lam)
    detail = {"lam": params.lam}
    if slack >= -EPS_ALG:
        return Certificate(VERDICT_FREE, "LambdaRegion", slack, CODE_LAMBDA, detail)
    return Certificate(VERDICT_NONE, None, slack, CODE_NONE, detail)


def cert_lambda(spec: GroupSpec) -> Certificate:
    """Closed lambda certificate on the large lambda branch of rho.

    The branches of rho are lam and -1/lam; the slack is conjugation- and
    negation-invariant and increases with |lam| along a fixed direction, so
    testing the large branch alone is sharp.
    """
    lam_big, lam_small = lambda_from_rho(spec)
    cert = lambda_feasible(LambdaParams(spec.p, spec.q, lam_big))
    detail = dict(cert.detail, lambda_branches=(lam_big, lam_small))
    return Certificate(cert.verdict, cert.witness, cert.slack, cert.code, detail)


def cert_combined(spec: GroupSpec, search: bool = True) -> Certificate:
    """Run all certificates in order and return the first success.

    Order: elliptic disks, the same disk test under the swapped marking
    (witnessed as DisksGeneral), the im bound, the lambda region under both markings, then (optionally) the
    anchor search.  The swapped marking describes the same group, so its
    certificates apply.  Tests whose preconditions fail are skipped.  On
    failure returns NoCertificate with the largest slack seen.  The
    dihedral marking p = q = 2 is rejected outright: no certificate family
    covers it.

    This scalar cascade is the hand-written reference for
    combined_codes_array.  The canonical anchors (rho_star under both
    markings, their conjugates and symmetry images) are not tried: their
    disk slack never exceeds EPS_ALG (the largest, over both markings, is
    4.4e-16), so a line through one of them is never certified.
    """
    if spec.p == 2 and spec.q == 2:
        raise InvalidInputError("p = q = 2 is a degenerate (dihedral) spec")
    best = -math.inf

    def run(fn, *args):
        nonlocal best
        try:
            cert = fn(*args)
        except (PreconditionError, InvalidInputError):
            return None
        best = max(best, cert.slack)
        return cert if cert.certified else None

    cert = run(cert_disks_elliptic, spec)
    if cert:
        return cert

    swapped = spec.swapped()
    cert = run(cert_disks_elliptic, swapped)
    if cert:
        return Certificate(
            VERDICT_FREE, "DisksGeneral", cert.slack, CODE_DISKS_GENERAL, {"family": "swapped"}
        )

    cert = run(cert_im_bound, spec)
    if cert:
        return cert

    for marked in (spec, swapped):
        cert = run(cert_lambda, marked)
        if cert:
            return cert

    if search:
        cert = run(anchor_search, spec)
        if cert:
            return cert

    return Certificate(VERDICT_NONE, None, best, CODE_NONE)


def combined_codes_array(p, q, rho: np.ndarray, search: bool = True) -> np.ndarray:
    """Vectorized cert_combined codes over an array of rho values.

    Applies the closed-form tests in the same order as cert_combined --
    elliptic disks (1), swapped-marking disks (2), Im bound (5), lambda
    region (4) -- and with search=True gives every code-0 point that lies
    on a certified line CODE_LINE_FAMILY through anchor_search_bulk.  Like
    cert_combined it rejects the dihedral marking p = q = 2 outright, for
    any rho array, the empty one included.
    """
    if p == 2 and q == 2:
        raise InvalidInputError("p = q = 2 is a degenerate (dihedral) spec")
    rho = np.asarray(rho, dtype=complex)
    codes = np.zeros(rho.shape, dtype=np.uint8)

    def fill(code, hit):
        codes[(codes == 0) & hit] = code

    finite = p != math.inf and q != math.inf
    if _family_ok(p):
        fill(CODE_DISKS_ELLIPTIC, disk_slack_array(p, q, rho) > EPS_ALG)
    if _family_ok(q):
        fill(CODE_DISKS_GENERAL, disk_slack_array(q, p, rho) > EPS_ALG)
    if finite and p >= 3 and q >= 3:
        fill(CODE_IM_BOUND, np.abs(rho.imag) - im_bound(p, q) >= -EPS_ALG)
    if finite:
        lam = lambda_from_rho_array(p, q, rho)
        lslack = np.maximum(lambda_slack_array(p, q, lam), lambda_slack_array(q, p, lam))
        fill(CODE_LAMBDA, lslack >= -EPS_ALG)
    residual = codes == 0
    if search and residual.any():
        slack, _, _ = anchor_search_bulk(p, q, rho[residual])
        codes[residual] = np.where(slack > EPS_ALG, CODE_LINE_FAMILY, 0)
    return codes
