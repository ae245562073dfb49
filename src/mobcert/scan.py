"""Deterministic grid scans of certificate codes over a parameter window.

A scan evaluates one certificate mode at every pixel center of a rectangular
window (no supersampling) and returns a grid of the witness codes defined in
``certificates``.  The rows are cut into bands of about BAND_PIXELS
evaluated values, run in order on the calling thread: res per row in the
pixel modes, which evaluate every pixel centre, and one per side per row
in omega mode, which decides a row by a bisection on the sides' margins.
Each band is one pure computation of the mode's whole code function (in
combined mode, the anchor search included) on the band's (xs, ys) that
writes its own rows, so the output is independent of the band size.  A
scan result is its job and its code grid, nothing else: the pixel centres
are the job's xs() and ys(), and the writers read them and the window
there.  A scan that dies part-way raises PartialScanError carrying the
rows of the bands before the failing one.

Mode -> code semantics (0 always means "not certified"):

* ``omega``    1 where the point lies strictly outside Omega_{p,q}
               (omega_margin < -EPS_ALG), found per row by
               omega.outside_grid.
* ``disks``    1 where the four (p, q) exclusion disks certify (strict);
               p must be >= 3 or inf, as for the DisksElliptic row.
* ``lambda``   4 where the (p, q) lambda inequalities certify (closed);
               finite orders only.
* ``combined`` the full cert_combined cascade, codes 1/2/5/4/3.
* ``burau``    the window is read in the mu-plane; 4 where the specialized
               Burau representation is certified faithful.  p and q are
               not read, but are checked as in combined mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .burau import faithful_mask
from .certificates import (
    CODE_DISKS_ELLIPTIC,
    CODE_LAMBDA,
    DISKS_ELLIPTIC,
    LAMBDA_REGION,
    combined_codes_array,
)
from .mobius import InvalidInputError, check_marking
from .omega import build_omega, outside_grid

MODES = ("omega", "disks", "lambda", "combined", "burau")

#: Fill value for rows that never completed (only seen via PartialScanError).
CODE_UNSCANNED = 255

#: Values evaluated per band, the unit of scan work: it bounds each call's
#: temporaries.
BAND_PIXELS = 4096


@dataclass(frozen=True)
class Window:
    """A closed axis-aligned rectangle in the complex plane, of finite
    positive width and height (so finite bounds)."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        width, height = self.re_max - self.re_min, self.im_max - self.im_min
        if not (0.0 < width < np.inf and 0.0 < height < np.inf):
            raise InvalidInputError(f"degenerate window {self!r}")


@dataclass(frozen=True)
class ScanJob:
    """One scan request: marking, window, resolution and certificate mode."""

    p: int
    q: int
    window: Window
    resolution: int
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (isinstance(self.resolution, int) and self.resolution >= 2):
            raise InvalidInputError(f"resolution must be an integer >= 2, got {self.resolution!r}")

    def xs(self) -> np.ndarray:
        """Pixel-center abscissae, left to right."""
        w = (self.window.re_max - self.window.re_min) / self.resolution
        return self.window.re_min + (np.arange(self.resolution) + 0.5) * w

    def ys(self) -> np.ndarray:
        """Pixel-center ordinates, bottom to top (row index = y index)."""
        h = (self.window.im_max - self.window.im_min) / self.resolution
        return self.window.im_min + (np.arange(self.resolution) + 0.5) * h


@dataclass(frozen=True)
class ScanResult:
    """A scan job and its grid of certificate codes."""

    job: ScanJob
    codes: np.ndarray  # shape (resolution, resolution), [i, j] <-> (job.xs()[j], job.ys()[i])


class PartialScanError(RuntimeError):
    """A scan failed part-way; carries the rows completed before the failure."""

    def __init__(self, completed_rows: int, total_rows: int, partial: np.ndarray, cause: BaseException):
        super().__init__(
            f"scan failed after {completed_rows} of {total_rows} rows: {cause!r}"
        )
        self.completed_rows = completed_rows
        self.total_rows = total_rows
        self.partial = partial
        self.cause = cause


def _code(hit: np.ndarray, code: int) -> np.ndarray:
    return hit * np.uint8(code)  # bool times uint8: the codes in one pass


def _mode_codes(job: ScanJob) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], int]:
    """The code function of the job's mode, (xs, band ordinates) -> uint8
    codes of shape (len(ys), len(xs)), with its per-scan setup (the Omega
    lines) done once, and the values it evaluates per row: one per side in
    omega mode, one per pixel in the others, whose pixel centres are built
    here.  Combined mode includes the residual anchor search."""
    p, q = job.p, job.q
    if job.mode == "omega":
        region = build_omega(p, q)
        return (lambda xs, ys: _code(outside_grid(region, xs, ys), CODE_DISKS_ELLIPTIC)), len(region.lines)

    def pixels(codes_of):
        return (lambda xs, ys: codes_of(xs[None, :] + 1j * ys[:, None])), job.resolution

    stage = {"disks": DISKS_ELLIPTIC, "lambda": LAMBDA_REGION}.get(job.mode)
    if stage is not None:  # one cascade row alone, where its precondition holds
        stage.require(p, q)
        return pixels(lambda z: _code(stage.passes(stage.slack(p, q, z)), stage.code))
    if job.mode == "burau":
        check_marking(p, q)  # rejects the orders that combined mode rejects
        return pixels(lambda z: _code(faithful_mask(z), CODE_LAMBDA))
    return pixels(lambda z: combined_codes_array(p, q, z))


def run_scan(job: ScanJob) -> ScanResult:
    """Run a scan job, band after band; deterministic."""
    res = job.resolution
    xs = job.xs()
    ys = job.ys()
    codes = np.full((res, res), CODE_UNSCANNED, dtype=np.uint8)

    # Fail fast on bad parameters before any band work starts: every mode
    # checks its parameters whatever the input size, so an empty probe
    # does no pixel work.
    codes_of, row_values = _mode_codes(job)
    codes_of(xs[:0], ys[:0])

    band = max(1, BAND_PIXELS // row_values)
    for lo in range(0, res, band):
        rows = slice(lo, min(lo + band, res))
        try:
            codes[rows] = codes_of(xs, ys[rows])
        except Exception as exc:  # noqa: BLE001 - rethrown as PartialScanError
            raise PartialScanError(lo, res, codes, exc) from exc
    return ScanResult(job, codes)
