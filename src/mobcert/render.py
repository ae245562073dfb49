"""Deterministic figure and file emission.

All output here is a pure function of its inputs: fixed coordinate scale
(1 unit = 60 px, y pointing up via an explicit flip), fixed colors (region
fill #cccccc, exclusion disks #d33 at 40% opacity), fixed float formatting
(12 significant digits in CSV, '.' decimal separator, '\\n' line endings).
Running the same job twice produces byte-identical files.  The scan
writers (CSV, SVG, PGM) assemble their bytes with numpy, never one string
per pixel: the CSV from one row template per y-label width, its y labels
and code digits written in place by block, the PGM as one byte array and
the SVG from per-run rects.  They accept only the palette codes 0..5: any
other code raises ValueError.  They read the window and resolution from
the result's ScanJob, and the CSV's coordinates are its pixel centres
ScanJob.xs() and ys(), so only the scan module knows where a pixel's
centre lies.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from itertools import chain, groupby

import numpy as np

from .certificates import LAMBDA_REGION, disk_centers_elliptic, dominant_marking
from .lambda_region import lambda_slack_rho
from .mobius import InvalidInputError, sigma_pq
from .omega import OmegaRegion, boundary_cusps, build_omega, rho_star, x_pq
from .scan import ScanResult

SCALE = 60.0  # px per unit
PAD = 0.5  # units of margin around a figure
REGION_FILL = "#cccccc"
DISK_FILL = "#d33"
DISK_OPACITY = 0.4

#: Scan palette, one fixed color per certificate code.
PALETTE = {
    0: "#ffffff",
    1: "#9ecae1",
    2: "#4292c6",
    3: "#41ab5d",
    4: "#fd8d3c",
    5: "#807dba",
}


def _fmt(v: float) -> str:
    """Fixed 3-decimal pixel coordinate (enough for byte-stable SVG)."""
    out = f"{float(v):.3f}"
    return "0.000" if out == "-0.000" else out


def _fmt_all(template: str, *columns) -> str:
    """template % the columns' values, taken row by row, with each %.3f
    field written as _fmt writes it: every "-0.000" of the text becomes
    "0.000", so only a %.3f field may produce one."""
    values = chain.from_iterable(zip(*(np.asarray(c).tolist() for c in columns)))
    return (template % tuple(values)).replace("-0.000", "0.000")


def json_order(n):
    """An order as a JSON value: "inf", or the int."""
    return "inf" if n == math.inf else int(n)


def _svg_open(width: float, height: float) -> str:
    """The <svg> start tag and the white background rect of a figure."""
    w, h = _fmt(width), _fmt(height)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>'
    )


class _Frame:
    """Maps complex plane coordinates to a y-flipped pixel frame."""

    def __init__(self, x_min, x_max, y_min, y_max):
        self.x_min = x_min - PAD
        self.x_max = x_max + PAD
        self.y_min = y_min - PAD
        self.y_max = y_max + PAD
        self.width = (self.x_max - self.x_min) * SCALE
        self.height = (self.y_max - self.y_min) * SCALE

    def to_px(self, z):
        """(x, y) of a complex z, or of each point of a complex array."""
        return ((z.real - self.x_min) * SCALE, (self.y_max - z.imag) * SCALE)


def _clip(pts: list[complex], line) -> list[complex]:
    """Sutherland-Hodgman cut of a convex counterclockwise polygon by the
    closed half-plane line.margin >= 0.  A crossing is added only between
    margins of strictly opposite signs and a vertex equal to the next is
    dropped, so no tolerance is needed."""
    out, ms = [], [line.margin(z) for z in pts]
    for a, b, ma, mb in zip(pts[-1:] + pts[:-1], pts, ms[-1:] + ms[:-1], ms):
        if ma < 0 < mb or mb < 0 < ma:
            out.append(a + (b - a) * (ma / (ma - mb)))
        if mb >= 0:
            out.append(b)
    return [a for a, b in zip(out, out[1:] + out[:1]) if a != b]


def region_polygon(region: OmegaRegion) -> list[complex]:
    """Vertices of the convex region Omega, in counterclockwise order: a box
    cut by each side (_clip), sorted by angle about the vertex mean.  Near
    p = q at large orders neighbouring float sides cross within ~1e-11 of
    each other and some vertices merge ((1000, 1001): 10 for 12 sides); no
    (n, n + 1) with 50 <= n <= 10^5 gives more vertices than sides."""
    # The box holds Omega: |Im z| <= 2 sqrt(1 - S^2) <= 2, sigma - 4 <= Re z <= 4.
    pts = [-10 - 10j, 10 - 10j, 10 + 10j, -10 + 10j]
    for line in region.lines:
        pts = _clip(pts, line)
    center = sum(pts) / len(pts)
    pts.sort(key=lambda z: math.atan2((z - center).imag, (z - center).real))
    return pts


def _clip_line(line, frame: _Frame) -> tuple[complex, complex]:
    """The ends of a side in the frame, in the order of line.direction: where
    the frame cut by the side's half-plane (_clip) meets the side, at its
    crossings or at a corner of margin exactly 0."""
    x0, x1, y0, y1 = frame.x_min, frame.x_max, frame.y_min, frame.y_max
    box = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    on = [z for z in _clip(box, line) if z not in box or line.margin(z) == 0]
    on.sort(key=lambda z: ((z - line.point) / line.direction).real)
    return on[0], on[-1]


def _svg_circle(frame, center, r_units, fill, opacity=None) -> str:
    cx, cy = frame.to_px(center)
    bits = [
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r_units * SCALE)}"',
        f' fill="{fill}"',
    ]
    if opacity is not None:
        bits.append(f' fill-opacity="{opacity}"')
    bits.append("/>")
    return "".join(bits)


def region_svg(p, q) -> str:
    """The Omega figure: region fill, Omega sides, disks, cusps, markers.

    Contains exactly one <line> element per side of Omega (six when p = q).
    The four disks drawn are the exclusion disks of the (p, q) marking in
    the order given, so (3, 7) and (7, 3) share Omega but differ in disks.
    """
    region = build_omega(p, q)
    poly = region_polygon(region)
    disks = disk_centers_elliptic(p, q)
    cusps = boundary_cusps(p, q)
    rs = rho_star(p, q)
    x0 = x_pq(p, q)

    xs = [z.real for z in poly] + [c.real + s for c in disks for s in (-2, 2)] + [x0]
    ys = [z.imag for z in poly] + [c.imag + s for c in disks for s in (-2, 2)]
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))

    out = [_svg_open(frame.width, frame.height)]
    pts = " ".join("{},{}".format(*map(_fmt, frame.to_px(z))) for z in poly)
    out.append(f'<polygon points="{pts}" fill="{REGION_FILL}"/>')
    for c in disks:
        out.append(_svg_circle(frame, c, 2.0, DISK_FILL, opacity=DISK_OPACITY))
    for ln in region.lines:
        (x1, y1), (x2, y2) = map(frame.to_px, _clip_line(ln, frame))
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#333333" stroke-width="1.5"/>'
        )
    for z in cusps:
        out.append(_svg_circle(frame, z, 0.07, "#000000"))
    out.append(_svg_circle(frame, rs, 0.07, "#b8860b"))
    out.append(_svg_circle(frame, complex(x0, 0.0), 0.07, "#006400"))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def region_json(p, q) -> str:
    """The Omega figure as data, matching the documented schema."""
    region = build_omega(p, q)
    rs = rho_star(p, q)
    doc = {
        "p": json_order(p),
        "q": json_order(q),
        "omega": {
            "lines": [
                {
                    "point": [ln.point.real, ln.point.imag],
                    "dir": [ln.direction.real, ln.direction.imag],
                    "side": ln.side,
                }
                for ln in region.lines
            ]
        },
        "disks": [{"center": [c.real, c.imag], "r": 2.0} for c in disk_centers_elliptic(p, q)],
        "cusps": [[z.real, z.imag] for z in boundary_cusps(p, q)],
        "rho_star": [rs.real, rs.imag],
        "x_pq": x_pq(p, q),
    }
    return json.dumps(doc, indent=2) + "\n"


def _palette_codes(result: ScanResult) -> np.ndarray:
    """The code grid, checked to hold palette codes only (0..5)."""
    codes = result.codes
    if codes.min() < 0 or codes.max() >= len(PALETTE):
        bad = codes[(codes < 0) | (codes >= len(PALETTE))].flat[0]
        raise ValueError(f"scan code {bad} is not a palette code (0..{len(PALETTE) - 1})")
    return codes


def _labels(values: np.ndarray) -> list[str]:
    """The values in "%.12g", formatted in one % pass, then an empty string."""
    return ("%.12g\n" * len(values) % tuple(values.tolist())).split("\n")


#: Bytes of CSV rows that scan_csv fills per numpy write.  numpy fills the
#: listed columns one at a time down every row of a view, so a taller view
#: than a core's cache holds reloads each row once per column.
_BLOCK_BYTES = 1 << 20


def scan_csv(result: ScanResult) -> bytearray:
    """Rows x,y,code with 12-significant-digit coordinates: the pixel
    centres job.xs() and job.ys() that the scan evaluated.

    Pixel row i is the text x_j,y_i,c_ij\\n for j = 0..res-1.  The x labels
    are the same in every row, and each comma, code digit and newline is
    one byte, so the row's layout depends on len(y_i) alone: line j ends
    len(x_0) + ... + len(x_j) + (j + 1)(len(y_i) + 4) bytes into the row.
    Rows whose y labels have the same width thus share every byte offset,
    and the buffer is one template per y-label width (x labels, commas,
    newlines and "0" digits, a placeholder for the y label) joined in row
    order.  Each run of consecutive rows of one width is then a stack of
    equal rows at a fixed stride: each block of up to _BLOCK_BYTES of its
    rows takes its code digits in one write at the digits' offsets and its
    y labels in one write of n-byte void items at theirs.  The buffer is
    returned as it is, without a copy to bytes.
    """
    codes = _palette_codes(result)
    job = result.job
    xs, ys = _labels(job.xs()), _labels(job.ys())[:-1]
    head = b"x,y,code\n"
    y_len = list(map(len, ys))
    # the join over xs, which ends in "", ends each line with its tail
    templates = {n: f",{'y' * n},0\n".join(xs).encode("ascii") for n in set(y_len)}
    buf = bytearray().join([head, *map(templates.__getitem__, y_len)])

    # per width n: the void dtype of a y label, and the offsets in a row of
    # each line's code digit and y label, 2 and n + 3 bytes before its end
    x_end = np.cumsum([len(x) for x in xs[:-1]])
    lines = np.arange(1, job.resolution + 1)
    layout = {}
    for n in templates:
        ends = x_end + (n + 4) * lines
        layout[n] = np.dtype((np.void, n)), ends - 2, ends - (n + 3)
    chars = codes + ord("0")
    start = len(head)
    i = 0
    for n, run in groupby(y_len):
        count, width = len(list(run)), len(templates[n])
        label, digit_at, label_at = layout[n]
        labels = np.frombuffer("".join(ys[i : i + count]).encode("ascii"), label)[:, None]
        digits = chars[i : i + count]
        rows = np.ndarray((count, width), np.uint8, buf, start, (width, 1))
        slots = np.ndarray((count, width - n + 1), label, buf, start, (width, 1))
        step = max(1, _BLOCK_BYTES // width)
        for r in range(0, count, step):
            rows[r : r + step, digit_at] = digits[r : r + step]
            slots[r : r + step, label_at] = labels[r : r + step]
        start += count * width
        i += count
    return buf


def scan_svg(result: ScanResult) -> str:
    """Run-length encoded raster of the code grid (code 0 left white).

    Runs of equal codes along each row are found with numpy; each
    non-zero run is one <rect>.
    """
    codes = _palette_codes(result)
    window, res = result.job.window, result.job.resolution
    pw = (window.re_max - window.re_min) * SCALE / res
    ph = (window.im_max - window.im_min) * SCALE / res
    width = pw * res
    height = ph * res
    out = [_svg_open(width, height)]
    # A run starts at column 0 and wherever the code changes along a row, so
    # in row-major order each run ends where the next one starts.
    starts = np.ones(codes.shape, dtype=bool)
    np.not_equal(codes[:, 1:], codes[:, :-1], out=starts[:, 1:])
    start = np.flatnonzero(starts)
    length = np.diff(start, append=codes.size)
    code = codes.ravel()[start]
    keep = code != 0
    start, length, code = start[keep], length[keep], code[keep]
    xs = [_fmt(j * pw) for j in range(res)]
    tops = [_fmt((res - 1 - i) * ph) for i in range(res)]
    widths = [_fmt(n * pw) for n in range(res + 1)]
    height_attr = f'height="{_fmt(ph)}"'
    for i, j, n, c in zip(
        (start // res).tolist(), (start % res).tolist(), length.tolist(), code.tolist()
    ):
        out.append(
            f'<rect x="{xs[j]}" y="{tops[i]}" width="{widths[n]}" {height_attr} fill="{PALETTE[c]}"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def scan_pgm(result: ScanResult) -> bytes:
    """Plain (P2) PGM of the code grid, top row first, maxval 5.

    The body is one (res, 2 res) byte array: digits in the even columns,
    spaces in the odd ones and a newline in the last.
    """
    codes = _palette_codes(result)
    res = result.job.resolution
    body = np.full((res, 2 * res), ord(" "), dtype=np.uint8)
    body[:, ::2] = codes[::-1]
    body[:, ::2] += ord("0")
    body[:, -1] = ord("\n")
    return b"".join((f"P2\n{res} {res}\n5\n".encode("ascii"), body))


def _ray_lambda_exits(p, q, center: complex, es: list[complex], t_hi: float) -> np.ndarray:
    """Per ray from center = sigma/2, the exit t* of center + t e along the
    unit vector e in es from the set that fails the closed lambda row; t_hi
    must exceed 4.

    Each ray fails the row on [0, t*) and nowhere else, so one 60-step
    bisection of [0, t_hi], all rays per step, finds every exit.  With
    x = Re rho - sigma/2, E = (|rho| + |rho - sigma|)/2 >= 2S,
    c = cos(pi/p) cos(pi/q) in [0, 1) and eps = EPS_ALG:

    - rho fails the row iff E^2 - (2 - eps) E - 2c|x| < 0;
    - on the half-plane x >= 0 that set is {phi(max(E, 1 - eps/2)) - 2cx < 0},
      phi(E) = E^2 - (2 - eps) E, and so convex (E is convex and phi is
      convex and nondecreasing past 1 - eps/2); rho -> sigma - rho gives
      the half x <= 0, and each ray stays in one half;
    - it holds sigma/2, where the slack is 2S - 2 <= sqrt(3) - 2;
    - on it E < 2 - eps + 2c < 4, since |x| <= t <= E: every exit lies
      below 4.

    Every point evaluated lies within t_hi of center, so the row's slack
    lambda_slack_rho cannot overflow here and is called without the
    overflow guard of LAMBDA_REGION.slack.

    The steps run in buffers allocated once per call, which hold the same
    floats as fresh arrays would: mid = (lo + hi) * 0.5, rho = mid e + center.
    """
    es = np.array(es)
    lo, hi = np.zeros(len(es)), np.full(len(es), t_hi)
    mid, rho, miss = np.empty_like(lo), np.empty_like(es), np.empty(len(es), dtype=bool)
    for _ in range(60):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.multiply(mid, es, out=rho)
        rho += center
        ok = LAMBDA_REGION.passes(lambda_slack_rho(p, q, rho))
        np.copyto(hi, mid, where=ok)
        np.copyto(lo, mid, where=np.logical_not(ok, out=miss))
    return 0.5 * (lo + hi)


def _ray_disk_exits(center: complex, es: list[complex], centers) -> np.ndarray:
    """Per unit vector e in es, the largest t >= 0 with center + t e inside
    some radius-2 disk about a point of centers, or 0 where there is none.

    With d = center - c and k = |d|^2 - 4, the ray meets the disk about c
    where t^2 + 2bt + k = 0, b = Re(d conj(e)), and leaves it at
    -b + sqrt(b^2 - k) where b^2 - k > 0.  b is Re d Re e + Im d Im e,
    which is CPython's (d * e.conjugate()).real bit for bit.
    """
    ds = [center - c for c in centers]
    k = np.array([abs(d) ** 2 - 4.0 for d in ds])[:, None]
    d = np.array(ds)[:, None]
    e = np.array(es)
    b = d.real * e.real + d.imag * e.imag
    disc = b * b - k
    hit = disc > 0.0
    root = np.sqrt(disc, out=np.zeros_like(disc), where=hit)
    return np.where(hit, root - b, 0.0).max(axis=0, initial=0.0)


def _rays(p, q, thetas: list[float]) -> tuple[complex, float, list[complex]]:
    """(sigma/2, the bisection bound t_hi, the unit vector of each angle) of
    rays from the symmetry center."""
    sigma = sigma_pq(p, q)
    return complex(sigma / 2.0, 0.0), 8.0 + abs(sigma), [cmath.exp(1j * phi) for phi in thetas]


def compare_lambda_data(p, q, n: int = 360) -> list[dict]:
    """Per-angle comparison of disk and lambda certificates.

    From the symmetry center sigma/2, each ray at angle theta exits the
    disk-uncertified set at t_disks and the lambda-uncertified set at
    t_lambda; the smaller exit wins (its certificate reaches closer in).
    The disk-uncertified set is the union of the disks of
    dominant_marking(p, q), which the other marking's disks contain.
    """
    if n < 1:
        raise InvalidInputError("need at least one angle")
    thetas = [2.0 * math.pi * k / n for k in range(n)]
    center, t_hi, es = _rays(p, q, thetas)
    t_lambda = _ray_lambda_exits(p, q, center, es, t_hi).tolist()
    t_disks = _ray_disk_exits(center, es, disk_centers_elliptic(*dominant_marking(p, q))).tolist()
    rows = []
    for theta, t_d, t_l in zip(thetas, t_disks, t_lambda):
        if t_l < t_d - 1e-6:
            winner = "lambda"
        elif t_d < t_l - 1e-6:
            winner = "disks"
        else:
            winner = "tie"
        rows.append({"theta": theta, "t_disks": t_d, "t_lambda": t_l, "winner": winner})
    return rows


_ROW_FIELDS = operator.itemgetter("theta", "t_disks", "t_lambda", "winner")


def compare_lambda_csv(rows: list[dict]) -> bytes:
    """Rows theta,t_disks,t_lambda,winner, every number in "%.12g", in one
    % pass over all rows."""
    text = "theta,t_disks,t_lambda,winner\n" + "%.12g,%.12g,%.12g,%s\n" * len(rows)
    return (text % tuple(chain.from_iterable(map(_ROW_FIELDS, rows)))).encode("ascii")


def compare_lambda_svg(p, q, rows: list[dict]) -> str:
    """The outline of the lambda-uncertified set, the exclusion disks of
    dominant_marking(p, q) and each row's nearer exit.

    The outline is the closed polyline of the lambda exits of 721 rays from
    sigma/2 (angles 0 to 2 pi), found by the bisection that gives the rows'
    t_lambda, so it bounds exactly the set the LambdaRegion row certifies.
    """
    disks = disk_centers_elliptic(*dominant_marking(p, q))
    center, t_hi, es = _rays(p, q, [2.0 * math.pi * k / 720 for k in range(721)])
    outline = center + _ray_lambda_exits(p, q, center, es, t_hi) * np.array(es)
    xs = [outline.real.min(), outline.real.max()] + [c.real + s for c in disks for s in (-2, 2)]
    ys = [outline.imag.min(), outline.imag.max()] + [c.imag + s for c in disks for s in (-2, 2)]
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))

    out = [_svg_open(frame.width, frame.height)]
    for c in disks:
        out.append(_svg_circle(frame, c, 2.0, DISK_FILL, opacity=DISK_OPACITY))
    coords = _fmt_all(" ".join(["%.3f,%.3f"] * len(outline)), *frame.to_px(outline))
    out.append(f'<polyline points="{coords}" fill="none" stroke="#2ca02c" stroke-width="1.5"/>')
    if rows:
        win_color = {"lambda": "#2ca02c", "disks": "#d33", "tie": "#999999"}
        t = np.minimum([r["t_disks"] for r in rows], [r["t_lambda"] for r in rows])
        marks = center + t * np.array([cmath.exp(1j * r["theta"]) for r in rows])
        marker = f'<circle cx="%.3f" cy="%.3f" r="{_fmt(0.03 * SCALE)}" fill="%s"/>'
        colors = [win_color[r["winner"]] for r in rows]
        out.append(_fmt_all("\n".join([marker] * len(rows)), *frame.to_px(marks), colors))
    out.append("</svg>")
    return "\n".join(out) + "\n"
