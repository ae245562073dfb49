"""Command line interface.

Subcommands: certify, region, scan, compare-lambda, cusps, burau-annulus.
Complex flags accept RE+IMi notation ("1.5-0.25i"; "j" works too), orders
accept integers or "inf".  Exit codes come from main, which writes the
one "error:" line of a failure: 0 success, 1 a scan that failed part-way,
a scan raster too large to allocate, an output file whose bytes cannot be
held in memory (that file is left as it was), or an --out file that
cannot be written (scan checks the raster and the --out directory before
any band runs), 2 argument/parse errors (argparse), 3 unsupported or
invalid parameter combinations, an order of any length included.  A
raster or an output that cannot be held exits 1, not 3: the job is
valid, and the same command runs where there is the memory for it.

Every --out file goes through _emit, which overwrites it in place: a
regular file is written from its start and cut to the written length, a
write that fails part-way leaves it empty, and any other target
(/dev/null, a FIFO) is written as a stream.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import stat
import sys

from . import __version__
from .burau import ANNULUS_CONJECTURED, ANNULUS_PROVED, faithful_certificate
from .certificates import cert_combined, modulus
from .farey import FAREY_WORDS, SLOPES, cusp_residue, solve_cusp
from .lambda_region import lambda_from_rho
from .mobius import (
    GroupSpec,
    InvalidInputError,
    PreconditionError,
    UnsupportedError,
    gamma_of,
    past_range_message,
    sin_sin,
    symmetry_image,
)
from .omega import boundary_cusps
from .render import (
    compare_lambda_csv,
    compare_lambda_data,
    compare_lambda_svg,
    json_order,
    region_json,
    region_svg,
    scan_csv,
    scan_pgm,
    scan_svg,
)
from .scan import MODES, PartialScanError, ScanJob, Window, run_scan


def _complex_arg(text: str) -> complex:
    # "i" is the imaginary unit except inside "inf"/"infinity", which parse
    # (like "nan") so that the library rejects them as out of domain.
    cleaned = re.sub(r"infinity", "inf", text.strip().replace(" ", ""), flags=re.I)
    cleaned = re.sub(r"i(?!nf)", "j", cleaned, flags=re.I)
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None


def _glue_complex_values(argv: list[str]) -> list[str]:
    """Join --rho/--mu to a following value that starts with "-" but is no
    plain negative number ("-2-1i"), which argparse would take for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--rho", "--mu") and tok.startswith("-"):
            try:
                _complex_arg(tok)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


class _OrderTooLong(Exception):
    """An integer order of more digits than int() converts (at least 640,
    so far past the float maximum): exit 3, as for any order past it.  Not
    a ValueError, which argparse would turn into a usage error (exit 2)
    that quotes every digit."""


def _order_arg(text: str):
    if text.strip().lower() in {"inf", "infinity", "oo"}:
        return math.inf
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):  # int() refused it for its length only
            digits = sum(map(str.isdecimal, text))
            raise _OrderTooLong(past_range_message("order", f"{digits} digits")) from None
        raise argparse.ArgumentTypeError(f"order must be an integer or 'inf', got {text!r}") from None


def _window_arg(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be re_min,re_max,im_min,im_max")
    try:
        a, b, c, d = (float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse window {text!r}") from None
    try:
        return Window(a, b, c, d)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _real(x: float):
    """x; None (JSON null) for a non-finite value."""
    return x if math.isfinite(x) else None


def _pair(z: complex):
    """[re, im] of z; None (JSON null) for a non-finite value."""
    z = complex(z)
    if not cmath.isfinite(z):
        return None
    return [z.real, z.imag]


class _JobFailed(Exception):
    """A valid job that failed (exit 1): a scan that failed part-way, or a
    raster or output file that memory cannot hold or the disk not take."""


def _write_in_place(fd: int, data) -> None:
    """Write data at the start of fd, then cut a regular file to its length.
    A stream (/dev/null, a FIFO, a tty) is only written: ftruncate fails
    there.  A write that fails part-way empties a regular file (best
    effort) before the error propagates, so old and new bytes never mix."""
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if regular:
            os.ftruncate(fd, len(data))
    except OSError:
        if regular:
            try:
                os.ftruncate(fd, 0)
            except OSError:
                pass
        raise


def _emit(payload, out_path: str | None) -> None:
    """Write payload to the file out_path, or to stdout where it is None.

    The file is opened without O_TRUNC: truncating the last run's file to
    zero frees its blocks, and ext4 then flushes the new ones on close, so
    a rewrite cost several times an in-place write.  A missing file is
    created with mode 0o666 minus the umask; an existing one keeps its
    mode, and a symlink is written through.
    """
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    if out_path is None:
        sys.stdout.write(data.decode("utf-8"))
        return
    try:
        # O_BINARY (Windows only) keeps "\n" endings untranslated, as "wb" did
        fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            _write_in_place(fd, data)
        finally:
            os.close(fd)
    except OSError as exc:
        raise _JobFailed(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _json_line(doc) -> str:
    return json.dumps(doc, allow_nan=True) + "\n"


def cmd_certify(args) -> int:
    lines = []
    if args.burau:
        if args.p is not None or args.q is not None or args.rho:
            raise InvalidInputError("certify --burau takes --mu only, not --p, --q or --rho")
        if args.no_search:
            raise InvalidInputError("certify --burau takes no --no-search")
        if not args.mu:
            raise InvalidInputError("certify --burau needs at least one --mu")
        for mu in args.mu:
            cert = faithful_certificate(mu)
            doc = {
                "input": {"mu": _pair(mu)},
                "verdict": cert.verdict,
                "witness": cert.witness,
                "slack": _real(cert.slack),
                "z": _pair(cert.detail["z"]),
                "rho": _pair(cert.detail["rho"]),
                "lambda_branches": [_pair(b) for b in cert.detail["lambda_branches"]],
            }
            lines.append(_json_line(doc))
    else:
        if args.mu:
            raise InvalidInputError("certify takes --mu only with --burau")
        if args.p is None or args.q is None or not args.rho:
            raise InvalidInputError("certify needs --p, --q and at least one --rho")
        for rho in args.rho:
            spec = GroupSpec(args.p, args.q, rho)
            cert = cert_combined(spec, search=not args.no_search)
            finite = args.p != math.inf and args.q != math.inf
            branches = None
            if finite and sin_sin(args.p, args.q) > 0.0:  # S underflows to 0 where p q passes ~2e324
                branches = [_pair(b) for b in lambda_from_rho(spec)]
            doc = {
                "input": {"p": json_order(args.p), "q": json_order(args.q), "rho": _pair(rho)},
                "verdict": cert.verdict,
                "witness": cert.witness,
                "slack": _real(cert.slack),
                "gamma": _pair(gamma_of(spec)),
                "symmetry_image": _pair(symmetry_image(spec)) if finite else None,
                "lambda_branches": branches,
            }
            lines.append(_json_line(doc))
    _emit("".join(lines), args.out)
    return 0


def cmd_region(args) -> int:
    payload = region_json(args.p, args.q) if args.format == "json" else region_svg(args.p, args.q)
    _emit(payload, args.out)
    return 0


def cmd_scan(args) -> int:
    if args.workers < 1:
        raise InvalidInputError(f"workers must be at least 1, got {args.workers!r}")
    job = ScanJob(p=args.p, q=args.q, window=args.window, resolution=args.res, mode=args.mode)
    csv_path = args.out + ".csv"
    raster_path = args.out + "." + args.format
    # fail before the probe, not after every band
    directory, name = os.path.split(args.out)
    if name in ("", os.curdir, os.pardir):  # "dir/", "" or ".": the suffixes would name hidden files
        raise _JobFailed(f"cannot write {csv_path}: {args.out!r} has no file name")
    if not os.path.isdir(directory or os.curdir):
        raise _JobFailed(f"cannot write {csv_path}: {directory or os.curdir} is not a directory")
    try:
        result = run_scan(job)
    except PartialScanError as exc:
        raise _JobFailed(f"{exc} (completed_rows={exc.completed_rows})") from None
    except MemoryError as exc:  # the raster, allocated before any band runs
        raise _JobFailed(f"cannot hold a {job.resolution}x{job.resolution} scan raster in memory: {exc}") from None
    for writer, path in ((scan_csv, csv_path), (scan_svg if args.format == "svg" else scan_pgm, raster_path)):
        try:
            payload = writer(result)
        except MemoryError as exc:  # before _emit: the file keeps its bytes
            raise _JobFailed(f"cannot hold {path} in memory: {exc}") from None
        _emit(payload, path)
    window = job.window
    metadata = {
        "p": json_order(job.p),
        "q": json_order(job.q),
        "window": [window.re_min, window.re_max, window.im_min, window.im_max],
        "resolution": job.resolution,
        "mode": job.mode,
        "version": __version__,
    }
    print(_json_line({"csv": csv_path, "raster": raster_path, "metadata": metadata}), end="")
    return 0


def cmd_compare_lambda(args) -> int:
    rows = compare_lambda_data(args.p, args.q, args.angles)
    if args.format == "csv":
        _emit(compare_lambda_csv(rows), args.out)
    elif args.format == "json":
        _emit(_json_line({"p": json_order(args.p), "q": json_order(args.q), "rows": rows}), args.out)
    else:
        _emit(compare_lambda_svg(args.p, args.q, rows), args.out)
    return 0


def cmd_cusps(args) -> int:
    doc = {
        "p": json_order(args.p),
        "q": json_order(args.q),
        "boundary_cusps": [_pair(z) for z in boundary_cusps(args.p, args.q)],
        "slopes": {},
    }
    for slope in SLOPES:
        roots = solve_cusp(slope, args.p, args.q)
        doc["slopes"]["{}/{}".format(*slope)] = {
            "word": FAREY_WORDS[slope],
            "roots": [_pair(z) for z in roots],
            "residues": [cusp_residue(slope, args.p, args.q, z) for z in roots],
        }
    _emit(_json_line(doc), args.out)
    return 0


def cmd_burau_annulus(args) -> int:
    lines = []
    for mu in args.mu:
        cert = faithful_certificate(mu)
        r = modulus(mu)
        doc = {
            "input": {"mu": _pair(mu)},
            "abs_mu": _real(r),
            "in_proved_annulus": ANNULUS_PROVED[0] <= r <= ANNULUS_PROVED[1],
            "in_conjectured_annulus": ANNULUS_CONJECTURED[0] <= r <= ANNULUS_CONJECTURED[1],
            "certified_faithful": cert.certified,
            "slack": _real(cert.slack),
            "verdict": cert.verdict,
        }
        lines.append(_json_line(doc))
    _emit("".join(lines), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The mobcert argument parser, built once per process and shared by
    every main call, so no caller may modify it.  Parsing leaves it
    unchanged, and the append actions copy their empty default list
    before they append to it."""
    parser = argparse.ArgumentParser(
        prog="mobcert",
        description="Certified discreteness for two-generator Mobius groups.",
    )
    parser.add_argument("--version", action="version", version=f"mobcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="run the combined certificate on a marked pair")
    cert.add_argument("--p", type=_order_arg)
    cert.add_argument("--q", type=_order_arg)
    cert.add_argument("--rho", type=_complex_arg, action="append", default=[])
    cert.add_argument("--burau", action="store_true", help="certify Burau faithfulness instead")
    cert.add_argument("--mu", type=_complex_arg, action="append", default=[])
    cert.add_argument("--no-search", action="store_true", help="skip the anchor search step")
    cert.add_argument("--out")
    cert.set_defaults(func=cmd_certify)

    region = sub.add_parser("region", help="emit the Omega figure for (p, q)")
    region.add_argument("--p", type=_order_arg, required=True)
    region.add_argument("--q", type=_order_arg, required=True)
    region.add_argument("--format", choices=("svg", "json"), default="svg")
    region.add_argument("--out")
    region.set_defaults(func=cmd_region)

    scan = sub.add_parser("scan", help="scan certificate codes over a window")
    scan.add_argument("--p", type=_order_arg, required=True)
    scan.add_argument("--q", type=_order_arg, required=True)
    scan.add_argument("--window", type=_window_arg, required=True)
    scan.add_argument("--res", type=int, required=True)
    scan.add_argument("--mode", choices=MODES, default="combined")
    scan.add_argument("--out", required=True, help="output base path (suffixes are appended)")
    scan.add_argument("--format", choices=("svg", "pgm"), default="svg")
    scan.add_argument("--workers", type=int, default=1, help="accepted for compatibility; scans run on one thread")
    scan.set_defaults(func=cmd_scan)

    cmp_ = sub.add_parser("compare-lambda", help="disk vs lambda certificate comparison")
    cmp_.add_argument("--p", type=_order_arg, required=True)
    cmp_.add_argument("--q", type=_order_arg, required=True)
    cmp_.add_argument("--angles", type=int, default=360)
    cmp_.add_argument("--format", choices=("svg", "csv", "json"), default="svg")
    cmp_.add_argument("--out")
    cmp_.set_defaults(func=cmd_compare_lambda)

    cusps = sub.add_parser("cusps", help="Farey cusps on the Omega boundary")
    cusps.add_argument("--p", type=_order_arg, required=True)
    cusps.add_argument("--q", type=_order_arg, required=True)
    cusps.add_argument("--out")
    cusps.set_defaults(func=cmd_cusps)

    bur = sub.add_parser("burau-annulus", help="Burau faithfulness/annulus report")
    bur.add_argument("--mu", type=_complex_arg, action="append", required=True)
    bur.add_argument("--out")
    bur.set_defaults(func=cmd_burau_annulus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_complex_values(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except (UnsupportedError, InvalidInputError, PreconditionError, _OrderTooLong) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
