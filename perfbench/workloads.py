"""The benchmark's workloads: seeded inputs, the operations of one round, and
the checks that decide whether each operation's output is correct.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned, so at most one is in flight.  A round is
a fixed list of operations whose mix does not depend on the seed; the seed
moves the inputs (sub-pixel window offsets, sampled rho and mu values,
markings and job order) but not the amount of work.

Operations call the package through module attributes (``cli.main``,
``certificates.cert_combined``) so that the traced run sees the wrappers
installed by ``spans.Tracer``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from mobcert import burau, certificates, cli, farey, omega
from mobcert.mobius import EPS_ALG, GroupSpec, sigma_pq

STANDARD_WINDOW = (-3.0, 6.0, -4.5, 4.5)


def shifted_window(rng: random.Random, window, res: int) -> tuple[float, float, float, float]:
    """The window moved by at most a tenth of a pixel along each axis, so
    the seed moves pixel centers without changing the residual count much."""
    a, b, c, d = window
    dx = (rng.random() - 0.5) * 0.2 * (b - a) / res
    dy = (rng.random() - 0.5) * 0.2 * (d - c) / res
    return a + dx, b + dx, c + dy, d + dy


def pixel_centers(window, res: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center abscissae and ordinates, as documented by ``mobcert scan``."""
    a, b, c, d = window
    xs = a + (np.arange(res) + 0.5) * ((b - a) / res)
    ys = c + (np.arange(res) + 0.5) * ((d - c) / res)
    return xs, ys


def witness_ok(p, q, rho: complex, cert) -> bool:
    """Re-verify a certificate through the scalar test of its witness."""
    spec = GroupSpec(p, q, rho)
    code = cert.code
    try:
        if code == certificates.CODE_DISKS_ELLIPTIC:
            return certificates.cert_disks_elliptic(spec).certified
        if code == certificates.CODE_DISKS_GENERAL:
            return certificates.cert_disks_elliptic(spec.swapped()).certified
        if code == certificates.CODE_IM_BOUND:
            return certificates.cert_im_bound(spec).certified
        if code == certificates.CODE_LAMBDA:
            return any(certificates.cert_lambda(s).certified for s in (spec, spec.swapped()))
        if code == certificates.CODE_LINE_FAMILY:
            anchor = cert.detail["anchor"]
            w = cert.detail.get("symmetry_image", rho)
            family = cert.detail.get("family")
            markings = {"elliptic": [(p, q)], "swapped": [(q, p)]}.get(family, [(p, q), (q, p)])
            for pp, qq in markings:
                try:
                    if certificates.cert_line_family(GroupSpec(pp, qq, w), anchor).certified:
                        return True
                except ValueError:
                    continue
            return False
    except ValueError:
        return False
    return code == certificates.CODE_NONE


class CliJob:
    """One ``mobcert`` command run in-process through ``cli.main``."""

    def __init__(self, key: str, argv: list[str], outputs: list[Path], points: int, meta: dict):
        self.key = key
        self.argv = argv
        self.outputs = outputs
        self.points = points
        self.meta = meta

    def run(self) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(self.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                return exc.code if isinstance(exc.code, int) else 2


class CliWorkload:
    """Workloads made of CLI jobs whose outputs are files.

    Each job's files are hashed after every run; the first run of a job is
    parsed for its certified count and every later run must reproduce the
    same bytes.  The deep checks run once per job after the timed phase.
    """

    name = ""

    def __init__(self, seed: int, work: Path, smoke: bool, nproc: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.check_rng = random.Random(f"{self.name}:check:{seed}")
        self.work = work
        self.smoke = smoke
        self.nproc = nproc
        self.jobs: list[CliJob] = []
        self.digest: dict[str, str] = {}
        self.certified: dict[str, int] = {}
        self.bad: dict[str, str] = {}

    def prepare(self) -> None:
        self.jobs = self.make_jobs()

    def ops(self, round_index: int) -> list[CliJob]:
        return self.jobs

    def record(self, job: CliJob, result) -> tuple[bool, int, int]:
        """(ok, points decided, points certified) for one finished run."""
        if result != 0 or not all(path.is_file() for path in job.outputs):
            return False, job.points, 0
        h = hashlib.sha256()
        for path in job.outputs:
            h.update(path.read_bytes())
        digest = h.hexdigest()
        if job.key not in self.digest:
            self.digest[job.key] = digest
            try:
                self.certified[job.key] = self.count_certified(job)
            except (ValueError, KeyError, IndexError) as exc:
                self.certified[job.key] = 0
                self.bad[job.key] = f"unreadable output: {exc!r}"
        elif digest != self.digest[job.key]:
            self.bad[job.key] = "a repeated run wrote other bytes"
        return job.key not in self.bad, job.points, self.certified[job.key]

    def check(self) -> dict[str, str]:
        """Deep checks, once per job that ran; maps failing job keys to a reason."""
        bad = dict(self.bad)
        for job in self.jobs:
            if job.key not in self.digest or job.key in bad:
                continue
            try:
                reason = self.verify(job)
            except (ValueError, KeyError, IndexError, ET.ParseError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason:
                bad[job.key] = reason
        return bad


# --------------------------------------------------------------------------
# scans


def _csv_codes(data: bytes, res: int) -> np.ndarray:
    """The code column of a scan CSV as a (res, res) grid, row i <-> ys[i]."""
    if not data.startswith(b"x,y,code\n"):
        raise ValueError("scan CSV header")
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == 10)
    if newlines.size != res * res + 1:
        raise ValueError(f"scan CSV has {newlines.size - 1} rows, expected {res * res}")
    codes = buf[newlines[1:] - 1].astype(np.int16) - ord("0")
    return codes.reshape(res, res)


def _pgm_codes(data: bytes, res: int) -> np.ndarray:
    tokens = data.split()
    if tokens[:4] != [b"P2", str(res).encode(), str(res).encode(), b"5"]:
        raise ValueError("PGM header")
    return np.array(tokens[4:], dtype=np.int16).reshape(res, res)[::-1]


_RECT = re.compile(rb'<rect x="[-\d.]+" y="[-\d.]+" width="([\d.]+)" height="[\d.]+" fill="(#[0-9a-fA-F]+)"/>')


def _svg_check(data: bytes, codes: np.ndarray) -> str:
    """The SVG raster paints as many pixels, in as many colours, as the CSV
    has certified pixels and distinct certified codes."""
    ET.fromstring(data)
    background, *rects = _RECT.findall(data)
    pixel_width = float(background[0]) / codes.shape[1]
    painted: dict[bytes, int] = {}
    for width, fill in rects:
        painted[fill] = painted.get(fill, 0) + round(float(width) / pixel_width)
    want = int(np.count_nonzero(codes))
    if sum(painted.values()) != want:
        return f"SVG paints {sum(painted.values())} pixels, CSV certifies {want}"
    if len(painted) != len(set(codes[codes != 0].tolist())):
        return "SVG colours do not match the certified codes"
    return ""


def _scalar_code(mode: str, p, q, z: complex) -> int:
    """The code a closed-mode scan pixel should carry, decided by the scalar API."""
    if mode == "omega":
        return 1 if omega.omega_margin(omega.build_omega(p, q), z) < -EPS_ALG else 0
    if mode == "disks":
        return 1 if certificates.cert_disks_elliptic(GroupSpec(p, q, z)).certified else 0
    if mode == "lambda":
        return 4 if certificates.cert_lambda(GroupSpec(p, q, z)).certified else 0
    if mode == "burau":
        return 4 if burau.faithful_certificate(z).certified else 0
    raise ValueError(mode)


class ScanWorkload(CliWorkload):
    """Scans through ``mobcert scan``; subclasses list the jobs."""

    per_code_sample = 4

    def scan_job(self, index: int, mode: str, p, q, window, res: int, fmt: str, workers: int = 1) -> CliJob:
        window = shifted_window(self.rng, window, res)
        base = self.work / f"{self.name}-{index}"
        argv = [
            "scan", "--p", str(p), "--q", str(q),
            "--window=" + ",".join(repr(v) for v in window),
            "--res", str(res), "--mode", mode, "--out", str(base), "--format", fmt,
        ]
        if workers > 1:
            argv += ["--workers", str(workers)]
        outputs = [Path(f"{base}.csv"), Path(f"{base}.{fmt}")]
        meta = {"mode": mode, "p": p, "q": q, "window": window, "res": res, "fmt": fmt}
        return CliJob(f"{mode}-{p}-{q}-{index}", argv, outputs, res * res, meta)

    def count_certified(self, job: CliJob) -> int:
        return int(np.count_nonzero(_csv_codes(job.outputs[0].read_bytes(), job.meta["res"])))

    def verify(self, job: CliJob) -> str:
        m = job.meta
        res = m["res"]
        data = job.outputs[0].read_bytes()
        codes = _csv_codes(data, res)
        raster = job.outputs[1].read_bytes()
        if m["fmt"] == "pgm":
            if not np.array_equal(_pgm_codes(raster, res), codes):
                return "PGM and CSV codes differ"
        else:
            reason = _svg_check(raster, codes)
            if reason:
                return reason
        xs, ys = pixel_centers(m["window"], res)
        lines = data.split(b"\n")
        for code in sorted(set(codes.ravel().tolist())):
            where = np.argwhere(codes == code)
            picks = self.check_rng.sample(range(len(where)), min(self.per_code_sample, len(where)))
            for k in picks:
                i, j = (int(v) for v in where[k])
                x, y, _ = lines[1 + i * res + j].split(b",")
                if abs(float(x) - xs[j]) > 1e-9 * (1 + abs(xs[j])) or abs(float(y) - ys[i]) > 1e-9 * (1 + abs(ys[i])):
                    return f"CSV coordinates of pixel ({i}, {j})"
                z = complex(xs[j], ys[i])
                if m["mode"] == "combined":
                    cert = certificates.cert_combined(GroupSpec(m["p"], m["q"], z))
                    if cert.code != code:
                        return f"pixel {z!r}: scan code {code}, cert_combined code {cert.code}"
                    if cert.certified and not witness_ok(m["p"], m["q"], z, cert):
                        return f"pixel {z!r}: witness {cert.witness} fails its scalar check"
                elif _scalar_code(m["mode"], m["p"], m["q"], z) != code:
                    return f"pixel {z!r}: {m['mode']} scan code {code} disagrees with the scalar test"
        return ""


class ScanResidual(ScanWorkload):
    """Combined scans: the closed forms leave a residual for the anchor search."""

    name = "scan-residual"
    markings = ((3, 3), (3, 4), (5, 9))
    # The anchor search streams mid-sized arrays.
    reference = ("mid",)

    def make_jobs(self) -> list[CliJob]:
        res = 12 if self.smoke else 64
        return [
            self.scan_job(k, "combined", p, q, STANDARD_WINDOW, res, "svg")
            for k, (p, q) in enumerate(self.markings)
        ]

    def warm_up(self) -> None:
        self.scan_job(0, "combined", 3, 4, STANDARD_WINDOW, 6, "svg").run()


class ScanClosed(ScanWorkload):
    """Closed-form scans (no anchor stage): kernels and file emission."""

    name = "scan-closed"
    per_code_sample = 8
    # Row kernels on 256-element rows, 256^2-element code grids, text output.
    reference = ("interp", "small", "mid")

    def make_jobs(self) -> list[CliJob]:
        res = 12 if self.smoke else 256
        mu_window = (-4.0, 4.0, -4.0, 4.0)
        return [
            self.scan_job(0, "omega", 3, 4, STANDARD_WINDOW, res, "pgm", workers=min(2, self.nproc)),
            self.scan_job(1, "disks", 5, 9, STANDARD_WINDOW, res, "pgm"),
            self.scan_job(2, "lambda", 3, 4, STANDARD_WINDOW, res, "pgm"),
            self.scan_job(3, "burau", 3, 3, mu_window, res, "pgm"),  # burau mode ignores p, q
        ]

    def warm_up(self) -> None:
        self.scan_job(0, "omega", 3, 4, STANDARD_WINDOW, 6, "pgm").run()


# --------------------------------------------------------------------------
# figures


class Figures(CliWorkload):
    """compare-lambda, cusps and region through ``cli.main``."""

    name = "figures"
    # Thousands of lambda_region calls on tiny arrays.
    reference = ("small",)
    # Each slot draws one marking of a pair; both orders cost about the same.
    slots = (((3, 4), (4, 3)), ((4, 7), (7, 4)), ((5, 9), (9, 5)))

    def make_jobs(self) -> list[CliJob]:
        angles = 8 if self.smoke else 48
        jobs = []
        for k, pair in enumerate(self.slots):
            p, q = self.rng.choice(pair)
            base = self.work / f"{self.name}-{k}"
            specs = [
                ("compare", ["compare-lambda", "--angles", str(angles), "--format", "csv"], ".csv", angles),
                ("cusps", ["cusps"], ".json", 0),
                ("region", ["region", "--format", "svg"], ".svg", 0),
            ]
            for kind, argv, ext, points in specs:
                out = Path(f"{base}-{kind}{ext}")
                argv = argv[:1] + ["--p", str(p), "--q", str(q)] + argv[1:] + ["--out", str(out)]
                meta = {"kind": kind, "p": p, "q": q, "angles": angles}
                jobs.append(CliJob(f"{kind}-{p}-{q}", argv, [out], points, meta))
        self.rng.shuffle(jobs)
        return jobs

    def warm_up(self) -> None:
        out = self.work / "warm-region.svg"
        CliJob("warm", ["region", "--p", "3", "--q", "4", "--out", str(out)], [out], 0, {}).run()

    def _compare_rows(self, job: CliJob) -> list[tuple[float, float, float, str]]:
        lines = job.outputs[0].read_text().splitlines()
        if lines[0] != "theta,t_disks,t_lambda,winner" or len(lines) != job.meta["angles"] + 1:
            raise ValueError("compare-lambda CSV shape")
        rows = []
        for line in lines[1:]:
            theta, t_d, t_l, winner = line.split(",")
            rows.append((float(theta), float(t_d), float(t_l), winner))
        return rows

    def count_certified(self, job: CliJob) -> int:
        """Exit probes certified: just past min(t_disks, t_lambda) along each
        ray the disk or the lambda certificate must hold."""
        if job.meta["kind"] != "compare":
            return 0
        p, q = job.meta["p"], job.meta["q"]
        center = sigma_pq(p, q) / 2.0
        certified = 0
        for theta, t_d, t_l, _ in self._compare_rows(job):
            t = min(t_d, t_l)
            z = center + (t + 1e-6 * (1.0 + t)) * complex(math.cos(theta), math.sin(theta))
            certified += certificates.cert_combined(GroupSpec(p, q, z), search=False).certified
        return certified

    def verify(self, job: CliJob) -> str:
        p, q = job.meta["p"], job.meta["q"]
        kind = job.meta["kind"]
        if kind == "compare":
            n = job.meta["angles"]
            for k, (theta, t_d, t_l, winner) in enumerate(self._compare_rows(job)):
                if abs(theta - 2.0 * math.pi * k / n) > 1e-9:
                    return f"ray {k}: theta {theta}"
                if not (t_d >= 0.0 and t_l >= 0.0 and math.isfinite(t_d) and math.isfinite(t_l)):
                    return f"ray {k}: exits {t_d}, {t_l}"
                want = "lambda" if t_l < t_d - 1e-6 else "disks" if t_d < t_l - 1e-6 else "tie"
                if winner != want:
                    return f"ray {k}: winner {winner}, exits say {want}"
            return ""
        if kind == "cusps":
            doc = json.loads(job.outputs[0].read_text())
            roots_of = {}
            for slope in farey.SLOPES:
                entry = doc["slopes"]["{}/{}".format(*slope)]
                roots = [complex(*z) for z in entry["roots"]]
                if len(roots) != slope[1] or len(entry["residues"]) != len(roots):
                    return f"slope {slope}: {len(roots)} roots"
                for z, reported in zip(roots, entry["residues"]):
                    residue = farey.cusp_residue(slope, p, q, z)
                    if residue > 1e-9 * (1.0 + abs(z)) ** slope[1] or abs(residue - reported) > 1e-12:
                        return f"slope {slope}: root {z!r} has residue {residue}"
                roots_of[slope] = roots
            candidates = [z for s in ((0, 1), (1, 1), (1, 2)) for z in roots_of[s]]
            for z in (complex(*w) for w in doc["boundary_cusps"]):
                if min(abs(z - r) for r in candidates) > 1e-9:
                    return f"boundary cusp {z!r} solves no Farey polynomial"
            return ""
        svg = job.outputs[0].read_bytes()
        root = ET.fromstring(svg)
        tags = [el.tag.rsplit("}", 1)[-1] for el in root]
        sides = len(omega.build_omega(p, q).lines)
        # one line per side, the region polygon, and 4 disks + 4 cusps + 2 markers
        counts = (tags.count("line"), tags.count("polygon"), tags.count("circle"))
        if counts != (sides, 1, 10):
            return f"region SVG has (lines, polygons, circles) = {counts}, want ({sides}, 1, 10)"
        return ""


# --------------------------------------------------------------------------
# single-point queries


class Query:
    """One ``cert_combined`` or ``faithful_certificate`` call."""

    __slots__ = ("key", "kind", "p", "q", "value", "stratum")
    points = 1

    def __init__(self, key, kind, p, q, value, stratum):
        self.key = key
        self.kind = kind
        self.p = p
        self.q = q
        self.value = value
        self.stratum = stratum

    def run(self):
        if self.kind == "mu":
            return burau.faithful_certificate(self.value)
        return certificates.cert_combined(GroupSpec(self.p, self.q, self.value))


class CertifyPoints:
    """A stream of single-point queries, stratified by the stage that decides them.

    Each block of 100 queries holds, in seeded order, a fixed number of
    queries per stratum, named by the code cert_combined returns: rho values
    that the elliptic disks (1), the Im bound (5) or the lambda region (4)
    certify; rho values that no closed form certifies and so reach the
    anchor search, which certifies some (3) and not others (0); and Burau mu
    values, 30 faithful and 15 not.  Disks, mu, Im bound and lambda queries
    take 0.01-0.4 ms and make up 97% of a block; the three anchor-search
    queries take 15-40 ms.  The median therefore sits inside the cheap
    strata and p99 inside the anchor-search stratum, and the number of
    anchor-certified queries is fixed per pool of blocks, so seeds move
    positions, not the work mix.
    """

    name = "certify-points"
    # Scalar closed forms and single-point searches: interpreter and tiny arrays.
    reference = ("small",)
    # code -> (sampling box re_min, re_max, |im| min, |im| max; queries per block per marking)
    closed_strata = {
        1: ((-3.0, 6.0, 0.0, 4.5), {(3, 3): 10, (3, 4): 10, (5, 9): 10}),
        5: ((-1.5, 3.5, 1.3, 2.9), {(3, 3): 6, (3, 4): 6, (5, 9): 6}),
        4: ((-1.5, 4.0, 0.15, 1.6), {(3, 3): 2, (3, 4): 2}),
    }
    # One anchor-search query per block per marking, drawn from this box; of
    # each marking's queries in a pool this many are certified (code 3).
    residual_box = (-3.0, 4.0, 0.0, 2.0)
    residual_certified = {(3, 3): 0, (3, 4): 1, (5, 9): 2}
    mu_per_block = {True: 30, False: 15}  # faithful or not

    def __init__(self, seed: int, work: Path, smoke: bool, nproc: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.n_blocks = 2 if smoke else 12
        self.blocks: list[list[Query]] = []
        self.first: dict = {}
        self.bad: dict[str, str] = {}

    def _draw(self, box) -> complex:
        a, b, lo, hi = box
        return complex(self.rng.uniform(a, b), self.rng.choice((-1.0, 1.0)) * self.rng.uniform(lo, hi))

    def _residual_pool(self, p, q) -> list[tuple[complex, int]]:
        """n_blocks anchor-search queries, a fixed number of them certified."""
        want = {3: self.residual_certified[(p, q)], 0: self.n_blocks - self.residual_certified[(p, q)]}
        got = []
        while any(want.values()):
            rho = self._draw(self.residual_box)
            spec = GroupSpec(p, q, rho)
            if certificates.cert_combined(spec, search=False).code != 0:
                continue
            code = certificates.cert_combined(spec).code
            if want.get(code):
                want[code] -= 1
                got.append((rho, code))
        self.rng.shuffle(got)
        return got

    def prepare(self) -> None:
        """Fill each stratum by rejection sampling from its box."""
        blocks: list[list[tuple]] = [[] for _ in range(self.n_blocks)]
        for code, (box, quota) in self.closed_strata.items():
            for (p, q), per_block in quota.items():
                for block in blocks:
                    for _ in range(per_block):
                        rho = self._draw(box)
                        while certificates.cert_combined(GroupSpec(p, q, rho), search=False).code != code:
                            rho = self._draw(box)
                        block.append(("rho", p, q, rho, code))
        for p, q in self.residual_certified:
            for block, (rho, code) in zip(blocks, self._residual_pool(p, q)):
                block.append(("rho", p, q, rho, code))
        for b, block in enumerate(blocks):
            want = dict(self.mu_per_block)
            while any(want.values()):
                mu = complex(self.rng.uniform(-3.0, 3.0), self.rng.uniform(-3.0, 3.0))
                faithful = burau.faithful_certificate(mu).certified
                if want[faithful]:
                    want[faithful] -= 1
                    block.append(("mu", None, None, mu, "mu"))
            self.rng.shuffle(block)
            self.blocks.append([Query(f"{b}:{k}", *spec) for k, spec in enumerate(block)])

    def warm_up(self) -> None:
        certificates.cert_combined(GroupSpec(3, 4, complex(1.0, 0.5)))
        burau.faithful_certificate(complex(2.0, 1.0))

    def ops(self, round_index: int) -> list[Query]:
        return self.blocks[round_index % self.n_blocks]

    def record(self, query: Query, cert) -> tuple[bool, int, int]:
        if cert is None:
            return False, 1, 0
        first = self.first.setdefault(query.key, (query, cert))[1]
        same = (cert.verdict, cert.code, cert.slack) == (first.verdict, first.code, first.slack)
        if not same:
            self.bad[query.key] = "repeated query gave another certificate"
        return same, 1, int(cert.certified)

    def check(self) -> dict[str, str]:
        bad = dict(self.bad)
        for key, (query, cert) in self.first.items():
            if query.kind == "mu":
                with np.errstate(invalid="ignore", divide="ignore"):
                    slack = float(burau.burau_slack_array(np.array([query.value]))[0])
                want = slack >= -EPS_ALG * math.sqrt(3.0) and abs(query.value + 1.0) > EPS_ALG
                if cert.certified != want:
                    bad[key] = f"mu {query.value!r}: faithful_certificate disagrees with burau_slack_array"
                continue
            if cert.code != query.stratum:
                bad[key] = f"rho {query.value!r}: code {cert.code}, its stratum is {query.stratum}"
            if cert.certified and not witness_ok(query.p, query.q, query.value, cert):
                bad[key] = f"rho {query.value!r}: witness {cert.witness} fails its scalar check"
        return bad


WORKLOADS = {cls.name: cls for cls in (ScanResidual, ScanClosed, CertifyPoints, Figures)}
