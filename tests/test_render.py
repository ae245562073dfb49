"""Deterministic emission: SVG/JSON/CSV/PGM formats and their invariants."""

import cmath
import hashlib
import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mobcert.render as render
from mobcert.certificates import LAMBDA_REGION, cert_disks_elliptic
from mobcert.cli import main
from mobcert.mobius import GroupSpec, InvalidInputError, sigma_pq
from mobcert.omega import build_omega, omega_margin
from mobcert.render import (
    PALETTE,
    SCALE,
    _fmt,
    _g12,
    compare_lambda_csv,
    compare_lambda_data,
    compare_lambda_svg,
    region_json,
    region_polygon,
    region_svg,
    scan_csv,
    scan_pgm,
    scan_svg,
)
from mobcert.scan import ScanJob, ScanResult, Window, run_scan


def tiny_result(codes, window=(0.0, 1.0, 0.0, 1.0)):
    codes = np.asarray(codes, dtype=np.uint8)
    return ScanResult(ScanJob(3, 3, Window(*window), codes.shape[0], "combined"), codes)


# Per-pixel references: the scan writers as they were before they assembled
# their bytes with numpy.  The writers must match them byte for byte.


def ref_scan_csv(result):
    re_min, re_max, im_min, im_max = astuple(result.job.window)
    res = result.job.resolution
    w = (re_max - re_min) / res
    h = (im_max - im_min) / res
    xs = [_g12(re_min + (j + 0.5) * w) for j in range(res)]
    lines = ["x,y,code"]
    for i in range(res):
        y = _g12(im_min + (i + 0.5) * h)
        lines.extend(f"{x},{y},{c}" for x, c in zip(xs, result.codes[i].tolist()))
    return ("\n".join(lines) + "\n").encode("ascii")


def ref_scan_svg(result):
    re_min, re_max, im_min, im_max = astuple(result.job.window)
    res = result.job.resolution
    pw = (re_max - re_min) * SCALE / res
    ph = (im_max - im_min) * SCALE / res
    width = pw * res
    height = ph * res
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    for i in range(res):
        top = (res - 1 - i) * ph
        row = result.codes[i]
        j = 0
        while j < res:
            code = int(row[j])
            k = j
            while k < res and int(row[k]) == code:
                k += 1
            if code != 0:
                out.append(
                    f'<rect x="{_fmt(j * pw)}" y="{_fmt(top)}" width="{_fmt((k - j) * pw)}" '
                    f'height="{_fmt(ph)}" fill="{PALETTE[code]}"/>'
                )
            j = k
    out.append("</svg>")
    return "\n".join(out) + "\n"


def ref_scan_pgm(result):
    res = result.job.resolution
    lines = ["P2", f"{res} {res}", "5"]
    for i in range(res - 1, -1, -1):
        lines.append(" ".join(map(str, result.codes[i].tolist())))
    return ("\n".join(lines) + "\n").encode("ascii")


bounds = st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False)
intervals = st.tuples(bounds, bounds).filter(lambda ab: ab[0] != ab[1]).map(sorted)
code_grids = st.integers(2, 64).flatmap(
    lambda res: arrays(np.uint8, (res, res), elements=st.integers(0, 5))
)


class TestFormatting:
    def test_fmt_pins_negative_zero(self):
        assert _fmt(-1e-9) == "0.000"
        assert _fmt(0.0) == "0.000"
        assert _fmt(-1.25) == "-1.250"


class TestRegionPolygon:
    @pytest.mark.parametrize("p,q", [(3, 3), (4, 4), (3, 4), (3, 7), (5, 9)])
    def test_convex_ccw_on_boundary(self, p, q):
        region = build_omega(p, q)
        poly = region_polygon(region)
        n = len(poly)
        assert (n == 6) if p == q else (n >= 6)  # a hexagon when the orders match
        for k in range(n):
            a, b, c = poly[k], poly[(k + 1) % n], poly[(k + 2) % n]
            u, v = b - a, c - b
            assert u.real * v.imag - u.imag * v.real >= -1e-9  # convex, ccw
        for z in poly:
            assert abs(omega_margin(region, z)) < 1e-7

    def test_hexagon_when_orders_match(self):
        assert len(region_polygon(build_omega(3, 3))) == 6
        assert len(region_polygon(build_omega(4, 4))) == 6

    @pytest.mark.parametrize("p,q", [(3, 4), (1000, 1001), (100000, 100001)])
    def test_matches_a_half_plane_clip(self, p, q):
        # An independent half-plane clip of the box, written out here: near
        # p = q at large orders, where neighbouring sides are nearly
        # parallel, it must still give the polygon's area, and every vertex
        # must lie on the boundary.
        region = build_omega(p, q)
        poly = region_polygon(region)
        assert max(abs(omega_margin(region, z)) for z in poly) <= 1e-9
        clip = [-10 - 10j, 10 - 10j, 10 + 10j, -10 + 10j]
        for ln in region.lines:
            kept = []
            for a, b in zip(clip[-1:] + clip[:-1], clip):
                ma, mb = ln.margin(a), ln.margin(b)
                if (ma >= 0) != (mb >= 0):
                    kept.append(a + (b - a) * (ma / (ma - mb)))
                if mb >= 0:
                    kept.append(b)
            clip = kept

        def area(pts):
            return 0.5 * sum((a.conjugate() * b).imag for a, b in zip(pts[-1:] + pts[:-1], pts))

        assert abs(area(poly) - area(clip)) <= 1e-8

    # near-equal large orders, where the float sides are nearly parallel,
    # and an order at which S is ~1e-300
    @pytest.mark.parametrize(
        "p, q", [(100000, 100001), (10**6, 10**6 + 1), (10**15, 10**15 + 1), (3, 10**300)]
    )
    def test_clip_at_nearly_parallel_sides(self, p, q):
        region = build_omega(p, q)
        poly = region_polygon(region)
        n = len(poly)
        assert n <= len(region.lines)
        for k in range(n):
            a, b, c = poly[k], poly[(k + 1) % n], poly[(k + 2) % n]
            assert a != b
            assert ((b - a).conjugate() * (c - b)).imag >= 0.0  # convex, ccw
            assert abs(omega_margin(region, a)) <= 1e-12
        frame = render._Frame(-4.0, 4.0, -2.0, 2.0)
        for ln in region.lines:
            a, b = render._clip_line(ln, frame)
            for z in (a, b):
                assert frame.x_min <= z.real <= frame.x_max and frame.y_min <= z.imag <= frame.y_max
                assert min(abs(z.real - frame.x_min), abs(z.real - frame.x_max),
                           abs(z.imag - frame.y_min), abs(z.imag - frame.y_max)) <= 1e-12
                assert abs(ln.margin(z)) <= 1e-12
            assert ((b - a) / ln.direction).real > 0


class TestRegionSvg:
    def test_line_count_matches_sides(self):
        for p, q, n in ((4, 4, 6), (3, 7, 12)):
            svg = region_svg(p, q)
            assert svg.count("<line ") == n
            assert len(build_omega(p, q).lines) == n

    def test_structure_and_markers(self):
        svg = region_svg(4, 4)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert svg.endswith("</svg>\n")
        # 4 disks + 4 cusp dots + rho_star + x_pq marker
        assert svg.count("<circle ") == 10
        assert svg.count('fill="#d33"') == 4
        assert svg.count('fill="#b8860b"') == 1
        assert svg.count('fill="#006400"') == 1
        assert '<polygon points="' in svg and 'fill="#cccccc"' in svg

    def test_deterministic(self):
        assert region_svg(3, 5) == region_svg(3, 5)


class TestRegionJson:
    def test_schema(self):
        doc = json.loads(region_json(3, 7))
        assert set(doc) == {"p", "q", "omega", "disks", "cusps", "rho_star", "x_pq"}
        assert doc["p"] == 3 and doc["q"] == 7
        lines = doc["omega"]["lines"]
        assert len(lines) == 12
        for ln in lines:
            assert set(ln) == {"point", "dir", "side"}
            assert ln["side"] in (-1, 1)
        assert len(doc["disks"]) == 4
        assert all(d["r"] == 2.0 for d in doc["disks"])
        assert len(doc["cusps"]) == 4
        assert isinstance(doc["x_pq"], float)

    def test_shared_omega_distinct_disks(self):
        a = json.loads(region_json(3, 7))
        b = json.loads(region_json(7, 3))
        assert a["omega"] == b["omega"]
        assert a["disks"] != b["disks"]


class TestRegionDigests:
    # SHA-256 of region_svg and region_json for distinct orders, recorded
    # while build_omega still deduplicated its candidate lines; the golden
    # file region_4_4.svg covers p = q.
    @pytest.mark.parametrize(
        "p, q, svg_digest, json_digest",
        [
            (3, 4,
             "0f981fd5fd8b52dfab1318a3af2722046d2f85eab70ac04dd89a4bba5a0e0ff6",
             "a1477757f433bdb8dd61b3839f752386bd7c8c628ef145c3d336a4d973301f29"),
            (4, 3,
             "5b4cb5168239f1f925dd5ed31625b171f1223823dbdb1a26a67537bac8c210f5",
             "b34f986d112c60f29767fa33fbf3f50870dbad657c21ecb033781f6a04a4d12e"),
            (3, 7,
             "50156cd204381cd8cf346c6449371daf1c877c69db7f48fcef958e25bbc7dfc0",
             "a34350d2773028e084f831addfca7e63eeff0cfd564eaacd33786c916859c8ba"),
            (5, 9,
             "f485ef251ad610bdc7cd9c99bb83c26ef5836015757e673b43a0a4f708a451ae",
             "90a6c4dba33cc17a33f8026b2cef15e5d8b273b399e88d7c2cc8f075a69c5893"),
        ],
    )
    def test_pinned_digests(self, p, q, svg_digest, json_digest):
        assert hashlib.sha256(region_svg(p, q).encode("utf-8")).hexdigest() == svg_digest
        assert hashlib.sha256(region_json(p, q).encode("utf-8")).hexdigest() == json_digest


class TestScanFormats:
    def test_csv_exact_bytes(self):
        result = tiny_result([[0, 1], [2, 3]])
        want = (
            b"x,y,code\n"
            b"0.25,0.25,0\n0.75,0.25,1\n"
            b"0.25,0.75,2\n0.75,0.75,3\n"
        )
        assert scan_csv(result) == want

    def test_pgm_exact_bytes(self):
        result = tiny_result([[0, 1], [2, 3]])
        assert scan_pgm(result) == b"P2\n2 2\n5\n2 3\n0 1\n"

    def test_svg_rects_and_palette(self):
        result = tiny_result([[0, 1], [2, 3]])
        svg = scan_svg(result)
        # background + three non-zero runs (code 0 is skipped)
        assert svg.count("<rect ") == 4
        for code in (1, 2, 3):
            assert PALETTE[code] in svg
        assert PALETTE[0] in svg  # the background rect

    def test_svg_run_length_merges(self):
        svg = scan_svg(tiny_result([[1, 1], [0, 0]]))
        assert svg.count("<rect ") == 2  # background + one merged run

    def test_deterministic_bytes(self):
        job = ScanJob(3, 3, Window(-2.0, 5.0, -3.0, 3.0), 16, "disks")
        a = run_scan(job)
        b = run_scan(job)
        assert scan_csv(a) == scan_csv(b)
        assert scan_svg(a) == scan_svg(b)
        assert scan_pgm(a) == scan_pgm(b)

    def test_pinned_digests(self):
        # many-digit bounds exercise the 12-significant-digit CSV coordinates
        window = Window(-3.0123456789, 6.0987654321, -4.5012345678, 4.4987654321)
        result = run_scan(ScanJob(3, 4, window, 64, "disks"))
        assert hashlib.sha256(scan_csv(result)).hexdigest() == (
            "8d687219b7e7b0f57b4bb009cbcb8b79ee6d14fd9f98fac01fdff6f30387fe64"
        )
        assert hashlib.sha256(scan_pgm(result)).hexdigest() == (
            "f1b5508c75841091857dd3290a33a3a3068ba920b292143a176825f0f03b6ecf"
        )
        # recorded with the per-pixel run-length loop
        assert hashlib.sha256(scan_svg(result).encode("utf-8")).hexdigest() == (
            "573feb069ed759f5c158b3a72e0107ea215d2c74f5b072f20f25fc19a272f07e"
        )

    @settings(max_examples=150, deadline=None)
    @given(codes=code_grids, re_bounds=intervals, im_bounds=intervals)
    @example(  # tiny, subnormal widths
        codes=np.array([[0, 5], [5, 5]], dtype=np.uint8),
        re_bounds=[1e-300, 3e-300], im_bounds=[-5e-324, 5e-324],
    )
    @example(  # huge
        codes=np.tile(np.arange(6, dtype=np.uint8), (6, 1)),
        re_bounds=[-1e200, 1e200], im_bounds=[1e199, 1e200],
    )
    @example(  # many digits
        codes=np.eye(7, dtype=np.uint8) * 3,
        re_bounds=[-3.0123456789, 6.0987654321], im_bounds=[-4.5012345678, 4.4987654321],
    )
    @example(  # crossing zero, one long run per row
        codes=np.repeat(np.arange(64, dtype=np.uint8)[:, None] % 6, 64, axis=1),
        re_bounds=[-1e-7, 3e-7], im_bounds=[-2.5, 0.5],
    )
    def test_writers_match_per_pixel_references(self, codes, re_bounds, im_bounds):
        result = tiny_result(codes, window=(*re_bounds, *im_bounds))
        assert scan_csv(result) == ref_scan_csv(result)
        assert scan_svg(result) == ref_scan_svg(result)
        assert scan_pgm(result) == ref_scan_pgm(result)

    @pytest.mark.parametrize("bad", [6, 255])
    @pytest.mark.parametrize("writer", [scan_csv, scan_svg, scan_pgm])
    def test_rejects_codes_outside_the_palette(self, writer, bad):
        with pytest.raises(ValueError, match=f"scan code {bad} "):
            writer(tiny_result([[0, 1], [bad, 3]]))


class TestCompareLambda:
    def test_rows_and_known_winners(self):
        rows = compare_lambda_data(3, 3, n=8)
        assert len(rows) == 8
        for r in rows:
            assert set(r) == {"theta", "t_disks", "t_lambda", "winner"}
            assert r["winner"] in ("lambda", "disks", "tie")
            assert r["t_disks"] >= 0.0 and r["t_lambda"] >= 0.0
        # along the real axis both certificates reach the cusp at rho = 4
        assert rows[0]["winner"] == "tie"
        assert abs(rows[0]["t_disks"] - 2.5) < 1e-9
        assert abs(rows[0]["t_lambda"] - 2.5) < 1e-6
        # straight up, lambda exits at the 1/2-cusp, well inside the disks
        up = rows[2]
        assert abs(up["theta"] - math.pi / 2) < 1e-12
        assert up["winner"] == "lambda"
        assert abs(up["t_lambda"] - math.sqrt(7.0) / 2.0) < 1e-6

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            compare_lambda_data(3, 3, n=0)

    @pytest.mark.parametrize("p, q", [(3, 4), (4, 3), (5, 9), (9, 5), (4, 7), (7, 4), (2, 5), (5, 2)])
    def test_disk_exit_leaves_every_disk_row_uncertified_point(self, p, q):
        # A point is disk-uncertified when it lies in a disk of each family;
        # t_disks is where each ray leaves that set for good.
        def disk_row_certifies(z):
            markings = [(a, b) for a, b in ((p, q), (q, p)) if a >= 3]
            return any(cert_disks_elliptic(GroupSpec(a, b, z)).certified for a, b in markings)

        center = sigma_pq(p, q) / 2.0
        for row in compare_lambda_data(p, q, 48):
            ray = cmath.exp(1j * row["theta"])
            assert disk_row_certifies(center + (row["t_disks"] + 1e-9) * ray), row
            assert not disk_row_certifies(center + (row["t_disks"] - 1e-9) * ray), row

    @pytest.mark.parametrize("p, q", [(3, 4), (4, 3), (5, 9), (9, 5), (4, 7), (7, 4), (2, 5), (5, 2)])
    def test_lambda_exit_leaves_every_lambda_uncertified_point(self, p, q):
        def lambda_row_certifies(z):
            return bool(LAMBDA_REGION.passes(LAMBDA_REGION.slack(p, q, np.array([z]))[0]))

        center = sigma_pq(p, q) / 2.0
        for row in compare_lambda_data(p, q, 48):
            ray = cmath.exp(1j * row["theta"])
            assert lambda_row_certifies(center + (row["t_lambda"] + 1e-9) * ray), row
            assert not lambda_row_certifies(center + (row["t_lambda"] - 1e-9) * ray), row

    # (2, q) has cos(pi/p) cos(pi/q) = 0, where the set is the ellipse E < 2
    @pytest.mark.parametrize(
        "p, q", [(2, 3), (2, 10**6), (3, 3), (3, 4), (5, 9), (9, 5), (7, 7), (3, 10**6), (10**6, 10**6)]
    )
    def test_lambda_uncertified_set_is_star_shaped(self, p, q):
        # Along each ray from sigma/2 the lambda row fails, then holds: one
        # change of feasibility, in the sample bracket that holds t_lambda.
        n = 360
        rows = compare_lambda_data(p, q, n)
        ts = np.linspace(0.0, 8.0 + sigma_pq(p, q), 2001)
        rays = np.exp(1j * np.array([r["theta"] for r in rows]))
        z = sigma_pq(p, q) / 2.0 + np.multiply.outer(rays, ts)
        ok = LAMBDA_REGION.passes(LAMBDA_REGION.slack(p, q, z))
        assert not ok[:, 0].any() and ok[:, -1].all()
        assert (np.diff(ok.astype(np.int8), axis=1) != 0).sum(axis=1).tolist() == [1] * n
        first_ok = ok.argmax(axis=1)
        t_lambda = np.array([r["t_lambda"] for r in rows])
        assert (ts[first_ok - 1] < t_lambda).all() and (t_lambda <= ts[first_ok]).all()

    # SHA-256 of compare_lambda_csv and of `compare-lambda --format json`,
    # recorded since t_disks is the exit from the dominant family's disks;
    # the (5, 9, 360) JSON since the lambda exits come from one bisection of
    # [0, t_hi], which moved three of its t_lambda by 2 ulp.
    @pytest.mark.parametrize(
        "p, q, n, csv_digest, json_digest",
        [
            (3, 4, 48,
             "ce01338611a294263cf246a91acbac398318c55f1eeeaa803508e53a37fd928e",
             "e43e4a3ec6c9a21c07df8879e1da928b50cf4ed1f27eea44d1da5d62617c9338"),
            (5, 9, 360,
             "6f2cd1693582d58cf9f8715e9d96db44c109c68caaa92af2a0963b2e0f607407",
             "93f821f87860d0634a25c3156d8b38a15ee3d1a3dea0aff5fe5c97c976c4abb1"),
            (7, 7, 7,
             "5d6c67cf0432a71c4f8dd8185848ff46047c8d04750971295433b5d7704f715a",
             "4bf5cc3a34d16dd41bceea78cb8a8592f3db46f8c47e9ee8ab095b2f9e91a37e"),
            (2, 5, 12,
             "b34dd8e15a73386a3e586604f31e90859966adf62b64f085b9274031379f7e82",
             "58e85b18c2e012dcdeb8a27e0800a9ce02a8ccef3a1783d5d25b7b55c14f0013"),
        ],
    )
    def test_pinned_digests(self, capsys, p, q, n, csv_digest, json_digest):
        csv = compare_lambda_csv(compare_lambda_data(p, q, n))
        assert hashlib.sha256(csv).hexdigest() == csv_digest
        argv = ["compare-lambda", "--p", str(p), "--q", str(q), "--angles", str(n), "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == json_digest

    def test_bisection_is_batched_across_rays(self, monkeypatch):
        # one call of the LambdaRegion row's slack function per bisection
        # step, each on all rays together
        real = render.lambda_slack_rho
        calls = []

        def counting(p, q, rho):
            calls.append(np.size(rho))
            return real(p, q, rho)

        monkeypatch.setattr(render, "lambda_slack_rho", counting)
        compare_lambda_data(3, 4, 48)
        assert 0 < len(calls) <= 61
        assert set(calls) == {48}

    def test_single_ray(self):
        assert compare_lambda_data(3, 4, 1) == compare_lambda_data(3, 4, 48)[:1]

    def test_csv_and_svg(self):
        rows = compare_lambda_data(3, 3, n=6)
        csv = compare_lambda_csv(rows)
        text = csv.decode("ascii")
        assert text.startswith("theta,t_disks,t_lambda,winner\n")
        assert len(text.strip().split("\n")) == 7
        svg = compare_lambda_svg(3, 3, rows)
        assert svg.count("<polyline ") == 1
        # the outline of the lambda row at 721 angles, closed
        points = svg.split('<polyline points="')[1].split('"')[0].split()
        assert len(points) == 721 and points[0] == points[-1]
        assert svg.count("<circle ") == 4 + len(rows)
        assert compare_lambda_svg(3, 3, rows) == svg
