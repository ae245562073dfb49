"""Deterministic emission: SVG/JSON/CSV/PGM formats and their invariants."""

import hashlib
import json
import math

import numpy as np
import pytest

from mobcert.mobius import InvalidInputError
from mobcert.omega import build_omega, omega_margin
from mobcert.render import (
    PALETTE,
    _fmt,
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


def tiny_result(codes):
    codes = np.asarray(codes, dtype=np.uint8)
    res = codes.shape[0]
    meta = {
        "p": 3,
        "q": 3,
        "window": [0.0, 1.0, 0.0, 1.0],
        "resolution": res,
        "mode": "combined",
        "version": "test",
    }
    return ScanResult(codes=codes, metadata=meta)


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
        assert len(poly) >= 4
        n = len(poly)
        for k in range(n):
            a, b, c = poly[k], poly[(k + 1) % n], poly[(k + 2) % n]
            u, v = b - a, c - b
            assert u.real * v.imag - u.imag * v.real >= -1e-9  # convex, ccw
        for z in poly:
            assert abs(omega_margin(region, z)) < 1e-7

    def test_hexagon_when_orders_match(self):
        assert len(region_polygon(build_omega(3, 3))) == 6
        assert len(region_polygon(build_omega(4, 4))) == 6


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
        b = run_scan(job, workers=2)
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

    def test_csv_and_svg(self):
        rows = compare_lambda_data(3, 3, n=6)
        csv = compare_lambda_csv(rows)
        text = csv.decode("ascii")
        assert text.startswith("theta,t_disks,t_lambda,winner\n")
        assert len(text.strip().split("\n")) == 7
        svg = compare_lambda_svg(3, 3, rows)
        assert svg.count("<polyline ") == 2
        assert svg.count("<circle ") == 4 + len(rows)
        assert compare_lambda_svg(3, 3, rows) == svg
