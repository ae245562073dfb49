"""Scan jobs: windowing, mode semantics, determinism, bands, partial failure."""

import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mobcert.certificates as certificates
import mobcert.scan as scan
from mobcert.cli import main
from mobcert.certificates import cert_combined, combined_codes_array, disk_slack, disk_slack_array
from mobcert.farey import cusp_residue, farey_poly, solve_cusp
from mobcert.lambda_region import lambda_from_rho, lambda_slack, lambda_slack_rho, rho_from_lambda
from mobcert.mobius import EPS_ALG, GroupSpec, InvalidInputError, sigma_pq
from mobcert.omega import (
    OrientedLine,
    boundary_cusps,
    build_omega,
    im_bound,
    omega_margin,
    outside_grid,
    rho_star,
    x_pq,
)
from mobcert.render import scan_csv, scan_pgm, scan_svg
from mobcert.scan import CODE_UNSCANNED, PartialScanError, ScanJob, Window, run_scan


STANDARD = Window(-3.0, 6.0, -4.5, 4.5)


def job_33(mode="combined", res=24):
    return ScanJob(3, 3, Window(-3.0, 6.0, -4.0, 4.0), res, mode)


def omega_oracle(job, rows=slice(None)):
    """The grid oracle of an omega scan: strictly outside every side's margin."""
    grid = job.xs()[None, :] + 1j * job.ys()[rows, None]
    return omega_margin(build_omega(job.p, job.q), grid) < -EPS_ALG


HUGE_MARKINGS = [(1000, 1001), (3, 10**18), (10**9, 10**9), (10**22, 10**22 + 1)]


@st.composite
def omega_scans(draw):
    """An omega scan job and a BAND_PIXELS: a marking, a window centred on
    a cusp, a line's anchor point or a random point at a scale from 1e-14
    to 1e300, and a resolution."""
    p, q = draw(st.tuples(st.integers(3, 60), st.integers(3, 60)) | st.sampled_from(HUGE_MARKINGS))
    points = [*boundary_cusps(p, q), *(line.point for line in build_omega(p, q).lines)]
    finite = {"allow_nan": False, "allow_infinity": False}
    centre = draw(st.sampled_from(points) | st.complex_numbers(max_magnitude=10.0, **finite))
    scale = 10.0 ** draw(st.floats(-14.0, 300.0))
    left, right, below, above = (scale * draw(st.floats(0.05, 1.0)) for _ in range(4))
    bounds = (centre.real - left, centre.real + right, centre.imag - below, centre.imag + above)
    assume(bounds[0] < bounds[1] and bounds[2] < bounds[3])
    res = draw(st.integers(2, 120))
    band_pixels = draw(st.sampled_from([1, 7, 64, scan.BAND_PIXELS]))
    return ScanJob(p, q, Window(*bounds), res, "omega"), band_pixels


class TestValidation:
    def test_window_must_be_ordered(self):
        with pytest.raises(InvalidInputError):
            Window(1.0, 1.0, 0.0, 2.0)
        with pytest.raises(InvalidInputError):
            Window(0.0, 1.0, 2.0, -2.0)

    @pytest.mark.parametrize(
        "bounds",
        [
            (0.0, math.inf, 0.0, 1.0),
            (-math.inf, 0.0, 0.0, 1.0),
            (0.0, 1.0, -math.inf, math.inf),
            (math.nan, 1.0, 0.0, 1.0),
            (-1.7e308, 1.7e308, 0.0, 1.0),  # the width overflows
            (0.0, 1.0, -1e308, 1e308),  # the height overflows
        ],
    )
    def test_window_must_be_finite(self, bounds):
        with pytest.raises(InvalidInputError, match="degenerate window"):
            Window(*bounds)
        Window(-8.9e307, 8.9e307, -1.0, 1.0)  # a finite width near the float maximum

    def test_job_rejects_bad_mode_and_resolution(self):
        win = Window(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            ScanJob(3, 3, win, 16, "voronoi")
        with pytest.raises(InvalidInputError):
            ScanJob(3, 3, win, 1, "omega")
        with pytest.raises(InvalidInputError):
            ScanJob(3, 3, win, 2.5, "omega")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, monkeypatch, capsys, tmp_path, workers):
        # scan --workers selects nothing, but a count below 1 still exits 3
        # before any scan work
        monkeypatch.setattr(scan, "_mode_codes", lambda job: pytest.fail("scan work started"))
        rc = main(["scan", "--p", "3", "--q", "3", "--window=-3,6,-4,4", "--res", "8",
                   "--mode", "omega", "--workers", str(workers), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err == f"error: workers must be at least 1, got {workers}\n"

    def test_pixel_centers(self):
        job = ScanJob(3, 3, Window(0.0, 1.0, -1.0, 1.0), 4, "omega")
        assert np.allclose(job.xs(), [0.125, 0.375, 0.625, 0.875])
        assert np.allclose(job.ys(), [-0.75, -0.25, 0.25, 0.75])


class TestTypedCaches:
    # 3.0 hashes and compares equal to 3 but is no order: once (3, 4) has
    # filled the per-marking caches, 3.0 must still be rejected
    @pytest.mark.parametrize("p", [3.0, np.float64(3.0)], ids=["float", "float64"])
    def test_a_float_order_never_finds_the_entry_of_its_integer(self, p):
        z = np.array([9.0 + 0j])
        window = Window(8.0, 9.0, 0.0, 1.0)
        assert combined_codes_array(3, 4, z).tolist() == [1]
        for mode in ("combined", "disks"):
            run_scan(ScanJob(3, 4, window, 2, mode))
        lambda_slack_rho(3, 4, z)
        solve_cusp((1, 3), 3, 4)
        build_omega(3, 4)
        with pytest.raises(InvalidInputError):
            combined_codes_array(p, 4, z)
        for mode in ("combined", "disks"):
            with pytest.raises(InvalidInputError):
                run_scan(ScanJob(p, 4, window, 2, mode))
        for call in (lambda: lambda_slack_rho(p, 4, z), lambda: solve_cusp((1, 3), p, 4),
                     lambda: cusp_residue((1, 3), p, 4, 1j), lambda: rho_star(p, 4),
                     lambda: x_pq(p, 4), lambda: im_bound(p, 4), lambda: build_omega(p, 4)):
            with pytest.raises(InvalidInputError):
                call()

    # an unhashable value (a 0-d array, a list) is no order, and the caches
    # keyed by a marking cannot hash it: every entry point raises the order
    # rule's error for it, as GroupSpec and the uncached disk_slack do
    @pytest.mark.parametrize("bad", [np.array(3), [3]], ids=["0-d array", "list"])
    def test_an_unhashable_order_is_no_order(self, bad):
        z = np.array([9.0 + 0j])
        calls = (
            lambda: combined_codes_array(bad, 4, z), lambda: combined_codes_array(4, bad, z),
            lambda: disk_slack_array(bad, 4, z), lambda: disk_slack_array(4, bad, z),
            lambda: lambda_slack_rho(bad, 4, 1 + 1j), lambda: lambda_slack_rho(4, bad, z),
            lambda: rho_from_lambda(bad, 4, 2.0), lambda: solve_cusp((1, 2), bad, 4),
            lambda: solve_cusp((1, 2), 4, bad), lambda: cusp_residue((1, 3), bad, 4, 1j),
            lambda: farey_poly((0, 1), 4, bad), lambda: rho_star(bad, 4), lambda: x_pq(4, bad),
            lambda: im_bound(bad, 4), lambda: build_omega(bad, 4), lambda: disk_slack(bad, 4, 1j),
            lambda: cert_combined(GroupSpec(bad, 4, 1j)),
        )
        for call in calls:
            with pytest.raises(InvalidInputError, match=r"must be an integer >= 2 or inf, got (array\(3\)|\[3\])$"):
                call()
        # an unhashable argument that is not an order keeps its TypeError
        with pytest.raises(TypeError, match="unhashable"):
            combined_codes_array(3, 4, z, search=[True])


class TestModeSemantics:
    def grid(self, job):
        return job.xs()[None, :] + 1j * job.ys()[:, None]

    def test_omega_mode(self):
        job = job_33("omega")
        result = run_scan(job)
        margin = omega_margin(build_omega(3, 3), self.grid(job))
        assert ((result.codes == 1) == (margin < -EPS_ALG)).all()
        assert set(np.unique(result.codes)) <= {0, 1}

    def test_disks_mode(self):
        job = job_33("disks")
        result = run_scan(job)
        slack = disk_slack_array(3, 3, self.grid(job))
        assert ((result.codes == 1) == (slack > EPS_ALG)).all()

    def test_lambda_mode(self):
        job = job_33("lambda")
        result = run_scan(job)
        # the independent lambda-space reference: the scalar slack of the
        # larger lambda branch of each pixel
        slack = np.array(
            [lambda_slack(3, 3, lambda_from_rho(GroupSpec(3, 3, complex(z)))[0]) for z in self.grid(job).ravel()]
        ).reshape(result.codes.shape)
        assert ((result.codes == 4) == (slack >= -EPS_ALG)).all()

    @pytest.mark.parametrize(
        "p, q, scale",
        [
            pytest.param(3, 4, 1e100, id="1e+100"),
            pytest.param(3, 4, 1e200, id="1e+200"),
            # a lambda branch of NaN there once read 0 on every pixel
            pytest.param(92480960, 92480960, 1e299, id="92480960-92480960-1e+299"),
        ],
    )
    def test_lambda_mode_huge_rho(self, p, q, scale):
        # far out every rho is lambda certified, also where rho (rho - sigma)
        # overflows
        job = ScanJob(p, q, Window(scale, 2 * scale, -scale, scale), 8, "lambda")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_scan(job)
        assert (result.codes == 4).all()

    @settings(max_examples=150, deadline=None)
    @given(case=omega_scans())
    @example(case=(ScanJob(1000, 1001, Window(4.0 - 1e-12, 4.0 + 1e-12, -1e-12, 1e-12), 97, "omega"), 7))
    @example(case=(ScanJob(10**22, 10**22 + 1, Window(3.9, 4.1, -1e-14, 1e-14), 33, "omega"), 1))
    @example(case=(ScanJob(3, 4, Window(1e300, 1.7e308, -1.7e308, -1e300), 64, "omega"), 4096))
    def test_omega_rows_match_grid_oracle(self, case):
        # the row bisection decides each pixel as the grid oracle does, for
        # any marking, window, resolution and band split
        job, band_pixels = case
        with mock.patch.object(scan, "BAND_PIXELS", band_pixels):
            codes = run_scan(job).codes
        assert ((codes == 1) == omega_oracle(job)).all()
        assert set(np.unique(codes)) <= {0, 1}

    @pytest.mark.parametrize("half", ["left", "right"])
    @pytest.mark.parametrize("n", [255, 256, 65535, 65536, 70_000])
    def test_omega_wide_rows_match_grid_oracle(self, n, half):
        # the mask compares column indices in the narrowest unsigned dtype
        # that holds a count, up to 2**n.bit_length() - 1 where a row ends
        # inside or is outside throughout: uint8 to uint32 here
        region = build_omega(3, 4)
        middle = sigma_pq(3, 4) / 2.0
        ends = (STANDARD.re_min, middle) if half == "left" else (middle, STANDARD.re_max)
        xs = np.linspace(*ends, n)
        ys = np.array([-4.4, -1.0, 0.0, 0.3, 2.0])
        oracle = omega_margin(region, xs[None, :] + 1j * ys[:, None]) < -EPS_ALG
        mask = outside_grid(region, xs, ys)
        assert mask.dtype == bool and (mask == oracle).all()
        assert oracle[0].all() and not oracle[2].all()

    def test_omega_margins_per_row(self, monkeypatch):
        # a 1024^2 omega scan evaluates at most sides * 1024 * 11 margins:
        # 11 = ceil(log2(1025)) bisection steps per side and row
        real = OrientedLine.margin
        evaluated = []

        def counting(line, z):
            evaluated.append(np.size(z))
            return real(line, z)

        monkeypatch.setattr(OrientedLine, "margin", counting)
        job = ScanJob(3, 4, STANDARD, 1024, "omega")
        codes = run_scan(job).codes
        monkeypatch.undo()
        assert 0 < sum(evaluated) <= len(build_omega(3, 4).lines) * 1024 * 11
        rows = slice(None, None, 31)
        assert ((codes[rows] == 1) == omega_oracle(job, rows)).all()

    def test_omega_mode_near_float_maximum(self):
        # the line margins' complex quotients overflow there, and once
        # raised RuntimeWarning; a NaN margin would read 0
        job = ScanJob(3, 4, Window(1e308, 1.7e308, 1e308, 1.7e308), 4, "omega")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_scan(job)
        assert (result.codes == 1).all()

    @pytest.mark.parametrize(
        "p, q, rho",
        [
            (3, 4, 1e308), (3, 4, -1e308j), (5, 9, 2e307), (5, 9, -2e307j),
            (5, 9, 1e308), (5, 9, -1e308j), (3, 4, 1.7e308),
        ],
    )
    def test_lambda_mode_slack_overflow(self, p, q, rho):
        # |lam| csc(pi/q) overflows there, and for the last three windows
        # |lam| itself passes the float maximum on some pixels (inf+nanj)
        h = 0.05 * abs(rho)
        z = complex(rho)
        job = ScanJob(p, q, Window(z.real - h, z.real + h, z.imag - h, z.imag + h), 4, "lambda")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_scan(job)
        assert (result.codes == 4).all()

    def test_burau_mode_faithful_patch(self):
        job = ScanJob(3, 3, Window(2.5, 4.5, -0.5, 0.5), 2, "burau")
        result = run_scan(job)
        assert (result.codes == 4).all()  # mu near 3..4 is certified faithful

    def test_burau_mode_exclusions(self):
        # pixel centers land exactly on mu = -1 and mu = 0: both excluded.
        job = ScanJob(3, 3, Window(-1.5, 0.5, -0.5, 1.5), 2, "burau")
        result = run_scan(job)
        assert (result.codes[0] == 0).all()  # row y=0: mu = -1, mu = 0
        assert result.codes[1, 1] == 0  # mu = i lies inside the annulus

    def test_combined_codes_in_range(self):
        result = run_scan(job_33("combined", res=32))
        assert set(np.unique(result.codes)) <= {0, 1, 2, 3, 4, 5}

    def test_combined_sound_outside_omega(self):
        # every pixel strictly outside Omega must carry some certificate.
        job = job_33("combined", res=72)
        result = run_scan(job)
        margin = omega_margin(build_omega(3, 3), self.grid(job))
        outside = margin < -EPS_ALG
        assert outside.any()
        assert (result.codes[outside] != 0).all()
        # and the residual anchor search genuinely contributes pixels
        assert (result.codes == 3).any()


class TestDeterminism:
    @pytest.mark.parametrize("split", [1, 2])
    def test_combined_matches_array_codes(self, monkeypatch, split):
        # split 1: one band at res 40, three at 96; split 2 halves the bands
        monkeypatch.setattr(scan, "BAND_PIXELS", scan.BAND_PIXELS // split)
        for res in (40, 96):
            job = ScanJob(3, 4, Window(-3.0, 6.0, -4.5, 4.5), res, "combined")
            grid = job.xs()[None, :] + 1j * job.ys()[:, None]
            result = run_scan(job)
            assert (result.codes == combined_codes_array(3, 4, grid, search=True)).all()
            assert (result.codes == 3).any()

    @pytest.mark.parametrize(
        "p,q,csv_sha,svg_sha",
        [
            (
                3, 3,
                "7ad6ef02eb6f6149988f6d8a8a1da5aa55e8e34e0090ee5e08fd24a2c252dc82",
                "4e26d5c44cc138d440e2247d26eee3251b77f6b5575223dc7c14454ff22f9cf3",
            ),
            (
                3, 4,
                "38dd7279a17872dbf3e64987213f60155f33182e407421ff7b5bcba413e4313f",
                "1652fccd24610e1cd1c7d80bace9a919b429564c547c9a442ff2a67aa6ae619b",
            ),
            (
                5, 9,
                "bebcf172fbb9282bfd0edd1298f41d77df47905c3a5780ab390f007ff4740710",
                "369a04a6edc0cd050f40abca21e57b556297419e524704c18833f8be007a33ae",
            ),
        ],
    )
    def test_combined_residual_digests_pinned(self, p, q, csv_sha, svg_sha):
        # 64 x 64 combined scans whose residual pixels reach the anchor
        # search; recorded when it searched every anchor circle
        result = run_scan(ScanJob(p, q, Window(-3.0, 6.0, -4.5, 4.5), 64, "combined"))
        assert hashlib.sha256(scan_csv(result)).hexdigest() == csv_sha
        assert hashlib.sha256(scan_svg(result).encode("utf-8")).hexdigest() == svg_sha

    @pytest.mark.parametrize(
        "p, q, window, csv_sha, pgm_sha",
        [
            (
                3, 4, STANDARD,
                "3774252b63b982ec42fedcf8876a789e7400926488a982455e7795200f36578e",
                "4e3321fee6322b4f2bbed12642ab1044d3ebbc1bb550d79329012d86d5e4ce38",
            ),
            (
                5, 9, STANDARD,
                "5f5c3ef4c2951d4e1e987d27d42938e5cadb1fcc2c39ac83b4cea9e56dbcc251",
                "bc3cbb8151efb143d71461e12b8fd7e8d790ff3c8bbd186df74b62b38768f297",
            ),
            (
                7, 7, STANDARD,
                "154b52c4933a20ddfed503fc84e3fffd4f1729344cc4d09f209e013e6310f7b8",
                "b8ea89ba6b7b4d81e716dfcc644116ea1c0055f6af9d8927a9a1c6a5dc1d1d8a",
            ),
            (
                1000, 1001, "cusp",
                "83dcf7076f40e87160a3f339d3db40045d23a902eec66dd27769fc639601081f",
                "a9500d155ec8948eb4c8f5a15fe165a2a06da236955202202ea8cb2c758da331",
            ),
        ],
        ids=["3-4", "5-9", "7-7", "1000-1001-cusp"],
    )
    def test_omega_digests_pinned(self, p, q, window, csv_sha, pgm_sha):
        # 256 x 256 omega scans, recorded when every pixel took the minimum
        # of all its side margins; "cusp" is the square of half-width 1e-3
        # about the 0/1 cusp
        if window == "cusp":
            c = boundary_cusps(p, q)[0].real
            window = Window(c - 1e-3, c + 1e-3, -1e-3, 1e-3)
        result = run_scan(ScanJob(p, q, window, 256, "omega"))
        assert hashlib.sha256(scan_csv(result)).hexdigest() == csv_sha
        assert hashlib.sha256(scan_pgm(result)).hexdigest() == pgm_sha

    def test_metadata(self):
        job = job_33("omega", res=8)
        result = run_scan(job)
        assert result.job is job


class TestSetup:
    @pytest.mark.parametrize("bands", [1, 2])
    def test_omega_built_once_per_scan(self, monkeypatch, bands):
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return build_omega(p, q)

        band_rows = []

        def recording(region, xs, ys):
            band_rows.append(len(ys))
            return outside_grid(region, xs, ys)

        monkeypatch.setattr(scan, "build_omega", counting)
        monkeypatch.setattr(scan, "outside_grid", recording)
        # an omega band holds one margin per side (6 for (3, 3)) and row
        monkeypatch.setattr(scan, "BAND_PIXELS", 6 * 16 // bands)
        result = run_scan(job_33("omega", res=16))
        assert calls == [(3, 3)]
        assert band_rows == [0] + [16 // bands] * bands  # the probe, then the bands
        assert (result.codes == 1).any()


class TestBands:
    def test_one_row_bands_match_one_band(self, monkeypatch):
        job = job_33("combined", res=36)
        one = run_scan(job)  # 4096 // 36 rows: one band
        monkeypatch.setattr(scan, "BAND_PIXELS", 36)
        many = run_scan(job)
        assert (many.codes == one.codes).all()


def flaky_mode_codes(monkeypatch, fails):
    """Make every band whose ordinates satisfy fails(y) raise, with bands of
    one row in the 8-row scans below."""
    real = scan._mode_codes

    def wrapper(job):
        codes_of, row_values = real(job)

        def flaky(xs, ys):
            if fails(ys).any():
                raise RuntimeError("boom")
            return codes_of(xs, ys)

        return flaky, row_values

    monkeypatch.setattr(scan, "_mode_codes", wrapper)
    monkeypatch.setattr(scan, "BAND_PIXELS", 8)


class TestPartialFailure:
    def test_omega_reports_completed_prefix(self, monkeypatch):
        # an omega band holds one margin per side (6 for (3, 3)) and row, so
        # 8 band pixels make one-row bands here too
        job = job_33("omega", res=8)
        ys = job.ys()
        flaky_mode_codes(monkeypatch, lambda y: y >= ys[5] - 1e-12)
        with pytest.raises(PartialScanError) as ei:
            run_scan(job)
        err = ei.value
        assert err.completed_rows == 5
        assert (err.partial[:5] != CODE_UNSCANNED).all()
        assert (err.partial[5:] == CODE_UNSCANNED).all()

    def test_serial_reports_completed_prefix(self, monkeypatch):
        job = job_33("disks", res=8)
        ys = job.ys()
        flaky_mode_codes(monkeypatch, lambda y: y >= ys[3] - 1e-12)
        with pytest.raises(PartialScanError) as ei:
            run_scan(job)
        err = ei.value
        assert err.completed_rows == 3
        assert err.total_rows == 8
        assert (err.partial[:3] != CODE_UNSCANNED).all()
        assert (err.partial[3:] == CODE_UNSCANNED).all()
        assert isinstance(err.cause, RuntimeError)

    @pytest.mark.parametrize("band, completed", [(0, 0), (1, 42)])
    def test_anchor_stage_failure(self, monkeypatch, band, completed):
        # 96 rows make bands of 42, 42 and 12 rows; one band fails inside
        # the anchor search, and no later band runs.  The row searches a
        # band's circles in one call, of rho and sigma - rho alike, so the
        # failing band is told by the call's number, not by Im rho.
        job = job_33("combined", res=96)
        real = certificates.anchor_search_bulk
        calls = []

        def failing(p, q, w, *args, **kwargs):
            calls.append(np.size(w))
            if len(calls) == band + 1:
                raise RuntimeError("anchor boom")
            return real(p, q, w, *args, **kwargs)

        monkeypatch.setattr(certificates, "anchor_search_bulk", failing)
        with pytest.raises(PartialScanError) as ei:
            run_scan(job)
        err = ei.value
        assert len(calls) == band + 1 and all(calls)  # one call per band, each with circles
        assert err.completed_rows == completed
        assert isinstance(err.cause, RuntimeError)
        assert (err.partial[:completed] != CODE_UNSCANNED).all()
        assert (err.partial[completed:] == CODE_UNSCANNED).all()

    def test_fail_fast_probe(self):
        # an invalid marking dies before any row is scanned
        job = ScanJob(2, 2, Window(-1.0, 1.0, -1.0, 1.0), 4, "lambda")
        with pytest.raises(InvalidInputError):
            run_scan(job)

    def test_fail_fast_probe_combined(self, monkeypatch):
        real = certificates.anchor_search_bulk
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(certificates, "anchor_search_bulk", recording)
        job = ScanJob(2, 2, Window(-1.0, 1.0, -1.0, 1.0), 4, "combined")
        with pytest.raises(InvalidInputError):
            run_scan(job)
        assert calls == []
        # the same window at a valid marking reaches the patched search
        run_scan(ScanJob(3, 3, Window(-1.0, 1.0, -1.0, 1.0), 4, "combined"))
        assert len(calls) == 1

    @pytest.mark.parametrize("p, q, bad", [(1, 4, 1), (4, 1, 1), (0, 5, 0)])
    def test_fail_fast_probe_order_below_two(self, p, q, bad):
        # the combined cascade checks both orders on the empty probe, so an
        # order below 2 is an input error, not a failure of the first band
        job = ScanJob(p, q, Window(0.0, 1.0, 0.0, 1.0), 4, "combined")
        with pytest.raises(InvalidInputError, match=f"order must be an integer >= 2 or inf, got {bad}$"):
            run_scan(job)

    def test_probe_searches_no_anchor(self, monkeypatch):
        # The window lies inside Omega, so every pixel is residual; the
        # fail-fast probe must not run an anchor search of its own, and the
        # one band makes one call, with at most the two circles of each of
        # its 256 pixels (the screen may pass it none).
        real = certificates.anchor_search_bulk
        sizes = []

        def recording(p, q, w, *args, **kwargs):
            sizes.append(np.size(w))
            return real(p, q, w, *args, **kwargs)

        monkeypatch.setattr(certificates, "anchor_search_bulk", recording)
        run_scan(ScanJob(3, 4, Window(0.4, 0.6, 0.0, 0.2), 16, "combined"))
        assert len(sizes) == 1 and sizes[0] <= 2 * 256
