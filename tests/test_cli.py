"""End-to-end CLI behavior: exit codes, JSON records, file outputs."""

import argparse
import errno
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from mobcert import __version__, certificates, cli, scan
from mobcert.burau import faithful_mask
from mobcert.cli import build_parser, main
from mobcert.mobius import EPS_ALG


MU_SHARP = (3.0 + math.sqrt(5.0)) / 2.0
HUGE = "1.7e308+1.7e308i"  # finite, with a modulus past the float maximum
SCAN = ("scan", "--p", "3", "--q", "4", "--window=-3,6,-4.5,4.5", "--mode", "combined")
REGION = ("region", "--p", "3", "--q", "4")
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def run_python(*args):
    """Run a Python process with this source tree's mobcert on its path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


class TestCertify:
    def test_single_rho(self, capsys):
        rc, out, err = run(capsys, "certify", "--p", "3", "--q", "3", "--rho", "9+0.1i")
        assert rc == 0 and err == ""
        doc = json.loads(out)
        assert set(doc) == {
            "input", "verdict", "witness", "slack", "gamma",
            "symmetry_image", "lambda_branches",
        }
        assert doc["input"] == {"p": 3, "q": 3, "rho": [9.0, 0.1]}
        assert doc["verdict"] == "FreeDiscrete"
        assert doc["witness"] == "DisksElliptic"
        assert doc["slack"] > 0
        g = complex(*doc["gamma"])
        rho = 9 + 0.1j
        assert abs(g - rho * (rho - 3.0)) < 1e-9
        assert doc["symmetry_image"] == pytest.approx([-6.0, -0.1])
        assert len(doc["lambda_branches"]) == 2

    def test_multiple_rho_one_line_each(self, capsys):
        rc, out, _ = run(
            capsys, "certify", "--p", "3", "--q", "4",
            "--rho", "9", "--rho", "0.5+0.1i", "--rho", "-5",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        docs = [json.loads(ln) for ln in lines]
        assert docs[0]["verdict"] == "FreeDiscrete"
        assert docs[1]["verdict"] == "NoCertificate"
        assert docs[2]["verdict"] == "FreeDiscrete"

    def test_infinite_order(self, capsys):
        rc, out, _ = run(capsys, "certify", "--p", "inf", "--q", "3", "--rho", "9")
        assert rc == 0
        doc = json.loads(out)
        assert doc["input"]["p"] == "inf"
        assert doc["verdict"] == "FreeDiscrete"
        assert doc["symmetry_image"] is None
        assert doc["lambda_branches"] is None

    @pytest.mark.parametrize("p, q", [("3", "4"), ("5", "9")])
    def test_huge_rho_is_standard_json(self, capsys, p, q):
        # gamma overflows from |rho| ~ 1.3e154, and for (5, 9) at 1e308 the
        # lambda branch does too: those fields are null, never Infinity/NaN
        argv = ["certify", "--p", p, "--q", q]
        for rho in ("1e160", "1e300+1i", "-1e300i", "1e308"):
            argv += ["--rho", rho]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        docs = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
        assert len(docs) == 4
        assert all(doc["gamma"] is None for doc in docs)
        assert all(doc["verdict"] == "FreeDiscrete" for doc in docs)
        # at 1e308 the (3, 4) branch is still finite, the (5, 9) one is not
        finite = [b is not None for doc in docs for b in doc["lambda_branches"]]
        assert finite == [True] * 6 + [p == "3"] * 2

    def test_burau_mode(self, capsys):
        rc, out, _ = run(capsys, "certify", "--burau", "--mu", "9")
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {
            "input", "verdict", "witness", "slack", "z", "rho", "lambda_branches",
        }
        assert doc["verdict"] == "Faithful"
        assert doc["witness"] == "LambdaRegion"
        assert doc["z"] == pytest.approx([8.0 / 3.0, 0.0])
        assert doc["rho"] == pytest.approx([math.sqrt(3.0), 8.0 / 3.0])

    @pytest.mark.parametrize("mu", ["5e-324", "1e-310", "-1e-310", "1e-309i"])
    def test_tiny_mu_is_faithful_standard_json(self, capsys, mu):
        # z = sqrt(mu) - 1/sqrt(mu) squares past the float maximum here;
        # both commands give the burau scan mode's verdict, in finite numbers
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            docs = []
            for argv in (("certify", "--burau", "--mu", mu), ("burau-annulus", "--mu", mu)):
                rc, out, err = run(capsys, *argv)
                assert rc == 0 and err == ""
                docs.append(json.loads(out, parse_constant=reject))
            mask = faithful_mask(np.array([complex(mu.replace("i", "j"))]))
        cert, report = docs
        assert cert["verdict"] == report["verdict"] == "Faithful"
        assert report["certified_faithful"] and mask[0]
        assert None not in cert["lambda_branches"]

    @pytest.mark.parametrize("argv", [["certify", "--burau"], ["burau-annulus"]], ids=["certify", "burau-annulus"])
    def test_huge_mu_gets_the_scan_verdict(self, capsys, argv):
        # |mu| passes the float maximum, where abs() of a complex raises;
        # the burau scan codes this mu 4, and abs_mu is null
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run(capsys, *argv, f"--mu={HUGE}")
            mask = faithful_mask(np.array([complex(HUGE.replace("i", "j"))]))
        assert rc == 0 and err == ""
        doc = json.loads(out, parse_constant=reject)
        assert mask[0] and doc["verdict"] == "Faithful"
        if argv == ["burau-annulus"]:
            assert doc["abs_mu"] is None and doc["certified_faithful"]
            assert not doc["in_proved_annulus"] and not doc["in_conjectured_annulus"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--p", "3", "--q", "4", f"--rho={HUGE}", "--no-search"],
            ["certify", "--burau", f"--mu={HUGE}"],
            ["burau-annulus", f"--mu={HUGE}"],
        ],
        ids=["certify", "certify-burau", "burau-annulus"],
    )
    def test_huge_input_lines_are_standard_json(self, capsys, argv):
        # a non-finite slack or abs_mu is null, never Infinity
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        doc = json.loads(out, parse_constant=reject)
        if argv[1] == "--p":
            # the DisksElliptic slack overflows here
            assert doc["witness"] == "DisksElliptic" and doc["slack"] is None

    def test_underflowed_s_has_no_lambda_branches(self, capsys):
        # at p = q = 10**200, S = sin(pi/p) sin(pi/q) underflows to 0 and the
        # lambda coordinate does not exist in floats: null branches, exit 0
        order = str(10**200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(
                capsys, "certify", "--p", order, "--q", order, "--rho", "1", "--rho", "0", "--no-search",
            )
        assert rc == 0 and err == ""
        docs = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
        assert [doc["lambda_branches"] for doc in docs] == [None, None]
        assert [doc["verdict"] for doc in docs] == ["NoCertificate", "NoCertificate"]
        assert docs[1]["slack"] == -2.0  # the lambda row at rho = 0

    def test_cusp_on_the_closed_lambda_boundary(self, capsys):
        # the 0/1 cusp rho = 4 of (3, 3) lies on the closed lambda boundary
        rc, out, _ = run(capsys, "certify", "--p", "3", "--q", "3", "--rho", "4", "--no-search")
        doc = json.loads(out)
        assert rc == 0 and doc["witness"] == "LambdaRegion" and abs(doc["slack"]) <= EPS_ALG

    def test_no_search_still_runs(self, capsys):
        rc, out, _ = run(
            capsys, "certify", "--p", "3", "--q", "3", "--no-search", "--rho", "9",
        )
        assert rc == 0
        assert json.loads(out)["verdict"] == "FreeDiscrete"

    def test_missing_rho_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "certify", "--p", "3", "--q", "3")
        assert rc == 3
        assert err.startswith("error:")

    def test_forbidden_marking(self, capsys):
        rc, _, err = run(capsys, "certify", "--p", "2", "--q", "2", "--rho", "9")
        assert rc == 3
        assert "error:" in err

    def test_mu_without_burau_exits_3(self, capsys):
        rc, out, err = run(capsys, "certify", "--p", "3", "--q", "4", "--rho", "1", "--mu", "2")
        assert rc == 3 and out == ""
        assert err == "error: certify takes --mu only with --burau\n"

    def test_rho_with_burau_exits_3(self, capsys):
        rc, out, err = run(capsys, "certify", "--burau", "--mu", "2", "--rho", "1")
        assert rc == 3 and out == ""
        assert err == "error: certify --burau takes --mu only, not --p, --q or --rho\n"

    def test_no_search_with_burau_exits_3(self, capsys):
        rc, out, err = run(capsys, "certify", "--burau", "--mu", "9", "--no-search")
        assert rc == 3 and out == ""
        assert err == "error: certify --burau takes no --no-search\n"

    def test_burau_mu_zero(self, capsys):
        rc, _, err = run(capsys, "certify", "--burau", "--mu", "0")
        assert rc == 3
        assert "error:" in err

    @pytest.mark.parametrize("rho", ["nan", "inf", "nan+1j", "infinity-2i"])
    def test_non_finite_rho_exits_3(self, capsys, rho):
        rc, out, err = run(capsys, "certify", "--p", "3", "--q", "4", "--rho", rho)
        assert rc == 3 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("mu", ["nan", "inf", "nan+1j"])
    def test_non_finite_mu_exits_3(self, capsys, mu):
        rc, out, err = run(capsys, "certify", "--burau", "--mu", mu)
        assert rc == 3 and out == ""
        assert err.startswith("error:")

    def test_negative_complex_rho(self, capsys):
        rc, out, _ = run(capsys, "certify", "--p", "3", "--q", "4", "--rho", "-2-1i")
        assert rc == 0
        assert json.loads(out)["input"]["rho"] == [-2.0, -1.0]

    def test_negative_complex_mu(self, capsys):
        rc, out, _ = run(capsys, "certify", "--burau", "--mu", "-1-1i")
        assert rc == 0
        assert json.loads(out)["input"]["mu"] == [-1.0, -1.0]

    def test_option_after_rho_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["certify", "--p", "3", "--q", "4", "--rho", "-h"])
        assert ei.value.code == 2
        capsys.readouterr()

    def test_malformed_rho_exits_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["certify", "--p", "3", "--q", "3", "--rho", "spam"])
        assert ei.value.code == 2
        capsys.readouterr()


class TestRegion:
    def test_svg_stdout(self, capsys):
        rc, out, _ = run(capsys, "region", "--p", "4", "--q", "4")
        assert rc == 0
        assert out.startswith("<svg ")
        assert out.count("<line ") == 6

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "region.json"
        rc, out, _ = run(
            capsys, "region", "--p", "3", "--q", "7", "--format", "json",
            "--out", str(target),
        )
        assert rc == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["p"] == 3 and doc["q"] == 7

    def test_unsupported_order(self, capsys):
        rc, _, err = run(capsys, "region", "--p", "2", "--q", "5")
        assert rc == 3
        assert err.startswith("error:")


class TestScan:
    def test_writes_csv_and_svg(self, capsys, tmp_path):
        base = tmp_path / "grid"
        rc, out, _ = run(
            capsys, "scan", "--p", "3", "--q", "3", "--window=-1,1,-1,1",
            "--res", "8", "--mode", "omega",
            "--out", str(base),
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["csv"] == str(base) + ".csv"
        assert doc["raster"] == str(base) + ".svg"
        assert doc["metadata"]["resolution"] == 8
        csv = (tmp_path / "grid.csv").read_bytes()
        assert csv.startswith(b"x,y,code\n")
        assert len(csv.strip().split(b"\n")) == 1 + 64
        svg = (tmp_path / "grid.svg").read_text()
        assert svg.startswith("<svg ")

    def test_pgm_format(self, capsys, tmp_path):
        base = tmp_path / "grid"
        rc, out, _ = run(
            capsys, "scan", "--p", "3", "--q", "4", "--window=-1,1,-1,1",
            "--res", "4", "--mode", "disks", "--format", "pgm",
            "--out", str(base),
        )
        assert rc == 0
        assert (tmp_path / "grid.pgm").read_bytes().startswith(b"P2\n4 4\n5\n")

    def test_window_syntax_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["scan", "--p", "3", "--q", "3", "--window=-1,1,-1",
                  "--res", "4", "--out", "x"])
        assert ei.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("window", ["0,inf,0,1", "-1.7e308,1.7e308,0,1", "nan,1,0,1"])
    def test_non_finite_window_exits_2(self, capsys, tmp_path, window):
        # an infinite bound or an overflowing width, like a nan bound, is a
        # degenerate window: no CSV full of inf, no JSON Infinity
        with pytest.raises(SystemExit) as ei:
            main(["scan", "--p", "3", "--q", "4", f"--window={window}",
                  "--res", "4", "--out", str(tmp_path / "x")])
        assert ei.value.code == 2
        assert "degenerate window" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_backend_choice(self, capsys):
        # numpy is the only backend; --backend is no longer an option.
        with pytest.raises(SystemExit) as ei:
            main(["scan", "--p", "3", "--q", "3", "--window=-1,1,-1,1",
                  "--res", "4", "--out", "x", "--backend", "fortran"])
        assert ei.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("workers", ["0", "-1", "-3"])
    def test_workers_below_one_exit_3(self, capsys, tmp_path, monkeypatch, workers):
        # --workers selects nothing, but a count below 1 still exits 3
        # before any scan work
        monkeypatch.setattr(scan, "_mode_codes", lambda job: pytest.fail("scan work started"))
        rc, out, err = run(
            capsys, "scan", "--p", "3", "--q", "3", "--window=-1,1,-1,1",
            "--res", "4", "--mode", "omega", "--workers", workers,
            "--out", str(tmp_path / "x"),
        )
        assert rc == 3 and out == ""
        assert err == f"error: workers must be at least 1, got {workers}\n"
        assert list(tmp_path.iterdir()) == []

    def test_workers_runs_on_one_thread(self, capsys, tmp_path, monkeypatch):
        # a 96^2 combined scan has three bands; --workers selects nothing
        argv = ["scan", "--p", "3", "--q", "4", "--window=-3,6,-4.5,4.5", "--res", "96"]
        rc, _, _ = run(capsys, *argv, "--out", str(tmp_path / "plain"))
        assert rc == 0
        real = certificates.anchor_search_bulk
        threads = []

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(certificates, "anchor_search_bulk", recording)
        rc, _, _ = run(capsys, *argv, "--workers", "4", "--out", str(tmp_path / "four"))
        assert rc == 0
        # one anchor search per band with residual pixels: the top band of
        # 12 rows lies above the Im bound, where a closed row decides all
        assert len(threads) == 2
        assert all(t is threading.main_thread() for t in threads)
        for ext in ("csv", "svg"):
            assert (tmp_path / f"four.{ext}").read_bytes() == (tmp_path / f"plain.{ext}").read_bytes()

    @pytest.mark.parametrize(
        "mode, p, q, witness",
        [("disks", "2", "inf", "DisksElliptic"), ("disks", "2", "5", "DisksElliptic"),
         ("disks", "2", "3", "DisksElliptic"), ("lambda", "3", "inf", "LambdaRegion")],
    )
    def test_single_row_mode_checks_its_precondition(self, capsys, tmp_path, mode, p, q, witness):
        # p = 2 has no (p, q) disk family: the disks row does not apply, so
        # the scan writes nothing rather than certify with a degenerate family
        rc, out, err = run(
            capsys, "scan", "--p", p, "--q", q, "--window=-3,6,-4.5,4.5",
            "--res", "8", "--mode", mode, "--out", str(tmp_path / "x"),
        )
        assert rc == 3 and out == ""
        assert err == f"error: {witness} test does not apply to orders ({p}, {q})\n"
        assert list(tmp_path.iterdir()) == []

    def test_one_disk_family_decides(self, capsys, tmp_path):
        # (9, 5) keeps the swapped-disk row (code 2) beside the line family
        # (code 3); (5, 9), whose own disks dominate, has no code 2
        codes = {}
        for p, q in (("9", "5"), ("5", "9")):
            base = tmp_path / f"{p}-{q}"
            rc, _, _ = run(capsys, "scan", "--p", p, "--q", q, "--window=-3,6,-4.5,4.5", "--res", "32", "--out", str(base))
            assert rc == 0
            codes[p, q] = set(np.loadtxt(f"{base}.csv", delimiter=",", skiprows=1, usecols=2, dtype=int))
        assert {2, 3} <= codes["9", "5"]
        assert 3 in codes["5", "9"] and 2 not in codes["5", "9"]

    def test_summary_line_is_standard_json(self, capsys, tmp_path):
        # an infinite order is written "inf", as certify writes it
        rc, out, _ = run(
            capsys, "scan", "--p", "3", "--q", "inf", "--window=-3,6,-4.5,4.5",
            "--res", "8", "--out", str(tmp_path / "x"),
        )
        assert rc == 0
        meta = json.loads(out, parse_constant=reject)["metadata"]
        assert (meta["p"], meta["q"]) == (3, "inf")

    @pytest.mark.parametrize(
        "q, q_json, extra", [("4", "4", ["--workers", "2"]), ("inf", '"inf"', [])], ids=["finite", "inf"]
    )
    def test_summary_line_pinned(self, capsys, tmp_path, q, q_json, extra):
        # the metadata object is the job, keys in this order; --workers
        # selects nothing and is not echoed
        base = tmp_path / "x"
        rc, out, _ = run(
            capsys, "scan", "--p", "3", "--q", q, "--window=-3,6,-4.5,4.5", "--res", "8",
            "--mode", "disks", "--format", "pgm", "--out", str(base), *extra,
        )
        assert rc == 0
        assert out == (
            f'{{"csv": "{base}.csv", "raster": "{base}.pgm", "metadata": {{"p": 3, "q": {q_json}, '
            f'"window": [-3.0, 6.0, -4.5, 4.5], "resolution": 8, "mode": "disks", "version": "{__version__}"}}}}\n'
        )

    def test_invalid_marking_exits_3(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "scan", "--p", "2", "--q", "2", "--window=-1,1,-1,1",
            "--res", "4", "--mode", "lambda",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("p, q, bad", [("1", "4", "1"), ("4", "1", "1"), ("0", "5", "0")])
    def test_combined_order_below_two_exits_3(self, capsys, tmp_path, p, q, bad):
        # rejected before any band runs, like the other modes, not as a failed scan (exit 1)
        rc, out, err = run(
            capsys, "scan", "--p", p, "--q", q, "--window=0,1,0,1",
            "--res", "4", "--mode", "combined", "--out", str(tmp_path / "x"),
        )
        assert rc == 3 and out == ""
        assert err == f"error: order must be an integer >= 2 or inf, got {bad}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["omega", "disks", "lambda", "combined", "burau"])
    @pytest.mark.parametrize("p, q", [("1", "4"), ("4", "1"), ("0", "5"), ("2", "2"), ("inf", "1")])
    def test_invalid_orders_exit_3_in_every_mode(self, capsys, tmp_path, mode, p, q):
        # the burau mode reads no order, but rejects the ones combined mode rejects
        rc, out, err = run(
            capsys, "scan", "--p", p, "--q", q, "--window=0,1,0,1",
            "--res", "4", "--mode", mode, "--out", str(tmp_path / "x"),
        )
        assert rc == 3 and out == ""
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestPartialScan:
    def test_scan_that_fails_part_way_exits_1(self, capsys, tmp_path, monkeypatch):
        # bands of one row, the fourth of which raises: one error line that
        # names the rows done, and no file written
        real = scan._mode_codes

        def failing_fourth_band(job):
            codes_of, _ = real(job)
            calls = []

            def flaky(xs, ys):
                calls.append(len(ys))
                if len(calls) == 5:  # the first call is the empty probe
                    raise RuntimeError("boom")
                return codes_of(xs, ys)

            return flaky, 8

        monkeypatch.setattr(scan, "_mode_codes", failing_fourth_band)
        monkeypatch.setattr(scan, "BAND_PIXELS", 8)
        rc, out, err = run(capsys, *SCAN, "--res", "8", "--out", str(tmp_path / "x"))
        assert rc == 1 and out == ""
        assert err == "error: scan failed after 3 of 8 rows: RuntimeError('boom') (completed_rows=3)\n"
        assert list(tmp_path.iterdir()) == []


class TestRasterTooLarge:
    def test_raster_that_cannot_be_held_exits_1_before_any_band(self, capsys, tmp_path, monkeypatch):
        # the allocation fails as numpy's does for a 100000^2 raster, without
        # allocating it
        full = np.full

        def no_memory(shape, *args, **kwargs):
            if shape == (100000, 100000):
                raise MemoryError("Unable to allocate 9.31 GiB for an array with shape (100000, 100000) "
                                  "and data type uint8")
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(scan.np, "full", no_memory)
        monkeypatch.setattr(scan, "_mode_codes", lambda job: pytest.fail("scan work started"))
        rc, out, err = run(capsys, "scan", "--p", "3", "--q", "4", "--window=0,1,0,1", "--res", "100000",
                           "--out", str(tmp_path / "x"))
        assert rc == 1 and out == ""
        assert err == ("error: cannot hold a 100000x100000 scan raster in memory: Unable to allocate "
                       "9.31 GiB for an array with shape (100000, 100000) and data type uint8\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer, fmt", [("scan_csv", "pgm"), ("scan_svg", "svg"), ("scan_pgm", "pgm")])
    def test_writer_that_runs_out_of_memory_exits_1(self, capsys, tmp_path, monkeypatch, writer, fmt):
        # the scan fits, its output does not: one error line, and the file
        # the writer would have written keeps its old bytes
        def no_memory(result):
            raise MemoryError("Unable to allocate 31.0 GiB")

        monkeypatch.setattr(cli, writer, no_memory)
        base = tmp_path / "x"
        path = Path(f"{base}.csv" if writer == "scan_csv" else f"{base}.{fmt}")
        path.write_bytes(b"old bytes")
        rc, out, err = run(capsys, "scan", "--p", "3", "--q", "4", "--window=0,1,0,1", "--res", "4",
                           "--mode", "burau", "--format", fmt, "--out", str(base))
        assert rc == 1 and out == ""
        assert err == f"error: cannot hold {path} in memory: Unable to allocate 31.0 GiB\n"
        assert path.read_bytes() == b"old bytes"


class TestUnwritableOut:
    """An --out path in a missing directory: one error line, exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "--p", "3", "--q", "4"),
            ("cusps", "--p", "3", "--q", "4"),
            ("certify", "--p", "3", "--q", "4", "--rho", "1"),
            ("compare-lambda", "--p", "3", "--q", "4", "--angles", "8"),
            ("burau-annulus", "--mu", "9"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_directory_exits_1(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out"
        rc, out, err = run(capsys, *argv, "--out", str(path))
        assert rc == 1 and out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def no_scan(self, monkeypatch):
        monkeypatch.setattr(cli, "run_scan", lambda job: pytest.fail("the scan ran"))

    def test_scan_checks_the_directory_before_any_band(self, capsys, tmp_path, no_scan):
        base = tmp_path / "missing" / "scan"
        rc, out, err = run(capsys, *SCAN, "--res", "8", "--out", str(base))
        assert rc == 1 and out == ""
        assert err == f"error: cannot write {base}.csv: {base.parent} is not a directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("base", ["results/", "", "."], ids=["directory", "empty", "dot"])
    def test_scan_base_without_a_file_name_exits_1(self, capsys, tmp_path, monkeypatch, no_scan, base):
        # the suffixes would name hidden files: results/.csv, ./.csv, ./..csv
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results").mkdir()
        rc, out, err = run(capsys, *SCAN, "--res", "8", "--out", base)
        assert rc == 1 and out == ""
        assert err == f"error: cannot write {base}.csv: {base!r} has no file name\n"
        assert list(tmp_path.rglob("*")) == [tmp_path / "results"]


class TestOverwrite:
    """--out files are overwritten in place and cut to length: a rewrite gives
    the bytes of a write into a fresh path."""

    def fresh_region(self, capsys, tmp_path):
        assert main([*REGION, "--out", str(tmp_path / "fresh.svg")]) == 0
        capsys.readouterr()
        return (tmp_path / "fresh.svg").read_bytes()

    def test_smaller_rewrite_leaves_no_stale_tail(self, capsys, tmp_path):
        base, fresh = tmp_path / "scan", tmp_path / "fresh"
        for res, out in (("16", base), ("8", base), ("8", fresh)):
            assert main([*SCAN, "--res", res, "--out", str(out)]) == 0
        capsys.readouterr()
        for suffix in (".csv", ".svg"):
            assert (tmp_path / f"scan{suffix}").read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()

    def test_symlink_is_written_through(self, capsys, tmp_path):
        target, link = tmp_path / "target.svg", tmp_path / "link.svg"
        target.write_bytes(b"old" * 100_000)
        link.symlink_to(target)
        rc, out, err = run(capsys, *REGION, "--out", str(link))
        assert (rc, out, err) == (0, "", "")
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == self.fresh_region(capsys, tmp_path)

    def test_existing_file_keeps_its_mode(self, capsys, tmp_path):
        path = tmp_path / "region.svg"
        path.write_bytes(b"old")
        path.chmod(0o600)
        assert run(capsys, *REGION, "--out", str(path)) == (0, "", "")
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == self.fresh_region(capsys, tmp_path)

    def test_dev_null(self, capsys):
        assert run(capsys, *REGION, "--out", os.devnull) == (0, "", "")

    def test_fifo_receives_the_regular_file_bytes(self, capsys, tmp_path):
        base, fifo = tmp_path / "piped", tmp_path / "piped.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            rc = main([*SCAN, "--res", "64", "--out", str(base)])
        finally:
            if reader.is_alive() and not received:  # release a reader that no writer opened
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
        assert rc == 0 and not reader.is_alive()
        assert main([*SCAN, "--res", "64", "--out", str(tmp_path / "file")]) == 0
        capsys.readouterr()
        expected = (tmp_path / "file.csv").read_bytes()
        assert len(expected) > 65536  # more than a pipe buffer holds
        assert received == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_failed_write_empties_the_file(self, tmp_path):
        pytest.importorskip("resource")
        base = tmp_path / "scan"
        csv = tmp_path / "scan.csv"
        csv.write_bytes(b"x" * 65536)
        limit = 4096  # a 16^2 CSV is ~9 KB
        script = (
            "import resource, signal, sys\n"
            "from mobcert.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = run_python("-c", script, *SCAN, "--res", "16", "--out", str(base))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: cannot write {csv}: {os.strerror(errno.EFBIG)}\n"
        assert csv.read_bytes() == b""
        assert not (tmp_path / "scan.svg").exists()

    def test_emit_never_truncates_on_open(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "region.svg"
        flags = []
        real_open = os.open

        def recording_open(file, flag, *args, **kwargs):
            if os.fspath(file) == str(path):
                flags.append(flag)
            return real_open(file, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        for _ in range(2):  # a new file, then an existing one
            assert run(capsys, *REGION, "--out", str(path)) == (0, "", "")
        assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)


class TestSharedParser:
    """main reuses one parser per process; no call may see another's values."""

    def test_burau_values_do_not_reach_a_rho_call(self, capsys):
        rho_call = ("certify", "--p", "3", "--q", "4", "--rho", "9")
        first = run(capsys, *rho_call)
        rc, out, _ = run(capsys, "certify", "--burau", "--mu", "9")
        assert rc == 0 and json.loads(out)["verdict"] == "Faithful"
        assert run(capsys, *rho_call) == first
        assert first[0] == 0 and json.loads(first[1])["input"]["p"] == 3

    def test_rejected_parse_leaves_no_value(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["certify", "--p", "3", "--q", "4", "--rho", "spam"])
        assert ei.value.code == 2
        capsys.readouterr()
        rc, out, err = run(capsys, "certify", "--p", "3", "--q", "4")
        assert rc == 3 and out == ""
        assert err == "error: certify needs --p, --q and at least one --rho\n"

    def test_rho_lists_do_not_build_up(self, capsys):
        argv = ("certify", "--p", "3", "--q", "4", "--rho", "9", "--rho", "-5")
        for _ in range(3):
            rc, out, _ = run(capsys, *argv)
            assert rc == 0 and len(out.splitlines()) == 2
        assert build_parser().parse_args(["certify"]).rho == []

    def test_parser_is_built_once(self, capsys, monkeypatch, tmp_path):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        for argv in (
            ("certify", "--burau", "--mu", "9"),
            ("certify", "--p", "3", "--q", "4", "--rho", "9"),
            ("region", "--p", "3", "--q", "4", "--out", str(tmp_path / "r.svg")),
            ("cusps", "--p", "3", "--q", "4", "--out", str(tmp_path / "c.json")),
            ("burau-annulus", "--mu", "9", "--out", str(tmp_path / "a.jsonl")),
        ):
            assert main(list(argv)) == 0
        capsys.readouterr()
        assert len(built) == 7  # the root parser and its six subcommands

    @pytest.mark.parametrize(
        "argv, suffixes",
        [
            (("region", "--p", "3", "--q", "4"), ("",)),
            (("cusps", "--p", "3", "--q", "4"), ("",)),
            (("compare-lambda", "--p", "3", "--q", "4", "--angles", "24"), ("",)),
            (("scan", "--p", "3", "--q", "4", "--window=-3,6,-4.5,4.5", "--res", "16",
              "--mode", "combined"), (".csv", ".svg")),
        ],
        ids=["region", "cusps", "compare-lambda", "scan"],
    )
    def test_repeated_jobs_write_identical_bytes(self, capsys, tmp_path, argv, suffixes):
        outputs = []
        for k in range(2):
            assert main([*argv, "--out", str(tmp_path / f"run{k}")]) == 0
            outputs.append([(tmp_path / f"run{k}{s}").read_bytes() for s in suffixes])
        capsys.readouterr()
        assert outputs[0] == outputs[1] and all(outputs[0])


class TestOtherCommands:
    def test_cusps(self, capsys):
        rc, out, _ = run(capsys, "cusps", "--p", "3", "--q", "4")
        assert rc == 0
        doc = json.loads(out)
        assert set(doc["slopes"]) == {"0/1", "1/1", "1/2", "1/3"}
        assert len(doc["boundary_cusps"]) == 4
        for entry in doc["slopes"].values():
            assert entry["word"]
            assert len(entry["roots"]) == len(entry["residues"])
            assert all(r < 1e-9 for r in entry["residues"])

    # SHA-256 of the cusps record without its 1/3 slope, whose cubic's roots
    # go through LAPACK (see test_farey.py): the boundary cusps and the
    # closed-form 0/1, 1/1 and 1/2 roots and residues, re-dumped as the
    # command dumps them
    @pytest.mark.parametrize(
        "p, q, digest",
        [
            (3, 3, "d5fe839927d041256450e2d3ac78f55cd43a2fd1922e8999ef527a0e3b6c3da1"),
            (3, 4, "a9c44656a57ec799fd0d5d6d6ef81d9d7cf813bfc644682f69f827b30608d89f"),
            (4, 3, "77fcfb7706ea597fc36505bde5b0f2634cbbef2b459146c7579149e5415de99e"),
            (5, 9, "9cf6bb28f4b26c1ad26df13001b208f5b12626b37e9036c9215fb835d8891439"),
            (7, 7, "044942d624046330c2672ef8e567ea2939ffb30fe7e520922460704cd10fd71c"),
            (3, 10, "4133058bfdde29902979d9f20e7f6ce4b4b8469df81167bbd1957b857252dd53"),
        ],
    )
    def test_cusps_closed_forms_pinned(self, capsys, p, q, digest):
        rc, out, err = run(capsys, "cusps", "--p", str(p), "--q", str(q))
        assert rc == 0 and err == ""
        doc = json.loads(out, parse_constant=reject)
        del doc["slopes"]["1/3"]
        assert hashlib.sha256(json.dumps(doc).encode("ascii")).hexdigest() == digest

    def test_cusps_unsupported_order(self, capsys):
        # cusps and region share the Omega_{p,q} order check
        rc, out, err = run(capsys, "cusps", "--p", "2", "--q", "5")
        assert rc == 3 and out == ""
        assert err == "error: Omega_{p,q} needs finite orders 3 <= p, q; got p = 2\n"

    # every subcommand parses its orders alike, so "inf" reaches the library
    @pytest.mark.parametrize(
        "command, message",
        [
            ("region", "error: Omega_{p,q} needs finite orders 3 <= p, q; got p = inf\n"),
            ("cusps", "error: Omega_{p,q} needs finite orders 3 <= p, q; got p = inf\n"),
            ("compare-lambda", "error: lambda coordinates need finite orders\n"),
        ],
        ids=["region", "cusps", "compare-lambda"],
    )
    def test_infinite_order_exits_3(self, capsys, command, message):
        rc, out, err = run(capsys, command, "--p", "inf", "--q", "4")
        assert rc == 3 and out == ""
        assert err == message

    # an integer past the float maximum is no order: pi/n would overflow
    @pytest.mark.parametrize("flag", ["--p", "--q"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--rho", "1+1i"],
            ["region"],
            ["cusps"],
            ["compare-lambda", "--angles", "4"],
            *(["scan", "--window=0,1,0,1", "--res", "4", "--mode", mode] for mode in scan.MODES),
        ],
        ids=["certify", "region", "cusps", "compare-lambda", *(f"scan-{mode}" for mode in scan.MODES)],
    )
    def test_order_past_the_float_range_exits_3(self, capsys, tmp_path, argv, flag):
        orders = {"--p": "4", "--q": "4", flag: "1" + "0" * 399}
        if argv[0] == "scan":
            argv = [*argv, "--out", str(tmp_path / "x")]
        rc, out, err = run(capsys, *argv, *(tok for item in orders.items() for tok in item))
        assert rc == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 120
        assert list(tmp_path.iterdir()) == []

    # past int()'s limit on digits the order is named by its digit count,
    # unconverted, with exit 3 as for any order past the float maximum
    @pytest.mark.parametrize("flag", ["--p", "--q"])
    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--rho", "1+1i"],
            ["region"],
            ["cusps"],
            ["compare-lambda", "--angles", "4"],
            ["scan", "--window=0,1,0,1", "--res", "4", "--mode", "omega"],
        ],
        ids=["certify", "region", "cusps", "compare-lambda", "scan"],
    )
    def test_order_too_long_to_convert_exits_3(self, capsys, tmp_path, argv, sign, flag):
        orders = {"--p": "4", "--q": "4", flag: sign + "1" + "0" * 5000}
        if argv[0] == "scan":
            argv = [*argv, "--out", str(tmp_path / "x")]
        rc, out, err = run(capsys, *argv, *(tok for item in orders.items() for tok in item))
        assert rc == 3 and out == ""
        assert err == ("error: order must be an integer from 2 to the float maximum or inf, "
                       "got an integer of 5001 digits\n")
        assert list(tmp_path.iterdir()) == []

    def test_compare_lambda_csv(self, capsys):
        rc, out, _ = run(
            capsys, "compare-lambda", "--p", "3", "--q", "3",
            "--angles", "4", "--format", "csv",
        )
        assert rc == 0
        assert out.startswith("theta,t_disks,t_lambda,winner\n")
        assert len(out.strip().split("\n")) == 5

    def test_compare_lambda_json(self, capsys):
        rc, out, _ = run(
            capsys, "compare-lambda", "--p", "3", "--q", "3",
            "--angles", "4", "--format", "json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["p"] == 3 and len(doc["rows"]) == 4

    def test_burau_annulus(self, capsys):
        rc, out, _ = run(
            capsys, "burau-annulus", "--mu", "9", "--mu", "1",
            "--mu", repr(MU_SHARP), "--mu", "100",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        far, near, sharp, very_far = (json.loads(ln) for ln in lines)
        assert set(far) == {
            "input", "abs_mu", "in_proved_annulus", "in_conjectured_annulus",
            "certified_faithful", "slack", "verdict",
        }
        assert far["certified_faithful"] and not far["in_proved_annulus"]
        assert far["verdict"] == "Faithful"
        assert not near["certified_faithful"]
        assert near["in_conjectured_annulus"] and near["in_proved_annulus"]
        # mu = (3 + sqrt 5)/2 is certified and lies in both annuli
        assert sharp["certified_faithful"]
        assert sharp["in_proved_annulus"] and sharp["in_conjectured_annulus"]
        assert very_far["certified_faithful"]
        assert not very_far["in_proved_annulus"]
        assert very_far["abs_mu"] == 100.0

    def test_burau_annulus_certifies_each_mu_once(self, capsys, monkeypatch):
        from mobcert import burau, cli

        calls = []
        real = burau.faithful_certificate

        def counting(mu):
            calls.append(mu)
            return real(mu)

        monkeypatch.setattr(burau, "faithful_certificate", counting)
        monkeypatch.setattr(cli, "faithful_certificate", counting)
        rc, _, _ = run(capsys, "burau-annulus", "--mu", "9", "--mu", "1")
        assert rc == 0 and len(calls) == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"mobcert {__version__}"

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2
        capsys.readouterr()


class TestProcess:
    """The generated console script is sys.exit(main()): the exit codes of
    a real process, and the packaging smoke step that runs it in CI."""

    @pytest.mark.parametrize(
        "argv, rc",
        [
            ((*REGION, "--out", "{tmp}/region.svg"), 0),
            ((*REGION, "--out", "{tmp}/missing/region.svg"), 1),
            (("certify", "--p", "3", "--q", "4", "--rho", "spam"), 2),
            (("region", "--p", "2", "--q", "5"), 3),
        ],
        ids=["ok", "unwritable-out", "unparsable-rho", "unsupported-order"],
    )
    def test_exit_codes(self, tmp_path, argv, rc):
        proc = run_python("-m", "mobcert.cli", *(arg.format(tmp=tmp_path) for arg in argv))
        assert proc.returncode == rc and "Traceback" not in proc.stderr
        if rc == 0:
            assert proc.stderr == "" and (tmp_path / "region.svg").read_text().startswith("<svg ")
        elif rc == 2:
            assert proc.stderr.startswith("usage: mobcert")
        else:  # one error line
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_smoke_step_runs_every_subcommand_and_scan_mode(self):
        # behaviour is checked in Tier-1; the installed-package smoke step
        # checks only that the package and its entry point run, once each,
        # and the burau scan a second time, on a window whose centre pixel
        # is mu = -1, so that its band path runs too
        step = WORKFLOW.read_text().split("- name: Installed package smoke test\n", 1)[1].split("- name:", 1)[0]
        runs = [words[words.index("mobcert") + 1:] for words in map(str.split, step.splitlines()) if "mobcert" in words]
        subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert {r[0] for r in runs} == set(subcommands.choices)
        assert ["certify", "--burau"] in [r[:2] for r in runs]
        modes = sorted(r[r.index("--mode") + 1] for r in runs if r[0] == "scan" and "--mode" in r)
        assert modes == sorted([*scan.MODES, "burau"])
        assert "--window=-1.5,-0.5,-0.5,0.5" in next(r for r in runs if r[-1].endswith("/scan-burau-band\""))
