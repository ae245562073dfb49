"""Acceptance gate: ten numbered criteria, one printed PASS line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the PASS lines;
the whole module is budgeted to finish in well under 60 seconds.
"""

import cmath
import math
import pathlib

import numpy as np

from mobcert.burau import (
    ANNULUS_CONJECTURED,
    faithful_certificate,
    faithful_mask,
)
from mobcert.certificates import (
    anchor_search,
    cert_combined,
    cert_disks_elliptic,
    cert_im_bound,
    cert_line_family,
    combined_codes_array,
    disk_centers_elliptic,
    disk_slack,
)
from mobcert.farey import cusp_residue, solve_cusp
from mobcert.lambda_region import lambda_from_rho, lambda_slack, rho_from_lambda
from mobcert.mobius import (
    EPS_ALG,
    GroupSpec,
    PreconditionError,
    gamma_of,
    pi_over,
    sigma_pq,
    sin_sin,
)
from mobcert.omega import boundary_cusps, build_omega, im_bound, omega_margin, rho_star, x_pq
from mobcert.render import _ray_lambda_exits, region_svg, scan_csv, scan_svg
from mobcert.scan import ScanJob, Window, run_scan
from words import word_trace

RNG = np.random.default_rng(20260814)
GOLDEN = pathlib.Path(__file__).parent / "golden"
SWEEP_MARKINGS = [(3, 3), (3, 4), (4, 4), (3, 7), (5, 9)]


def _ok(n, message):
    print(f"[acceptance] criterion {n:2d} PASS  {message}")


def test_criterion_01_trace_identity():
    """10^4 random (p, q, rho): gamma_of vs tr[A,B]-2 via explicit matrices."""
    orders = [2, 3, 4, 5, 6, 7, 9, 12, 17, math.inf]
    worst = 0.0
    n = 10_000
    for _ in range(n):
        p = orders[RNG.integers(len(orders))]
        q = orders[RNG.integers(len(orders))]
        if p == 2 and q == 2:
            q = 3
        rho = complex(RNG.uniform(-6, 6), RNG.uniform(-6, 6))
        if rho == 0:
            rho = 1.0 + 0.5j
        spec = GroupSpec(p, q, rho)
        err = abs((word_trace(p, q, rho, "ABab") - 2.0) - gamma_of(spec))
        worst = max(worst, err)
    assert worst < 1e-10
    _ok(1, f"trace identity on {n} random (p,q,rho), worst |error| = {worst:.3e} < 1e-10")


def test_criterion_02_intercept_constants():
    """x_pp = 4 for p <= 100; x_pq = |rho*|^2 / Re rho* for 3<=p<=q<=30."""
    worst_pp = max(abs(x_pq(p, p) - 4.0) for p in range(3, 101))
    assert worst_pp < 1e-9
    worst_pq = 0.0
    for p in range(3, 31):
        for q in range(p, 31):
            for a, b in ((p, q), (q, p)):
                rs = rho_star(a, b)
                oracle = abs(rs) ** 2 / rs.real
                worst_pq = max(worst_pq, abs(x_pq(a, b) - oracle))
    assert worst_pq < 1e-9
    _ok(2, f"x_pp=4 (worst {worst_pp:.3e}) and intercept oracle (worst {worst_pq:.3e}) < 1e-9")


def test_criterion_03_rho_star_incidence():
    """rho* lies on exactly 2 of the 4 exclusion circles, outside the rest."""
    checked = 0
    for p in range(3, 31):
        for q in range(p, 31):
            for a, b in ((p, q), (q, p)):
                rs = rho_star(a, b)
                dists = [abs(rs - c) - 2.0 for c in disk_centers_elliptic(a, b)]
                on = [d for d in dists if abs(d) < 1e-9]
                off = [d for d in dists if abs(d) >= 1e-9]
                assert len(on) == 2, (a, b, dists)
                assert all(d > 1e-9 for d in off), (a, b, dists)
                checked += 1
    _ok(3, f"rho* on exactly 2 circles and strictly outside the rest for {checked} markings")


def test_criterion_04_cusp_residues():
    """Farey residues < 1e-9 at the closed-form cusps; 1/2 roots on Im lines."""
    worst_res = 0.0
    worst_line = 0.0
    pairs = 0
    for p in range(2, 31):
        for q in range(p, 31):
            rho01 = 2.0 + 2.0 * math.cos(pi_over(p) - pi_over(q))
            rho11 = -2.0 - 2.0 * math.cos(pi_over(p) + pi_over(q))
            worst_res = max(worst_res, cusp_residue((0, 1), p, q, rho01))
            worst_res = max(worst_res, cusp_residue((1, 1), p, q, rho11))
            h = im_bound(p, q)
            for root in solve_cusp((1, 2), p, q):
                worst_res = max(worst_res, cusp_residue((1, 2), p, q, root))
                worst_line = max(worst_line, abs(abs(root.imag) - h))
            pairs += 1
    assert worst_res < 1e-9
    assert worst_line < 1e-9
    _ok(4, f"{pairs} markings p<=q<=30: worst residue {worst_res:.3e}, "
           f"worst 1/2-root line distance {worst_line:.3e} < 1e-9")


def test_criterion_05_soundness_sweep():
    """10^5 points outside Omega per marking all certified FreeDiscrete."""
    n = 100_000
    total = 0
    for p, q in SWEEP_MARKINGS:
        region = build_omega(p, q)
        sigma = sigma_pq(p, q)
        pts = np.empty(0, dtype=complex)
        while pts.size < n:
            cand = (
                RNG.uniform(sigma / 2 - 8.0, sigma / 2 + 8.0, 2 * n)
                + 1j * RNG.uniform(-6.0, 6.0, 2 * n)
            )
            margin = omega_margin(region, cand)
            pts = np.concatenate([pts, cand[margin < -EPS_ALG]])
        pts = pts[:n]
        codes = combined_codes_array(p, q, pts, search=True)
        failures = int((codes == 0).sum())
        assert failures == 0, f"({p},{q}): {failures} uncertified points outside Omega"
        total += pts.size
    _ok(5, f"{total} sampled points outside Omega over {len(SWEEP_MARKINGS)} markings, "
           f"0 failures")


def test_criterion_06_sharpness_at_cusps():
    """Cusps on the boundary; strict certificates all fail; Im-bound fires."""
    worst_dist = 0.0
    worst_im = 0.0
    for p, q in SWEEP_MARKINGS:
        region = build_omega(p, q)
        for cusp in boundary_cusps(p, q):
            dist = min(abs(line.margin(cusp)) for line in region.lines)
            worst_dist = max(worst_dist, dist)
            spec = GroupSpec(p, q, cusp)
            # strict disk certificates, both markings
            assert not cert_disks_elliptic(spec).certified
            assert disk_slack(q, p, cusp) <= EPS_ALG
            # strict line-family certificates: the anchor search maximizes
            # the anchor slack over the whole admissible family
            found = anchor_search(spec)
            assert not found.certified
            assert found.slack <= EPS_ALG
            # and explicit anchors through the cusp all fail the precondition
            for w in (cusp, sigma_pq(p, q) - cusp):
                for t in np.linspace(-3.0, 3.0, 13):
                    anchor = w / (1.0 + 1j * t)
                    try:
                        cert = cert_line_family(spec, anchor)
                    except PreconditionError:
                        continue
                    assert not cert.certified
            im_cert = cert_im_bound(spec)
            if abs(cusp.imag) > 1e-9:  # the 1/2-cusps
                assert im_cert.certified
                worst_im = max(worst_im, abs(im_cert.slack))
            else:
                assert not im_cert.certified
    assert worst_dist < 1e-9
    _ok(6, f"4 cusps x {len(SWEEP_MARKINGS)} markings: on-boundary within {worst_dist:.3e}, "
           f"strict certificates all fail, Im-bound slack at rho_1/2 <= {worst_im:.3e}")


def test_criterion_07_burau_sharp_points():
    """Sharp points of the Burau certificate and the conjectured annulus."""
    mu_plus = (3.0 + math.sqrt(5.0)) / 2.0
    cert = faithful_certificate(mu_plus)
    z = cert.detail["z"]
    assert abs(z - 1.0) < 1e-12
    boundary_gap = abs(max(abs(z + cmath.sqrt(z**2 + 3)),
                           abs(z - cmath.sqrt(z**2 + 3))) - 3.0)
    assert boundary_gap < 1e-12
    assert cert.certified

    branches = sorted(
        (math.sqrt(3.0) * lam for lam in faithful_certificate(-1.0 + 0.0j).detail["lambda_branches"]),
        key=abs,
    )
    assert abs(branches[1] - 3j) < 1e-12 and abs(branches[0] - 1j) < 1e-12
    assert not faithful_certificate(-1.0 + 0.0j).certified

    axis = np.linspace(-4.0, 4.0, 400)
    grid = axis[None, :] + 1j * axis[:, None]
    mask = faithful_mask(grid)
    lo, hi = ANNULUS_CONJECTURED
    complement = np.abs(grid[~mask])
    assert complement.size > 0
    assert (complement >= lo - 1e-9).all()
    assert (complement <= hi + 1e-9).all()
    _ok(7, f"sharp at mu=(3+sqrt5)/2 (gap {boundary_gap:.1e}) and mu=-1 excluded; "
           f"400^2 grid complement ({complement.size} pts) inside the conjectured annulus")


def test_criterion_08_lambda_rho_bridge():
    """10^4 feasible lambda: both rho roots certified; boundary slack ~ 0."""
    pairs = [(p, q) for p in range(3, 13) for q in range(p, 13)]
    per_pair = 10_000 // len(pairs) + 1
    total = 0
    checked_scalar = 0
    for p, q in pairs:
        s = sin_sin(p, q)
        lams = np.empty(0, dtype=complex)
        while lams.size < per_pair:
            r = np.exp(RNG.uniform(0.0, math.log(100.0), 4 * per_pair))
            ang = RNG.uniform(0.0, 2.0 * math.pi, 4 * per_pair)
            cand = r * np.exp(1j * ang)
            feas = lambda_slack(p, q, cand) >= -EPS_ALG
            lams = np.concatenate([lams, cand[feas]])
        lams = lams[:per_pair]
        roots = np.concatenate([-s * (lams - 1) ** 2 / lams, s * (lams + 1) ** 2 / lams])
        codes = combined_codes_array(p, q, roots, search=True)
        assert (codes != 0).all(), f"({p},{q}): uncertified rho_from_lambda root"
        total += lams.size
        # spot-check the scalar certificate on a few samples per marking
        for lam in lams[:3]:
            for rho in rho_from_lambda(p, q, complex(lam)):
                assert cert_combined(GroupSpec(p, q, rho)).certified
                checked_scalar += 1

    # the outline that compare-lambda draws, where rays from sigma/2 leave
    # the set the rho-plane row leaves uncertified, lies on the boundary of
    # the lambda-space inequalities
    worst = 0.0
    for p, q in ((3, 3), (3, 7), (4, 9), (5, 12)):
        center = sigma_pq(p, q) / 2.0
        es = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64))
        t = _ray_lambda_exits(p, q, center, es, 8.0 + abs(sigma_pq(p, q)))
        for rho in center + t * es:
            lam = lambda_from_rho(GroupSpec(p, q, rho))[0]
            worst = max(worst, abs(lambda_slack(p, q, lam)))
    assert worst < 1e-9
    _ok(8, f"{total} feasible lambda ({2 * total} rho roots incl. {checked_scalar} scalar "
           f"re-checks) all certified; boundary slack worst {worst:.3e} < 1e-9")


def test_criterion_09_half_cusp_negative_control():
    """rho_1/2 is never certified by the strict disk or line certificates."""
    markings = 0
    for p in range(3, 13):
        for q in range(p, 13):
            s = sin_sin(p, q)
            cusp = complex(2.0 * s, im_bound(p, q))
            spec = GroupSpec(p, q, cusp)
            assert not cert_disks_elliptic(spec).certified
            found = anchor_search(spec)
            assert not found.certified and found.slack <= EPS_ALG
            for w in (cusp, sigma_pq(p, q) - cusp):
                for t in np.linspace(-4.0, 4.0, 9):
                    anchor = w / (1.0 + 1j * t)
                    try:
                        cert = cert_line_family(spec, anchor)
                    except PreconditionError:
                        continue
                    assert not cert.certified
            markings += 1
    _ok(9, f"rho_1/2 uncertified by strict disks and by every sampled line anchor "
           f"for {markings} markings with p <= q <= 12")


def test_criterion_10_golden_outputs(monkeypatch):
    """Golden SVG byte equality and band-size-invariant scan bytes."""
    golden = (GOLDEN / "region_4_4.svg").read_bytes()
    assert region_svg(4, 4).encode("utf-8") == golden

    job = ScanJob(3, 3, Window(-3.0, 6.0, -4.5, 4.5), 32, "combined")
    whole = run_scan(job)  # one band
    monkeypatch.setattr("mobcert.scan.BAND_PIXELS", 32)  # one-row bands
    rows = run_scan(job)
    assert (whole.codes == rows.codes).all()
    assert scan_csv(whole) == scan_csv(rows)
    assert scan_svg(whole) == scan_svg(rows)
    _ok(10, f"region(4,4) SVG matches golden ({len(golden)} bytes); "
            f"32^2 combined scan byte-identical in one band and in 32 one-row bands")
