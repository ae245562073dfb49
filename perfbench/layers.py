"""Which mobcert functions the traced run wraps, and the per-layer metrics.

A layer metric is named ``<module>.<function>.<field>`` after the module
that defines the function; the wrapper is installed at every name the
callers look the function up by.  Every value is per round (one pass over a
workload's operations) and is each operation's mean over its traced
repeats, so the layer times compare with ``trace.wall_s``, the traced round
time from each operation's median repeat.
"""

from __future__ import annotations

import numpy as np

from mobcert.mobius import EPS_ALG


def _points(tracer, name, args, kwargs, result):
    """Size of the first array argument: the number of points a kernel decides."""
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, np.ndarray):
            tracer.count(name + ".points", value.size)
            return


def _anchor_bulk(tracer, name, args, kwargs, result):
    _points(tracer, name, args, kwargs, result)
    tracer.count(name + ".certified", int(np.count_nonzero(np.asarray(result[0]) > EPS_ALG)))


def _bytes(tracer, name, args, kwargs, result):
    tracer.count(name + ".bytes", len(result))


def _rows(tracer, name, args, kwargs, result):
    job = args[0] if args else kwargs["job"]
    tracer.count("scan.rows", job.resolution)


KERNELS = ("combined_codes_grid", "omega_margin_grid", "disk_slack_grid", "lambda_slack_grid", "burau_slack_grid")

# (defining module, function, extra counters)
_TRACED = [
    ("cli", "main", None),
    ("scan", "run_scan", _rows),
    ("certificates", "anchor_search_bulk", _anchor_bulk),
    ("certificates", "anchor_search", None),
    ("certificates", "cert_combined", None),
    ("certificates", "cert_line_family", None),
    ("certificates", "cert_lambda", None),
    *[("kernels", k, _points) for k in KERNELS],
    ("omega", "build_omega", None),
    ("render", "scan_csv", _bytes),
    ("render", "scan_svg", _bytes),
    ("render", "scan_pgm", _bytes),
    ("render", "compare_lambda_data", None),
    ("render", "compare_lambda_csv", None),
    ("render", "region_svg", None),
    ("lambda_region", "lambda_slack_array", None),
    ("lambda_region", "lambda_from_rho_array", None),
    ("farey", "solve_cusp", None),
    ("farey", "cusp_residue", None),
    ("burau", "faithful_certificate", None),
    ("burau", "burau_slack_array", None),
]

TARGETS = [(f"mobcert.{mod}", fn, f"{mod}.{fn}", extra) for mod, fn, extra in _TRACED]

# name -> unit, better.  The order is the order of BENCHMARK.json.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "certificates.anchor_search_bulk.busy_s": ("s", "lower"),
    "certificates.anchor_search_bulk.points": ("count", "lower"),
    "certificates.anchor_search_bulk.certified": ("count", "higher"),
    "certificates.anchor_search_bulk.yield": ("ratio", "higher"),
    "certificates.cert_combined.calls": ("count", "lower"),
    "certificates.cert_combined.busy_s": ("s", "lower"),
    "certificates.anchor_search.calls": ("count", "lower"),
    "certificates.anchor_search.busy_s": ("s", "lower"),
    "certificates.cert_line_family.calls": ("count", "lower"),
    "certificates.cert_lambda.busy_s": ("s", "lower"),
    **{f"kernels.{k}.{f}": u for k in KERNELS for f, u in (
        ("busy_s", ("s", "lower")), ("calls", ("count", "lower")), ("points", ("count", "lower")))},
    "scan.run_scan.self_s": ("s", "lower"),
    "scan.rows": ("count", "lower"),
    "omega.build_omega.calls": ("count", "lower"),
    "omega.build_omega.busy_s": ("s", "lower"),
    **{f"render.{r}.{f}": u for r in ("scan_csv", "scan_svg", "scan_pgm") for f, u in (
        ("busy_s", ("s", "lower")), ("bytes", ("bytes", "lower")))},
    "render.compare_lambda_data.busy_s": ("s", "lower"),
    "render.region_svg.busy_s": ("s", "lower"),
    "lambda_region.lambda_slack_array.calls": ("count", "lower"),
    "lambda_region.lambda_slack_array.busy_s": ("s", "lower"),
    "lambda_region.lambda_from_rho_array.calls": ("count", "lower"),
    "farey.solve_cusp.calls": ("count", "lower"),
    "farey.solve_cusp.busy_s": ("s", "lower"),
    "burau.faithful_certificate.calls": ("count", "lower"),
    "burau.faithful_certificate.busy_s": ("s", "lower"),
    "burau.burau_slack_array.busy_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.covered_frac": ("ratio", "higher"),
}


def layer_metrics(totals: dict[str, float], traced: dict, untraced: dict) -> dict:
    """Per-layer values (all but cli.import_s) from per-round layer totals.

    totals holds what an operation's traced repeat added to the tracer on
    average, summed over a round; traced and untraced are worker.median_times
    of the traced and untraced rounds, which alternate.
    """
    out = {name: totals.get(name, 0.0) for name in PER_LAYER}
    points = out["certificates.anchor_search_bulk.points"]
    out["certificates.anchor_search_bulk.yield"] = (
        out["certificates.anchor_search_bulk.certified"] / points if points else 0.0
    )
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.overhead_frac"] = traced["wall_ref"] / untraced["wall_ref"] - 1.0
    self_s = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    out["trace.covered_frac"] = self_s / traced["mean_wall_s"]
    del out["cli.import_s"]
    return out
