"""One benchmark process: import mobcert, warm up, run a workload, check it.

Started by run.py in a fresh interpreter with single-threaded numeric
libraries.  With --probe it stops after the import and one warm-up call and
prints ``READY <monotonic clock> <import seconds>``; run.py takes the time
from starting the interpreter to that clock reading as the set-up time.
Otherwise it prints one JSON line with the phase measurements, the
output-check verdicts and the environment.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def reference_s(parts: tuple[str, ...]) -> float:
    """One run of the named parts of the calibration kernel, in seconds.

    The kernel is fixed and has three parts of 2-4 ms each on a 2.0 GHz
    Xeon: ``interp``, an integer loop in the interpreter; ``small``, a numpy
    expression on an 8-element array in a Python loop; ``mid``, the same
    expression on a 64k-element (512 KiB) array.  When the host slows, each
    kind of work slows by its own factor, so each workload names the parts
    that match its own work (``reference`` in workloads.py).  A time in
    reference units (``ref``) is a time divided by the kernel's time at the
    same moment of the run.
    """
    import numpy as np

    small = np.arange(8.0)
    mid = np.linspace(0.0, 1.0, 1 << 16)
    t0 = perf_counter()
    if "interp" in parts:
        acc = 0
        for i in range(20000):
            acc += i * i % 7
    if "small" in parts:
        for _ in range(600):
            np.abs(small * 1.5 - 2.0).max()
    if "mid" in parts:
        for _ in range(12):
            np.sqrt(mid * 1.5 + 2.0).max()
    return perf_counter() - t0


def run_loop(workload, seconds: float, min_rounds: int, tracer=None, targets=()) -> dict:
    """Closed loop over rounds until `seconds` have passed (and min_rounds ran).

    The workload's parts of the calibration kernel run before the first
    round and after each round; ``refs[k]`` and ``refs[k + 1]`` bracket
    round k.  Returns {"refs": ..., "untraced": phase}.  With a tracer the rounds come in
    pairs over the same operations, the first untraced and the second with
    the layer functions wrapped, so both phases see the same host
    conditions, and the result also holds the "traced" phase.
    """
    phases = {False: _new_phase(), True: _new_phase()}
    refs = [reference_s(workload.reference)]
    start = perf_counter()
    n_rounds = 0
    while n_rounds < min_rounds or perf_counter() - start < seconds:
        traced = tracer is not None and n_rounds % 2 == 1
        ops = workload.ops(n_rounds // 2 if tracer is not None else n_rounds)
        if traced:
            tracer.install(targets)
        try:
            _run_round(workload, ops, phases[traced], tracer if traced else None, n_rounds)
        finally:
            if traced:
                tracer.uninstall()
        refs.append(reference_s(workload.reference))
        n_rounds += 1
    out = {"refs": refs, "untraced": phases[False]}
    if tracer is not None:
        out["traced"] = phases[True]
    return out


def _new_phase() -> dict:
    return {"samples": {}, "layers": {}, "rounds": {}, "n_rounds": 0, "outcomes": [], "points": 0, "certified": 0}


def _run_round(workload, ops, phase: dict, tracer, round_index: int) -> None:
    """One pass over ops; each sample is (seconds, round index).  With a
    tracer, each operation's layer totals are summed over its repeats (with
    the repeat count) for a per-repeat mean."""
    round_points = 0
    for op in ops:
        before = tracer.totals() if tracer else None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:  # noqa: BLE001 - a raising operation counts as failed
            result = None
        dt = perf_counter() - t0
        if tracer:
            sums, n = phase["layers"].get(op.key, ({}, 0))
            for name, value in tracer.totals().items():
                sums[name] = sums.get(name, 0.0) + value - before.get(name, 0)
            phase["layers"][op.key] = (sums, n + 1)
        ok, n_points, n_certified = workload.record(op, result)
        phase["samples"].setdefault(op.key, []).append((dt, round_index))
        phase["outcomes"].append((op.key, ok))
        round_points += n_points
        phase["certified"] += n_certified
    phase["rounds"][tuple(op.key for op in ops)] = round_points
    phase["points"] += round_points
    phase["n_rounds"] += 1


def median_times(phase: dict, refs: list[float]) -> dict:
    """Round and operation times from each operation's median repeat.

    A shared virtual machine drifts between a fast state and one up to ~2x
    slower, for seconds to minutes at a time (seen on a 2-vCPU VM), so a
    whole run can fall in either.  Each sample is therefore divided by the
    mean of the calibration kernel's two runs that bracket its round, and an
    operation's time is the median of its repeats, which spread over the
    whole run.  Over 20 s windows of five minutes that cut the
    window-to-window quartile spread of scans, query blocks and figure jobs
    from 0.10-0.32 to 0.03-0.07 (perfbench/README.md).  Percentiles are over operations (distinct inputs), and round values are
    means over distinct rounds (the certify-points blocks; the CLI workloads
    have one).

    Returns times in reference units (``per_op``, ``wall_ref``), the same
    in seconds without calibration (``per_op_s``, ``wall_s``), and the
    traced layer values: per-repeat means in seconds, summed over a round
    the same way, whose base is ``mean_wall_s``, the round time in seconds
    from per-repeat means.
    """
    def ref(k: int) -> float:
        return (refs[k] + refs[k + 1]) / 2.0

    def per_round(values: dict) -> float:
        return statistics.fmean(sum(values[key] for key in keys) for keys in phase["rounds"])

    samples = phase["samples"]
    med = {key: statistics.median(dt / ref(k) for dt, k in v) for key, v in samples.items()}
    med_s = {key: statistics.median(dt for dt, _ in v) for key, v in samples.items()}
    mean_s = {key: statistics.fmean(dt for dt, _ in v) for key, v in samples.items()}
    layers: dict[str, float] = {}
    for keys in phase["rounds"]:
        for key in keys:
            sums, n = phase["layers"].get(key, ({}, 1))
            for name, value in sums.items():
                layers[name] = layers.get(name, 0.0) + value / n / len(phase["rounds"])
    wall_ref = per_round(med)
    return {
        "per_op": med,
        "wall_ref": wall_ref,
        "points_per_ref": statistics.fmean(phase["rounds"].values()) / wall_ref,
        "per_op_s": med_s,
        "wall_s": per_round(med_s),
        "mean_wall_s": per_round(mean_s),
        "layers": layers,
    }


def environment() -> dict:
    """Versions and backend, so numbers from a numba machine are not
    compared silently with numpy-only ones."""
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        from mobcert.kernels import resolve_backend

        backend = resolve_backend(None)
    except ImportError:
        backend = None
    return {"numpy": numpy.__version__, "numba": has_numba, "kernels_backend": backend}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (SRC / "mobcert" / "__init__.py").is_file():
        print(f"error: no mobcert package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import mobcert.cli  # noqa: F401
    import_s = perf_counter() - t0
    import mobcert

    if Path(mobcert.__file__).resolve().parent != SRC / "mobcert":
        print(f"error: imported mobcert from {mobcert.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.work), args.smoke, args.nproc)
    workload.warm_up()
    if args.probe:
        print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r} {import_s!r}", flush=True)
        return 0

    workload.prepare()
    min_rounds = 1 if args.smoke else 2
    doc = {"environment": environment(), "import_s": import_s}
    if args.trace:
        import layers
        from spans import Tracer

        loop = run_loop(workload, args.seconds, 2 * min_rounds, Tracer(), layers.TARGETS)
        traced = median_times(loop["traced"], loop["refs"])
        untraced = median_times(loop["untraced"], loop["refs"])
        doc["layers"] = layers.layer_metrics(traced["layers"], traced, untraced)
        doc["layer_units"] = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        phases = [loop["untraced"], loop["traced"]]
    else:
        loop = run_loop(workload, args.seconds, min_rounds)
        phase = loop["untraced"]
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times = median_times(phase, loop["refs"])
        lat = list(times["per_op"].values())
        lat_s = list(times["per_op_s"].values())
        doc.update(
            wall_ref=times["wall_ref"],
            points_per_ref=times["points_per_ref"],
            latency_p50_ref=percentile(lat, 50),
            latency_p99_ref=percentile(lat, 99),
            certified_frac=phase["certified"] / phase["points"],
            uncalibrated={
                "ref_ms": statistics.median(loop["refs"]) * 1e3,
                "wall_s": times["wall_s"],
                "latency_p50_ms": percentile(lat_s, 50) * 1e3,
                "latency_p99_ms": percentile(lat_s, 99) * 1e3,
            },
            operations=len(phase["outcomes"]),
            distinct_operations=len(lat),
            rounds=phase["n_rounds"],
        )
        phases = [phase]

    bad = workload.check()
    outcomes = [o for ph in phases for o in ph["outcomes"]]
    doc["attempted"] = len(outcomes)
    doc["failed"] = sum(1 for key, ok in outcomes if not ok or key in bad)
    doc["failures"] = sorted(f"{key}: {reason}" for key, reason in bad.items())[:20]
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
