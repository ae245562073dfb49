"""mobcert benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload scan-residual --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src/``.  Each
run starts fresh single-threaded worker processes: seven set-up probes
(interpreter start through ``import mobcert.cli`` and one warm-up call,
median reported as ``setup_s``) and one measuring worker.  Operation times
are in reference units (``ref``): multiples of a fixed calibration kernel's
time at the same moment (worker.reference_s).  With --trace 0 the last line
of output carries the end-to-end metrics; with --trace 1 the worker
alternates untraced rounds with rounds that have every layer wrapped, and
the last line carries the per-layer metrics.  The line before it records
the environment (git rev, source digest, nproc, Python, numpy, numba,
kernels backend), the uncalibrated times in seconds and any output-check
failures.

--smoke runs a tiny size of every workload in both modes and checks that
every metric named in BENCHMARK.json is emitted with its unit and that no
operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-residual", "scan-closed", "certify-points", "figures")
PROBES = 7
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "points_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "latency_p99_ref": "ref",
    "certified_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], timeout: float) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.splitlines()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (info line, result line)."""
    deadline = _now() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds)),
              "--trace", str(trace), "--work", str(work), "--nproc", str(nproc)]
    if smoke:
        common.append("--smoke")
    try:
        setups, imports = [], []

        def probe():
            started = _now()
            lines = _worker(common + ["--probe"], deadline - _now())
            ready = [ln.split() for ln in lines if ln.startswith("READY ")]
            if not ready:
                raise BenchError("probe printed no READY line")
            setups.append(float(ready[-1][1]) - started)
            imports.append(float(ready[-1][2]))

        # Probes before and after the measuring worker, so their median
        # spans the run rather than one moment of it.
        n_probes = 1 if smoke else PROBES
        for _ in range(n_probes // 2):
            probe()
        lines = _worker(common, deadline - _now())
        doc = json.loads(lines[-1])
        for _ in range(n_probes - n_probes // 2):
            probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    env = dict(doc["environment"], git_rev=_git_rev(), src_sha256=_source_digest(), nproc=nproc,
               python=platform.python_version())
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "environment": env,
            "failed_frac": doc["failed"] / doc["attempted"], "failures": doc["failures"]}
    if trace:
        values = dict(doc["layers"], **{"cli.import_s": statistics.median(imports)})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in doc["layer_units"].items()}
    else:
        values = {name: doc[name] for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        info.update(uncalibrated=doc["uncalibrated"], operations=doc["operations"],
                    distinct_operations=doc["distinct_operations"], rounds=doc["rounds"])
    result = {
        "correct": doc["failed"] == 0 and not doc["failures"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    return info, result


def smoke() -> int:
    """Tiny run of every workload in both modes against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            info, result = measure(wl, seed=1, seconds=0.2, trace=trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{wl} trace={trace}: metrics {sorted(set(got) ^ set(want))} or units differ")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{wl} trace={trace}: failed {result['failed']} of {result['attempted']}: {info['failures']}")
            print(f"smoke {wl} trace={trace}: {result['attempted']} operations, {result['failed']} failed", flush=True)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, then exit")
    args = parser.parse_args()
    if not (SRC / "mobcert" / "__init__.py").is_file():
        print(f"error: no mobcert package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        info, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
