"""convneg benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Each workload runs as a closed loop with one client in a fresh process.
Inputs are generated from the seed; every output is checked. The report
lists each metric with its unit and sample count; the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("word_queries", "lexicon_store", "text_requests", "cli_cold")
SETUP_PROBES = 9  # fresh processes timed per run for setup_s
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "answered_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "_ms": "ms/op", "_calls": "calls/op", "_pct": "%",
    "store_bytes": "B/op", "operator_bytes": "B-computed", "subsets": "subsets/op",
    "joint_dim_max": "dim", "too_large": "refusals/op",
}


# One client runs on one core: BLAS is pinned to one thread, so that a busy
# second core slows an op no more than it slows the speed calibration.
WORKER_ENV = {
    **os.environ,
    "PYTHONPATH": str(ROOT / "src"),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.startswith("setup."):
        return "ms"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def worker_cmd(workload, seed, seconds, workdir, mode):
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--workdir", str(workdir), "--mode", mode,
    ]


def start_worker(cmd) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process and
    the seconds from spawn to ready."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    watchdog.cancel()
    if line.strip() != "ready":
        wait_worker(proc)
        raise BenchError(f"worker did not get through set-up: {line.strip()!r}")
    return proc, elapsed


def wait_worker(proc: subprocess.Popen) -> str:
    """The rest of the worker's stdout, once it has exited; killed on timeout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def finish_worker(proc: subprocess.Popen) -> dict:
    lines = wait_worker(proc).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import gen
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench-out" / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sanity = gen.sanity(name, seed)
        WORKLOADS[name].prepare(seed, workdir)
        setup_times, raw_setup_times = [], []
        if not trace:
            from calibrate import process_speed

            speed = process_speed(WORKER_ENV, warm=1)
            for _ in range(SETUP_PROBES):
                proc, elapsed = start_worker(worker_cmd(name, seed, seconds, workdir, "setup"))
                wait_worker(proc)
                speed.sample()
                setup_times.append(elapsed / speed.factor())
                raw_setup_times.append(elapsed)
        mode = "trace" if trace else "ops"
        proc, _ = start_worker(worker_cmd(name, seed, seconds, workdir, mode))
        res = finish_worker(proc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["sanity"] = sanity
    res["setup_times"] = setup_times
    res["raw_setup_times"] = raw_setup_times
    return res


def deciles(values: list[float]) -> list[float]:
    if len(values) > 1:
        return statistics.quantiles(values, n=10, method="inclusive")
    # too few answered ops for percentiles; the run is reported incorrect
    return [values[0] if values else 0.0] * 9


def end_to_end(res: dict, raw: bool = False) -> dict:
    """The end-to-end metrics; ``raw`` gives wall times not divided by the
    speed factor, for the report only."""
    prefix = "raw_" if raw else ""
    lat = deciles(res[prefix + "latencies_ms"])
    return {
        "setup_s": statistics.median(res[prefix + "setup_times"]),
        "op_p50_ms": lat[4],
        "op_p90_ms": lat[8],
        "ops_per_s": res["answered"] / res[prefix + "op_s"],
        "peak_rss_mb": res["rss_mb"],
        "answered_ratio": res["answered"] / res["attempted"],
    }


def report(name: str, seed: int, seconds: float, trace: bool, res: dict, metrics: dict) -> None:
    m = res["machine"]
    print(f"== {name}  seed {seed}  {seconds:g} s  trace {int(trace)}  (closed loop, 1 client)")
    print(
        f"   machine: nproc {m['nproc']} ({m['cpus_usable']} usable), {m['cpu_model']}, "
        f"Python {m['python']}, numpy {m['numpy']}, {m['blas']}, {m['blas_threads']} BLAS threads"
    )
    print(f"   input: {json.dumps(res['properties'], sort_keys=True)}")
    n, att = res["answered"], res["attempted"]
    samples = {
        "setup_s": f"median of {len(res['setup_times'])} fresh processes",
        "op_p50_ms": f"n={n} answered ops",
        "op_p90_ms": f"n={n} answered ops, {n - int(0.9 * n)} beyond p90",
        "ops_per_s": f"n={n} ops over {res['op_s']:.2f} s of op time",
        "peak_rss_mb": "ru_maxrss" + (" of child processes" if name == "cli_cold" else ""),
        "answered_ratio": f"{n}/{att} answered",
    }
    raw = {} if trace else end_to_end(res, raw=True)
    if raw:
        print("   (times at reference speed; raw wall times in brackets)")
    for key, value in metrics.items():
        unit = END_TO_END.get(key) or layer_unit(key)
        wall = f"[{raw[key]:.6g}]" if key in raw and raw[key] != value else ""
        print(f"   {key:<34} {value:>14.6g} {unit:<12} {wall:<12} {samples.get(key, '')}")
    print(
        f"   attempted {att}, answered {n}, refused {res['refused']}, failed {res['failed']} "
        f"(failed_ratio {res['failed'] / att:.4f})"
    )
    if trace:
        print(f"   spans written to {res['trace_file']}")
    for problem in res["sanity"] + res["problems"]:
        print(f"   PROBLEM {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "convneg" / "__init__.py").is_file():
        print(f"perfbench: no convneg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = res["layers"] if trace else end_to_end(res)
        report(name, args.seed, args.seconds, trace, res, metrics)
        results.append({
            "correct": not res["sanity"] and res["failed"] == 0 and res["answered"] > 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {
                k: {"value": v, "unit": END_TO_END.get(k) or layer_unit(k)} for k, v in metrics.items()
            },
        })
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{k}": v for name, r in zip(names, results) for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
