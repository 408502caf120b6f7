"""One workload process: set-up, the closed-loop op phase, output checks.

Usage (started by run.py):
    python perfbench/worker.py --workload W --seed N --seconds T
                               --workdir DIR --mode setup|ops|trace

It prints ``ready`` once the program's set-up calls are done. In ``setup``
mode it then exits; set-up time is measured by the parent from process
start to that line. In ``ops`` and ``trace`` mode it runs ops for ``T``
seconds (``trace``: each op both untraced and traced) and prints one JSON
line with the raw results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

from calibrate import loop_speed, process_speed
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_IMPORTS = {"cli_cold": "convneg.cli"}
MAX_PROBLEMS = 5
# p90 needs ten answered ops beyond it: an untraced run goes on past its
# deadline until this many ops were answered, up to twice its length.
MIN_ANSWERED = 100

# span name -> (self-time metric, calls metric or None), both per op
OP_SPANS = {
    "taxonomy.parse": ("taxonomy.parse_ms", "taxonomy.parse_calls"),
    "lexicon.build": ("lexicon.build_ms", "lexicon.build_calls"),
    "lexicon.save": ("lexicon.save_ms", None),
    "lexicon.load": ("lexicon.load_ms", None),
    "operators.construct": ("operators.construct_ms", "operators.construct_calls"),
    "negation.cn_word": ("negation.cn_word_ms", "negation.cn_word_calls"),
    "negation.rank": ("negation.rank_ms", None),
    "entailment.overlap": ("entailment.overlap_ms", "entailment.overlap_calls"),
    "entailment.loewner": ("entailment.loewner_ms", None),
    "strings.derive_weights": ("strings.derive_weights_ms", None),
    "strings.interpretation_scores": ("strings.interpretation_scores_ms", None),
    "strings.best_interpretation": ("strings.best_interpretation_ms", None),
    "circuits.parse": ("circuits.parse_ms", None),
    "circuits.composed": ("circuits.composed_ms", None),
    "circuits.cn_actor": ("circuits.cn_actor_ms", None),
    "circuits.rank": ("circuits.rank_ms", None),
    "cli.numpy_import": ("cli.numpy_import_ms", None),
    "cli.import": ("cli.import_ms", None),
    "cli.run": ("cli.run_ms", None),
    "cli.process": ("cli.process_ms", None),
}
# span name -> self-time metric in ms, over the set-up phase
SETUP_SPANS = {
    "setup.import": "setup.import_ms",
    "taxonomy.parse": "setup.taxonomy.parse_ms",
    "lexicon.build": "setup.lexicon.build_ms",
    "lexicon.save": "setup.lexicon.save_ms",
}


NULL = NullTracer()


def run_once(wl, spec, tr):
    out, exc = None, None
    t0 = perf_counter()
    try:
        out = tr.call("op", wl.run, spec, tr)
    except Exception as e:  # counted as a refusal or a failure; the loop goes on
        exc = e
    return out, exc, perf_counter() - t0


def op_phase(wl, speed, seconds, min_answered=0, tracer=None):
    """Closed loop, one client: op i+1 starts after op i and its check end.

    Runs ops 0, 1, ... for ``seconds``, longer (up to twice that) until
    ``min_answered`` ops were answered. Op times are divided by the
    machine's speed factor; ``raw_`` fields keep wall times. Generating
    inputs, checking outputs and calibrating happen outside every op time.

    With a ``tracer`` each op also runs traced, right before or after its
    untraced run (alternating), and the two results must agree."""
    res = {"attempted": 0, "answered": 0, "refused": 0, "failed": 0, "problems": [],
           "latencies_ms": [], "raw_latencies_ms": [], "op_s": 0.0, "raw_op_s": 0.0,
           "traced_op_s": 0.0, "factors": []}
    start = perf_counter()
    deadline, hard_deadline = start + seconds, start + 2 * seconds
    i = 0
    while True:
        spec = wl.spec(i)
        runs = {}
        order = (NULL,) if tracer is None else (NULL, tracer) if i % 2 == 0 else (tracer, NULL)
        for tr in order:
            tr.op = i
            runs[tr.traced] = run_once(wl, spec, tr)
        end = perf_counter()
        out, exc, dt = runs[False]
        if exc is None:
            problems = wl.check(i, spec, out)
        elif wl.refused(spec, exc):
            problems = []
        else:
            problems = [f"{type(exc).__name__}: {exc}"]
        status = "failed" if problems else "answered" if exc is None else "refused"
        if tracer is not None:
            t_out, t_exc, t_dt = runs[True]
            same = type(exc) is type(t_exc) and (exc is not None or wl.summary(out) == wl.summary(t_out))
            del t_out, t_exc
            if not same:
                problems.append("traced result differs from the one-call result")
                status = "failed"
        speed.sample()
        factor = speed.factor()  # from samples on both sides of the op
        res["attempted"] += 1
        res[status] += 1
        res["op_s"] += dt / factor
        res["raw_op_s"] += dt
        res["factors"].append(factor)
        if tracer is not None:
            res["traced_op_s"] += t_dt / factor
        if status == "answered":
            res["latencies_ms"].append(1e3 * dt / factor)
            res["raw_latencies_ms"].append(1e3 * dt)
        for p in problems[: MAX_PROBLEMS - len(res["problems"])]:
            res["problems"].append(f"op {i}: {p}")
        # drop this op's outputs, and the frames an exception holds, before the next op
        del runs, out, exc
        i += 1
        if end >= hard_deadline or (end >= deadline and res["answered"] >= min_answered):
            return res


def layer_metrics(tr: Tracer, res: dict, setup_factor: float) -> dict:
    setup_self, op_self, calls = tr.self_times(res["factors"], setup_factor)
    n = res["attempted"]
    out = {}
    for span, (ms_name, calls_name) in OP_SPANS.items():
        out[ms_name] = 1e3 * op_self.get(span, 0.0) / n
        if calls_name:
            out[calls_name] = calls.get(span, 0) / n
    for span, name in SETUP_SPANS.items():
        out[name] = 1e3 * setup_self.get(span, 0.0)
    out["lexicon.store_bytes"] = tr.counts.get("lexicon.store_bytes", 0) / n
    out["lexicon.operator_bytes"] = tr.maxima.get("lexicon.operator_bytes", 0)
    out["strings.subsets"] = tr.counts.get("strings.subsets", 0) / n
    out["circuits.joint_dim_max"] = tr.maxima.get("circuits.joint_dim_max", 0)
    out["circuits.too_large"] = res["refused"] / n
    out["trace.overhead_pct"] = 100.0 * (res["traced_op_s"] - res["op_s"]) / res["op_s"]
    op_total = sum(op_self.values())  # equals the summed duration of the root op spans
    layers = sum(v for k, v in op_self.items() if k != "op")
    out["trace.accounted_pct"] = 100.0 * layers / op_total
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "ops", "trace"), required=True)
    args = ap.parse_args(argv)

    tr = Tracer() if args.mode == "trace" else NullTracer()
    tr.call("setup.import", importlib.import_module, SETUP_IMPORTS.get(args.workload, "convneg"))
    import convneg
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir, convneg)
    if args.mode != "setup" or wl.probe_runs_setup:
        wl.setup(tr)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    wl.after_setup(tr)
    from machine import machine_block

    speed = process_speed() if wl.timed_in_child else loop_speed()
    result = {"machine": machine_block()}
    if args.mode == "ops":
        res = op_phase(wl, speed, args.seconds, min_answered=MIN_ANSWERED)
        result["rss_mb"] = wl.rss_mb()
    else:
        setup_factor = speed.factor()
        res = op_phase(wl, speed, args.seconds, tracer=tr)
        result["layers"] = layer_metrics(tr, res, setup_factor)
        trace_file = ROOT / ".perfbench-out" / "traces" / f"{args.workload}-seed{args.seed}.json"
        tr.write(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    res.pop("factors")
    result.update(res)
    result["properties"] = wl.properties(res["attempted"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
