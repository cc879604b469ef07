"""Closed-loop trial runner for gradlab's benchmark.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 30 --trace 0

Single process, single thread: each trial starts when the previous one
ends.  The run imports gradlab from the checkout's `src/`, sets the
workload up several times (inputs, construction, one warm-up trial) and
keeps the last set-up, then runs trials for `--seconds` (and at least
MIN_TRIALS), checks every trial's output and the run as a whole, and
prints one JSON object as its last line.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
trials alternate untraced and traced; the run reports the per-layer
metrics from the traced trials and the tracing overhead from the two
kinds, and writes every span to `.bench_trace/` in the checkout.

Exit status: 0 when every check passed, 1 when a check failed, 2 when
gradlab cannot be imported from this checkout.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from stats import tail_percentile
from tracing import Tracer, self_time_gaps, totals_by_name

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPS = 3
MIN_TRIALS = 20
MAX_LOGGED_FAILURES = 5

# per-layer metric -> unit; README.md defines each one
PER_LAYER = {
    "paradigms.oracle_asks": "count/trial",
    "paradigms.oracle_ask_s": "s/trial",
    "paradigms.examples_drawn": "count/trial",
    "paradigms.query_evals": "count/trial",
    "paradigms.query_eval_s": "s/trial",
    "paradigms.descent_steps": "count/trial",
    "paradigms.descent_self_s": "s/trial",
    "numerics.recover_calls": "count/trial",
    "numerics.recover_s": "s/trial",
    "numerics.round_calls": "count/trial",
    "numerics.round_s": "s/trial",
    "extract.examples": "count/trial",
    "extract.rounds_per_example": "ratio",
    "extract.self_s": "s/trial",
    "problems.population_loss_s": "s/trial",
    "reductions.build_pipeline_s": "s/setup",
    "diffsim.gradient_calls": "count/trial",
    "diffsim.gradient_s": "s/trial",
    "diffsim.value_calls": "count/trial",
    "diffsim.value_s": "s/trial",
    "diffsim.audit_s": "s/trial",
    "diffsim.active_round_share": "ratio",
    "diffsim.compile_s": "s/setup",
    "nn.gradient_calls": "count/trial",
    "nn.gradient_s": "s/trial",
    "nn.value_calls": "count/trial",
    "nn.value_s": "s/trial",
    "nn.frozen_edges_moved": "count/trial",
    "nn.build_s": "s/setup",
    "nn.vertices": "count",
    "nn.edges": "count",
    "trace.trials_per_s": "trials/s",
    "trace.untraced_trials_per_s": "trials/s",
    "trace.overhead_share": "ratio",
}

# per-layer name -> (span name, field of its totals) for span-derived metrics
SPAN_METRICS = {
    "paradigms.oracle_asks": ("paradigms.oracle_ask", "calls"),
    "paradigms.oracle_ask_s": ("paradigms.oracle_ask", "total"),
    "paradigms.query_evals": ("paradigms.query_eval", "calls"),
    "paradigms.query_eval_s": ("paradigms.query_eval", "total"),
    "paradigms.descent_self_s": ("paradigms.descent", "self"),
    "numerics.recover_calls": ("numerics.recover", "calls"),
    "numerics.recover_s": ("numerics.recover", "total"),
    "numerics.round_calls": ("numerics.round", "calls"),
    "numerics.round_s": ("numerics.round", "total"),
    "extract.self_s": ("extract.sample_extract", "self"),
    "problems.population_loss_s": ("problems.population_loss", "total"),
    "diffsim.gradient_calls": ("diffsim.gradient", "calls"),
    "diffsim.gradient_s": ("diffsim.gradient", "total"),
    "diffsim.value_calls": ("diffsim.value", "calls"),
    "diffsim.value_s": ("diffsim.value", "total"),
    "diffsim.audit_s": ("diffsim.audit", "total"),
    "nn.gradient_calls": ("nn.gradient", "calls"),
    "nn.gradient_s": ("nn.gradient", "total"),
    "nn.value_calls": ("nn.value", "calls"),
    "nn.value_s": ("nn.value", "total"),
}
SETUP_SPAN_METRICS = {
    "reductions.build_pipeline_s": "reductions.build_pipeline",
    "diffsim.compile_s": "diffsim.compile",
    "nn.build_s": "nn.build",
}
FIELDS = {"calls": 0, "total": 1, "self": 2}


class Run:
    """Latencies, outcomes and failures of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outcomes: list = []
        self.failures: list[str] = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_trials(workload, wl_module, seed: int, seconds: float,
               min_trials: int, tracer: Tracer | None = None,
               boundaries=()) -> list[Run]:
    """Back-to-back trials until both the time and the count are reached.

    Without a tracer this returns one Run timed by the wall clock.  With
    one, trials alternate untraced and traced (boundaries patched), so
    drift in the machine's speed hits both alike; the two Runs come back
    in that order, each timed by the sum of its trial latencies.
    """
    clock = time.perf_counter
    runs = [Run()] if tracer is None else [Run(), Run()]
    start = clock()
    i = 0
    while clock() - start < seconds or i < min_trials:
        s = wl_module.derive_seed(seed, 0, i)
        traced = tracer is not None and i % 2 == 1
        run = runs[traced]
        try:
            if traced:
                with tracer.patched(boundaries):
                    t0 = clock()
                    with tracer.span("trial", trial=i):
                        out = workload.trial(s)
            else:
                t0 = clock()
                out = workload.trial(s)
        except Exception:  # a failed trial is counted, not fatal
            run.latencies.append(clock() - t0)
            run.failures.append(f"trial {i} (seed {s}) raised:\n"
                                + traceback.format_exc())
        else:
            run.latencies.append(clock() - t0)
            run.outcomes.append(out)
        i += 1
    if tracer is None:
        runs[0].elapsed = clock() - start
    else:
        for run in runs:
            run.elapsed = sum(run.latencies)
    return runs


def check_run(workload, run: Run) -> list[str]:
    """Per-trial check failures join the run's failures; returns run-level."""
    for k, out in enumerate(run.outcomes):
        problem = workload.check(out)
        if problem is not None:
            run.failures.append(f"outcome {k}: {problem}")
    return workload.run_checks(run.outcomes)


def set_up(wl_module, name: str, seed: int, tracer: Tracer | None):
    """SETUP_REPS fresh set-ups, each with a checked warm-up trial."""
    times, problems = [], []
    workload = None
    for k in range(SETUP_REPS):
        t0 = time.perf_counter()
        if tracer is None:
            workload = wl_module.WORKLOADS[name](seed)
            warm = workload.trial(wl_module.derive_seed(seed, 4, k))
        else:
            with tracer.span("setup", trial=("setup", k)):
                workload = wl_module.WORKLOADS[name](seed)
                warm = workload.trial(wl_module.derive_seed(seed, 4, k))
        times.append(time.perf_counter() - t0)
        problem = workload.check(warm)
        if problem is not None:
            problems.append(f"warm-up trial {k}: {problem}")
    return workload, times, problems


def end_to_end(run: Run, import_s: float, setup_times) -> tuple[dict, str]:
    ms = [1000.0 * t for t in run.latencies]
    tail = tail_percentile(ms)
    if tail is None:
        raise RuntimeError(f"{len(ms)} trials leave no tail percentile")
    pct, tail_ms = tail
    failed = len(run.failures)
    metrics = {
        "trials_per_s": (run.attempted / run.elapsed, "trials/s"),
        "trial_ms_p50": (statistics.median(ms), "ms"),
        "trial_ms_tail": (tail_ms, "ms"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": ((run.attempted - failed) / run.attempted, "ratio"),
    }
    note = (f"trial_ms_tail is p{pct:.2f} over {len(ms)} trials; "
            f"failed_share {failed / run.attempted:.4f}; "
            f"import {import_s:.3f} s, set-ups "
            + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    return metrics, note


def per_layer(workload, tracer: Tracer, traced: Run, untraced: Run
              ) -> tuple[dict, str]:
    trials = {n.trial for n in tracer.nodes
              if n.name == "trial" and n.parent is None}
    setups = {n.trial for n in tracer.nodes if n.name == "setup"}
    per_trial = max(len(trials), 1)
    spans = totals_by_name(tracer.nodes, trials)
    setup_spans = totals_by_name(tracer.nodes, setups)
    counts: dict[str, float] = {}
    for out in traced.outcomes:
        for key, v in out.counters.items():
            counts[key] = counts.get(key, 0.0) + v

    values = {}
    for metric, (span, field) in SPAN_METRICS.items():
        values[metric] = spans.get(span, (0, 0.0, 0.0))[FIELDS[field]] \
            / per_trial
    for metric, span in SETUP_SPAN_METRICS.items():
        values[metric] = setup_spans.get(span, (0, 0.0, 0.0))[1] \
            / max(len(setups), 1)
    for metric in ("paradigms.examples_drawn", "paradigms.descent_steps",
                   "extract.examples", "nn.frozen_edges_moved"):
        values[metric] = counts.get(metric, 0.0) / per_trial
    examples = counts.get("extract.examples", 0.0)
    values["extract.rounds_per_example"] = (
        counts.get("extract.rounds", 0.0) / examples if examples else 0.0)
    steps = counts.get("paradigms.descent_steps", 0.0)
    values["diffsim.active_round_share"] = (
        counts.get("diffsim.active_rounds", 0.0) / steps if steps else 0.0)
    net = getattr(workload, "net", None)
    values["nn.vertices"] = float(len(net.names)) if net is not None else 0.0
    values["nn.edges"] = float(net.n_edges) if net is not None else 0.0
    traced_tps = traced.attempted / traced.elapsed
    untraced_tps = untraced.attempted / untraced.elapsed
    values["trace.trials_per_s"] = traced_tps
    values["trace.untraced_trials_per_s"] = untraced_tps
    values["trace.overhead_share"] = 1.0 - traced_tps / untraced_tps

    gaps = self_time_gaps(tracer.nodes)
    worst = max((abs(g) for t, g in gaps.items() if t in trials), default=0.0)
    note = (f"{len(trials)} traced trials; largest |trial span - sum of self "
            f"times| = {worst:.3g} s; tracing overhead "
            f"{values['trace.overhead_share']:.1%} of untraced trials/s")
    return {m: (values[m], PER_LAYER[m]) for m in PER_LAYER}, note


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("extract", "bsgd_pipeline", "fbgd_pipeline",
                                 "emulation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    t0 = time.perf_counter()
    try:
        import workloads as wl
    except ImportError as err:
        print(f"cannot import gradlab from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    if tracer is None:
        workload, setup_times, problems = set_up(wl, args.workload,
                                                 args.seed, None)
        run, = run_trials(workload, wl, args.seed, args.seconds,
                          MIN_TRIALS)
        problems += check_run(workload, run)
        metrics, note = end_to_end(run, import_s, setup_times)
        runs = [run]
    else:
        with tracer.patched(wl.static_boundaries()):
            workload, setup_times, problems = set_up(wl, args.workload,
                                                     args.seed, tracer)
        untraced, traced = run_trials(
            workload, wl, args.seed, args.seconds, MIN_TRIALS, tracer,
            wl.static_boundaries() + workload.boundaries())
        problems += check_run(workload, untraced)
        problems += check_run(workload, traced)
        metrics, note = per_layer(workload, tracer, traced, untraced)
        runs = [untraced, traced]
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.json")

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for line in failures[:MAX_LOGGED_FAILURES] + problems:
        print(line, file=sys.stderr)
    correct = not failures and not problems
    print(f"# {args.workload} seed {args.seed}: {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
