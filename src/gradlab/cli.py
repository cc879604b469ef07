"""Config-driven experiment runner and offline transcript verifier.

Five desk-scale studies tie the library together: extraction
statistics, the sample-to-gradient parity pipeline, batch-size regime
sweeps, counting-gadget drift audits, and a reduction comparison
matrix.  Each run writes three files into the output directory:
results.csv (one row per trial, schema documented in '#' comments),
summary.json (aggregates plus pass/fail checks), and run.log (plain
verdict lines).  Nothing in the reports depends on wall-clock time, so
identical configs reproduce byte-identical output.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .diffsim import TrajectoryAuditor, TrajectoryError
from .extract import Failure, sample_extract
from .numerics import GridError, ToleranceError, grid_exponent, \
    valid_rounding
from .paradigms import (
    BSQOracle,
    NoiseAdversary,
    SQQuery,
    Transcript,
    eval_method_error,
)
from .problems import (
    Batch,
    Example,
    FiniteDistribution,
    clip_predictor,
    load_distribution,
    population_loss,
)
from .reductions import build_pipeline, compare_methods, \
    population_violation_rate
from . import nn

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "VerifyReport",
    "main",
    "run_experiment",
    "verify_transcript",
]

EXPERIMENTS = ("ExtractStats", "ParityEndToEnd", "RegimeSweep",
               "GadgetAudit", "ReductionMatrix")

_ADVERSARIES = {
    "zero": NoiseAdversary.ZERO_NOISE,
    "plus": NoiseAdversary.PLUS_TAU,
    "minus": NoiseAdversary.MINUS_TAU,
    "random": NoiseAdversary.SEEDED_RANDOM,
}


class ConfigError(ValueError):
    """The experiment configuration is malformed or out of regime."""


def _ratio(value) -> float:
    """Accept plain numbers or 'p/q' strings for tolerances."""
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse {value!r} as a number")
    return float(value)


def _dyadic(value: float, name: str) -> float:
    try:
        grid_exponent(value)
    except GridError as exc:
        raise ConfigError(f"{name} must be a dyadic grid width: {exc}")
    return value


@dataclass
class ExperimentConfig:
    """One experiment run: what to do, at what size, where to report."""

    experiment: str
    trials: int = 20
    seed: int = 0
    out: str = "lab-results"
    distribution: str | None = None
    method: dict | list | None = None
    params: dict = field(default_factory=dict)
    out_of_regime: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.distribution is not None \
                and not Path(self.distribution).exists():
            raise ConfigError(
                f"distribution file {self.distribution!r} does not exist")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        if "experiment" not in payload:
            raise ConfigError("config needs an 'experiment' key")
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file {path} does not exist")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(payload)

    def load_distribution(self, default: FiniteDistribution
                          ) -> FiniteDistribution:
        if self.distribution is None:
            return default
        try:
            return load_distribution(self.distribution)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"cannot load distribution {self.distribution!r}: {exc}")

    def require(self, ok: bool, message: str) -> None:
        """Precondition gate; out_of_regime downgrades it to a waiver."""
        if not ok and not self.out_of_regime:
            raise ConfigError(message + ' (set "out_of_regime": true to '
                              'run anyway)')


@dataclass
class ExperimentReport:
    experiment: str
    columns: tuple[str, ...]
    descriptions: dict
    rows: list[tuple]
    summary: dict
    checks: list[dict]

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _check(name: str, passed: bool, value, limit=None) -> dict:
    entry = {"name": name, "passed": bool(passed), "value": value}
    if limit is not None:
        entry["limit"] = limit
    return entry


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


# --- experiment: extraction statistics ----------------------------------


def _skewed_four_point(n: int) -> FiniteDistribution:
    if n < 4:
        raise ConfigError("default extraction distribution needs n >= 4")
    pad = (0,) * (n - 4)
    pts = [((0, 0, 0, 0), 0, 0.4), ((1, 0, 1, 0), 1, 0.3),
           ((0, 1, 1, 0), 1, 0.2), ((1, 1, 1, 1), 0, 0.1)]
    return FiniteDistribution(
        n, [(Example(x + pad, y), p) for x, y, p in pts])


def _run_extract_stats(config: ExperimentConfig) -> ExperimentReport:
    p = config.params
    n = int(p.get("n", 4))
    b = int(p.get("b", 8))
    tau = _ratio(p.get("tau", "1/32"))
    adversary = _ADVERSARIES.get(str(p.get("adversary", "plus")))
    if adversary is None:
        raise ConfigError(f"unknown adversary {p.get('adversary')!r}")
    config.require(b * tau < 0.5,
                   f"extraction needs b*tau < 1/2, got {b * tau}")
    D = config.load_distribution(_skewed_four_point(n))
    if D.n != n:
        raise ConfigError(f"distribution arity {D.n} does not match n={n}")

    def one(i: int):
        trial_seed = config.seed + i
        oracle = BSQOracle(D, b=b, tau=tau, adversary=adversary,
                           seed=trial_seed, record=False)
        try:
            got = sample_extract(oracle, n=n, b=b, tau=tau,
                                 seed=trial_seed)
        except ToleranceError:
            # waived regime gate: the recovery step itself refuses
            return (trial_seed, 1.0, 0, oracle.samples_consumed, 1, None)
        if isinstance(got, Failure):
            return (trial_seed, 1.0, got.rounds_used,
                    oracle.samples_consumed, 0, None)
        example, rounds = got
        return (trial_seed, 0.0, rounds, oracle.samples_consumed, 0,
                example.joint_code())

    results = [one(i) for i in range(config.trials)]
    rows = [r[:5] for r in results]
    codes = [r[5] for r in results if r[5] is not None]
    counts: dict[int, int] = {}
    for code in codes:
        counts[code] = counts.get(code, 0) + 1
    target = {int(code): float(prob)
              for code, prob in zip(D.joint_codes, D.probs)}
    tv = 0.0
    if codes:
        for code in set(counts) | set(target):
            tv += abs(counts.get(code, 0) / len(codes)
                      - target.get(code, 0.0))
        tv *= 0.5
    mean_rounds = _mean([r[2] for r in rows])
    failures = sum(1 for r in rows if r[1] > 0.0)
    tv_max = float(p.get("tv_max", 0.03))
    rounds_max = float(p.get("rounds_max", 10.0 * (n + 1)))
    summary = {"n": n, "b": b, "tau": tau,
               "adversary": adversary.value,
               "mean_rounds": mean_rounds, "tv_distance": tv,
               "failures": failures, "extracted": len(codes)}
    checks = [
        _check("tv_distance", tv <= tv_max, tv, tv_max),
        _check("mean_rounds", mean_rounds <= rounds_max, mean_rounds,
               rounds_max),
        _check("failures", failures == 0, failures, 0),
    ]
    return ExperimentReport(
        experiment=config.experiment,
        columns=("seed", "error", "rounds", "samples", "violations"),
        descriptions={
            "seed": "extraction and oracle seed for the trial",
            "error": "1.0 when the round budget ran out, else 0.0",
            "rounds": "batch query rounds consumed",
            "samples": "hidden examples the oracle drew",
            "violations": "1 when a waived regime gate broke the trial",
        },
        rows=rows, summary=summary, checks=checks)


# --- experiment: parity pipeline end to end -----------------------------


def _run_parity_end_to_end(config: ExperimentConfig) -> ExperimentReport:
    p = config.params
    n = int(p.get("n", 2))
    m = int(p.get("m", 3))
    b = int(p.get("b", 4))
    rho = _dyadic(_ratio(p.get("rho", "1/64")), "rho")
    delta = float(p.get("delta", 0.1))
    config.require(b * 4 * rho < 0.5,
                   f"pipeline needs b*4*rho < 1/2, got {b * 4 * rho}")
    D = config.load_distribution(FiniteDistribution.parity(n, (1,) * n))
    spec = config.method or {
        "pipeline": ["pac_to_bsq", "bsq_alternating", "diffsim"],
        "payload": "parity",
        "params": {"n": n, "m": m, "b": b, "rho": rho, "delta": delta},
    }
    if not isinstance(spec, dict) or "diffsim" not in spec.get(
            "pipeline", ()):
        raise ConfigError("the pipeline experiment audits a compiled "
                          "method; the stage list must end in 'diffsim'")
    method, pipeline_report = build_pipeline(spec)
    # the audit program mirrors the compiled stack stage for stage
    audit_method, _ = build_pipeline({
        "pipeline": [s for s in spec["pipeline"] if s != "diffsim"],
        "payload": spec.get("payload", "parity"),
        "params": {**spec.get("params", {}),
                   "delta": pipeline_report.derived["delta_per_stage"]},
    })

    def one(i: int):
        trial_seed = config.seed + i
        auditor = TrajectoryAuditor(audit_method.program, rho)
        out = method.run(D, seed=trial_seed, record=False,
                         hook=auditor.hook)
        try:
            audit_ok = auditor.check().ok
        except TrajectoryError:
            audit_ok = False
        err = population_loss(D, clip_predictor(out.predictor))
        return (trial_seed, err, method.T,
                out.transcript.samples_consumed, 0 if audit_ok else 1)

    rows = [one(i) for i in range(config.trials)]
    mean_err = _mean([r[1] for r in rows])
    violations = sum(r[4] for r in rows)
    baseline_trials = int(p.get("baseline_trials", config.trials))
    payload_method, _ = build_pipeline(
        {"pipeline": [], "payload": "parity", "params": {"n": n, "m": m}})
    baseline = eval_method_error(payload_method, D, baseline_trials,
                                 config.seed)
    errs = np.array([r[1] for r in rows], dtype=float)
    stderr = float(errs.std(ddof=1) / math.sqrt(len(errs))) \
        if len(errs) > 1 else 0.0
    margin = delta + 3.0 * math.hypot(stderr, baseline.stderr)
    summary = {"n": n, "m": m, "b": b, "rho": rho, "delta": delta,
               "rounds": method.T, "mean_error": mean_err,
               "stderr": stderr, "baseline_error": baseline.mean,
               "baseline_stderr": baseline.stderr,
               "audit_violations": violations,
               "derived": pipeline_report.derived}
    checks = [
        _check("audit_violations", violations == 0, violations, 0),
        _check("error_vs_baseline", mean_err <= baseline.mean + margin,
               mean_err, baseline.mean + margin),
    ]
    return ExperimentReport(
        experiment=config.experiment,
        columns=("seed", "error", "rounds", "samples", "violations"),
        descriptions={
            "seed": "training seed for the trial",
            "error": "population loss of the trained predictor",
            "rounds": "gradient rounds taken by the compiled method",
            "samples": "hidden examples consumed",
            "violations": "trajectory audit failures (0 or 1)",
        },
        rows=rows, summary=summary, checks=checks)


# --- experiment: batch-size regime sweep --------------------------------


def _biased_bit(p1: float) -> FiniteDistribution:
    return FiniteDistribution(1, [(Example((0,), 0), 1.0 - p1),
                                  (Example((1,), 1), p1)])


def _run_regime_sweep(config: ExperimentConfig) -> ExperimentReport:
    p = config.params
    param = str(p.get("param", "b"))
    if param != "b":
        raise ConfigError(f"only batch-size sweeps are supported, "
                          f"got param {param!r}")
    values = [int(v) for v in p.get("values", (2, 8, 32, 128))]
    if not values or any(v < 1 for v in values):
        raise ConfigError("sweep values must be positive batch sizes")
    tau = _dyadic(_ratio(p.get("tau", "1/16")), "tau")
    D = config.load_distribution(_biased_bit(float(p.get("bias", 0.3))))
    query = SQQuery(arity=1, evaluator=lambda ex: (float(ex.y),),
                    name="label-mean")

    def one(b: int):
        rate = population_violation_rate(D, query, b=b, tau=tau,
                                         trials=config.trials,
                                         seed=config.seed)
        validity = 1.0 - rate
        return (b, config.seed, rate, config.trials, b * config.trials,
                int(round(rate * config.trials)), validity)

    rows = [one(b) for b in values]
    validity = [r[6] for r in rows]
    monotone = all(validity[i] <= validity[i + 1] + 1e-12
                   for i in range(len(validity) - 1))
    summary = {"param": param, "values": values, "tau": tau,
               "trials_per_value": config.trials,
               "validity_rates": validity}
    checks = [_check("validity_rate_monotone", monotone, validity)]
    return ExperimentReport(
        experiment=config.experiment,
        columns=("value", "seed", "error", "rounds", "samples",
                 "violations", "validity_rate"),
        descriptions={
            "value": "swept batch size",
            "seed": "base seed for the batch draws",
            "error": "fraction of batches the population answer fails",
            "rounds": "batches drawn at this value",
            "samples": "hidden examples consumed",
            "violations": "count of failing batches",
            "validity_rate": "fraction of batches within tolerance",
        },
        rows=rows, summary=summary, checks=checks)


# --- experiment: counting-gadget drift audit ----------------------------


def _probe_violations(tau: float, variant: str, rng) -> int:
    net, gadget = nn.build_count_probe(tau, variant)
    span = [e for e in range(net.n_edges)
            if net.names[net.edge_dst[e]].startswith(gadget.prefix + ".")
            or e == gadget.output_edge]
    b = 4
    ys = [int(v) for v in rng.integers(0, 2, size=b)]
    nn.train_on_batches(net, [Batch(tuple(Example((1,), y) for y in ys))],
                        rho=tau, gamma=2.0)
    bad = 0
    count = nn.recorded_count(net, gadget)
    if count != int(count) or int(count) % 2:
        bad += 1
    if nn.read_register(net.forward((0,)), gadget) != int(count):
        bad += 1
    before = net.weights.copy()
    for _ in range(3):
        idle = [Example((0,), int(v)) for v in rng.integers(0, 2, size=b)]
        nn.train_on_batches(net, [Batch(tuple(idle))], rho=tau, gamma=2.0)
    after = net.weights
    bad += sum(1 for e in span if after[e] != before[e])
    return bad


def _audit_emulation(seed: int) -> int:
    digits = []
    for _ in range(6):
        b = nn.CircuitBuilder(())
        digits.append(b.build(b.true()))
    regs = [nn.reg_wire(1, 0, 1, bit) for bit in range(8)]
    ob = nn.CircuitBuilder(tuple(regs))
    prog = nn.EmulationProgram(
        rounds=1, arity=1, n_inputs=1,
        digit_circuits=((tuple(digits),),),
        output_circuit=ob.build(ob.ge_const(regs, 49)))
    net, layout = nn.build_emulation_net(prog, 1 / 16)
    D = FiniteDistribution(1, [(Example((0,), 0), 0.25),
                               (Example((0,), 1), 0.25),
                               (Example((1,), 0), 0.25),
                               (Example((1,), 1), 0.25)])
    bad = 0
    try:
        nn.train_emulation(net, layout, D, b=4, seed=seed)
    except (nn.FrozenEdgeError, RuntimeError):
        return 1
    for x in ((0,), (1,)):
        if net.value(x) not in (0.0, 1.0):
            bad += 1
    return bad


def _run_gadget_audit(config: ExperimentConfig) -> ExperimentReport:
    p = config.params
    tau = _ratio(p.get("tau", "1/16"))
    if not 0.0 < tau < 1.0 / 12.0:
        raise ConfigError("gadget audit needs tau in (0, 1/12)")

    def one(i: int):
        trial_seed = config.seed + i
        rng = np.random.default_rng(
            np.random.SeedSequence([trial_seed, 0x6AD6]))
        bad = _probe_violations(tau, "ones", rng)
        bad += _probe_violations(tau, "zeros", rng)
        bad += _audit_emulation(trial_seed)
        return (trial_seed, 0.0, 4, 32, bad)

    rows = [one(i) for i in range(config.trials)]
    violations = sum(r[4] for r in rows)
    summary = {"tau": tau, "weight_drift_violations": violations}
    checks = [_check("weight_drift_violations", violations == 0,
                     violations, 0)]
    return ExperimentReport(
        experiment=config.experiment,
        columns=("seed", "error", "rounds", "samples", "violations"),
        descriptions={
            "seed": "seed for batch label patterns",
            "error": "unused for audits, always 0.0",
            "rounds": "training steps taken per probe",
            "samples": "examples fed through the probes",
            "violations": "drift, decode, or prediction breaches",
        },
        rows=rows, summary=summary, checks=checks)


# --- experiment: reduction comparison matrix ----------------------------


def _run_reduction_matrix(config: ExperimentConfig) -> ExperimentReport:
    p = config.params
    n = int(p.get("n", 2))
    m = int(p.get("m", 3))
    b = int(p.get("b", 2))
    tau = _ratio(p.get("tau", "1/8"))
    delta = float(p.get("delta", 0.3))
    config.require(b * tau < 0.5,
                   f"reduction stack needs b*tau < 1/2, got {b * tau}")
    D = config.load_distribution(FiniteDistribution.parity(n, (1,) * n))
    stage_lists = config.method or [
        ["pac_to_bsq"],
        ["pac_to_bsq", "bsq_alternating"],
        ["pac_to_bsq", "bsq_to_sq"],
    ]
    params = {"n": n, "m": m, "b": b, "tau": tau, "delta": delta}
    source, _ = build_pipeline({"pipeline": [], "payload": "parity",
                                "params": params})

    def one(stages):
        target, _ = build_pipeline({"pipeline": list(stages),
                                    "payload": "parity", "params": params})
        report = compare_methods(source, target, D, delta,
                                 trials=config.trials, seed=config.seed)
        pair = "+".join(stages)
        return (config.seed, report.err_target.mean, 0, 0,
                0 if report.holds else 1, pair, report.err_source.mean,
                report.margin)

    rows = [one(stages) for stages in stage_lists]
    failed = [r[5] for r in rows if r[4]]
    summary = {"n": n, "m": m, "b": b, "tau": tau, "delta": delta,
               "pairs": [r[5] for r in rows],
               "failing_pairs": failed}
    checks = [_check("simulations_hold", not failed, failed, [])]
    return ExperimentReport(
        experiment=config.experiment,
        columns=("seed", "error", "rounds", "samples", "violations",
                 "pair", "baseline_error", "margin"),
        descriptions={
            "seed": "shared evaluation seed",
            "error": "mean population loss of the composed method",
            "rounds": "unused for comparisons, always 0",
            "samples": "unused for comparisons, always 0",
            "violations": "1 when the simulation bound fails",
            "pair": "stage list of the composed method",
            "baseline_error": "mean population loss of the payload",
            "margin": "allowed slack: delta plus three stderr",
        },
        rows=rows, summary=summary, checks=checks)


_RUNNERS = {
    "ExtractStats": _run_extract_stats,
    "ParityEndToEnd": _run_parity_end_to_end,
    "RegimeSweep": _run_regime_sweep,
    "GadgetAudit": _run_gadget_audit,
    "ReductionMatrix": _run_reduction_matrix,
}


# --- report emission ----------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_reports(config: ExperimentConfig,
                   report: ExperimentReport) -> None:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"# experiment: {report.experiment}"]
    for col in report.columns:
        desc = report.descriptions.get(col, "")
        lines.append(f"# {col}: {desc}")
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_cell(v) for v in row[:len(report.columns)]))
    (out / "results.csv").write_text("\n".join(lines) + "\n")

    payload = {
        "experiment": report.experiment,
        "config": {
            "trials": config.trials,
            "seed": config.seed,
            "distribution": config.distribution,
            "params": config.params,
            "out_of_regime": config.out_of_regime,
        },
        "summary": report.summary,
        "checks": report.checks,
        "passed": report.passed,
    }
    (out / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")

    log = [f"experiment: {report.experiment}",
           f"trials: {config.trials}",
           f"seed: {config.seed}",
           f"rows: {len(report.rows)}"]
    for check in report.checks:
        verdict = "PASS" if check["passed"] else "FAIL"
        limit = f" limit={check['limit']}" if "limit" in check else ""
        log.append(f"{verdict} {check['name']} value={check['value']}{limit}")
    log.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    (out / "run.log").write_text("\n".join(log) + "\n")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one configured experiment and write its three report files."""
    runner = _RUNNERS[config.experiment]
    report = runner(config)
    _write_reports(config, report)
    return report


# --- transcript verification --------------------------------------------


@dataclass(frozen=True)
class RoundVerdict:
    index: int
    kind: str
    ok: bool
    note: str = ""


@dataclass
class VerifyReport:
    path: str
    kind: str
    verdicts: list[RoundVerdict]
    flagged: int

    @property
    def ok(self) -> bool:
        return self.flagged == 0


def _as_vector(payload, index: int) -> np.ndarray:
    if isinstance(payload, dict):
        if set(payload) != {"idx", "val"}:
            raise ValueError(f"round {index}: sparse payload needs keys "
                             f"idx and val, got {sorted(payload)}")
        size = (max(payload["idx"]) + 1) if payload["idx"] else 0
        out = np.zeros(size)
        for i, v in zip(payload["idx"], payload["val"]):
            out[int(i)] = float(v)
        return out
    return np.atleast_1d(np.asarray(payload, dtype=float))


def _aligned(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    size = max(len(a), len(v))
    out_a = np.zeros(size)
    out_v = np.zeros(size)
    out_a[:len(a)] = a
    out_v[:len(v)] = v
    return out_a, out_v


def verify_transcript(path: str | Path) -> VerifyReport:
    """Re-check every recorded oracle round against its validity rule.

    Gradient transcripts must satisfy the grid-rounding contract round
    by round; query transcripts (population, fresh-batch, frozen-batch
    and replayed) must stay within tolerance of the recorded mean.
    Rounds missing the data needed for the check are flagged rather
    than skipped; a dict payload other than {"idx", "val"} raises
    ValueError naming its round.
    """
    transcript = Transcript.from_jsonl(path)
    kind = str(transcript.meta.get("kind", "unknown"))
    verdicts: list[RoundVerdict] = []
    for rec in transcript.records:
        if rec.response is None or rec.exact_mean is None:
            verdicts.append(RoundVerdict(rec.index, rec.kind, False,
                                         "missing response or mean"))
            continue
        response, mean = _aligned(_as_vector(rec.response, rec.index),
                                  _as_vector(rec.exact_mean, rec.index))
        if rec.kind in ("bsgd", "fbgd"):
            rho = float(transcript.meta["rho"])
            if np.max(np.abs(mean)) > 1.0 + 1e-9:
                verdicts.append(RoundVerdict(rec.index, rec.kind, False,
                                             "clipped mean left [-1, 1]"))
                continue
            ok = bool(valid_rounding(response, mean, rho))
            note = "" if ok else "response violates the rounding contract"
        elif rec.kind in ("sq", "bsq", "fbsq", "replay"):
            tau = float(transcript.meta["tau"])
            gap = float(np.max(np.abs(response - mean))) if len(mean) \
                else 0.0
            ok = gap <= tau + 1e-12
            note = "" if ok else f"response off the recorded mean by {gap}"
        else:
            ok, note = False, f"no validity rule for kind {rec.kind!r}"
        verdicts.append(RoundVerdict(rec.index, rec.kind, ok, note))
    flagged = sum(1 for v in verdicts if not v.ok)
    return VerifyReport(path=str(path), kind=kind, verdicts=verdicts,
                        flagged=flagged)


# --- command line -------------------------------------------------------


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    report = run_experiment(config)
    for check in report.checks:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"{verdict} {check['name']} value={check['value']}")
    print(f"result: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.rows)} rows -> {config.out})")
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    try:
        report = verify_transcript(args.transcript)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot verify {args.transcript}: {exc}",
              file=sys.stderr)
        return 2
    for v in report.verdicts:
        line = f"round {v.index} kind={v.kind}: " \
            + ("ok" if v.ok else f"FLAGGED ({v.note})")
        print(line)
    print(f"result: {'PASS' if report.ok else 'FAIL'} "
          f"({report.flagged} of {len(report.verdicts)} rounds flagged)")
    return 0 if report.ok else 1


def _cmd_extract_stats(args) -> int:
    config = ExperimentConfig(
        experiment="ExtractStats", trials=args.trials, seed=args.seed,
        out=args.out, distribution=args.distribution,
        params={"n": args.n, "b": args.b, "tau": args.tau,
                "adversary": args.adversary,
                **({"tv_max": args.tv_max}
                   if args.tv_max is not None else {})})
    report = run_experiment(config)
    s = report.summary
    print(f"extracted {s['extracted']}/{config.trials} "
          f"mean_rounds={s['mean_rounds']} tv={s['tv_distance']}")
    print(f"result: {'PASS' if report.passed else 'FAIL'} -> {config.out}")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    values = [int(v) for v in args.values.split(",") if v.strip()]
    config = ExperimentConfig(
        experiment="RegimeSweep", trials=args.trials, seed=args.seed,
        out=args.out, distribution=args.distribution,
        params={"param": args.param, "values": values, "tau": args.tau})
    report = run_experiment(config)
    for row in report.rows:
        print(f"{args.param}={row[0]} validity_rate={row[6]}")
    print(f"result: {'PASS' if report.passed else 'FAIL'} -> {config.out}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Run desk-scale studies of oracle-mediated learning "
                    "methods and verify their transcripts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify",
                           help="re-check a recorded oracle transcript")
    p_ver.add_argument("transcript", help="path to a .jsonl transcript")
    p_ver.set_defaults(fn=_cmd_verify)

    p_ext = sub.add_parser("extract-stats",
                           help="sample-extraction statistics")
    p_ext.add_argument("--n", type=int, default=4)
    p_ext.add_argument("--b", type=int, default=8)
    p_ext.add_argument("--tau", type=_ratio, default="1/32")
    p_ext.add_argument("--trials", type=int, default=200)
    p_ext.add_argument("--seed", type=int, default=0)
    p_ext.add_argument("--out", default="lab-results")
    p_ext.add_argument("--adversary", default="plus",
                       choices=sorted(_ADVERSARIES))
    p_ext.add_argument("--distribution", default=None)
    p_ext.add_argument("--tv-max", dest="tv_max", type=float, default=None)
    p_ext.set_defaults(fn=_cmd_extract_stats)

    p_sw = sub.add_parser("sweep", help="sweep one parameter of the "
                                        "population-answer validity study")
    p_sw.add_argument("--param", default="b")
    p_sw.add_argument("--values", default="2,8,32,128")
    p_sw.add_argument("--tau", type=_ratio, default="1/16")
    p_sw.add_argument("--trials", type=int, default=400)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--out", default="lab-results")
    p_sw.add_argument("--distribution", default=None)
    p_sw.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
