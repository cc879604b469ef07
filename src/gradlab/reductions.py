"""Transformations turning methods of one query paradigm into another.

Each transformer wraps a method's query program in an adapter that
reshapes its queries for a different oracle: repeating and averaging to
sharpen tolerance, splitting vector queries into scalars, splitting by
label to satisfy the alternating-round discipline, discretizing
responses onto a coarse grid, or replacing gradient steps by gradient
queries.  Sample extraction turns batched-query access back into raw
training sets.  `build_pipeline` composes these stages from a JSON-like
description and records the derived parameters.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import clip1, round_nearest_multiple
from .paradigms import (
    BSGDMethod,
    BSQMethod,
    DiffModel,
    ErrorEstimate,
    FBGDMethod,
    FBSQMethod,
    LabelRestriction,
    ModelSnapshot,
    NoiseAdversary,
    PACMethod,
    QueryProgram,
    SQMethod,
    SQQuery,
    Transcript,
    _QueryOracle,
    eval_method_error,
    parity_learner,
)
from .problems import (
    Example,
    FiniteDistribution,
    TablePredictor,
    ZeroPredictor,
)
from .extract import ExtractionProgram

__all__ = [
    "PipelineError",
    "ReductionReport",
    "ReplayOracle",
    "bsgd_to_bsq",
    "bsq_to_sq",
    "build_pipeline",
    "compare_methods",
    "decode_examples",
    "fbsq_to_sq",
    "pac_to_bsq",
    "pac_to_fbsq",
    "population_violation_rate",
    "repeat_count",
    "sq_split_alternating",
    "sq_to_bsq",
    "sq_to_fbsq",
]


@dataclass
class ReductionReport:
    """Outcome record of one simulation: who simulated whom, how well.

    The error fields are filled by `compare_methods`; `build_pipeline`
    uses the same type and fills only the derived parameters.  On a
    passing comparison the violation counter stays zero.
    """

    source: str
    target: str
    delta: float
    err_source: ErrorEstimate | None = None
    err_target: ErrorEstimate | None = None
    violations: int = 0
    derived: dict = field(default_factory=dict)

    @property
    def margin(self) -> float | None:
        """Allowed slack: delta plus three combined standard errors."""
        if self.err_source is None or self.err_target is None:
            return None
        spread = math.hypot(self.err_source.stderr, self.err_target.stderr)
        return self.delta + 3.0 * spread

    @property
    def holds(self) -> bool | None:
        if self.margin is None:
            return None
        if self.violations:
            return False
        return self.err_target.mean <= self.err_source.mean + self.margin


class PipelineError(ValueError):
    """A stage list cannot be composed as requested."""


# ---------------------------------------------------------------------------
# shared wrappers around query programs


@dataclass(eq=False)
class _AdaptedProgram:
    """A query program reshaped for another oracle.

    Every inner query becomes the `per_query` queries listed by
    `split(query)`; once all of them are answered, `merge(responses)`
    folds the answers into the one response the inner run receives.
    """

    inner: QueryProgram
    per_query: int
    arity: int
    split: Callable[[SQQuery], list[SQQuery]]
    merge: Callable[[list], Sequence[float]]
    alternating: bool = False

    @property
    def rounds(self) -> int:
        return self.inner.rounds * self.per_query

    @property
    def random_bits(self) -> int:
        return self.inner.random_bits

    def start(self, bits):
        return _AdaptedRun(self, self.inner.start(bits))


class _AdaptedRun:
    def __init__(self, prog: _AdaptedProgram, inner):
        self.prog = prog
        self.inner = inner
        self.pending: list[SQQuery] | None = None
        self.answers: list = []

    @property
    def bits_consumed(self) -> int:
        return int(getattr(self.inner, "bits_consumed", 0))

    def next_query(self) -> SQQuery | None:
        if self.pending is None:
            base = self.inner.next_query()
            if base is None:
                return None
            self.pending = self.prog.split(base)
            self.answers = []
        return self.pending[len(self.answers)]

    def receive(self, response: Sequence[float]) -> None:
        self.answers.append(response)
        if len(self.answers) == len(self.pending):
            self.inner.receive(self.prog.merge(self.answers))
            self.pending = None

    def predictor(self):
        return self.inner.predictor()


def _label_scaled_query(query: SQQuery, label: int) -> SQQuery:
    """Restrict a scalar query to one label: y*phi or (1-y)*phi."""

    def evaluate(example: Example) -> np.ndarray:
        weight = float(example.y if label == 1 else 1 - example.y)
        return weight * query.evaluate(example)

    def block(bits: np.ndarray) -> np.ndarray | None:
        vals, y = query.block_values(bits), bits[:, :1].astype(float)
        return None if vals is None else (y if label == 1 else 1 - y) * vals

    restriction = (LabelRestriction.ONE_QUERY if label == 1
                   else LabelRestriction.ZERO_QUERY)
    return SQQuery(arity=query.arity, evaluator=evaluate,
                   restriction=restriction, name=f"{query.name}|y={label}",
                   block=query.block and block)


def _coordinate_query(query: SQQuery, j: int) -> SQQuery:
    def evaluate(example: Example) -> np.ndarray:
        return query.evaluate(example)[j:j + 1]

    def block(bits: np.ndarray) -> np.ndarray | None:
        vals = query.block_values(bits)
        return None if vals is None else vals[:, j:j + 1]

    return SQQuery(arity=1, evaluator=evaluate, restriction=query.restriction,
                   name=f"{query.name}[{j}]", block=query.block and block)


def _check_scalar(inner: QueryProgram, q: int, what: str) -> None:
    if inner.arity != 1:
        raise ValueError(f"{what} wraps scalar-query programs")
    if q <= 0:
        raise ValueError("need q >= 1 repeats")


def _repeat(inner: QueryProgram, q: int) -> _AdaptedProgram:
    """Ask each scalar query q times in a row and feed back the average.

    The repeats are one query object, so support caching applies.
    """
    _check_scalar(inner, q, "repeat-averaging")
    return _AdaptedProgram(
        inner, q, 1, split=lambda query: [query] * q,
        merge=lambda answers: [float(np.mean([float(a[0]) for a in answers]))])


def _label_split(inner: QueryProgram, q: int = 1) -> _AdaptedProgram:
    """Replace each scalar query by alternating one-label halves.

    Round pairs ask y*phi on the odd slot and (1-y)*phi on the even
    slot, q repeats of each, interleaved; the two averages are summed
    and returned to the wrapped program as its answer.  With q=1 this
    is the plain label split.
    """
    _check_scalar(inner, q, "label splitting")

    def split(query: SQQuery) -> list[SQQuery]:
        return [_label_scaled_query(query, 1),
                _label_scaled_query(query, 0)] * q

    def merge(answers: list) -> list[float]:
        ones = zeros = 0.0
        for one, zero in zip(answers[::2], answers[1::2]):
            ones += float(one[0])
            zeros += float(zero[0])
        return [(ones + zeros) / q]

    return _AdaptedProgram(inner, 2 * q, 1, split, merge, alternating=True)


def _scalarize(inner: QueryProgram, grid: float | None) -> _AdaptedProgram:
    """Ask a vector program's queries one coordinate at a time.

    Optionally snaps each reassembled response vector onto a grid
    before handing it back, so the wrapped method only ever sees a
    bounded number of distinct transcripts.
    """
    width = inner.arity

    def merge(answers: list) -> np.ndarray:
        vector = np.asarray([float(a[0]) for a in answers])
        if grid is not None:
            vector = round_nearest_multiple(vector, grid)
        return vector

    return _AdaptedProgram(
        inner, width, 1,
        split=lambda query: [_coordinate_query(query, j) for j in range(width)],
        merge=merge)


def _snap(inner: QueryProgram, grid: float) -> _AdaptedProgram:
    """Pass queries through; snap every response onto a grid.

    Queries keep their restrictions one to one, so an alternating inner
    program stays alternating.
    """
    return _AdaptedProgram(
        inner, 1, inner.arity, split=lambda query: [query],
        merge=lambda answers: round_nearest_multiple(
            np.asarray(answers[0], dtype=float), grid),
        alternating=getattr(inner, "alternating", False))


# ---------------------------------------------------------------------------
# sample extraction as a method transformer


def pac_to_bsq(pac: PACMethod, b: int, tau: float, delta: float, n: int, *,
               alternating: bool = False) -> BSQMethod:
    """Simulate a sample-based learner with batched statistical queries.

    Budgets enough rounds that extraction of all m training examples
    fails with probability at most delta; a failed run degrades to the
    zero predictor.  Requires b*tau < 1/2 so counts recover exactly.
    """
    if delta <= 0:
        raise ValueError("need delta > 0")
    scale = 20 if alternating else 10
    rounds = math.ceil(scale * pac.m * (n + 1) / delta)
    program = ExtractionProgram(n=n, b=b, tau=tau, m=pac.m, rounds=rounds,
                                learner=pac.learn, learner_bits=pac.r,
                                alternating=alternating,
                                name=f"extract-{pac.name}")
    return BSQMethod(k=rounds, tau=tau, b=b, program=program,
                     name=f"bsq[{pac.name}]")


def pac_to_fbsq(pac: PACMethod, m: int, tau: float, n: int, *,
                alternating: bool = False) -> FBSQMethod:
    """Simulate a sample-based learner with frozen-batch queries.

    Recovers the learner's m training examples from the hidden batch by
    without-replacement extraction; no failure branch and no error
    slack.  Requires m*tau < 1/2 and a batch at least as large as the
    learner's sample size.
    """
    if m < pac.m:
        raise ValueError(f"batch of {m} cannot supply {pac.m} examples")
    scale = 2 if alternating else 1
    rounds = scale * pac.m * (n + 1)
    program = ExtractionProgram(n=n, b=m, tau=tau, m=pac.m, rounds=rounds,
                                learner=pac.learn, learner_bits=pac.r,
                                alternating=alternating, fixed_batch=True,
                                name=f"fb-extract-{pac.name}")
    return FBSQMethod(k=rounds, tau=tau, m=m, program=program,
                      name=f"fbsq[{pac.name}]")


# ---------------------------------------------------------------------------
# tolerance trades between population and batch queries


def repeat_count(k: int, b: int, tau: float, delta: float, *,
                 alternating: bool = False) -> int:
    """Repeats per query so averaged batch answers stay tau-accurate.

    Standard form: each query at tolerance tau/2, sampling slack tau/2,
    union bound over k queries.  Alternating form: each one-label half
    at tolerance tau/4 with its own tau/4 sampling slack, union bound
    over 2k halves.
    """
    if alternating:
        return math.ceil(32.0 * math.log(8 * k / delta) / (b * tau * tau))
    return math.ceil(8.0 * math.log(4 * k / delta) / (b * tau * tau))


def sq_to_bsq(sq: SQMethod, b: int, delta: float, *,
              alternating: bool = False) -> BSQMethod:
    """Answer population queries by averaging repeated batch queries."""
    q = repeat_count(sq.k, b, sq.tau, delta, alternating=alternating)
    if alternating:
        program = _label_split(sq.program, q)
        tau = sq.tau / 4
        rounds = 2 * sq.k * q
    else:
        program = _repeat(sq.program, q)
        tau = sq.tau / 2
        rounds = sq.k * q
    return BSQMethod(k=rounds, tau=tau, b=b, program=program,
                     name=f"bsq[{sq.name}]")


def bsq_to_sq(bsq: BSQMethod, delta: float) -> SQMethod:
    """Answer batch queries from the population, coordinate by coordinate.

    Valid with failure probability delta only in the concentration
    regime b*tau^2 >= 8*ln(4*k*p/delta); outside it the construction
    still runs (for regime sweeps) but warns.
    """
    p = bsq.program.arity
    needed = 8.0 * math.log(4 * bsq.k * p / delta)
    if bsq.b * bsq.tau ** 2 < needed:
        warnings.warn(
            f"population answers need b*tau^2 >= {needed:.3g}, "
            f"got {bsq.b * bsq.tau ** 2:.3g}; proceeding without guarantee",
            RuntimeWarning, stacklevel=2)
    program = _scalarize(bsq.program, grid=None)
    return SQMethod(k=bsq.k * p, tau=bsq.tau / 2, program=program,
                    name=f"sq[{bsq.name}]")


def sq_split_alternating(sq: SQMethod) -> SQMethod:
    """Split every query into one-label halves on alternating rounds."""
    program = _label_split(sq.program, q=1)
    return SQMethod(k=2 * sq.k, tau=sq.tau / 2, program=program,
                    name=f"{sq.name}-split")


def sq_to_fbsq(sq: SQMethod, m: int, delta: float) -> FBSQMethod:
    """Answer population queries from one frozen batch.

    Responses are snapped onto the tau/2 grid before the wrapped method
    sees them, so only boundedly many transcripts are reachable and one
    union bound covers the batch's adaptively chosen queries.  Regime:
    m*tau^2 >= 32*(k*ln(4/tau + 1) + ln(4/delta)).
    """
    tau = sq.tau
    needed = 32.0 * (sq.k * math.log(4.0 / tau + 1.0)
                     + math.log(4.0 / delta))
    if m * tau * tau < needed:
        warnings.warn(
            f"frozen-batch answers need m*tau^2 >= {needed:.3g}, "
            f"got {m * tau * tau:.3g}; proceeding without guarantee",
            RuntimeWarning, stacklevel=2)
    program = _snap(sq.program, grid=tau / 2)
    return FBSQMethod(k=sq.k, tau=tau / 2, m=m, program=program,
                      name=f"fbsq[{sq.name}]")


def fbsq_to_sq(fbsq: FBSQMethod, delta: float) -> SQMethod:
    """Answer frozen-batch queries from the population.

    Scalarizes each vector query and snaps the reassembled response
    onto the tau/2 grid.  Regime: m*tau^2 >= 32*(k*p*ln(4/tau + 1) +
    ln(4*p/delta)).
    """
    tau = fbsq.tau
    p = fbsq.program.arity
    needed = 32.0 * (fbsq.k * p * math.log(4.0 / tau + 1.0)
                     + math.log(4.0 * p / delta))
    if fbsq.m * tau * tau < needed:
        warnings.warn(
            f"population answers need m*tau^2 >= {needed:.3g}, "
            f"got {fbsq.m * tau * tau:.3g}; proceeding without guarantee",
            RuntimeWarning, stacklevel=2)
    program = _scalarize(fbsq.program, grid=tau / 2)
    return SQMethod(k=fbsq.k * p, tau=tau / 2, program=program,
                    name=f"sq[{fbsq.name}]")


# ---------------------------------------------------------------------------
# gradient methods as query methods


@dataclass(eq=False)
class _GradientQueryProgram:
    """Each descent step becomes one clipped-gradient vector query."""

    model: DiffModel
    T: int
    rho: float
    gamma: float

    @property
    def rounds(self) -> int:
        return self.T

    @property
    def arity(self) -> int:
        return self.model.dim

    @property
    def random_bits(self) -> int:
        return self.model.random_bits

    def start(self, bits):
        return _GradientQueryRun(self, bits)


class _GradientQueryRun:
    def __init__(self, prog: _GradientQueryProgram, bits):
        self.prog = prog
        self.w = np.array(prog.model.init(tuple(bits)), dtype=float)
        self.steps = 0

    def next_query(self) -> SQQuery | None:
        prog = self.prog
        if self.steps >= prog.T:
            return None
        w_now = self.w.copy()

        def evaluate(example: Example) -> np.ndarray:
            g = prog.model.loss_gradient(w_now, example)
            if isinstance(g, dict):
                dense = np.zeros(prog.model.dim)
                for idx, val in g.items():
                    dense[idx] = val
                g = dense
            return clip1(np.asarray(g, dtype=float))

        return SQQuery(arity=prog.model.dim, evaluator=evaluate,
                       name=f"grad-step-{self.steps}")

    def receive(self, response: Sequence[float]) -> None:
        snapped = round_nearest_multiple(np.asarray(response, dtype=float),
                                         self.prog.rho)
        self.w = self.w - self.prog.gamma * snapped
        self.steps += 1

    def predictor(self):
        return ModelSnapshot(self.prog.model, self.w.copy())


def bsgd_to_bsq(model: DiffModel, T: int, rho: float, b: int,
                gamma: float = 1.0) -> BSQMethod:
    """Replace each stochastic descent step by one batch gradient query.

    The oracle runs at a quarter of the gradient precision; snapping
    its response back onto the precision grid lands within 3/4 of a
    grid step of the true batch gradient, which is exactly the validity
    band of the descent rule.
    """
    program = _GradientQueryProgram(model, T, rho, gamma)
    return BSQMethod(k=T, tau=rho / 4, b=b, program=program,
                     name=f"bsq[{model.name or 'model'}]")


# ---------------------------------------------------------------------------
# replay and validity checking


def _code_table(D: FiniteDistribution) -> dict[int, Example]:
    return {int(c): ex for c, ex in zip(D.joint_codes, D.support)}


def _decode(table: dict[int, Example],
            codes: Sequence[int]) -> tuple[Example, ...]:
    try:
        return tuple(table[int(c)] for c in codes)
    except KeyError as err:
        raise ValueError(f"code {err} not in the support") from None


def decode_examples(D: FiniteDistribution,
                    codes: Sequence[int]) -> tuple[Example, ...]:
    """Map recorded joint codes back to support examples."""
    return _decode(_code_table(D), codes)


class ReplayOracle(_QueryOracle):
    """Answers queries against batches replayed from a recorded run.

    Feeding it the batch codes of an earlier transcript makes two
    different transports see literally the same hidden data, which
    turns distributional comparisons into exact ones.
    """

    kind = "replay"

    def __init__(self, D: FiniteDistribution,
                 batch_code_rounds: Sequence[Sequence[int]], tau: float,
                 adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
                 seed: int = 0, record: bool = True):
        table = _code_table(D)
        self.batches = [_decode(table, codes) for codes in batch_code_rounds]
        super().__init__(tau, adversary, seed, record)
        self.transcript = Transcript(
            meta={"kind": self.kind, "tau": self.tau,
                  "rounds_available": len(self.batches)})

    def _rows(self, query: SQQuery):
        if self.rounds >= len(self.batches):
            raise RuntimeError("replay oracle ran out of recorded batches")
        items = self.batches[self.rounds]
        vals = query.evaluate(items)
        return vals, vals.mean(axis=0), [ex.joint_code() for ex in items]


def population_violation_rate(D: FiniteDistribution, query: SQQuery, b: int,
                              tau: float, trials: int, seed: int = 0,
                              response: Sequence[float] | None = None,
                              ) -> float:
    """How often a population answer fails batch validity.

    Draws fresh hidden batches and checks whether the candidate
    response (the exact population expectation unless one is supplied)
    stays within tau of the batch average in every coordinate.
    """
    if b <= 0:
        raise ValueError("batch size must be positive")
    if trials <= 0:
        raise ValueError("need at least one trial")
    vals = query.evaluate(D.support, D.joint_bits)
    exact = D.probs @ vals
    candidate = exact if response is None else np.asarray(response, float)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C1]))
    violations = 0
    for _ in range(trials):
        batch_mean = vals[D.draw_indices(rng, b)].mean(axis=0)
        if np.max(np.abs(candidate - batch_mean)) > tau + 1e-12:
            violations += 1
    return violations / trials


# ---------------------------------------------------------------------------
# empirical simulation check


def compare_methods(source, target, D: FiniteDistribution, delta: float,
                    trials: int = 50, seed: int = 0) -> ReductionReport:
    """Empirical check that target simulates source within delta.

    Both methods are evaluated on the same per-trial seed stream; the
    simulation claim passes when the target's mean error exceeds the
    source's by at most delta plus three combined standard errors.
    """
    err_source = eval_method_error(source, D, trials, seed)
    err_target = eval_method_error(target, D, trials, seed)
    return ReductionReport(
        source=getattr(source, "name", type(source).__name__),
        target=getattr(target, "name", type(target).__name__),
        delta=delta, err_source=err_source, err_target=err_target)


# ---------------------------------------------------------------------------
# pipeline assembly


_PAYLOADS: dict[str, Callable[[dict], object]] = {}


def _payload(name: str):
    def register(fn):
        _PAYLOADS[name] = fn
        return fn
    return register


@_payload("parity")
def _parity_payload(params: dict) -> PACMethod:
    n = int(params["n"])
    m = int(params.get("m", 2 * n))
    return parity_learner(n, m)


@_payload("zero")
def _zero_payload(params: dict) -> PACMethod:
    return PACMethod(m=1, r=0, learn=lambda items, bits: ZeroPredictor(),
                     name="zero")


@_payload("constant")
def _constant_payload(params: dict) -> PACMethod:
    value = float(params.get("value", 1.0))
    return PACMethod(m=1, r=0,
                     learn=lambda items, bits: TablePredictor({}, value),
                     name=f"constant({value})")


def _resolve_tau(params: dict) -> float:
    if "tau" in params:
        return float(params["tau"])
    if "rho" in params:
        return 4.0 * float(params["rho"])
    raise PipelineError("params must give tau or rho")


def build_pipeline(spec, payload=None, **extra_params):
    """Compose reduction stages into one runnable method.

    `spec` is either a list of stage names or a mapping with keys
    "pipeline", "payload" and "params".  Stages transform the running
    method left to right; "bsq_alternating" upgrades the previous
    batched-query stage to the alternating discipline, and "diffsim"
    compiles an alternating batched-query method into a gradient
    method.  Returns (method, report) where the report carries every
    derived parameter.
    """
    if isinstance(spec, dict):
        stages = list(spec.get("pipeline", []))
        params = dict(spec.get("params", {}))
        params.update(extra_params)
        if payload is None:
            payload = spec.get("payload")
    else:
        stages = list(spec)
        params = dict(extra_params)
    if isinstance(payload, str):
        if payload not in _PAYLOADS:
            raise PipelineError(f"unknown payload {payload!r}")
        payload = _PAYLOADS[payload](params)
    if payload is None:
        raise PipelineError("no payload method given")

    delta_total = float(params.get("delta", 0.1))
    major = [s for s in stages if s != "bsq_alternating"]
    delta_stage = delta_total / 2 if len(major) >= 2 else delta_total

    current = payload
    derived: dict = {"stages": list(stages), "delta": delta_total,
                     "delta_per_stage": delta_stage}
    rebuild_alternating: Callable[[], object] | None = None

    for stage in stages:
        if stage == "pac_to_bsq":
            if not isinstance(current, PACMethod):
                raise PipelineError("pac_to_bsq needs a sample-based payload")
            pac = current
            n = int(params["n"])
            b = int(params["b"])
            tau = _resolve_tau(params)
            if not b * tau < 0.5:
                raise PipelineError(
                    f"extraction impossible: batch {b} at tolerance {tau} "
                    f"(precision must stay below 1/(8b))")
            current = pac_to_bsq(pac, b, tau, delta_stage, n)
            rebuild_alternating = lambda pac=pac, b=b, tau=tau, n=n: \
                pac_to_bsq(pac, b, tau, delta_stage, n, alternating=True)
            derived[stage] = {"k": current.k, "tau": tau, "b": b,
                              "p": current.program.arity,
                              "r": current.program.random_bits}
        elif stage == "pac_to_fbsq":
            if not isinstance(current, PACMethod):
                raise PipelineError("pac_to_fbsq needs a sample-based payload")
            pac = current
            n = int(params["n"])
            m = int(params.get("m_batch", params.get("m", pac.m)))
            tau = _resolve_tau(params)
            current = pac_to_fbsq(pac, m, tau, n)
            rebuild_alternating = lambda pac=pac, m=m, tau=tau, n=n: \
                pac_to_fbsq(pac, m, tau, n, alternating=True)
            derived[stage] = {"k": current.k, "tau": tau, "m": m,
                              "p": current.program.arity,
                              "r": current.program.random_bits}
        elif stage == "sq_to_bsq":
            if not isinstance(current, SQMethod):
                raise PipelineError("sq_to_bsq needs a population-query method")
            sq = current
            b = int(params["b"])
            current = sq_to_bsq(sq, b, delta_stage)
            rebuild_alternating = lambda sq=sq, b=b: \
                sq_to_bsq(sq, b, delta_stage, alternating=True)
            derived[stage] = {"k": current.k, "tau": current.tau, "b": b,
                              "q": repeat_count(sq.k, b, sq.tau, delta_stage)}
        elif stage == "bsq_alternating":
            if rebuild_alternating is None:
                raise PipelineError(
                    "bsq_alternating must follow a batched-query stage")
            current = rebuild_alternating()
            rebuild_alternating = None
            derived[stage] = {"k": current.k,
                              "r": current.program.random_bits}
        elif stage == "bsq_to_sq":
            if not isinstance(current, BSQMethod):
                raise PipelineError("bsq_to_sq needs a batched-query method")
            current = bsq_to_sq(current, delta_stage)
            derived[stage] = {"k": current.k, "tau": current.tau}
        elif stage == "sq_split_alternating":
            if not isinstance(current, SQMethod):
                raise PipelineError(
                    "sq_split_alternating needs a population-query method")
            current = sq_split_alternating(current)
            derived[stage] = {"k": current.k, "tau": current.tau}
        elif stage == "sq_to_fbsq":
            if not isinstance(current, SQMethod):
                raise PipelineError("sq_to_fbsq needs a population-query method")
            m = int(params["m_batch"] if "m_batch" in params else params["m"])
            current = sq_to_fbsq(current, m, delta_stage)
            derived[stage] = {"k": current.k, "tau": current.tau, "m": m}
        elif stage == "fbsq_to_sq":
            if not isinstance(current, FBSQMethod):
                raise PipelineError("fbsq_to_sq needs a frozen-batch method")
            current = fbsq_to_sq(current, delta_stage)
            derived[stage] = {"k": current.k, "tau": current.tau}
        elif stage == "bsgd_to_bsq":
            if not isinstance(current, BSGDMethod):
                raise PipelineError("bsgd_to_bsq needs a gradient method")
            current = bsgd_to_bsq(current.model, current.T, current.rho,
                                  current.b, current.gamma)
            derived[stage] = {"k": current.k, "tau": current.tau}
        elif stage == "diffsim":
            if not isinstance(current, (BSQMethod, FBSQMethod)):
                raise PipelineError("diffsim needs a batched-query method")
            if not getattr(current.program, "alternating", False):
                raise PipelineError(
                    "diffsim compiles alternating methods; insert "
                    "bsq_alternating first")
            from . import diffsim as _diffsim

            rho = current.tau / 4
            model = _diffsim.compile_program(current.program, rho)
            if isinstance(current, BSQMethod):
                compiled = BSGDMethod(model, T=current.k, rho=rho,
                                      b=current.b, gamma=1.0,
                                      name=f"bsgd[{current.name}]")
            else:
                compiled = FBGDMethod(model, T=current.k, rho=rho,
                                      m=current.m, gamma=1.0,
                                      name=f"fbgd[{current.name}]")
            current = compiled
            derived[stage] = {"T": current.T, "rho": rho, "p": model.dim,
                              "r": model.random_bits}
        else:
            raise PipelineError(f"unknown stage {stage!r}")

    report = ReductionReport(
        source=getattr(payload, "name", type(payload).__name__),
        target=getattr(current, "name", type(current).__name__),
        delta=delta_total, derived=derived)
    return current, report
