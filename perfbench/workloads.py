"""The benchmark's four workloads, driven through gradlab's public API.

Each workload builds its inputs from the workload seed in its
constructor (input generation plus pipeline or net construction), runs
one trial per `trial(seed)` call, and checks outputs afterwards, outside
the timed region: `check` looks at one trial's outcome and
`run_checks` at the whole run.  The program only ever sees the
generated inputs; nothing here is tuned to a particular seed.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gradlab  # noqa: E402
from gradlab import (  # noqa: E402
    diffsim, extract, nn, numerics, paradigms, problems, reductions)

if Path(gradlab.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"gradlab was imported from {gradlab.__file__}, "
                      f"not from the checkout's {SRC}")


@dataclass
class Outcome:
    """What one trial returned, kept for the checks after timing.

    `counters` holds the per-layer counts the trial read off gradlab's
    own results (examples drawn, rounds, steps), summed in traced runs.
    """

    value: object
    counters: dict[str, float] = field(default_factory=dict)


def derive_seed(seed: int, *path: int) -> int:
    """Independent 62-bit seed for one use of the workload seed."""
    state = np.random.SeedSequence([seed, *path]).generate_state(2, np.uint32)
    return (int(state[0]) << 30) ^ int(state[1])


def tv_bound(support: int, trials: int, fail_prob: float = 1e-6) -> float:
    """Bound on the empirical TV distance of `trials` exact draws.

    E[TV] <= sqrt(support / trials) / 2 by Cauchy-Schwarz, and TV moves
    by at most 1/trials per draw, so McDiarmid adds
    sqrt(ln(1/fail_prob) / (2 trials)) at the given failure rate.
    """
    return (0.5 * math.sqrt(support / trials)
            + math.sqrt(math.log(1.0 / fail_prob) / (2.0 * trials)))


def empirical_tv(codes, D) -> float:
    """TV distance between the drawn joint codes and D."""
    counts: dict[int, int] = {}
    for code in codes:
        counts[code] = counts.get(code, 0) + 1
    target = {int(c): float(p) for c, p in zip(D.joint_codes, D.probs)}
    return 0.5 * sum(abs(counts.get(c, 0) / len(codes) - target.get(c, 0.0))
                     for c in set(counts) | set(target))


class ExtractWorkload:
    """extract_m_samples (repeated sample_extract) on a fresh BSQOracle.

    A trial pulls `m` examples rather than one: a single extraction's
    latency has a heavy tail of retry rounds whose shape depends on the
    seeded distribution, and summing eight of them keeps the tail
    percentile steady from run to run.
    """

    name = "extract"
    n, support, b, tau, m, round_budget = 8, 256, 16, 1 / 64, 8, 4096

    def __init__(self, seed: int):
        self.D = problems.FiniteDistribution.random(self.n, self.support,
                                                    derive_seed(seed, 1))
        self.codes = {int(c) for c in self.D.joint_codes}

    def boundaries(self):
        return []

    def trial(self, seed: int) -> Outcome:
        oracle = paradigms.BSQOracle(
            self.D, self.b, self.tau, paradigms.NoiseAdversary.PLUS_TAU,
            seed=seed, record=False)
        got = extract.extract_m_samples(oracle, self.m, self.round_budget,
                                        seed=derive_seed(seed, 2))
        return Outcome(got, {
            "paradigms.examples_drawn": oracle.samples_consumed,
            "extract.rounds": oracle.rounds,
            "extract.examples": len(got) if isinstance(got, list) else 0})

    def check(self, out: Outcome) -> str | None:
        if not isinstance(out.value, list) or len(out.value) != self.m:
            return f"extraction returned {out.value!r}"
        for example in out.value:
            if example.joint_code() not in self.codes:
                return f"extracted {example}, not in the support"
        return None

    def run_checks(self, outcomes) -> list[str]:
        codes = [ex.joint_code() for o in outcomes
                 if isinstance(o.value, list) for ex in o.value]
        if not codes:
            return []
        tv = empirical_tv(codes, self.D)
        bound = tv_bound(self.support, len(codes))
        if tv > bound:
            return [f"extracted examples sit at TV {tv:.4f} from the source, "
                    f"above {bound:.4f} for {len(codes)} draws"]
        return []


class PipelineWorkload:
    """A compiled reduction pipeline trained under the trajectory auditor.

    The audit program mirrors the compiled stack without the diffsim
    stage, exactly as the ParityEndToEnd experiment builds it.
    """

    stages: tuple[str, ...]
    params: dict

    def __init__(self, seed: int):
        n = self.params["n"]
        rng = np.random.default_rng(derive_seed(seed, 1))
        mask = [int(v) for v in rng.integers(0, 2, size=n)]
        if not any(mask):
            mask[int(rng.integers(0, n))] = 1
        self.D = problems.FiniteDistribution.parity(
            n, tuple(mask), bias=int(rng.integers(0, 2)))
        self.method, report = reductions.build_pipeline(
            list(self.stages), payload="parity", **self.params)
        self.rho = self.method.rho
        self.delta_stage = report.derived["delta_per_stage"]
        audit_method, _ = reductions.build_pipeline(
            list(self.stages[:-1]), payload="parity",
            **{**self.params, "delta": self.delta_stage})
        self.audit_program = audit_method.program
        self.seed = seed

    def boundaries(self):
        model = self.method.model
        return [(self.method, "run", "paradigms.descent", False),
                (model, "loss_gradient", "diffsim.gradient", True),
                (model, "value", "diffsim.value", True)]

    def trial(self, seed: int) -> Outcome:
        auditor = diffsim.TrajectoryAuditor(self.audit_program, self.rho)
        out = self.method.run(self.D, seed=seed, record=False,
                              hook=auditor.hook)
        loss = problems.population_loss(
            self.D, problems.clip_predictor(out.predictor))
        audit = auditor.audit
        return Outcome((audit, loss), {
            "paradigms.examples_drawn": out.transcript.samples_consumed,
            "paradigms.descent_steps": audit.rounds,
            "diffsim.active_rounds": audit.active_rounds})

    def check(self, out: Outcome) -> str | None:
        audit, loss = out.value
        if not audit.ok:
            return "audit: " + "; ".join(audit.violations[:3])
        if audit.rounds != self.method.T:
            return f"audit saw {audit.rounds} rounds, expected {self.method.T}"
        if not 0.0 <= loss <= 4.0:
            return f"population loss {loss} out of range"
        return None

    def run_checks(self, outcomes) -> list[str]:
        """Mean loss within delta + 3 stderr of the payload's own error."""
        losses = np.array([o.value[1] for o in outcomes], dtype=float)
        if len(losses) == 0:
            return []
        payload, _ = reductions.build_pipeline(
            [], payload="parity", n=self.params["n"], m=self.params["m"])
        baseline = paradigms.eval_method_error(payload, self.D, len(losses),
                                               derive_seed(self.seed, 3))
        stderr = (float(losses.std(ddof=1) / math.sqrt(len(losses)))
                  if len(losses) > 1 else 0.0)
        delta = self.params["delta"]
        limit = baseline.mean + delta + 3.0 * math.hypot(stderr,
                                                         baseline.stderr)
        if losses.mean() > limit:
            return [f"mean loss {losses.mean():.4f} above payload baseline "
                    f"{baseline.mean:.4f} + delta + 3 stderr = {limit:.4f}"]
        return []


class BSGDPipelineWorkload(PipelineWorkload):
    name = "bsgd_pipeline"
    stages = ("pac_to_bsq", "bsq_alternating", "diffsim")
    params = {"n": 4, "m": 8, "b": 4, "rho": 1 / 64, "delta": 0.1}


class FBGDPipelineWorkload(PipelineWorkload):
    name = "fbgd_pipeline"
    stages = ("pac_to_fbsq", "bsq_alternating", "diffsim")
    params = {"n": 6, "m": 12, "m_batch": 24, "rho": 1 / 256, "delta": 0.1}


def _inputs(n: int) -> tuple[str, ...]:
    return tuple(f"x{k}" for k in range(n))


def emulation_program(seed: int, n: int, rounds: int, arity: int,
                      digits: int, threshold: int) -> nn.EmulationProgram:
    """Seeded circuit program whose digit circuits read only input bits.

    Every digit is mux(x_a, x_b, x_c) of three distinct seeded inputs
    and the output circuit is mux(register >= threshold, x_a, x_b) on
    the first-digit register of one seeded query, so the net's size is
    the same for every seed and each answer can be checked from the
    batch.
    """
    rng = np.random.default_rng(derive_seed(seed, 2))
    xs = _inputs(n)

    def digit() -> nn.Circuit:
        b = nn.CircuitBuilder(xs)
        a, c, d = (xs[k] for k in rng.choice(n, 3, replace=False))
        return b.build(b.mux(a, c, d))

    circuits = tuple(tuple(tuple(digit() for _ in range(digits))
                           for _ in range(arity)) for _ in range(rounds))
    t, j = int(rng.integers(1, rounds + 1)), int(rng.integers(0, arity))
    regs = [nn.reg_wire(t, j, 1, bit) for bit in range(digits + 2)]
    ob = nn.CircuitBuilder(xs + tuple(regs))
    a, c = (xs[k] for k in rng.choice(n, 2, replace=False))
    out = ob.mux(ob.ge_const(regs, threshold), a, c)
    return nn.EmulationProgram(rounds=rounds, arity=arity, n_inputs=n,
                               digit_circuits=circuits,
                               output_circuit=ob.build(out))


class EmulationWorkload:
    """A compiled emulation net retrained from its compiled weights."""

    name = "emulation"
    n, rounds, arity, tau, b, support, threshold = 4, 4, 2, 1 / 16, 16, 24, 24

    def __init__(self, seed: int):
        digits = numerics.grid_exponent(self.tau) + 2
        self.prog = emulation_program(seed, self.n, self.rounds, self.arity,
                                      digits, self.threshold)
        self.D = problems.FiniteDistribution.random(self.n, self.support,
                                                    derive_seed(seed, 1))
        self.net, self.layout = nn.build_emulation_net(self.prog, self.tau)
        self.compiled = self.net.weights.copy()
        self.frozen = np.array(self.layout.frozen_edges, dtype=int)
        self.xs = [tuple((code >> (self.n - 1 - k)) & 1 for k in range(self.n))
                   for code in range(1 << self.n)]
        # reference query values per input, from the circuit interpreter
        self.digit_value = {
            (t, j): [sum(2.0 ** -i for i, circ in enumerate(per_digit, 1)
                         if self._eval(circ, x))
                     for x in self.xs]
            for t, per_round in enumerate(self.prog.digit_circuits, 1)
            for j, per_digit in enumerate(per_round)}
        out = self.prog.output_circuit
        self.out_regs = {
            w: self._register_vertex(w) for w in out.inputs
            if w not in _inputs(self.n)}

    def _eval(self, circuit: nn.Circuit, assignment) -> bool:
        if isinstance(assignment, tuple):
            assignment = {f"x{k}": bool(v) for k, v in enumerate(assignment)}
        return nn.evaluate_circuit(circuit, assignment)[circuit.outputs[0]]

    def _register_vertex(self, wire: str) -> str:
        for key, gadget in self.layout.gadgets.items():
            if key[0] != "q":
                continue
            _, t, j, i = key
            for bit, vertex in enumerate(gadget.register_names):
                if nn.reg_wire(t, j, i, bit) == wire:
                    return vertex
        raise KeyError(wire)

    def boundaries(self):
        return []

    def trial(self, seed: int) -> Outcome:
        net, layout = self.net, self.layout
        net.set_weights(self.compiled)
        run = nn.train_emulation(net, layout, self.D, b=self.b, seed=seed)
        act = net.forward(self.xs[0])
        answers = {(t, j): nn.query_answer(act, layout, t, j)
                   for t in range(1, layout.rounds + 1)
                   for j in range(layout.arity)}
        clocks = [nn.recorded_count(net, layout.gadgets[("clk", t)])
                  for t in range(1, layout.rounds + 1)]
        registers = {w: act[v] for w, v in self.out_regs.items()}
        predictions = [net.value(x) for x in self.xs]
        batches = [rec.batch_codes for rec in run.transcript.records]
        moved = int(np.count_nonzero(
            net.weights[self.frozen] != self.compiled[self.frozen]))
        return Outcome(
            (answers, clocks, registers, predictions, batches, moved),
            {"paradigms.examples_drawn": run.transcript.samples_consumed,
             "paradigms.descent_steps": run.transcript.rounds,
             "nn.frozen_edges_moved": moved})

    def batch_statistic(self, t: int, j: int, codes) -> float:
        """Mean over the batch of the round-t query j on matching labels."""
        label = 1 if t % 2 == 1 else 0
        mask = (1 << self.n) - 1
        values = self.digit_value[(t, j)]
        return sum(values[c & mask] for c in codes
                   if c >> self.n == label) / len(codes)

    def check(self, out: Outcome) -> str | None:
        answers, clocks, registers, predictions, batches, moved = out.value
        if moved:
            return f"{moved} frozen edges moved"
        if len(batches) != self.rounds or min(clocks) < 1.0:
            return f"clocks {clocks} over {len(batches)} rounds"
        for (t, j), answer in answers.items():
            want = self.batch_statistic(t, j, batches[t - 1])
            if abs(answer - want) > self.tau + 1e-12:
                return (f"round {t} query {j} answered {answer}, batch "
                        f"statistic {want}")
        bits = {}
        for wire, a in registers.items():
            if a not in (2.0, -2.0):
                return f"register {wire} reads {a}, off its shelves"
            bits[wire] = a == 2.0
        for x, pred in zip(self.xs, predictions):
            assignment = {f"x{k}": bool(v) for k, v in enumerate(x)}
            assignment.update(bits)
            want = float(self._eval(self.prog.output_circuit, assignment))
            if pred != want:
                return f"prediction {pred} at {x}, circuit says {want}"
        return None

    def run_checks(self, outcomes) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (ExtractWorkload, BSGDPipelineWorkload,
                                 FBGDPipelineWorkload, EmulationWorkload)}


def static_boundaries():
    """Module and class attributes traced on every workload."""
    return [
        (paradigms.BSQOracle, "ask", "paradigms.oracle_ask", False),
        (paradigms.SQQuery, "evaluate", "paradigms.query_eval", True),
        (extract, "sample_extract", "extract.sample_extract", False),
        (extract, "recover_batch_average", "numerics.recover", False),
        (paradigms, "round_approximate", "numerics.round", True),
        (diffsim.TrajectoryAuditor, "hook", "diffsim.audit", True),
        (nn, "run_bsgd", "paradigms.descent", False),
        (nn.NeuralNet, "gradient", "nn.gradient", True),
        (nn.NeuralNet, "value", "nn.value", True),
        (reductions, "build_pipeline", "reductions.build_pipeline", False),
        (diffsim, "compile_program", "diffsim.compile", False),
        (nn, "build_emulation_net", "nn.build", False),
        (problems, "population_loss", "problems.population_loss", False),
    ]
