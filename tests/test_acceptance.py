"""Acceptance gates: one test per pinned end-to-end guarantee.

Each test fixes sizes, tolerances, and budgets and fails loudly if any
of them slips.  Run with -v to get one pass/fail line per gate.
"""
import math
import time

import numpy as np
import pytest

from gradlab.cli import ExperimentConfig, run_experiment
from gradlab.diffsim import (
    TrajectoryAuditor,
    build_single_query_model,
    compile_program,
    gradient_check,
)
from gradlab.extract import Failure, fb_extract_all, sample_extract
from gradlab.nn import (
    CONST,
    INPUT,
    OUTPUT,
    Circuit,
    Gate,
    NeuralNet,
    as_model,
    build_circuit_gadget,
    build_count_probe,
    evaluate_circuit,
    read_register,
    recorded_count,
    train_on_batches,
)
from gradlab.numerics import (
    RoundingOracle,
    RoundingStrategy,
    recover_batch_average,
    round_approximate,
    valid_rounding,
)
from gradlab.paradigms import (
    BSQOracle,
    FBSQOracle,
    GeneratorProgram,
    LabelRestriction,
    NoiseAdversary,
    SQMethod,
    SQQuery,
    eval_method_error,
    run_bsgd,
)
from gradlab.problems import (
    Batch,
    Example,
    FiniteDistribution,
    clip_predictor,
    population_loss,
)
from gradlab.reductions import (
    build_pipeline,
    population_violation_rate,
    repeat_count,
    sq_to_bsq,
)

STRATEGIES = (RoundingStrategy.NEAREST, RoundingStrategy.ADVERSARIAL_UP,
              RoundingStrategy.ADVERSARIAL_DOWN)


def four_point(n: int = 4) -> FiniteDistribution:
    pad = (0,) * (n - 4)
    pts = [((0, 0, 0, 0), 0, 0.4), ((1, 0, 1, 0), 1, 0.3),
           ((0, 1, 1, 0), 1, 0.2), ((1, 1, 1, 1), 0, 0.1)]
    return FiniteDistribution(
        n, [(Example(x + pad, y), p) for x, y, p in pts])


def parity_distribution(n: int) -> FiniteDistribution:
    entries = []
    for code in range(1 << n):
        x = tuple((code >> (n - 1 - k)) & 1 for k in range(n))
        entries.append((Example(x, sum(x) % 2), 1.0 / (1 << n)))
    return FiniteDistribution(n, entries)


def binary_inputs(n: int):
    for code in range(1 << n):
        yield tuple((code >> (n - 1 - k)) & 1 for k in range(n))


def test_01_rounding_validity_fuzz():
    rng = np.random.default_rng(0xACC1)
    strategies = list(RoundingStrategy)
    cases = 0
    start = time.perf_counter()
    for i in range(100_000):
        dim = 1 + (i % 6)
        rho = 2.0 ** -int(rng.integers(1, 13))
        kind = i % 5
        if kind == 4:
            # grid points and band edges are the touchy spots
            q_lim = max(1, int(1.0 / rho) - 1)
            q = rng.integers(-q_lim, q_lim + 1, size=dim)
            v = np.clip(q * rho
                        + rho * rng.choice((-0.25, 0.0, 0.25, 0.5)),
                        -1.0, 1.0)
        else:
            v = rng.uniform(-1.0, 1.0, size=dim)
        oracle = RoundingOracle(strategy=strategies[i % 4], seed=i)
        g = round_approximate(v, rho, oracle)
        assert valid_rounding(g, v, rho), (v, rho, oracle.strategy)
        cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 100_000
    assert elapsed < 5.0, f"fuzz took {elapsed:.2f}s"


def test_02_batch_average_recovery_exhaustive():
    failures = 0
    for b in range(1, 65):
        tau = 0.5
        while b * tau >= 0.5:
            tau /= 2.0
        for k in range(b + 1):
            for signed in (tau, -tau):
                got = recover_batch_average(k / b + signed, b, tau)
                if got.numerator != k or got.denominator != b:
                    failures += 1
    assert failures == 0


def test_03_extraction_fidelity_under_up_noise():
    n, b, tau, trials = 4, 8, 1 / 32, 10_000
    D = four_point(n)
    target = {int(c): float(p) for c, p in zip(D.joint_codes, D.probs)}
    counts: dict[int, int] = {}
    total_rounds = 0
    start = time.perf_counter()
    for trial in range(trials):
        oracle = BSQOracle(D, b=b, tau=tau,
                           adversary=NoiseAdversary.PLUS_TAU,
                           seed=trial, record=False)
        got = sample_extract(oracle, n=n, b=b, tau=tau, seed=trial)
        assert not isinstance(got, Failure)
        example, rounds = got
        total_rounds += rounds
        code = example.joint_code()
        counts[code] = counts.get(code, 0) + 1
    elapsed = time.perf_counter() - start
    tv = 0.5 * sum(abs(counts.get(c, 0) / trials - target.get(c, 0.0))
                   for c in set(counts) | set(target))
    mean_rounds = total_rounds / trials
    assert tv <= 0.03, f"tv distance {tv}"
    assert mean_rounds <= 10 * (n + 1), f"mean rounds {mean_rounds}"
    assert elapsed < 60.0, f"extraction took {elapsed:.1f}s"


def test_04_full_batch_recovery():
    n, m, tau = 4, 8, 1 / 32
    D = four_point(n)
    for trial in range(100):
        rng = np.random.default_rng(trial)
        items = tuple(D.support[i]
                      for i in rng.integers(0, len(D.support), size=m))
        batch = Batch(items=items, draw_seed=trial)
        oracle = FBSQOracle(batch, tau=tau, seed=trial)
        already: list[Example] = []
        for _ in range(m):
            already.append(fb_extract_all(oracle, n=n, tau=tau,
                                          already=already, seed=trial))
        assert sorted(ex.joint_code() for ex in already) \
            == sorted(ex.joint_code() for ex in items)
        assert oracle.rounds <= m * (n + 1)


def test_05_one_step_query_contract():
    rho = 2.0 ** -6
    eps = 2.0 * rho
    D = FiniteDistribution(2, [
        (Example((0, 0), 0), 0.4), (Example((0, 1), 1), 0.3),
        (Example((1, 0), 1), 0.2), (Example((1, 1), 0), 0.1)])
    support = {ex.joint_code(): ex for ex, _ in D.entries}
    worst = (RoundingStrategy.ADVERSARIAL_UP,
             RoundingStrategy.ADVERSARIAL_DOWN)
    rng = np.random.default_rng(0xACC5)
    for trial in range(1000):
        table = {ex.x: rng.uniform(-1, 1, size=2) for ex, _ in D.entries}
        query = SQQuery(arity=2,
                        evaluator=lambda ex, t=table: ex.y * t[ex.x],
                        restriction=LabelRestriction.ONE_QUERY)
        model = build_single_query_model(query, epsilon=eps)
        out = run_bsgd(model, D, T=1, rho=rho, b=4, seed=trial,
                       rounding=RoundingOracle(strategy=worst[trial % 2],
                                               seed=trial))
        batch = [support[c]
                 for c in out.transcript.records[0].batch_codes]
        avg = np.mean([query.evaluate(ex) for ex in batch], axis=0)
        theta = out.final_params[:2]
        kappa = out.final_params[2]
        assert np.max(np.abs(theta - avg)) <= eps + rho + 1e-12
        assert kappa >= eps - rho - 1e-12


def test_06_pipeline_trajectory_claims():
    n, m, b, rho, delta = 6, 12, 4, 1 / 64, 0.1
    trials = 200
    D = parity_distribution(n)
    method, report = build_pipeline(
        ["pac_to_bsq", "bsq_alternating", "diffsim"], payload="parity",
        n=n, m=m, b=b, rho=rho, delta=delta)
    audit_method, _ = build_pipeline(
        ["pac_to_bsq", "bsq_alternating"], payload="parity",
        n=n, m=m, b=b, rho=rho,
        delta=report.derived["delta_per_stage"])
    start = time.perf_counter()
    errors = []
    for trial in range(trials):
        # per round the auditor re-checks the four trained invariants:
        # frozen blocks untouched, responses within 3*rho of the batch
        # average, the active clock fired, responses on the grid
        auditor = TrajectoryAuditor(audit_method.program, rho)
        out = method.run(D, seed=trial, record=False, hook=auditor.hook)
        audit = auditor.check()
        assert audit.ok, audit.violations[:3]
        assert audit.rounds == method.T
        errors.append(population_loss(D, clip_predictor(out.predictor)))
    elapsed = time.perf_counter() - start
    baseline_method, _ = build_pipeline(
        {"pipeline": [], "payload": "parity",
         "params": {"n": n, "m": m}})
    baseline = eval_method_error(baseline_method, D, trials, seed=0)
    composed = float(np.mean(errors))
    assert composed <= baseline.mean + delta, (composed, baseline.mean)
    assert elapsed < 300.0, f"trajectory gate took {elapsed:.1f}s"


def test_07_population_answer_regimes():
    D = FiniteDistribution(1, [(Example((0,), 0), 0.7),
                               (Example((1,), 1), 0.3)])
    query = SQQuery(arity=1, evaluator=lambda ex: (float(ex.y),),
                    name="label-mean")
    in_regime = population_violation_rate(D, query, b=10_000, tau=0.25,
                                          trials=1000, seed=0)
    out_regime = population_violation_rate(D, query, b=2, tau=0.25,
                                           trials=1000, seed=0)
    assert in_regime <= 0.01, in_regime
    assert out_regime >= 0.2, out_regime


def test_08_repeat_averaging_accuracy():
    k, b, tau, delta, trials = 4, 2, 1 / 8, 0.05, 1000
    D = four_point()
    queries = [
        SQQuery(1, lambda ex: [float(ex.y)], name="label"),
        SQQuery(1, lambda ex: [float(ex.x[0])], name="x0"),
        SQQuery(1, lambda ex: [float(ex.x[1])], name="x1"),
        SQQuery(1, lambda ex: [float(ex.x[0] ^ ex.x[3])], name="x0^x3"),
    ]
    exact = [D.expectation(lambda ex, q=q: q.evaluate(ex)[0])
             for q in queries]
    program = GeneratorProgram(
        rounds=k, arity=1, random_bits=0,
        query_generator=lambda t, bits, resp: queries[t - 1],
        final_predictor=lambda bits, resp: tuple(r[0] for r in resp))
    sq = SQMethod(k=k, tau=tau, program=program)
    averaged = sq_to_bsq(sq, b=b, delta=delta)
    want_q = math.ceil(8.0 * math.log(4 * k / delta) / (b * tau * tau))
    assert repeat_count(k, b, tau, delta) == want_q == 1477
    hits = 0
    for trial in range(trials):
        out = averaged.run(D, seed=trial,
                           adversary=NoiseAdversary.SEEDED_RANDOM,
                           record=False)
        if all(abs(got - val) <= tau
               for got, val in zip(out.predictor, exact)):
            hits += 1
    assert hits / trials >= 0.95, hits


def random_circuit(rng, n_inputs: int, n_gates: int) -> Circuit:
    inputs = tuple(f"i{k}" for k in range(n_inputs))
    wires = list(inputs)
    gates = []
    for g in range(n_gates):
        op = ("not", "and", "or", "and", "or", "true", "false")[
            int(rng.integers(0, 7))]
        arity = {"not": 1, "and": 2, "or": 2}.get(op, 0)
        args = tuple(wires[int(rng.integers(0, len(wires)))]
                     for _ in range(arity))
        gates.append(Gate(f"n{g}", op, args))
        wires.append(f"n{g}")
    out = wires[-1] if gates else inputs[0]
    return Circuit(inputs, tuple(gates), (out,))


def circuit_net(circuit: Circuit):
    net = NeuralNet(len(circuit.inputs))
    net.add_vertex("out", OUTPUT)
    sources = {w: (f"x{k}", 0.0, 1.0)
               for k, w in enumerate(circuit.inputs)}
    wiremap = build_circuit_gadget(net, circuit, sources)
    net.add_edge(wiremap[circuit.outputs[0]], "out", 0.1)
    return net, wiremap


def test_09_circuit_emulation_exact():
    rng = np.random.default_rng(0xACC9)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        circuit = random_circuit(rng, n, int(rng.integers(1, 51)))
        net, wiremap = circuit_net(circuit)
        xs = rng.integers(0, 2, size=(100, n))
        for row in xs:
            x = tuple(int(v) for v in row)
            truth = evaluate_circuit(
                circuit, {f"i{k}": bool(x[k]) for k in range(n)})
            act = net.forward(x)
            for wire, vertex in wiremap.items():
                assert act[vertex] == (2.0 if truth[wire] else -2.0)
        frozen = [e for e in range(net.n_edges) if not net.trainable[e]]
        before = net.weights.copy()
        probe = tuple(int(v) for v in xs[0])
        batches = [Batch((Example(tuple(int(v) for v in xs[j]),
                                  int(rng.integers(0, 2))),))
                   for j in range(3)]
        runs = train_on_batches(net, batches, rho=1 / 8, gamma=2.0)
        for run in runs:
            assert all(run.final_params[e] == before[e] for e in frozen)
            grad = net.gradient(probe, 1)
            assert all(grad[e] == 0.0 for e in frozen)
        assert len(runs) == 3


def test_10_counting_gadget_discipline():
    tau = 1 / 16
    for variant, agree in (("ones", 0), ("zeros", 1)):
        # the opened gadget leaks exactly one twenty-fourth to the output
        net, gadget = build_count_probe(tau, variant)
        act = net.forward((1,))
        contribution = float(net.weights[gadget.output_edge]) \
            * act[gadget.collector]
        assert contribution == (1.0 if variant == "ones" else -1.0) / 24.0
        for strategy in STRATEGIES:
            for b in range(1, 7):
                for pattern in range(1 << b):
                    ys = [(pattern >> i) & 1 for i in range(b)]
                    net, gadget = build_count_probe(tau, variant)
                    span = [e for e in range(net.n_edges)
                            if net.names[net.edge_dst[e]].startswith(
                                gadget.prefix + ".")
                            or e == gadget.output_edge]
                    oracle = RoundingOracle(strategy=strategy)
                    train_on_batches(
                        net, [Batch(tuple(Example((1,), y) for y in ys))],
                        rho=tau, gamma=2.0, rounding=oracle)
                    count = recorded_count(net, gadget)
                    mismatches = sum(1 for y in ys if y != agree)
                    ideal = (mismatches * (1 + 2 * tau)
                             + (b - mismatches) * 2 * tau) / (b * tau)
                    assert count == int(count) and int(count) % 2 == 0
                    assert abs(count - ideal) <= 1.5 + 1e-9
                    assert read_register(net.forward((0,)), gadget) \
                        == int(count)
                    recorded = net.weights.copy()
                    assert recorded[gadget.memory_edge] != 1.0 / 12.0
                    for step in range(2):
                        train_on_batches(
                            net,
                            [Batch((Example((0,), step % 2),
                                    Example((0,), 1 - step % 2)))],
                            rho=tau, gamma=2.0, rounding=oracle)
                        after = net.weights
                        assert all(after[e] == recorded[e] for e in span)


def preactivations(net: NeuralNet, x) -> dict:
    act = net.forward(x)
    z = {name: 0.0 for name in net.names}
    for e in range(net.n_edges):
        z[net.names[net.edge_dst[e]]] += \
            float(net.weights[e]) * act[net.names[net.edge_src[e]]]
    return z


def random_net(rng, n_inputs=3, n_internal=8, margin=1e-3) -> NeuralNet:
    breakpoints = (-3.0, -1.0, 0.0, 2.0)
    for _ in range(300):
        net = NeuralNet(n_inputs)
        net.add_vertex("out", OUTPUT)
        pool = [f"x{k}" for k in range(n_inputs)] + ["one"]
        for v in range(n_internal):
            name = f"v{v}"
            net.add_vertex(name)
            fan = int(rng.integers(1, 4))
            picks = rng.choice(len(pool), size=min(fan, len(pool)),
                               replace=False)
            for s in picks:
                net.add_edge(pool[int(s)], name,
                             float(rng.uniform(-1.4, 1.4)))
            pool.append(name)
        for s in rng.choice(n_internal, size=min(3, n_internal),
                            replace=False):
            net.add_edge(f"v{int(s)}", "out", float(rng.uniform(-1, 1)))
        clear = True
        for x in binary_inputs(n_inputs):
            z = preactivations(net, x)
            for i, name in enumerate(net.names):
                if net.roles[i] in (INPUT, CONST):
                    continue
                if min(abs(z[name] - bp) for bp in breakpoints) <= margin:
                    clear = False
                    break
            if not clear:
                break
        if clear:
            return net
    raise AssertionError("could not sample a margin-clear net")


def echo_program(rounds: int) -> GeneratorProgram:
    def gen(t, bits, responses):
        if t % 2 == 1:
            return SQQuery(
                arity=1,
                evaluator=lambda ex: np.array([float(ex.y * ex.x[0])]),
                restriction=LabelRestriction.ONE_QUERY, name=f"one-{t}")
        return SQQuery(
            arity=1,
            evaluator=lambda ex: np.array([float((1 - ex.y) * ex.x[0])]),
            restriction=LabelRestriction.ZERO_QUERY, name=f"zero-{t}")

    def fin(bits, responses):
        total = float(sum(v[0] for v in responses))
        return lambda x: total

    return GeneratorProgram(rounds=rounds, arity=1, random_bits=0,
                            query_generator=gen, final_predictor=fin,
                            alternating=True, name="echo")


def test_11_gradient_finite_difference_agreement():
    rng = np.random.default_rng(0xACCB)
    D = FiniteDistribution(2, [
        (Example((0, 0), 0), 0.4), (Example((0, 1), 1), 0.3),
        (Example((1, 0), 1), 0.2), (Example((1, 1), 0), 0.1)])

    for _ in range(100):
        n = int(rng.integers(2, 4))
        net = random_net(rng, n_inputs=n,
                         n_internal=int(rng.integers(5, 9)),
                         margin=1e-4)
        model = as_model(net)
        w = net.weights.copy()
        for _ in range(2):
            x = tuple(int(v) for v in rng.integers(0, 2, size=n))
            ex = Example(x, int(rng.integers(0, 2)))
            summary = gradient_check(model, w, ex)
            assert summary["max_rel_err"] <= 1e-5

    rho = 2.0 ** -6
    eps = 2.0 * rho
    checked = 0
    for trial in range(60):
        table = {ex.x: rng.uniform(-1, 1, size=2) for ex, _ in D.entries}
        query = SQQuery(arity=2,
                        evaluator=lambda ex, t=table: ex.y * t[ex.x],
                        restriction=LabelRestriction.ONE_QUERY)
        model = build_single_query_model(query, epsilon=eps)
        w = np.round(rng.uniform(-0.5, 0.5, model.dim) * 64) / 64 \
            + 1.0 / 256.0
        ex = Example((1, 0), 1) if trial % 2 else Example((0, 1), 0)
        summary = gradient_check(model, w, ex)
        assert summary["max_rel_err"] <= 1e-5
        checked += 1
    for trial in range(40):
        rounds = 1 + trial % 4
        model = compile_program(echo_program(rounds), rho)
        iterates = []
        run_bsgd(model, D, T=rounds, rho=rho, b=4, seed=trial,
                 hook=lambda info: iterates.append(info.w.copy()))
        for w in (np.zeros(model.dim), iterates[-1]):
            ex = Example((1, 1), 1) if trial % 2 else Example((1, 0), 0)
            summary = gradient_check(model, w, ex)
            assert summary["max_rel_err"] <= 1e-5
            assert summary["max_zero_fd"] <= 1e-7
        checked += 1
    assert checked == 100


def test_12_deterministic_reports(tmp_path):
    cases = [
        ("ExtractStats", 200, {"tv_max": 0.25}),
        ("RegimeSweep", 400, {}),
    ]
    for experiment, trials, params in cases:
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{experiment}-{tag}"
            config = ExperimentConfig(experiment=experiment,
                                      trials=trials, seed=0,
                                      out=str(out), params=params)
            report = run_experiment(config)
            assert report.passed
            blobs.append(tuple(
                (out / name).read_bytes()
                for name in ("results.csv", "summary.json", "run.log")))
        assert blobs[0] == blobs[1], experiment
