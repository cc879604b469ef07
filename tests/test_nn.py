"""Tests for flat-shelf nets, counting gadgets, and program emulation."""
import dataclasses
import hashlib

import numpy as np
import pytest

from gradlab.diffsim import gradient_check
from gradlab.nn import (
    CONST,
    INPUT,
    OUTPUT,
    Circuit,
    CircuitBuilder,
    EmulationProgram,
    FrozenEdgeError,
    Gate,
    NetStructureError,
    NeuralNet,
    QueryGadget,
    RegisterStateError,
    as_model,
    build_circuit_gadget,
    build_count_probe,
    build_emulation_net,
    build_query_gadget,
    clock_wire,
    evaluate_circuit,
    query_answer,
    read_register,
    recorded_count,
    reg_wire,
    sigma,
    sigma_prime,
    train_emulation,
    train_on_batches,
)
from gradlab.numerics import (
    GridError,
    RoundingOracle,
    RoundingStrategy,
    round_nearest_multiple,
)
from gradlab.paradigms import run_fbgd
from gradlab.problems import Batch, Example, FiniteDistribution

STRATEGIES = (RoundingStrategy.NEAREST, RoundingStrategy.ADVERSARIAL_UP,
              RoundingStrategy.ADVERSARIAL_DOWN)


def preactivations(net: NeuralNet, x) -> dict:
    act = net.forward(x)
    z = {name: 0.0 for name in net.names}
    for e in range(net.n_edges):
        src = net.names[net.edge_src[e]]
        dst = net.names[net.edge_dst[e]]
        z[dst] += float(net.weights[e]) * act[src]
    return z


def binary_inputs(n: int):
    for code in range(1 << n):
        yield tuple((code >> (n - 1 - k)) & 1 for k in range(n))


def random_net(rng, n_inputs=3, n_internal=8, margin=1e-3) -> NeuralNet:
    """Random DAG whose pre-activations keep clear of the breakpoints."""
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
                net.add_edge(pool[int(s)], name, float(rng.uniform(-1.4, 1.4)))
            pool.append(name)
        for s in rng.choice(n_internal, size=min(3, n_internal),
                            replace=False):
            net.add_edge(f"v{int(s)}", "out", float(rng.uniform(-1.0, 1.0)))
        ok = True
        for x in binary_inputs(n_inputs):
            z = preactivations(net, x)
            for i, name in enumerate(net.names):
                if net.roles[i] in (INPUT, CONST):
                    continue
                if min(abs(z[name] - bp) for bp in breakpoints) <= margin:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return net
    raise AssertionError("could not sample a margin-clear net")


class TestRampActivation:
    def test_piece_values(self):
        cases = [(-5.0, -2.0), (-3.5, -2.0), (-3.0, -2.0), (-2.0, -1.0),
                 (-1.0, 0.0), (-0.5, 0.0), (0.0, 0.0), (0.75, 0.75),
                 (1.0, 1.0), (2.0, 2.0), (2.5, 2.0), (10.0, 2.0)]
        for x, want in cases:
            assert sigma(x) == want, x

    def test_breakpoints_sit_on_ramps(self):
        for x in (-3.0, -1.0, 0.0, 2.0):
            assert sigma_prime(x) == 1.0, x
        assert sigma(-3.0) == -2.0
        assert sigma(-1.0) == 0.0
        assert sigma(0.0) == 0.0
        assert sigma(2.0) == 2.0

    def test_shelf_derivatives_zero(self):
        for x in (-10.0, -3.0001, -0.999, -0.001, 2.0001, 7.0):
            assert sigma_prime(x) == 0.0, x
        for x in (-2.9, -1.5, 0.001, 1.0, 1.999):
            assert sigma_prime(x) == 1.0, x

    def test_scripted_levels_exact(self):
        # the training script relies on these dyadic identities
        for d in (2, 4, 6):
            tau = 2.0 ** -d
            assert sigma(-(1.0 + 2.0 * tau)) == -2.0 * tau
            assert sigma(1.0 + 2.0 * tau) == 1.0 + 2.0 * tau


class TestNetEngine:
    def test_constant_passthrough(self):
        net = NeuralNet(0)
        net.add_vertex("out", OUTPUT)
        net.add_edge("one", "out", 0.7)
        assert net.value(()) == 0.7

    def test_ramp_applied(self):
        net = NeuralNet(1)
        net.add_vertex("out", OUTPUT)
        net.add_edge("x0", "out", -5.0)
        assert net.value((1,)) == -2.0
        assert net.value((0,)) == 0.0

    def test_duplicate_vertex_rejected(self):
        net = NeuralNet(1)
        net.add_vertex("v")
        with pytest.raises(NetStructureError):
            net.add_vertex("v")
        with pytest.raises(NetStructureError):
            net.add_vertex("x0")

    def test_edges_into_sources_rejected(self):
        net = NeuralNet(1)
        net.add_vertex("v")
        with pytest.raises(NetStructureError):
            net.add_edge("v", "x0", 1.0)
        with pytest.raises(NetStructureError):
            net.add_edge("v", "one", 1.0)

    def test_single_output(self):
        net = NeuralNet(1)
        net.add_vertex("out", OUTPUT)
        with pytest.raises(NetStructureError):
            net.add_vertex("out2", OUTPUT)

    def test_cycle_rejected(self):
        net = NeuralNet(1)
        net.add_vertex("out", OUTPUT)
        net.add_vertex("a")
        net.add_vertex("b")
        net.add_edge("a", "b", 1.0)
        net.add_edge("b", "a", 1.0)
        net.add_edge("b", "out", 1.0)
        with pytest.raises(NetStructureError):
            net.value((0,))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_net(rng)
            model = as_model(net)
            w = net.weights.copy()
            for x in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
                for y in (0, 1):
                    summary = gradient_check(model, w, Example(x, y))
                    assert summary["checked"] == net.n_edges

    def test_gradient_dead_on_shelves(self):
        net = NeuralNet(1)
        net.add_vertex("out", OUTPUT)
        net.add_vertex("v")
        net.add_edge("one", "v", 4.0)
        net.add_edge("v", "out", 3.0)
        g = net.gradient((0,), 0)
        # out input is 6, on the top shelf, so nothing propagates
        assert np.all(g == 0.0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(11)
        net = random_net(rng)
        copy = NeuralNet.from_json(net.to_json())
        assert copy.names == net.names
        assert copy.roles == net.roles
        assert copy.trainable == net.trainable
        assert np.array_equal(copy.weights, net.weights)
        for x in binary_inputs(net.n_inputs):
            assert copy.value(x) == net.value(x)

    def test_json_golden(self):
        net = NeuralNet(1)
        net.add_vertex("out", OUTPUT)
        net.add_vertex("v")
        net.add_edge("x0", "v", 0.5)
        net.add_edge("v", "out", -1.0, trainable=False)
        want = ('{"inputs":1,"vertices":[["out","output"],["v","internal"]],'
                '"edges":[["x0","v",0.5,true],["v","out",-1.0,false]]}')
        assert net.to_json() == want
        assert NeuralNet.from_json(want).to_json() == want

    def test_descent_step_hand_checked(self):
        net = NeuralNet(1)
        net.add_vertex("out", OUTPUT)
        net.add_edge("x0", "out", 0.5)
        net.add_edge("one", "out", 0.25)
        S = Batch((Example((1,), 1),))
        runs = train_on_batches(net, [S], rho=0.25, gamma=1.0)
        # o = 0.75 on the ramp, so both gradients are -0.25, on-grid
        assert np.array_equal(runs[0].final_params, [0.75, 0.5])
        assert np.array_equal(net.weights, [0.75, 0.5])

    def test_adapter_reads_live_weights(self):
        net = NeuralNet(0)
        net.add_vertex("out", OUTPUT)
        net.add_edge("one", "out", 0.25)
        model = as_model(net)
        assert model.init(()) == [0.25]
        net.set_weights([0.5])
        assert model.init(()) == [0.5]
        assert model.value(np.array([1.5]), ()) == 1.5


def eval_wire(circuit: Circuit, assignment, wire: str) -> bool:
    return evaluate_circuit(circuit, assignment)[wire]


class TestCircuitLayer:
    def test_interpreter_small_formula(self):
        b = CircuitBuilder(("p", "q"))
        out = b.or_(b.and_("p", b.not_("q")), b.and_(b.not_("p"), "q"))
        circ = b.build(out)
        for p in (False, True):
            for q in (False, True):
                got = eval_wire(circ, {"p": p, "q": q}, out)
                assert got == (p != q)

    def test_interpreter_rejects_malformed(self):
        with pytest.raises(ValueError):
            evaluate_circuit(Circuit(("a",), (Gate("g", "nand", ("a", "a")),),
                                     ("g",)), {"a": True})
        with pytest.raises(ValueError):
            evaluate_circuit(Circuit(("a",), (Gate("a", "not", ("a",)),),
                                     ("a",)), {"a": True})
        with pytest.raises(ValueError):
            evaluate_circuit(Circuit(("a",), (), ("missing",)), {"a": True})

    def test_builder_unknown_wire(self):
        b = CircuitBuilder(("a",))
        with pytest.raises(ValueError):
            b.and_("a", "nope")
        with pytest.raises(ValueError):
            b.build("nope")

    def test_constants(self):
        b = CircuitBuilder(())
        t, f = b.true(), b.false()
        circ = b.build((t, f))
        values = evaluate_circuit(circ, {})
        assert values[t] is True and values[f] is False

    def test_mux_exhaustive(self):
        b = CircuitBuilder(("s", "a", "c"))
        out = b.mux("s", "a", "c")
        circ = b.build(out)
        for s in (False, True):
            for a in (False, True):
                for c in (False, True):
                    got = eval_wire(circ, {"s": s, "a": a, "c": c}, out)
                    assert got == (a if s else c)

    def test_any_all(self):
        for n in range(4):
            wires = tuple(f"w{i}" for i in range(n))
            b = CircuitBuilder(wires)
            o_any, o_all = b.any_(wires), b.all_(wires)
            circ = b.build((o_any, o_all))
            for code in range(1 << n):
                bits = [bool((code >> i) & 1) for i in range(n)]
                values = evaluate_circuit(circ, dict(zip(wires, bits)))
                assert values[o_any] == any(bits)
                assert values[o_all] == all(bits)

    def test_ge_const_exhaustive(self):
        for n in range(1, 6):
            wires = tuple(f"b{i}" for i in range(n))
            for k in range(-1, (1 << n) + 2):
                b = CircuitBuilder(wires)
                out = b.ge_const(wires, k)
                circ = b.build(out)
                for m in range(1 << n):
                    bits = {f"b{i}": bool((m >> i) & 1) for i in range(n)}
                    assert eval_wire(circ, bits, out) == (m >= k), (n, k, m)


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
        name = f"n{g}"
        gates.append(Gate(name, op, args))
        wires.append(name)
    out = wires[-1] if gates else inputs[0]
    return Circuit(inputs, tuple(gates), (out,))


class TestFrozenCircuits:
    def source_map(self, circuit):
        return {w: (f"x{k}", 0.0, 1.0)
                for k, w in enumerate(circuit.inputs)}

    def build(self, circuit):
        net = NeuralNet(len(circuit.inputs))
        net.add_vertex("out", OUTPUT)
        wiremap = build_circuit_gadget(net, circuit, self.source_map(circuit))
        net.add_edge(wiremap[circuit.outputs[0]], "out", 0.1)
        return net, wiremap

    @pytest.mark.parametrize("gate", [Gate("g", "and", ("x0",)),
                                      Gate("g", "not", ("x0", "x1")),
                                      Gate("g", "true", ("x0",)),
                                      Gate("g", "xor", ("x0", "x1"))])
    def test_malformed_gates_rejected_like_the_interpreter(self, gate):
        bad = Circuit(inputs=("x0", "x1"), gates=(gate,), outputs=("g",))
        with pytest.raises(ValueError) as want:
            evaluate_circuit(bad, {"x0": True, "x1": False})
        net = NeuralNet(2)
        with pytest.raises(ValueError) as got:
            build_circuit_gadget(net, bad, self.source_map(bad))
        assert str(got.value) == str(want.value)
        assert net.to_json() == NeuralNet(2).to_json()

    def test_matches_interpreter(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            circ = random_circuit(rng, n, int(rng.integers(1, 26)))
            net, wiremap = self.build(circ)
            for x in binary_inputs(n):
                want = evaluate_circuit(
                    circ, {f"i{k}": bool(x[k]) for k in range(n)})
                act = net.forward(x)
                for wire, vertex in wiremap.items():
                    assert act[vertex] == (2.0 if want[wire] else -2.0), wire

    def test_vertices_pinned_to_shelves(self):
        rng = np.random.default_rng(29)
        circ = random_circuit(rng, 3, 20)
        net, wiremap = self.build(circ)
        created = set(wiremap.values()) - {f"x{k}" for k in range(3)}
        for x in binary_inputs(3):
            z = preactivations(net, x)
            for vertex in created:
                assert sigma_prime(z[vertex]) == 0.0, (x, vertex)
                assert abs(z[vertex]) >= 2.5

    def test_no_gradient_reaches_circuit(self):
        rng = np.random.default_rng(31)
        circ = random_circuit(rng, 2, 15)
        net, wiremap = self.build(circ)
        frozen = [e for e in range(net.n_edges) if not net.trainable[e]]
        assert len(frozen) >= 15
        for x in binary_inputs(2):
            for y in (0, 1):
                g = net.gradient(x, y)
                assert all(g[e] == 0.0 for e in frozen)

    def test_training_leaves_circuit_identical(self):
        rng = np.random.default_rng(37)
        circ = random_circuit(rng, 2, 12)
        for strategy in STRATEGIES:
            net, _ = self.build(circ)
            frozen = [e for e in range(net.n_edges) if not net.trainable[e]]
            before = net.weights.copy()
            S = Batch((Example((0, 1), 1), Example((1, 1), 0),
                       Example((0, 0), 1)))
            run = run_fbgd(as_model(net), S, T=3, rho=0.125, gamma=2.0,
                           rounding=RoundingOracle(strategy=strategy))
            after = run.final_params
            assert all(after[e] == before[e] for e in frozen)

    def test_conversion_spans(self):
        # a source on the -2/+2 shelves converts with weights 2 and 0
        net = NeuralNet(1)
        net.add_vertex("out", OUTPUT)
        net.add_vertex("src")
        net.add_edge("x0", "src", 8.0)
        net.add_edge("one", "src", -4.0)
        b = CircuitBuilder(("s",))
        circ = b.build(b.not_("s"))
        wiremap = build_circuit_gadget(net, circ, {"s": ("src", -2.0, 2.0)})
        conv = wiremap["s"]
        idx = [e for e in range(net.n_edges)
               if net.names[net.edge_dst[e]] == conv]
        assert [float(net.weights[e]) for e in idx] == [2.0, 0.0]
        assert net.forward((1,))[conv] == 2.0
        assert net.forward((0,))[conv] == -2.0


class TestCountingGadget:
    def test_requires_output_first(self):
        net = NeuralNet(1)
        with pytest.raises(NetStructureError):
            build_query_gadget(net, 1 / 16, "ones")

    def test_parameter_validation(self):
        net = NeuralNet(1)
        net.add_vertex("out", OUTPUT)
        with pytest.raises(ValueError):
            build_query_gadget(net, 1 / 8, "ones")
        with pytest.raises(ValueError):
            build_query_gadget(net, 0.0, "ones")
        with pytest.raises(ValueError):
            build_query_gadget(net, 1 / 16, "threes")

    def test_default_register_count(self):
        for tau, want in [(1 / 16, 6), (1 / 32, 7), (1 / 64, 8)]:
            net = NeuralNet(1)
            net.add_vertex("out", OUTPUT)
            g = build_query_gadget(net, tau, "ones")
            assert g.registers == want
            assert len(g.register_names) == want

    def test_idle_state(self):
        net, g = build_count_probe(1 / 16, "ones")
        act = net.forward((0,))
        assert act[g.gate] == 2.0
        assert act[g.arm_hi] == 2.0 and act[g.arm_lo] == -2.0
        assert act[g.collector] == 0.0
        assert all(act[r] == -2.0 for r in g.register_names)
        assert read_register(act, g) == 0

    def test_open_state_exact(self):
        for variant, sign in [("ones", 1.0), ("zeros", -1.0)]:
            net, g = build_count_probe(1 / 16, variant)
            act = net.forward((1,))
            assert act[g.gate] == 0.0
            assert act[g.collector] == 2.0 * (1.0 / 12.0)
            w = float(net.weights[g.output_edge])
            # the output contribution is exactly one twenty-fourth
            assert w * act[g.collector] == sign * (1.0 / 24.0)

    def test_memory_gradient_per_sample(self):
        tau = 1 / 16
        for variant, agree in [("ones", 0), ("zeros", 1)]:
            net, g = build_count_probe(tau, variant)
            for y, want in [(agree, -tau), (1 - agree, -(1 + 2 * tau) / 2)]:
                grad = net.gradient((1,), y)
                assert grad[g.memory_edge] == want, (variant, y)
                assert abs(grad[g.memory_edge]) < 1.0
            idle = net.gradient((0,), 1 - agree)
            assert idle[g.memory_edge] == 0.0

    def test_register_decode_exhaustive(self):
        tau = 1 / 16
        net, g = build_count_probe(tau, "ones", registers=4)
        for m in range(16):
            net.weights[g.memory_edge] = 1.0 / 12.0 + m * tau
            act = net.forward((0,))
            assert read_register(act, g) == m, m
            assert recorded_count(net, g) == pytest.approx(m)

    def test_register_read_error(self):
        net, g = build_count_probe(1 / 16, "ones")
        act = dict(net.forward((0,)))
        act[g.register_names[2]] = 0.5
        with pytest.raises(RegisterStateError):
            read_register(act, g)


def probe_step(net, items, *, tau, strategy=RoundingStrategy.NEAREST):
    oracle = RoundingOracle(strategy=strategy)
    return train_on_batches(net, [Batch(tuple(items))], rho=tau, gamma=2.0,
                            rounding=oracle)[0]


def gadget_edge_ids(net: NeuralNet, g: QueryGadget):
    span = []
    for e in range(net.n_edges):
        dst = net.names[net.edge_dst[e]]
        if dst.startswith(g.prefix + ".") or e == g.output_edge:
            span.append(e)
    return span


class TestCountProbe:
    def test_single_step_recording(self):
        tau = 1 / 16
        for variant, agree in [("ones", 0), ("zeros", 1)]:
            net, g = build_count_probe(tau, variant)
            items = [Example((1,), 1 - agree)] * 2 + [Example((1,), agree)] \
                + [Example((0,), agree)]
            probe_step(net, items, tau=tau)
            avg = -(2 * (1 + 2 * tau) / 2 + tau) / 4
            want = -2.0 * round_nearest_multiple(avg, tau) / tau
            assert recorded_count(net, g) == want
            assert read_register(net.forward((0,)), g) == int(want)

    def test_exhaustive_patterns_bound(self):
        tau = 1 / 16
        for strategy in STRATEGIES:
            for b in range(1, 7):
                for pattern in range(1 << b):
                    ys = [(pattern >> i) & 1 for i in range(b)]
                    net, g = build_count_probe(tau, "ones")
                    probe_step(net, [Example((1,), y) for y in ys], tau=tau,
                               strategy=strategy)
                    m = recorded_count(net, g)
                    mis = sum(ys)
                    ideal = (mis * (1 + 2 * tau) + (b - mis) * 2 * tau) \
                        / (b * tau)
                    assert m == int(m) and int(m) % 2 == 0
                    assert abs(m - ideal) <= 1.5 + 1e-9, (strategy, b, ys)
                    act = net.forward((0,))
                    assert read_register(act, g) == int(m)

    def test_memory_moves_exactly_once(self):
        tau = 1 / 16
        for strategy in STRATEGIES:
            net, g = build_count_probe(tau, "ones")
            span = gadget_edge_ids(net, g)
            probe_step(net, [Example((1,), 1), Example((1,), 0)], tau=tau,
                       strategy=strategy)
            moved = float(net.weights[g.memory_edge]) - 1.0 / 12.0
            assert moved > 0.0
            # gadget edges freeze exactly once the irrelevant steps start
            before = net.weights.copy()
            for _ in range(3):
                probe_step(net, [Example((0,), 1), Example((0,), 0)],
                           tau=tau, strategy=strategy)
            after = net.weights
            assert all(after[e] == before[e] for e in span)

    def test_idle_steps_never_touch_gadget(self):
        tau = 1 / 16
        for strategy in STRATEGIES:
            net, g = build_count_probe(tau, "zeros")
            span = gadget_edge_ids(net, g)
            before = net.weights.copy()
            for _ in range(2):
                probe_step(net, [Example((0,), 0), Example((0,), 1)],
                           tau=tau, strategy=strategy)
            after = net.weights
            assert all(after[e] == before[e] for e in span)

    def test_register_overflow_saturates(self):
        # an undersized bank reads all-ones above capacity, hence the
        # two headroom bits in the default register count
        tau = 1 / 16
        net, g = build_count_probe(tau, "ones", registers=4)
        probe_step(net, [Example((1,), 1)], tau=tau)
        assert recorded_count(net, g) == 18.0
        assert read_register(net.forward((0,)), g) == 15

    def test_scripted_output_levels(self):
        tau = 1 / 16
        net, _ = build_count_probe(tau, "ones")
        assert net.value((1,)) == -2 * tau
        assert net.value((0,)) == -2 * tau
        net, _ = build_count_probe(tau, "zeros")
        assert net.value((1,)) == 1 + 2 * tau
        assert net.value((0,)) == 1 + 2 * tau


def const_true_digit() -> Circuit:
    b = CircuitBuilder(())
    return b.build(b.true())


def constant_count_program(threshold: int = 49) -> EmulationProgram:
    digits = tuple(const_true_digit() for _ in range(6))
    regs = [reg_wire(1, 0, 1, bit) for bit in range(8)]
    b = CircuitBuilder(tuple(regs))
    out = b.ge_const(regs, threshold)
    return EmulationProgram(rounds=1, arity=1, n_inputs=1,
                            digit_circuits=((digits,),),
                            output_circuit=b.build(out))


def majority_mux_program() -> EmulationProgram:
    """Round 1 counts labels; round 2 and the output select x0 or x1."""
    round1 = tuple(const_true_digit() for _ in range(6))
    regs = [reg_wire(1, 0, 1, bit) for bit in range(8)]

    def selector() -> Circuit:
        b = CircuitBuilder(("x0", "x1") + tuple(regs))
        return b.build(b.mux(b.ge_const(regs, 49), "x0", "x1"))

    round2 = tuple(selector() for _ in range(6))
    return EmulationProgram(rounds=2, arity=1, n_inputs=2,
                            digit_circuits=((round1,), (round2,)),
                            output_circuit=selector())


def label_uniform(n: int, label_of) -> FiniteDistribution:
    xs = list(binary_inputs(n))
    return FiniteDistribution(
        n, [(Example(x, label_of(x)), 1.0 / len(xs)) for x in xs])


class TestProgramEmulation:
    def test_parameter_validation(self):
        prog = constant_count_program()
        with pytest.raises(GridError):
            build_emulation_net(prog, 0.3)
        with pytest.raises(ValueError):
            build_emulation_net(prog, 1 / 128)
        bad = dataclasses.replace(prog, rounds=5,
                                  digit_circuits=prog.digit_circuits * 5)
        with pytest.raises(ValueError):
            build_emulation_net(bad, 1 / 16)

    def test_digit_shape_validation(self):
        prog = constant_count_program()
        short = dataclasses.replace(
            prog, digit_circuits=((prog.digit_circuits[0][0][:5],),))
        with pytest.raises(ValueError):
            build_emulation_net(short, 1 / 16)

    def test_wire_scope_validation(self):
        # a round cannot read registers written in its own step
        b = CircuitBuilder((reg_wire(1, 0, 1, 0),))
        bad_digit = b.build(b.not_(reg_wire(1, 0, 1, 0)))
        digits = (bad_digit,) + tuple(const_true_digit() for _ in range(5))
        prog = dataclasses.replace(constant_count_program(),
                                   digit_circuits=((digits,),))
        with pytest.raises(ValueError):
            build_emulation_net(prog, 1 / 16)
        b2 = CircuitBuilder(("nosuch",))
        prog2 = dataclasses.replace(constant_count_program(),
                                    output_circuit=b2.build(b2.not_("nosuch")))
        with pytest.raises(ValueError):
            build_emulation_net(prog2, 1 / 16)

    def test_layout_shape(self):
        net, layout = build_emulation_net(constant_count_program(), 1 / 16)
        assert layout.digits == 6 and layout.registers == 8
        assert layout.tau_g == 1 / 64
        assert set(layout.gadgets) == {("q", 1, 0, i) for i in range(1, 7)} \
            | {("clk", 1)}
        assert len(layout.frozen_edges) > 0.5 * net.n_edges

    def test_pre_training_script(self):
        net, layout = build_emulation_net(constant_count_program(), 1 / 16)
        for x in binary_inputs(1):
            assert net.value(x) == pytest.approx(-2 * layout.tau_g,
                                                 abs=1e-12)

    def test_constant_count_round(self):
        D = label_uniform(1, lambda x: x[0])
        for seed in (0, 1, 2):
            net, layout = build_emulation_net(constant_count_program(), 1 / 16)
            run = train_emulation(net, layout, D, b=4, seed=seed)
            codes = run.transcript.records[0].batch_codes
            c = sum(code >> 1 for code in codes)
            for i in range(1, 7):
                m = recorded_count(net, layout.gadgets[("q", 1, 0, i)])
                assert m == 16 * c + 2, (seed, i)
            assert recorded_count(net, layout.gadgets[("clk", 1)]) >= 2
            act = net.forward((0,))
            assert read_register(act, layout.gadgets[("q", 1, 0, 1)]) \
                == 16 * c + 2
            want = 1.0 if 16 * c + 2 >= 49 else 0.0
            for x in binary_inputs(1):
                assert net.value(x) == want
            assert abs(query_answer(act, layout, 1, 0) - c / 4) \
                <= layout.tau + 1e-12

    def test_adversarial_rounding_same_count(self):
        # the recording average sits on the grid, so every oracle agrees
        D = label_uniform(1, lambda x: x[0])
        counts = []
        for strategy in STRATEGIES:
            net, layout = build_emulation_net(constant_count_program(), 1 / 16)
            train_emulation(net, layout, D, b=4, seed=5,
                            rounding=RoundingOracle(strategy=strategy))
            counts.append(recorded_count(net, layout.gadgets[("q", 1, 0, 1)]))
        assert counts[0] == counts[1] == counts[2]

    def test_build_and_train_deterministic(self):
        prog = constant_count_program()
        net1, layout1 = build_emulation_net(prog, 1 / 16)
        net2, layout2 = build_emulation_net(prog, 1 / 16)
        assert net1.to_json() == net2.to_json()
        D = label_uniform(1, lambda x: 1 - x[0])
        train_emulation(net1, layout1, D, b=4, seed=9)
        train_emulation(net2, layout2, D, b=4, seed=9)
        assert np.array_equal(net1.weights, net2.weights)

    def test_emulation_net_bytes(self):
        # every gate kind through the circuit inliner: not, and, or, true
        net, _ = build_emulation_net(majority_mux_program(), 1 / 16)
        digest = hashlib.sha256(net.to_json().encode()).hexdigest()
        assert digest == ("20bb71daf1c2759969647a603756c149"
                          "36bc2045988d9de33581196c7cab202d")

    @pytest.mark.parametrize("gate", [Gate("g", "and", ("x0",)),
                                      Gate("g", "not", ("x0", "x1")),
                                      Gate("g", "xor", ("x0", "x1"))])
    def test_malformed_gates_rejected_like_the_interpreter(self, gate):
        bad = Circuit(inputs=("x0", "x1"), gates=(gate,), outputs=("g",))
        with pytest.raises(ValueError) as want:
            evaluate_circuit(bad, {"x0": True, "x1": False})
        prog = dataclasses.replace(majority_mux_program(), output_circuit=bad)
        with pytest.raises(ValueError) as got:
            build_emulation_net(prog, 1 / 16)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("bad gate")

    def test_frozen_audit_mechanism(self):
        net, layout = build_emulation_net(constant_count_program(), 1 / 16)
        drive = layout.primaries[1]
        drifting = [e for e in range(net.n_edges)
                    if net.names[net.edge_src[e]] == drive]
        rigged = dataclasses.replace(layout,
                                     frozen_edges=tuple(drifting))
        D = label_uniform(1, lambda x: x[0])
        with pytest.raises(FrozenEdgeError):
            train_emulation(net, rigged, D, b=4, seed=0)

    def test_mid_run_script_level(self):
        captured = {}

        def hook(info):
            if info.index == 1:
                captured["w"] = info.w.copy()

        net, layout = build_emulation_net(majority_mux_program(), 1 / 16)
        D = label_uniform(2, lambda x: x[0])
        train_emulation(net, layout, D, b=4, seed=1, hook=hook)
        probe, _ = build_emulation_net(majority_mux_program(), 1 / 16)
        probe.set_weights(captured["w"])
        # after round 1 the even-round script takes over
        for x in binary_inputs(2):
            assert probe.value(x) == pytest.approx(1 + 2 * layout.tau_g,
                                                   abs=1e-12)

    def test_majority_mux_end_to_end(self):
        D = label_uniform(2, lambda x: x[0])
        for strategy in STRATEGIES:
            oracle = RoundingOracle(strategy=strategy)
            for seed in (0, 1, 2):
                net, layout = build_emulation_net(majority_mux_program(),
                                                  1 / 16)
                run = train_emulation(net, layout, D, b=4, seed=seed,
                                      rounding=oracle)
                codes = run.transcript.records[0].batch_codes
                c = sum(code >> 2 for code in codes)
                m = recorded_count(net, layout.gadgets[("q", 1, 0, 1)])
                assert m == 16 * c + 2
                maj = m >= 49
                for x in binary_inputs(2):
                    want = float(x[0] if maj else x[1])
                    assert net.value(x) == want, (strategy, seed, x)

    def test_wire_name_format(self):
        assert reg_wire(2, 0, 3, 5) == "m2c0d3b5"
        assert clock_wire(1, 0) == "clk1b0"
