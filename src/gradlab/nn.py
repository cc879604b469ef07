"""Flat-shelf networks that compute through training without drifting.

The activation is a two-stage ramp with shelves at -2, 0, and 2.  A
vertex held on a shelf has zero local derivative, so a subnetwork whose
vertices all sit on shelves computes a fixed boolean function through
any number of descent steps: no gradient ever reaches its weights.
Against that frozen background a counting gadget exposes one trainable
edge whose single recording step integrates a batch statistic, and
binary register vertices publish the recorded count back to the frozen
circuitry.  One gadget per query digit turns an alternating batch-query
program into an ordinary net trained by plain minibatch descent.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .numerics import RoundingOracle, grid_exponent
from .paradigms import DiffModel, MethodRun, run_bsgd, run_fbgd
from .problems import SQUARE_LOSS, Batch, FiniteDistribution

__all__ = [
    "CONST",
    "INPUT",
    "INTERNAL",
    "OUTPUT",
    "Circuit",
    "CircuitBuilder",
    "EmulationLayout",
    "EmulationProgram",
    "FrozenEdgeError",
    "Gate",
    "NetStructureError",
    "NeuralNet",
    "QueryGadget",
    "RegisterStateError",
    "as_model",
    "build_circuit_gadget",
    "build_count_probe",
    "build_emulation_net",
    "build_query_gadget",
    "clock_wire",
    "evaluate_circuit",
    "query_answer",
    "read_register",
    "recorded_count",
    "reg_wire",
    "sigma",
    "sigma_prime",
    "train_emulation",
    "train_on_batches",
]

INPUT = "input"
CONST = "const"
INTERNAL = "internal"
OUTPUT = "output"

REST_WEIGHT = 1.0 / 12.0


def sigma(x: float) -> float:
    """Two-stage ramp: shelves at -2, 0, 2 joined by unit-slope ramps.

    Breakpoints belong to the first matching piece in the order written
    here, which puts -3, -1, 0, and 2 on ramps.  The convention is
    fixed so derivative audits are deterministic.
    """
    if x < -3.0:
        return -2.0
    if x <= -1.0:
        return x + 1.0
    if x < 0.0:
        return 0.0
    if x <= 2.0:
        return x
    return 2.0


def sigma_prime(x: float) -> float:
    """Exact derivative of sigma under the same breakpoint convention."""
    if x < -3.0:
        return 0.0
    if x <= -1.0:
        return 1.0
    if x < 0.0:
        return 0.0
    if x <= 2.0:
        return 1.0
    return 0.0


class NetStructureError(ValueError):
    """Malformed net: cycle, duplicate name, bad role, shape mismatch."""


class NeuralNet:
    """Mutable DAG of ramp units over binary inputs and a constant-1.

    Input vertices emit the raw coordinates of x, the constant vertex
    emits 1, and every other vertex applies sigma to its weighted
    in-sum.  Weights live in one vector aligned with edge indices;
    training adapters mutate it in place, and a net belongs to a single
    run at a time.  The trainable flag on an edge is audit bookkeeping
    only: the update rule touches every coordinate, and audits assert
    that flagged-frozen edges still never move.
    """

    def __init__(self, n_inputs: int):
        if n_inputs < 0:
            raise NetStructureError("n_inputs must be >= 0")
        self.n_inputs = n_inputs
        self.names: list[str] = []
        self.roles: list[str] = []
        self._index: dict[str, int] = {}
        self._in_edges: list[list[int]] = []
        self.edge_src: list[int] = []
        self.edge_dst: list[int] = []
        self.trainable: list[bool] = []
        self._weight_list: list[float] = []
        self._w: np.ndarray | None = None
        self._output: int | None = None
        self._topo: list[int] | None = None
        for k in range(n_inputs):
            self._add(f"x{k}", INPUT)
        self._add("one", CONST)

    def _add(self, name: str, role: str) -> int:
        if name in self._index:
            raise NetStructureError(f"duplicate vertex {name!r}")
        idx = len(self.names)
        self.names.append(name)
        self.roles.append(role)
        self._index[name] = idx
        self._in_edges.append([])
        self._topo = None
        return idx

    def _flush_weights(self) -> None:
        if self._w is not None:
            self._weight_list = [float(v) for v in self._w]
            self._w = None

    def add_vertex(self, name: str, role: str = INTERNAL) -> str:
        if role not in (INTERNAL, OUTPUT):
            raise NetStructureError(f"cannot add a vertex with role {role!r}")
        idx = self._add(name, role)
        if role == OUTPUT:
            if self._output is not None:
                raise NetStructureError("net already has an output vertex")
            self._output = idx
        return name

    def add_edge(self, src: str, dst: str, weight: float,
                 trainable: bool = True) -> int:
        s = self._index[src]
        d = self._index[dst]
        if self.roles[d] in (INPUT, CONST):
            raise NetStructureError(f"{dst!r} cannot receive edges")
        self._flush_weights()
        eid = len(self.edge_src)
        self.edge_src.append(s)
        self.edge_dst.append(d)
        self._weight_list.append(float(weight))
        self.trainable.append(bool(trainable))
        self._in_edges[d].append(eid)
        self._topo = None
        return eid

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @property
    def output_name(self) -> str:
        if self._output is None:
            raise NetStructureError("no output vertex")
        return self.names[self._output]

    @property
    def weights(self) -> np.ndarray:
        """Live weight vector; entries may be assigned in place."""
        if self._w is None:
            self._w = np.array(self._weight_list, dtype=float)
        return self._w

    def set_weights(self, w) -> None:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_edges,):
            raise NetStructureError(
                f"expected {self.n_edges} weights, got shape {w.shape}")
        self.weights[:] = w

    def _order(self) -> list[int]:
        if self._topo is None:
            indeg = [0] * len(self.names)
            out: list[list[int]] = [[] for _ in self.names]
            for s, d in zip(self.edge_src, self.edge_dst):
                indeg[d] += 1
                out[s].append(d)
            ready = [v for v, k in enumerate(indeg) if k == 0]
            order: list[int] = []
            while ready:
                v = ready.pop()
                order.append(v)
                for d in out[v]:
                    indeg[d] -= 1
                    if indeg[d] == 0:
                        ready.append(d)
            if len(order) != len(self.names):
                raise NetStructureError("net has a cycle")
            self._topo = [v for v in order
                          if self.roles[v] not in (INPUT, CONST)]
        return self._topo

    def _activations(self, x) -> tuple[np.ndarray, np.ndarray]:
        if len(x) != self.n_inputs:
            raise NetStructureError(
                f"expected {self.n_inputs} inputs, got {len(x)}")
        w = self.weights
        a = np.zeros(len(self.names))
        z = np.zeros(len(self.names))
        for k in range(self.n_inputs):
            a[k] = float(x[k])
        a[self.n_inputs] = 1.0
        src = self.edge_src
        for v in self._order():
            s = 0.0
            for e in self._in_edges[v]:
                s += w[e] * a[src[e]]
            z[v] = s
            a[v] = sigma(s)
        return a, z

    def forward(self, x) -> dict[str, float]:
        """Activation of every vertex on input x, keyed by name."""
        a, _ = self._activations(x)
        return {name: float(a[i]) for i, name in enumerate(self.names)}

    def value(self, x) -> float:
        if self._output is None:
            raise NetStructureError("no output vertex")
        a, _ = self._activations(x)
        return float(a[self._output])

    def gradient(self, x, y: float) -> np.ndarray:
        """d square loss / d weight for one example, dense over edges.

        Reverse accumulation; a vertex sitting on a shelf contributes
        exact zeros, both to its own in-edges and to everything
        upstream of it.
        """
        if self._output is None:
            raise NetStructureError("no output vertex")
        a, z = self._activations(x)
        w = self.weights
        bar = np.zeros(len(self.names))
        bar[self._output] = SQUARE_LOSS.derivative(float(a[self._output]),
                                                   float(y))
        grad = np.zeros(self.n_edges)
        src = self.edge_src
        for v in reversed(self._order()):
            g = bar[v] * sigma_prime(z[v])
            if g == 0.0:
                continue
            for e in self._in_edges[v]:
                s = src[e]
                grad[e] += g * a[s]
                bar[s] += w[e] * g
        return grad

    def to_json(self) -> str:
        """Stable serialization: inputs, vertices, edges with weights."""
        w = self.weights
        added = [[self.names[i], self.roles[i]]
                 for i in range(self.n_inputs + 1, len(self.names))]
        edges = [[self.names[self.edge_src[e]], self.names[self.edge_dst[e]],
                  float(w[e]), bool(self.trainable[e])]
                 for e in range(self.n_edges)]
        payload = {"inputs": self.n_inputs, "vertices": added, "edges": edges}
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "NeuralNet":
        payload = json.loads(text)
        net = cls(int(payload["inputs"]))
        for name, role in payload["vertices"]:
            net.add_vertex(name, role)
        for src, dst, weight, trainable in payload["edges"]:
            net.add_edge(src, dst, float(weight), bool(trainable))
        return net


def as_model(net: NeuralNet, name: str = "net") -> DiffModel:
    """Adapter exposing a net to the gradient-descent runners.

    init snapshots the net's live weights, so chained runs resume from
    wherever the net stands.  value and loss_gradient load the supplied
    parameter vector before evaluating, which keeps them pure in w
    while mutating the owned net.
    """

    def init(bits) -> np.ndarray:
        return net.weights.copy()

    def value(w, x) -> float:
        net.set_weights(w)
        return net.value(x)

    def loss_gradient(w, ex):
        net.set_weights(w)
        return net.gradient(ex.x, float(ex.y))

    return DiffModel(dim=net.n_edges, random_bits=0, init=init,
                     value=value, loss_gradient=loss_gradient, name=name)


def train_on_batches(net: NeuralNet, batches: Sequence[Batch], *, rho: float,
                     gamma: float = 2.0,
                     rounding: RoundingOracle | None = None
                     ) -> list[MethodRun]:
    """One full-batch descent step per listed batch, mutating the net."""
    model = as_model(net)
    runs = []
    for S in batches:
        run = run_fbgd(model, S, T=1, rho=rho, gamma=gamma,
                       rounding=rounding, record=True)
        net.set_weights(run.final_params)
        runs.append(run)
    return runs


# --- boolean circuits ---------------------------------------------------

_GATE_ARITY = {"not": 1, "and": 2, "or": 2, "true": 0, "false": 0}


@dataclass(frozen=True)
class Gate:
    name: str
    op: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Circuit:
    """Boolean circuit over named inputs; gates listed in wiring order."""

    inputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    outputs: tuple[str, ...]

    @property
    def n_gates(self) -> int:
        return len(self.gates)


def evaluate_circuit(circuit: Circuit,
                     assignment: Mapping[str, bool]) -> dict[str, bool]:
    """Reference interpreter; returns the value of every wire."""
    values: dict[str, bool] = {}
    for name in circuit.inputs:
        values[name] = bool(assignment[name])
    for gate in circuit.gates:
        arity = _GATE_ARITY.get(gate.op)
        if arity is None or len(gate.args) != arity:
            raise ValueError(f"bad gate {gate!r}")
        if gate.name in values:
            raise ValueError(f"duplicate wire {gate.name!r}")
        args = [values[a] for a in gate.args]
        if gate.op == "not":
            v = not args[0]
        elif gate.op == "and":
            v = args[0] and args[1]
        elif gate.op == "or":
            v = args[0] or args[1]
        else:
            v = gate.op == "true"
        values[gate.name] = v
    for out in circuit.outputs:
        if out not in values:
            raise ValueError(f"unknown output wire {out!r}")
    return values


class CircuitBuilder:
    """Incremental circuit assembly with a few arithmetic helpers."""

    def __init__(self, inputs: Iterable[str]):
        self.inputs = tuple(inputs)
        self._gates: list[Gate] = []
        self._known: set[str] = set(self.inputs)
        if len(self._known) != len(self.inputs):
            raise ValueError("duplicate input wires")
        self._fresh = 0

    def _emit(self, op: str, *args: str) -> str:
        for a in args:
            if a not in self._known:
                raise ValueError(f"unknown wire {a!r}")
        name = f"g{self._fresh}"
        self._fresh += 1
        self._gates.append(Gate(name, op, tuple(args)))
        self._known.add(name)
        return name

    def not_(self, a: str) -> str:
        return self._emit("not", a)

    def and_(self, a: str, b: str) -> str:
        return self._emit("and", a, b)

    def or_(self, a: str, b: str) -> str:
        return self._emit("or", a, b)

    def true(self) -> str:
        return self._emit("true")

    def false(self) -> str:
        return self._emit("false")

    def all_(self, wires: Iterable[str]) -> str:
        wires = list(wires)
        if not wires:
            return self.true()
        acc = wires[0]
        for w in wires[1:]:
            acc = self.and_(acc, w)
        return acc

    def any_(self, wires: Iterable[str]) -> str:
        wires = list(wires)
        if not wires:
            return self.false()
        acc = wires[0]
        for w in wires[1:]:
            acc = self.or_(acc, w)
        return acc

    def mux(self, sel: str, a: str, b: str) -> str:
        """a when sel else b."""
        return self.or_(self.and_(sel, a), self.and_(self.not_(sel), b))

    def ge_const(self, bits: Sequence[str], k: int) -> str:
        """True when the unsigned value of bits (LSB first) is >= k."""
        if k <= 0:
            return self.true()
        if k >= (1 << len(bits)):
            return self.false()
        # compare from the top bit down; acc tracks prefix equality
        acc = self.true()
        result = self.false()
        for i in reversed(range(len(bits))):
            if (k >> i) & 1:
                eq = bits[i]
            else:
                result = self.or_(result, self.and_(acc, bits[i]))
                eq = self.not_(bits[i])
            acc = self.and_(acc, eq)
        return self.or_(result, acc)

    def build(self, outputs) -> Circuit:
        if isinstance(outputs, str):
            outputs = (outputs,)
        outputs = tuple(dict.fromkeys(outputs))
        for o in outputs:
            if o not in self._known:
                raise ValueError(f"unknown output wire {o!r}")
        return Circuit(self.inputs, tuple(self._gates), outputs)


def build_circuit_gadget(net: NeuralNet, circuit: Circuit,
                         sources: Mapping[str, object],
                         prefix: str = "c") -> dict[str, str]:
    """Wire a circuit into a net so it computes on flat shelves.

    sources maps each circuit input either to the name of a vertex that
    already encodes booleans as -2/+2, or to a (vertex, lo, hi) triple:
    activations <= lo encode 0, activations >= hi encode 1, and a
    conversion vertex is inserted.  Every created vertex receives its
    input beyond the outer breakpoints, so all local derivatives are
    exactly 0, the created edges can never move, and no gradient leaks
    through them to the source vertices.  Returns wire name -> vertex.
    A malformed gate raises before the net is touched.
    """
    for gate in circuit.gates:
        if len(gate.args) != _GATE_ARITY.get(gate.op, -1):
            raise ValueError(f"bad gate {gate!r}")
    wiremap: dict[str, str] = {}
    for wire in circuit.inputs:
        spec = sources[wire]
        if isinstance(spec, str):
            wiremap[wire] = spec
            continue
        vertex, lo, hi = spec
        lo = float(lo)
        hi = float(hi)
        if not lo < hi:
            raise ValueError(f"need lo < hi for wire {wire!r}")
        span = hi - lo
        conv = net.add_vertex(f"{prefix}.in.{wire}")
        net.add_edge(vertex, conv, 8.0 / span, trainable=False)
        net.add_edge("one", conv, -4.0 * (hi + lo) / span, trainable=False)
        wiremap[wire] = conv
    for gate in circuit.gates:
        v = net.add_vertex(f"{prefix}.{gate.name}")
        if gate.op == "not":
            net.add_edge(wiremap[gate.args[0]], v, -2.0, trainable=False)
        elif gate.op in ("and", "or"):
            net.add_edge(wiremap[gate.args[0]], v, 2.0, trainable=False)
            net.add_edge(wiremap[gate.args[1]], v, 2.0, trainable=False)
            bias = -4.0 if gate.op == "and" else 4.0
            net.add_edge("one", v, bias, trainable=False)
        elif gate.op == "true":
            net.add_edge("one", v, 4.0, trainable=False)
        else:
            net.add_edge("one", v, -4.0, trainable=False)
        wiremap[gate.name] = v
    return wiremap


# --- counting gadgets ---------------------------------------------------


class RegisterStateError(RuntimeError):
    """A register vertex was read while off its +-2 shelves."""


@dataclass(frozen=True)
class QueryGadget:
    """Handles into one counting subnetwork.

    The only edge meant to learn is memory_edge (constant -> memory,
    weight 1/12 at rest).  While the gate vertex outputs 2 the gadget
    is pinned to shelves and contributes nothing.  A sample on which
    the gate outputs 0 makes the collector feed sign/24 into the
    output and puts a label-dependent gradient on the memory edge, so
    one recording step counts: a "ones" gadget counts gated label-1
    samples, a "zeros" gadget gated label-0 samples, each worth 1/tau,
    plus 2 per gated sample of either label.  After the step the
    registers display the accumulated count in binary, -2/+2 per bit,
    least significant first.
    """

    variant: str
    tau: float
    registers: int
    prefix: str
    memory_edge: int
    output_edge: int
    memory: str
    arm_hi: str
    arm_lo: str
    collector: str
    gate: str
    register_names: tuple[str, ...]

    @property
    def sign(self) -> float:
        return 1.0 if self.variant == "ones" else -1.0


def build_query_gadget(net: NeuralNet, tau: float, variant: str, *,
                       registers: int | None = None,
                       prefix: str = "q") -> QueryGadget:
    """Attach a counting gadget to a net that already has its output.

    tau must lie in (0, 1/12) so that post-recording drift keeps the
    collector on its zero shelf forever.  The register count defaults
    to ceil(log2(1/tau)) + 2: a single step can record counts up to
    1/tau + 7/2, so two bits of headroom keep the decode from wrapping.
    """
    if not 0.0 < tau < 1.0 / 12.0:
        raise ValueError("tau must lie in (0, 1/12)")
    if variant not in ("ones", "zeros"):
        raise ValueError(f"variant must be 'ones' or 'zeros', got {variant!r}")
    out = net.output_name
    if registers is None:
        registers = math.ceil(math.log2(1.0 / tau)) + 2
    K = int(registers)
    if K < 1:
        raise ValueError("need at least one register")
    mem = net.add_vertex(f"{prefix}.memory")
    arm_hi = net.add_vertex(f"{prefix}.arm_hi")
    arm_lo = net.add_vertex(f"{prefix}.arm_lo")
    coll = net.add_vertex(f"{prefix}.collector")
    gate = net.add_vertex(f"{prefix}.gate")
    memory_edge = net.add_edge("one", mem, REST_WEIGHT, trainable=True)
    net.add_edge(mem, arm_hi, 1.0, trainable=True)
    net.add_edge(mem, arm_lo, 1.0, trainable=True)
    net.add_edge(arm_hi, coll, 1.0, trainable=True)
    net.add_edge(arm_lo, coll, 1.0, trainable=True)
    net.add_edge(gate, arm_hi, 10.0, trainable=False)
    net.add_edge(gate, arm_lo, -10.0, trainable=False)
    net.add_edge(gate, coll, -0.25, trainable=False)
    sign = 1.0 if variant == "ones" else -1.0
    output_edge = net.add_edge(coll, out, sign * 0.25, trainable=True)
    regs = [net.add_vertex(f"{prefix}.reg{i}") for i in range(K)]
    for i in range(K):
        net.add_edge(mem, regs[i], 12.0 / tau, trainable=False)
        net.add_edge("one", regs[i], -1.0 / tau + 6.0 - 6.0 * (1 << K),
                     trainable=False)
        for j in range(i + 1, K):
            # higher bits cancel their contribution out of the count
            net.add_edge(regs[j], regs[i], -3.0 * (1 << j), trainable=False)
    return QueryGadget(variant=variant, tau=tau, registers=K, prefix=prefix,
                       memory_edge=memory_edge, output_edge=output_edge,
                       memory=mem, arm_hi=arm_hi, arm_lo=arm_lo,
                       collector=coll, gate=gate,
                       register_names=tuple(regs))


def read_register(activations: Mapping[str, float],
                  gadget: QueryGadget) -> int:
    """Decode the recorded count from shelf activations, LSB first."""
    m = 0
    for i, name in enumerate(gadget.register_names):
        a = float(activations[name])
        if abs(a - 2.0) <= 1e-9:
            m |= 1 << i
        elif abs(a + 2.0) > 1e-9:
            raise RegisterStateError(f"{name} reads {a!r}, not a shelf value")
    return m


def recorded_count(net: NeuralNet, gadget: QueryGadget) -> float:
    """Count implied by the memory edge weight.

    Snaps to the nearest integer when within 1e-6 of one; the raw ratio
    carries an ulp of alignment noise from adding the recorded delta to
    the rest weight, which the register vertices absorb by design.
    """
    raw = (float(net.weights[gadget.memory_edge]) - REST_WEIGHT) / gadget.tau
    snapped = round(raw)
    return float(snapped) if abs(raw - snapped) < 1e-6 else raw


def build_count_probe(tau: float, variant: str, *,
                      registers: int | None = None
                      ) -> tuple[NeuralNet, QueryGadget]:
    """Minimal training rig for one gadget: x = (gated?,), y is the label.

    The output is driven to the scripted value on every sample (-2 tau
    for the ones variant, 1 + 2 tau for zeros), a cancel vertex absorbs
    the collector's 1/24 so the script stays exact on gated samples,
    and the gate opens exactly when x0 = 1.  Feed it one batch per step
    and the memory edge integrates the counts.
    """
    net = NeuralNet(1)
    net.add_vertex("out", OUTPUT)
    gadget = build_query_gadget(net, tau, variant, registers=registers,
                                prefix="probe")
    gated = net.add_vertex("gated")
    net.add_edge("x0", gated, 8.0, trainable=False)
    net.add_edge("one", gated, -4.0, trainable=False)
    ungated = net.add_vertex("ungated")
    net.add_edge(gated, ungated, -2.0, trainable=False)
    hi = net.add_vertex("always_on")
    net.add_edge("one", hi, 4.0, trainable=False)
    lo = net.add_vertex("always_off")
    net.add_edge("one", lo, -4.0, trainable=False)
    net.add_edge("one", gadget.gate, 1.0, trainable=False)
    net.add_edge(ungated, gadget.gate, 0.75, trainable=False)
    drive = net.add_vertex("script_drive")
    cancel = net.add_vertex("leak_cancel")
    if variant == "ones":
        net.add_edge(lo, drive, 1.0, trainable=False)
        net.add_edge(lo, drive, 1.0, trainable=False)
        net.add_edge(ungated, cancel, 1.0, trainable=False)
        net.add_edge(lo, cancel, 1.0, trainable=False)
    else:
        net.add_edge(hi, drive, 1.0, trainable=False)
        net.add_edge(hi, drive, 1.0, trainable=False)
        net.add_edge(hi, cancel, 1.0, trainable=False)
        net.add_edge(gated, cancel, 1.0, trainable=False)
    net.add_edge("one", drive, -0.5, trainable=False)
    net.add_edge("one", cancel, -0.5, trainable=False)
    net.add_edge(drive, "out", (1.0 + 2.0 * tau) / 2.0, trainable=True)
    net.add_edge(cancel, "out", 1.0 / 48.0, trainable=True)
    return net, gadget


# --- program emulation --------------------------------------------------


def reg_wire(round_: int, coord: int, digit: int, bit: int) -> str:
    """Wire name publishing one register bit of a digit gadget."""
    return f"m{round_}c{coord}d{digit}b{bit}"


def clock_wire(round_: int, bit: int) -> str:
    """Wire name publishing one register bit of a round's clock gadget."""
    return f"clk{round_}b{bit}"


@dataclass(frozen=True)
class EmulationProgram:
    """Alternating batch-query program in circuit form.

    Round t (1-based) poses `arity` query values in [0, 1]; each value
    is split into binary digits with one counting gadget per digit.
    digit_circuits[t-1][j][i-1] decides, from the data bits x0..x{n-1}
    and register wires of rounds before t, whether digit i (worth
    2^-i) of query j is 1 on the current sample.  Odd rounds count
    label-1 samples matching a digit, even rounds label-0 samples.
    output_circuit reads x plus any register wires and gives the final
    prediction bit.
    """

    rounds: int
    arity: int
    n_inputs: int
    digit_circuits: tuple
    output_circuit: Circuit


@dataclass(frozen=True)
class EmulationLayout:
    """Handles into a compiled emulation net, for audits and readout."""

    tau: float
    tau_g: float
    digits: int
    registers: int
    rounds: int
    arity: int
    n_inputs: int
    gadgets: Mapping
    primaries: Mapping
    secondaries: Mapping
    final_control: str
    frozen_edges: tuple[int, ...]


class FrozenEdgeError(RuntimeError):
    """A flagged-frozen edge moved during training."""


def _inline(builder: CircuitBuilder, circuit: Circuit) -> dict[str, str]:
    """Replay a circuit's gates into builder; returns wire -> wire map."""
    local: dict[str, str] = {}
    for w in circuit.inputs:
        if w not in builder._known:
            raise ValueError(f"unknown source wire {w!r}")
        local[w] = w
    for gate in circuit.gates:
        if len(gate.args) != _GATE_ARITY.get(gate.op, -1):
            raise ValueError(f"bad gate {gate!r}")
        local[gate.name] = builder._emit(
            gate.op, *(local[a] for a in gate.args))
    return local


def _single_output(circuit: Circuit, what: str) -> str:
    if len(circuit.outputs) != 1:
        raise ValueError(f"{what} must have exactly one output wire")
    return circuit.outputs[0]


def build_emulation_net(prog: EmulationProgram, tau: float
                        ) -> tuple[NeuralNet, EmulationLayout]:
    """Compile a circuit-form program into a trainable net.

    Training the result with minibatch descent at precision tau/4 and
    learning rate 2 executes the program: step t answers round t's
    queries by incrementing the memory edges of that round's digit
    gadgets, the round's clock gadget records that the step happened,
    and once every clock has fired the output switches from the
    scripted training values to the program's prediction in {0, 1}.

    During step t the output is held at exactly -tau/2 on odd rounds
    and 1 + tau/2 on even rounds (the scripted values for grid tau/4):
    one script vertex per round supplies the level and one cancel
    vertex per gadget absorbs the gadget's own 1/24 contribution on
    gated samples.  Everything except memory edges, their gadget arms,
    and the control-to-output edges is flagged frozen and audited.
    """
    d = grid_exponent(tau)
    if not 0.0 < tau < 1.0 / 3.0:
        raise ValueError("tau must lie in (0, 1/3)")
    if tau < 1.0 / 64.0:
        raise ValueError("tau below 1/64 is outside the supported range")
    T = prog.rounds
    p = prog.arity
    n = prog.n_inputs
    if not 1 <= T <= 4:
        raise ValueError("1 to 4 rounds supported")
    if not 1 <= p <= 4:
        raise ValueError("arity 1 to 4 supported")
    L = d + 2
    tau_g = tau / 4.0
    K = L + 2
    if len(prog.digit_circuits) != T:
        raise ValueError("digit_circuits must list one round per entry")
    for t0, per_round in enumerate(prog.digit_circuits):
        if len(per_round) != p:
            raise ValueError(f"round {t0 + 1} needs {p} coordinate entries")
        for j, per_coord in enumerate(per_round):
            if len(per_coord) != L:
                raise ValueError(
                    f"query ({t0 + 1}, {j}) needs {L} digit circuits")

    net = NeuralNet(n)
    net.add_vertex("out", OUTPUT)

    gadgets: dict[tuple, QueryGadget] = {}
    for t in range(1, T + 1):
        variant = "ones" if t % 2 == 1 else "zeros"
        for j in range(p):
            for i in range(1, L + 1):
                gadgets[("q", t, j, i)] = build_query_gadget(
                    net, tau_g, variant, registers=K,
                    prefix=f"r{t}q{j}d{i}")
        gadgets[("clk", t)] = build_query_gadget(
            net, tau_g, variant, registers=K, prefix=f"r{t}clk")

    sources: dict[str, str] = {}
    for k in range(n):
        conv = net.add_vertex(f"bit.x{k}")
        net.add_edge(f"x{k}", conv, 8.0, trainable=False)
        net.add_edge("one", conv, -4.0, trainable=False)
        sources[f"x{k}"] = conv
    for t in range(1, T + 1):
        for j in range(p):
            for i in range(1, L + 1):
                g = gadgets[("q", t, j, i)]
                for bit in range(K):
                    sources[reg_wire(t, j, i, bit)] = g.register_names[bit]
        g = gadgets[("clk", t)]
        for bit in range(K):
            sources[clock_wire(t, bit)] = g.register_names[bit]
    hi = net.add_vertex("bit.true")
    net.add_edge("one", hi, 4.0, trainable=False)
    lo = net.add_vertex("bit.false")
    net.add_edge("one", lo, -4.0, trainable=False)

    x_wires = {f"x{k}" for k in range(n)}
    reg_wires_by_round: dict[int, set[str]] = {}
    for t in range(1, T + 1):
        names = {reg_wire(t, j, i, bit)
                 for j in range(p) for i in range(1, L + 1)
                 for bit in range(K)}
        names |= {clock_wire(t, bit) for bit in range(K)}
        reg_wires_by_round[t] = names

    mb = CircuitBuilder(tuple(sorted(sources)))
    fired = {t: mb.any_(clock_wire(t, bit) for bit in range(K))
             for t in range(1, T + 1)}
    active: dict[int, str] = {}
    earlier: list[str] = []
    for t in range(1, T + 1):
        active[t] = mb.all_(earlier + [mb.not_(fired[t])])
        earlier.append(fired[t])
    done = mb.all_(fired[t] for t in range(1, T + 1))

    gated: dict[tuple, str] = {}
    for t in range(1, T + 1):
        allowed = set(x_wires)
        for earlier_t in range(1, t):
            allowed |= reg_wires_by_round[earlier_t]
        for j in range(p):
            for i in range(1, L + 1):
                circ = prog.digit_circuits[t - 1][j][i - 1]
                for wire in circ.inputs:
                    if wire not in allowed:
                        raise ValueError(
                            f"query ({t}, {j}) digit {i} reads {wire!r}, "
                            f"not available before round {t}")
                beta = _inline(mb, circ)[_single_output(
                    circ, f"digit circuit ({t}, {j}, {i})")]
                gated[("q", t, j, i)] = mb.and_(active[t], beta)
        gated[("clk", t)] = active[t]

    out_circ = prog.output_circuit
    out_allowed = set(x_wires)
    for t in range(1, T + 1):
        out_allowed |= reg_wires_by_round[t]
    for wire in out_circ.inputs:
        if wire not in out_allowed:
            raise ValueError(f"output circuit reads unknown wire {wire!r}")
    h = _inline(mb, out_circ)[_single_output(out_circ, "output circuit")]
    final_hi = mb.and_(done, h)
    final_not_lo = mb.not_(mb.and_(done, mb.not_(h)))

    ungated = {key: mb.not_(wire) for key, wire in gated.items()}
    inactive = {t: mb.not_(active[t]) for t in range(1, T + 1)}

    needed = list(gated.values()) + list(ungated.values())
    needed += [inactive[t] for t in range(1, T + 1)]
    needed += [active[t] for t in range(1, T + 1)]
    needed += [final_hi, final_not_lo]
    master = mb.build(needed)
    wiremap = build_circuit_gadget(net, master, sources, prefix="ctl")

    def control(name: str, u: str, v: str) -> str:
        vx = net.add_vertex(name)
        net.add_edge(u, vx, 1.0, trainable=False)
        net.add_edge(v, vx, 1.0, trainable=False)
        net.add_edge("one", vx, -0.5, trainable=False)
        return vx

    for key, g in gadgets.items():
        net.add_edge("one", g.gate, 1.0, trainable=False)
        net.add_edge(wiremap[ungated[key]], g.gate, 0.75, trainable=False)

    primaries: dict[int, str] = {}
    for t in range(1, T + 1):
        if t % 2 == 1:
            vx = control(f"r{t}.script", wiremap[inactive[t]], lo)
        else:
            vx = control(f"r{t}.script", hi, wiremap[active[t]])
        net.add_edge(vx, "out", (1.0 + 2.0 * tau_g) / 2.0, trainable=True)
        primaries[t] = vx

    secondaries: dict[tuple, str] = {}
    for key, g in gadgets.items():
        t = key[1]
        if t % 2 == 1:
            vx = control(f"{g.prefix}.cancel", wiremap[ungated[key]], lo)
        else:
            vx = control(f"{g.prefix}.cancel", hi, wiremap[gated[key]])
        net.add_edge(vx, "out", 1.0 / 48.0, trainable=True)
        secondaries[key] = vx

    final_control = control("final.script", wiremap[final_not_lo],
                            wiremap[final_hi])
    net.add_edge(final_control, "out", 0.5, trainable=True)

    frozen = tuple(e for e in range(net.n_edges) if not net.trainable[e])
    layout = EmulationLayout(tau=tau, tau_g=tau_g, digits=L, registers=K,
                             rounds=T, arity=p, n_inputs=n, gadgets=gadgets,
                             primaries=primaries, secondaries=secondaries,
                             final_control=final_control, frozen_edges=frozen)
    return net, layout


def query_answer(activations: Mapping[str, float], layout: EmulationLayout,
                 round_: int, coord: int) -> float:
    """Query value reconstructed from a round's digit registers.

    Sums tau_g * count / 2^i over the digits.  Each digit count carries
    up to 3/2 of rounding slack plus 2 per gated sample, and truncating
    to `digits` binary digits costs at most tau/4 more, so the total
    sits within tau of the batch average the query would have seen.
    """
    total = 0.0
    for i in range(1, layout.digits + 1):
        m = read_register(activations, layout.gadgets[("q", round_, coord, i)])
        total += layout.tau_g * m / (1 << i)
    return total


def train_emulation(net: NeuralNet, layout: EmulationLayout,
                    D: FiniteDistribution, b: int, *, seed: int = 0,
                    rounding: RoundingOracle | None = None,
                    record: bool = True, hook=None) -> MethodRun:
    """Train a compiled net for exactly `rounds` steps and audit it.

    Runs minibatch descent at precision tau/4 with learning rate 2,
    writes the trained weights back into the net, verifies that every
    flagged-frozen edge is bit-identical, and checks that each round's
    clock fired.  Returns the run; predictions are then net.value(x).
    """
    before = net.weights.copy()
    model = as_model(net)
    run = run_bsgd(model, D, T=layout.rounds, rho=layout.tau_g, b=b,
                   gamma=2.0, rounding=rounding, seed=seed, record=record,
                   hook=hook)
    net.set_weights(run.final_params)
    after = net.weights
    moved = [e for e in layout.frozen_edges if after[e] != before[e]]
    if moved:
        raise FrozenEdgeError(
            f"{len(moved)} frozen edges moved, first {moved[:5]}")
    for t in range(1, layout.rounds + 1):
        if recorded_count(net, layout.gadgets[("clk", t)]) < 1.0:
            raise RuntimeError(f"clock for round {t} never fired")
    return run
