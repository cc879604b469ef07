"""Oracle-mediated learning methods as explicit state machines.

Every method kind interacts with the world only through a typed oracle:
statistical queries against the population, batch statistical queries
against fresh hidden batches, full-batch queries against one frozen
batch, or rho-approximate gradient updates.  Runners record transcripts
so that every validity contract can be re-derived offline.

Batch oracles draw from a single master stream per run, so a run is a
pure function of (method, distribution, seed, adversary choice).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Callable, Hashable, Protocol, Sequence

import numpy as np

from .numerics import (
    RoundingOracle,
    clip1,
    grid_exponent,
    round_approximate,
)
from .problems import (
    Batch,
    Example,
    FiniteDistribution,
    ZeroPredictor,
    ParityPredictor,
    clip_predictor,
    joint_bit_matrix,
    population_loss,
    sample_batch,
)

__all__ = [
    "LabelRestriction",
    "round_restriction",
    "NoiseAdversary",
    "QueryRangeError",
    "RestrictionError",
    "SQQuery",
    "constant_zero_query",
    "RoundRecord",
    "Transcript",
    "SQOracle",
    "BSQOracle",
    "FBSQOracle",
    "sq_oracle_answer",
    "bsq_oracle_answer",
    "fbsq_oracle_answer",
    "DiffModel",
    "PadTail",
    "ModelSnapshot",
    "run_bsgd",
    "run_fbgd",
    "BSGDRoundInfo",
    "RoundBlock",
    "ProgramRun",
    "QueryProgram",
    "GeneratorProgram",
    "BitStream",
    "MethodRun",
    "PACMethod",
    "SQMethod",
    "BSQMethod",
    "FBSQMethod",
    "BSGDMethod",
    "FBGDMethod",
    "ErrorEstimate",
    "eval_method_error",
    "gf2_solve",
    "parity_learner",
]


class QueryRangeError(ValueError):
    """A query evaluated outside [-1, 1]."""


class RestrictionError(ValueError):
    """A label-restricted query returned a nonzero value on the wrong label."""


class LabelRestriction(Enum):
    NONE = "none"
    ZERO_QUERY = "zero"  # must vanish on y = 1
    ONE_QUERY = "one"    # must vanish on y = 0

    @property
    def forced_label(self) -> int | None:
        if self is LabelRestriction.ZERO_QUERY:
            return 0
        if self is LabelRestriction.ONE_QUERY:
            return 1
        return None


def round_restriction(t: int) -> LabelRestriction:
    """Label restriction required of the round-t query: odd rounds on 1."""
    if t < 1:
        raise ValueError("rounds are numbered from 1")
    return (LabelRestriction.ONE_QUERY if t % 2 == 1
            else LabelRestriction.ZERO_QUERY)


class NoiseAdversary(Enum):
    ZERO_NOISE = "zero"
    PLUS_TAU = "plus"
    MINUS_TAU = "minus"
    SEEDED_RANDOM = "random"


@dataclass(frozen=True, eq=False)
class SQQuery:
    """Bounded vector query over labelled examples.

    The evaluator maps an example to `arity` reals in [-1, 1].  Queries
    carrying a label restriction must vanish identically on the other
    label; this is enforced whenever the query is evaluated.  An
    optional block maps a (k, n+1) int8 matrix of joint bits (y first)
    to the evaluator's (k, arity) values on its rows, bit for bit.

    An optional hashable key names the values: two queries with equal
    keys return the same values and pass or fail the same checks on any
    rows, so an oracle may evaluate them once.  A `dataclasses.replace`
    that changes `evaluator`, `block`, `arity` or `restriction` must
    also drop the key (`key=None`).
    """

    arity: int
    evaluator: Callable[[Example], Sequence[float]]
    restriction: LabelRestriction = LabelRestriction.NONE
    name: str = ""
    block: Callable[[np.ndarray], np.ndarray | None] | None = None
    key: Hashable | None = None

    def evaluate(self, example: Example | Sequence[Example],
                 bits: np.ndarray | None = None) -> np.ndarray:
        """Values on one example, (arity,), or on k, (k, arity); `bits` may
        carry their joint bits.  A failed block check defers to the loop."""
        if not isinstance(example, Example):
            if self.block is not None and len(example):
                vals = self.block_values(
                    joint_bit_matrix(example) if bits is None else bits)
                if vals is not None:
                    return vals
            return np.stack([self.evaluate(ex) for ex in example])
        raw = np.asarray(self.evaluator(example), dtype=float)
        if raw.shape != (self.arity,):
            raise ValueError(
                f"query {self.name!r} returned shape {raw.shape}, expected ({self.arity},)"
            )
        if raw.size and np.max(np.abs(raw)) > 1.0 + 1e-12:
            raise QueryRangeError(f"query {self.name!r} left [-1, 1] on {example}")
        forced = self.restriction.forced_label
        if forced is not None and example.y != forced and np.any(raw != 0.0):
            raise RestrictionError(
                f"label-restricted query {self.name!r} nonzero on y={example.y}"
            )
        return raw

    def block_values(self, bits: np.ndarray) -> np.ndarray | None:
        """The block's values on `bits` if they pass every check, else None."""
        try:  # None from the block fails the shape check
            vals = np.ascontiguousarray(self.block(bits), dtype=float)
        except Exception:  # the per-example loop names the fault
            return None
        if vals.shape != (len(bits), self.arity):
            return None
        # an entry past 1 goes to the loop, which passes a row with a NaN
        if (np.abs(vals) > 1.0 + 1e-12).any():
            return None
        forced = self.restriction.forced_label
        if forced is not None and np.any(vals[bits[:, 0] != forced] != 0.0):
            return None
        return vals


def constant_zero_query(arity: int, restriction: LabelRestriction) -> SQQuery:
    """Padding query: identically zero, with the requested restriction."""
    zeros = [0.0] * arity
    return SQQuery(arity, lambda ex: zeros, restriction, name="pad-zero",
                   block=lambda bits: np.zeros((len(bits), arity)),
                   key=("pad-zero", arity, restriction))


def _sparse_to_payload(g: dict[int, float]) -> dict:
    idx = sorted(g)
    return {"idx": idx, "val": [g[i] for i in idx]}


def _vector_payload(v) -> object:
    if isinstance(v, dict):
        return _sparse_to_payload(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


@dataclass
class RoundRecord:
    """One oracle interaction; enough data to re-check validity offline."""

    index: int
    kind: str
    response: object
    exact_mean: object = None
    batch_codes: list[int] | None = None
    item_values: list | None = None
    iterate_hash: str | None = None

    def to_json(self) -> dict:
        out = {"round": self.index, "kind": self.kind,
               "response": _vector_payload(self.response)}
        if self.exact_mean is not None:
            out["mean"] = _vector_payload(self.exact_mean)
        if self.batch_codes is not None:
            out["batch"] = list(self.batch_codes)
        if self.item_values is not None:
            out["items"] = [_vector_payload(v) for v in self.item_values]
        if self.iterate_hash is not None:
            out["hash"] = self.iterate_hash
        return out


class Transcript:
    """Ordered record of every oracle round plus resource accounting."""

    def __init__(self, meta: dict | None = None):
        self.meta: dict = dict(meta or {})
        self.records: list[RoundRecord] = []
        self.samples_consumed: int = 0
        self.random_bits_consumed: int = 0

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    @property
    def rounds(self) -> int:
        return len(self.records)

    def to_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            header = {
                "meta": self.meta,
                "samples_consumed": self.samples_consumed,
                "random_bits_consumed": self.random_bits_consumed,
            }
            fh.write(json.dumps(header) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec.to_json()) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Transcript":
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        if not lines:
            raise ValueError(f"transcript {path} is empty")
        header = json.loads(lines[0])
        out = cls(meta=header.get("meta", {}))
        out.samples_consumed = int(header.get("samples_consumed", 0))
        out.random_bits_consumed = int(header.get("random_bits_consumed", 0))
        for line in lines[1:]:
            row = json.loads(line)
            out.append(RoundRecord(
                index=int(row["round"]),
                kind=row["kind"],
                response=row.get("response"),
                exact_mean=row.get("mean"),
                batch_codes=row.get("batch"),
                item_values=row.get("items"),
                iterate_hash=row.get("hash"),
            ))
        return out


def _hash_vector(w: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()[:16]


def _apply_noise(mean: np.ndarray, tau: float, adversary: NoiseAdversary,
                 rng: np.random.Generator) -> np.ndarray:
    if adversary is NoiseAdversary.ZERO_NOISE:
        noisy = mean
    elif adversary is NoiseAdversary.PLUS_TAU:
        noisy = mean + tau
    elif adversary is NoiseAdversary.MINUS_TAU:
        noisy = mean - tau
    elif adversary is NoiseAdversary.SEEDED_RANDOM:
        noisy = mean + rng.uniform(-tau, tau, size=mean.shape)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(adversary)
    return noisy.clip(-1.0, 1.0)  # np.clip's ufunc, without its wrapper


class _Relabelled:
    """Examples relabelled lazily, for a query's per-example loop only."""

    def __init__(self, items, label: int):
        self.items = items
        self.label = label

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return (Example(ex.x, self.label) for ex in self.items)


def _relabel(items, bits: np.ndarray, label: int | None) -> tuple:
    """The rows with label `label` (None: as they are): column 0 of their
    joint bits set, and their examples relabelled lazily."""
    if label is None:
        return items, bits
    bits = bits.copy()
    bits[:, 0] = label
    return _Relabelled(items, label), bits


class _ValueStore:
    """Checked query values on one pool of P examples, one array per key.

    `values(query, label)` evaluates a query once on the whole pool
    (relabelled to `label` if one is given) and keeps the read-only
    (P, arity) values under `(query.key, label)`, since equal keys mean
    equal values and checks; an unkeyed query is kept under the object
    itself, which an oracle's repeat wrappers ask again and again.

    `take` serves one round's rows.  An unkeyed query, or a keyed one
    that failed a check anywhere on the pool, is evaluated on the round's
    own rows, as without a store: a bad value on a row the round did not
    draw goes unseen, one on a drawn row raises that row's error.  A
    store lives as long as its run, oracle or audited trial.
    """

    def __init__(self, pool: Sequence[Example] | None, bits: np.ndarray):
        self._pool = pool
        self.bits = bits
        self._values: dict[Hashable, np.ndarray] = {}
        self._failed: set[tuple] = set()
        self.evaluations = 0
        self.hits = 0

    @property
    def pool(self) -> Sequence[Example]:
        """The pool's examples, rebuilt from its joint bits if not given."""
        if self._pool is None:
            self._pool = [Example.from_joint_bits(tuple(z))
                          for z in self.bits.tolist()]
        return self._pool

    def values(self, query: SQQuery, label: int | None = None) -> np.ndarray:
        """The checked values on the pool; raises the error of a failed
        check, keeping nothing."""
        key = query if query.key is None else (query.key, label)
        vals = self._values.get(key)
        if vals is not None:
            self.hits += 1
            return vals
        self.evaluations += 1
        vals = query.evaluate(*_relabel(self.pool, self.bits, label))
        vals.setflags(write=False)
        self._values[key] = vals
        return vals

    def take(self, query: SQQuery, rows: np.ndarray | None, items,
             bits: np.ndarray, label: int | None = None) -> np.ndarray:
        """The values of the round whose examples `items` (joint bits:
        `bits`) are the pool rows `rows` (None: the whole pool in order)."""
        key = (query.key, label)
        if query.key is not None and key not in self._failed:
            try:
                vals = self.values(query, label)
            except Exception:  # whatever failed, the round's rows decide
                self._failed.add(key)
            else:
                return vals if rows is None else vals[rows]
        self.evaluations += 1
        return query.evaluate(*_relabel(items, bits, label))


class _QueryOracle:
    """The one ask path: rows -> exact mean -> adversary noise -> record.

    Oracles differ only in `_rows`, which returns the per-example values
    behind the mean, the exact mean, and the batch codes to record (or
    None).  The subclass sets `transcript` with its own meta keys.
    """

    kind = ""
    record_items = False

    def __init__(self, tau: float, adversary: NoiseAdversary, seed: int,
                 record: bool):
        self.tau = float(tau)
        self.adversary = adversary
        self._rng = np.random.default_rng(seed)
        self.record = record
        self.rounds = 0

    def _rows(self, query: SQQuery
              ) -> tuple[np.ndarray, np.ndarray, Sequence[int] | None]:
        raise NotImplementedError

    def ask(self, query: SQQuery) -> np.ndarray:
        vals, mean, codes = self._rows(query)
        response = _apply_noise(mean, self.tau, self.adversary, self._rng)
        self.rounds += 1
        if self.record:
            rec = RoundRecord(
                index=self.rounds, kind=self.kind, response=response.copy(),
                exact_mean=mean.copy(),
                batch_codes=None if codes is None else [int(c) for c in codes])
            if self.record_items:
                rec.item_values = [v.tolist() for v in vals]
            self.transcript.append(rec)
        return response


class SQOracle(_QueryOracle):
    """Statistical queries answered from exact population expectations."""

    kind = "sq"

    def __init__(self, D: FiniteDistribution, tau: float,
                 adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
                 seed: int = 0, record: bool = True):
        super().__init__(tau, adversary, seed, record)
        self.D = D
        self._store = _ValueStore(D.support, D.joint_bits)
        self.transcript = Transcript(meta={"kind": self.kind, "tau": self.tau})

    def _rows(self, query: SQQuery):
        vals = self._store.values(query)
        return vals, self.D.probs @ vals, None


class BSQOracle(_QueryOracle):
    """Batch statistical queries against fresh hidden mini-batches.

    Each ask draws b fresh i.i.d. examples from one master stream, so
    the whole interaction is determined by the construction seed.  The
    hidden batch never leaves the oracle except through the transcript.
    The support is evaluated before the draw, so a query failing its
    range or restriction check leaves the stream untouched.
    """

    kind = "bsq"

    def __init__(self, D: FiniteDistribution, b: int, tau: float,
                 adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
                 seed: int = 0, record: bool = True, record_items: bool = False):
        if b <= 0:
            raise ValueError("batch size must be positive")
        super().__init__(tau, adversary, seed, record)
        self.D = D
        self.b = int(b)
        self.seed = int(seed)
        self._store = _ValueStore(D.support, D.joint_bits)
        self.record_items = record_items
        self.transcript = Transcript(
            meta={"kind": self.kind, "b": self.b, "tau": self.tau,
                  "seed": self.seed})
        self.samples_consumed = 0

    def _rows(self, query: SQQuery):
        vals = self._store.values(query)
        idx = self.D.draw_indices(self._rng, self.b)
        self.samples_consumed += self.b
        self.transcript.samples_consumed = self.samples_consumed
        rows = vals[idx]
        # the sum and division ndarray.mean runs, without its wrapper
        return (rows, np.add.reduce(rows, axis=0) / self.b,
                self.D.joint_codes[idx] if self.record else None)


class FBSQOracle(_QueryOracle):
    """Statistical queries against one frozen batch.

    Identical queries under the zero-noise adversary always give
    identical answers, because the batch never changes.
    """

    kind = "fbsq"

    def __init__(self, batch: Batch, tau: float,
                 adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
                 seed: int = 0, record: bool = True, record_items: bool = False):
        if not batch.items:
            raise ValueError("frozen batch must be nonempty")
        super().__init__(tau, adversary, seed, record)
        self.batch = batch
        self.m = len(batch.items)
        self._codes = [ex.joint_code() for ex in batch.items]
        self._bits = joint_bit_matrix(batch.items)
        self._bits.setflags(write=False)
        self._store = _ValueStore(batch.items, self._bits)
        self.record_items = record_items
        self.transcript = Transcript(
            meta={"kind": self.kind, "m": self.m, "tau": self.tau})

    def _rows(self, query: SQQuery):
        vals = self._store.take(query, None, self.batch.items, self._bits)
        return vals, vals.mean(axis=0), self._codes


def sq_oracle_answer(D: FiniteDistribution, query: SQQuery, tau: float,
                     adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
                     seed: int = 0) -> float | np.ndarray:
    """One-shot query; a float for scalar queries, else the vector."""
    oracle = SQOracle(D, tau, adversary, seed, record=False)
    return float(oracle.ask(query)[0]) if query.arity == 1 else oracle.ask(query)


def bsq_oracle_answer(D: FiniteDistribution, query: SQQuery, b: int, tau: float,
                      adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
                      seed: int = 0) -> tuple[np.ndarray, Transcript]:
    """One-shot batch query; the hidden batch stays inside the transcript."""
    oracle = BSQOracle(D, b, tau, adversary, seed, record=True, record_items=True)
    response = oracle.ask(query)
    return response, oracle.transcript


def fbsq_oracle_answer(batch: Batch, query: SQQuery, tau: float,
                       adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
                       seed: int = 0) -> tuple[np.ndarray, Transcript]:
    oracle = FBSQOracle(batch, tau, adversary, seed, record=True, record_items=True)
    response = oracle.ask(query)
    return response, oracle.transcript


# ---------------------------------------------------------------------------
# Differentiable models and gradient runners


@dataclass(frozen=True)
class PadTail:
    """Closed form of the rounds a model will spend only advancing clocks.

    Round j of the tail (counted from the model's active round) writes
    one coordinate, `coords[j]`, and every example's clipped gradient
    there is `grad0[j]` or `grad1[j]` by its label.  The tail holds only
    while each step leaves its coordinate at or above `fire`: a round
    that does not is the last one the tail covers.
    """

    coords: np.ndarray
    grad0: np.ndarray
    grad1: np.ndarray
    fire: float


@dataclass(eq=False)
class DiffModel:
    """A parametric model exposing value and per-example loss gradients.

    loss_gradient(w, ex) is the gradient in w of the square loss of
    value(w, ex.x) against ex.y, the one loss every construction here
    is worked out for.  It returns either a dense vector of length dim
    or a sparse {index: value} dict whose missing entries are exactly
    zero.  Sparse returns are reserved for models that can certify the
    missing coordinates vanish identically, so a valid rounding of them
    is forced to zero and dense and sparse training coincide.

    pad_tail, when given, maps w to the PadTail starting at the
    active round, or None when that round needs per-example gradients;
    the runners then take the whole tail in one pass, with the same
    result as clipping and summing every example of every round.

    batch_gradient(w, items, bits, store=None, rows=None), when given,
    returns the gradients of the b `items` (joint bits: the (b, n+1)
    matrix `bits`) as one block: the k distinct coordinates they may
    touch, a (b, k) array of unclipped values and the (b, k) mask of the
    entries each example's dict would hold, in that coordinate order.
    The runners pass their run's value store over the pool and the
    round's pool rows (None: the whole pool in order).  It must match
    bit for bit the block the runners otherwise lift from the clipped
    per-example gradients (for dense ones: coordinates and mask None).
    """

    dim: int
    random_bits: int
    init: Callable[[tuple[int, ...]], np.ndarray]
    value: Callable[[np.ndarray, tuple[int, ...]], float]
    loss_gradient: Callable[[np.ndarray, Example], object]
    name: str = ""
    pad_tail: Callable[[np.ndarray], PadTail | None] | None = None
    batch_gradient: Callable[..., tuple[np.ndarray, ...]] | None = None


@dataclass(eq=False)
class ModelSnapshot:
    """Predictor formed by freezing a model at trained parameters.

    Every model in this package is a pure function of its parameters,
    so a snapshot stays fixed while the same model trains other runs.
    """

    model: DiffModel
    params: np.ndarray

    def __call__(self, x: tuple[int, ...]) -> float:
        return float(self.model.value(self.params, x))

    def __repr__(self) -> str:
        return f"ModelSnapshot({self.model.name or 'model'}, dim={self.model.dim})"


@dataclass
class BSGDRoundInfo:
    """Post-update view of one gradient round, passed to audit hooks; a
    `takes_round_blocks` hook gets transcript-free pad passes as blocks.
    `bits`, when given, holds the batch's joint bits, one row each, and
    `pool_bits` the runner's matrix of the pool's joint bits, of which
    the batch is rows `rows` (None: the whole pool in order, and `bits`
    is `pool_bits`); the runners hand both read-only."""

    index: int
    batch: tuple[Example, ...]
    avg: object
    response: object
    w: np.ndarray
    bits: np.ndarray | None = None
    rows: np.ndarray | None = None
    pool_bits: np.ndarray | None = None


@dataclass
class RoundBlock:
    """Post-update view of k pad rounds, for hooks that take a block:
    round `first + j` drew pool rows `rows[j]` (labels: `labels`), whose
    clipped gradients average to `avg[j]` at coordinate `coords[j]`
    (distinct in a block), which `response[j]` moved from `before[j]` to
    `after[j]`; `w` is the vector after the last round.  `pool_bits`,
    when given, is the runner's read-only matrix of the pool's joint
    bits, one row each."""

    first: int
    pool: Sequence[Example]
    labels: np.ndarray
    rows: np.ndarray
    coords: np.ndarray
    avg: np.ndarray
    response: np.ndarray
    before: np.ndarray
    after: np.ndarray
    w: np.ndarray
    pool_bits: np.ndarray | None = None


class _IntBits(tuple):
    """A bit pool already held as Python ints, so a run takes it as is."""


def _draw_init_bits(seed: int, r: int) -> tuple[int, ...]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1B17]))
    return tuple(rng.integers(0, 2, size=r).tolist())


def _clipped_gradient(model: DiffModel, w: np.ndarray, ex: Example) -> object:
    g = model.loss_gradient(w, ex)
    if isinstance(g, dict):
        return {i: (-1.0 if v < -1.0 else (1.0 if v > 1.0 else v))
                for i, v in g.items()}
    return clip1(g)


def _lifted_block(model: DiffModel, w: np.ndarray,
                  items: Sequence[Example]) -> tuple:
    """The clipped per-example gradients of `items` as a block: dense
    ones as they are, sparse ones over their keys in order of first
    appearance."""
    grads = [_clipped_gradient(model, w, ex) for ex in items]
    if not isinstance(grads[0], dict):
        return None, grads, None
    keys = list(dict.fromkeys(i for g in grads for i in g))
    return (np.array(keys, dtype=np.intp),
            np.array([[g.get(i, 0.0) for i in keys] for g in grads], float),
            np.array([[i in g for i in keys] for g in grads], bool))


def _gradient_step(model: DiffModel, w: np.ndarray, items: Sequence[Example],
                   bits: np.ndarray, rho: float, gamma: float,
                   rounding: RoundingOracle, store: _ValueStore | None = None,
                   rows: np.ndarray | None = None
                   ) -> tuple[object, object, object]:
    """Clip, sum the rows in batch order, average, round, step.

    Returns (grads, avg, response), `grads()` listing the clipped rows;
    a sparse block gives them as dicts, as merged per-example dicts do.
    A `store` over the run's pool, with the round's `rows` in it, goes
    to the model's batch gradient.
    """
    if model.batch_gradient is None:
        coords, grads, present = _lifted_block(model, w, items)
    else:
        coords, vals, present = model.batch_gradient(
            w, items, bits, *(() if store is None else (store, rows)))
        grads = vals.clip(-1.0, 1.0)  # np.clip's ufunc, without its wrapper
    b = len(items)
    if present is None:
        avg = sum(grads[1:], grads[0]) / b
        response = round_approximate(avg, rho, rounding)
        w -= gamma * response
        return lambda: [g.tolist() for g in grads], avg, response
    # an absent entry adds -0.0, the exact identity, and a running sum is
    # the batch-order sum; a dict merge's get starts an entry absent from
    # the first row at 0.0, which differs only from a sum of -0.0s
    sums = np.where(present, grads, -0.0).cumsum(axis=0)[-1].tolist()
    head = present[0].tolist()
    avg = [(s if s or head[j] else 0.0) / b for j, s in enumerate(sums)]
    keys = coords.tolist()
    at = present.argmax(axis=0).tolist()
    held = [j for j, s in enumerate(present.any(axis=0).tolist()) if s]
    first = sorted(held, key=at.__getitem__)
    held.sort(key=keys.__getitem__)  # one pass when coords ascend
    rounded = (round_approximate([avg[j] for j in held], rho,
                                 rounding).tolist() if held else [])
    response = {}
    for j, v in zip(held, rounded):
        response[keys[j]] = v
        if v != 0.0:
            w[keys[j]] -= gamma * v
    return (lambda: [dict(zip(coords[p].tolist(), g[p].tolist()))
                     for g, p in zip(grads, present)],
            {keys[j]: avg[j] for j in first}, response)


def _pad_pass(tail: PadTail, first: int, pool: Sequence[Example],
              pool_bits: np.ndarray, labels: np.ndarray, rows: np.ndarray,
              w: np.ndarray, rho: float, gamma: float,
              rounding: RoundingOracle) -> tuple[RoundBlock, np.ndarray]:
    """Every round of a pad tail at once, as the per-example loop does it.

    Each round's clipped gradients are summed in batch order, averaged
    and rounded (entrywise, so one call covers all rounds); the pass
    ends after the first round that leaves its clock unfired.  Returns
    the block of rounds it covers, with w not yet stepped, and their
    (k, b) clipped per-example gradients.
    """
    k, b = rows.shape
    grads = np.where(labels[rows] == 1, tail.grad1[:k, None],
                     tail.grad0[:k, None])
    acc = grads[:, 0].copy()
    for j in range(1, b):
        acc += grads[:, j]
    avg = acc / b
    response = round_approximate(avg, rho, rounding)
    before = w[tail.coords[:k]]
    after = np.where(response != 0.0, before - gamma * response, before)
    unfired = np.flatnonzero(~(after >= tail.fire))
    n = int(unfired[0]) + 1 if unfired.size else k
    return RoundBlock(first=first, pool=pool, labels=labels, rows=rows[:n],
                      coords=tail.coords[:n], avg=avg[:n],
                      response=response[:n], before=before[:n],
                      after=after[:n], w=w, pool_bits=pool_bits), grads[:n]


def _run_gradient_method(model: DiffModel, pool: Sequence[Example],
                         pool_bits: np.ndarray, draw, T: int, rho: float,
                         gamma: float, rounding: RoundingOracle, seed: int,
                         kind: str, b: int, record: bool, record_items: bool,
                         record_hashes: bool, hook) -> "MethodRun":
    """Shared loop of run_bsgd and run_fbgd.

    `draw(k)` returns the next k batches as a (k, b) array of indices
    into `pool`, whose joint bits are the rows of `pool_bits`; a frozen
    batch (`fbgd`) is the pool itself, in order, every round.  Rounds
    the model can state in closed form (its `pad_tail`) take one pass;
    every other round is one block step, whose query values come from
    one value store over the pool that lives as long as the run.
    Without a transcript a pad pass steps in one assignment and goes as
    one RoundBlock to a hook whose `__self__` sets `takes_round_blocks`
    (TrajectoryAuditor.hook); other hooks get a BSGDRoundInfo per round.
    """
    grid_exponent(rho)
    bits = _draw_init_bits(seed, model.random_bits)
    w = np.array(model.init(bits), dtype=float)
    if w.shape != (model.dim,):
        raise ValueError(f"init returned shape {w.shape}, expected ({model.dim},)")
    transcript = Transcript(meta={
        "kind": kind, "T": T, "rho": rho, "b": b, "gamma": gamma,
        "seed": seed, "dim": model.dim, "model": model.name,
        "strategy": rounding.strategy.value,
    })
    blocks = not record and (hook is None or getattr(
        getattr(hook, "__self__", None), "takes_round_blocks", False))
    ahead = np.empty((0, b), dtype=np.intp)
    labels = None
    store = _ValueStore(pool, pool_bits)

    def take(k: int) -> np.ndarray:
        # a pad pass draws all its batches up front; rounds it did not
        # cover use the rest, so the stream is the same k draws of b
        nonlocal ahead
        if len(ahead) < k:
            fresh = draw(k - len(ahead))
            ahead = np.concatenate([ahead, fresh]) if len(ahead) else fresh
        rows, ahead = ahead[:k], ahead[k:]
        return rows

    def finish_round(t, items, bits, avg, response, item_grads, rows):
        transcript.samples_consumed += len(items) if kind == "bsgd" else 0
        if record:
            rec = RoundRecord(
                index=t, kind=kind,
                response=dict(response) if isinstance(response, dict)
                else response.copy(),
                exact_mean=dict(avg) if isinstance(avg, dict) else avg.copy(),
                batch_codes=[ex.joint_code() for ex in items])
            rec.item_values = item_grads
            if record_hashes:
                rec.iterate_hash = _hash_vector(w)
            transcript.append(rec)
        if hook is not None:
            bits.setflags(write=False)  # a hook reads its rows, never writes
            hook(BSGDRoundInfo(index=t, batch=items, avg=avg,
                               response=response, w=w, bits=bits, rows=rows,
                               pool_bits=pool_bits))

    t = 1
    while t <= T:
        tail = model.pad_tail(w) if model.pad_tail is not None else None
        if tail is not None and len(tail.coords):
            if labels is None:
                labels = np.array([ex.y for ex in pool])
            rows = take(min(len(tail.coords), T - t + 1))
            block, grads = _pad_pass(tail, t, pool, pool_bits, labels, rows,
                                     w, rho, gamma, rounding)
            n = len(block.coords)
            ahead = np.concatenate([rows[n:], ahead])
            if blocks:
                w[block.coords] = block.after
                transcript.samples_consumed += n * b if kind == "bsgd" else 0
                if hook is not None:
                    hook(block)
                t += n
                continue
            per_item = (grads.tolist() if record and record_items
                        else repeat(None))
            for c, a, v, x, row, at, g in zip(
                    block.coords.tolist(), block.avg.tolist(),
                    block.response.tolist(), block.after.tolist(),
                    block.rows.tolist(), block.rows, per_item):
                if v != 0.0:
                    w[c] = x
                finish_round(t, tuple([pool[i] for i in row]), pool_bits[at],
                             {c: a}, {c: v},
                             None if g is None else [{c: gi} for gi in g], at)
                t += 1
            continue
        if kind == "fbgd":
            row, items, rows_bits = None, pool, pool_bits
        else:
            row = take(1)[0]
            items, rows_bits = tuple([pool[i] for i in row]), pool_bits[row]
        grads, avg, response = _gradient_step(model, w, items, rows_bits, rho,
                                              gamma, rounding, store, row)
        finish_round(t, items, rows_bits, avg, response,
                     grads() if record and record_items else None, row)
        t += 1
    transcript.random_bits_consumed = model.random_bits
    if kind == "fbgd":
        transcript.samples_consumed = len(pool)
    predictor = ModelSnapshot(model, w.copy())
    return MethodRun(predictor=predictor, transcript=transcript,
                     final_params=w.copy(), init_bits=bits)


def run_bsgd(model: DiffModel, D: FiniteDistribution, T: int, rho: float,
             b: int, gamma: float = 1.0,
             rounding: RoundingOracle | None = None, seed: int = 0,
             record: bool = True, record_items: bool = False,
             record_hashes: bool = False, hook=None) -> "MethodRun":
    """Mini-batch SGD at precision rho with fresh hidden batches.

    Per round: draw b i.i.d. examples, clip each per-example gradient to
    [-1, 1] entrywise, average exactly, hand the average to the rounding
    oracle, and step w <- w - gamma * g with the returned grid vector.
    """
    if rounding is None:
        rounding = RoundingOracle()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))
    b = int(b)

    def draw(k: int) -> np.ndarray:
        return D.draw_indices(rng, b * k).reshape(k, b)

    return _run_gradient_method(model, D.support, D.joint_bits, draw, T,
                                rho, gamma, rounding, seed, "bsgd", b,
                                record, record_items, record_hashes, hook)


def run_fbgd(model: DiffModel, S: Batch, T: int, rho: float,
             gamma: float = 1.0, rounding: RoundingOracle | None = None,
             seed: int = 0, record: bool = True, record_items: bool = False,
             record_hashes: bool = False, hook=None) -> "MethodRun":
    """Full-batch gradient descent: every round reuses the frozen batch S."""
    if rounding is None:
        rounding = RoundingOracle()
    items = tuple(S.items)
    every = np.arange(len(items))
    bits = joint_bit_matrix(items)
    bits.setflags(write=False)

    def draw(k: int) -> np.ndarray:
        return np.broadcast_to(every, (k, len(items)))

    return _run_gradient_method(model, items, bits, draw, T, rho, gamma,
                                rounding, seed, "fbgd", len(items), record,
                                record_items, record_hashes, hook)


# ---------------------------------------------------------------------------
# Query programs: adaptive query methods as data


class ProgramRun(Protocol):
    """One execution of a query program; advanced round by round."""

    def next_query(self) -> SQQuery | None: ...

    def receive(self, response: Sequence[float]) -> None: ...

    def predictor(self): ...


class QueryProgram(Protocol):
    """Factory of program runs; all state lives in the run object.

    Restarting with the same random bits and feeding the same responses
    must reproduce the same queries and predictor.
    """

    rounds: int
    arity: int
    random_bits: int

    def start(self, bits: tuple[int, ...]) -> ProgramRun: ...


@dataclass(eq=False)
class GeneratorProgram:
    """Query program given as pure functions of (round, bits, responses).

    query_generator(t, bits, responses) returns the round-t query, or
    None to finish early; final_predictor(bits, responses) builds the
    output hypothesis.  Both must be pure so a run can be replayed from
    its transcript.
    """

    rounds: int
    arity: int
    random_bits: int
    query_generator: Callable[
        [int, tuple[int, ...], tuple[tuple[float, ...], ...]], SQQuery | None]
    final_predictor: Callable[
        [tuple[int, ...], tuple[tuple[float, ...], ...]], object]
    alternating: bool = False
    name: str = ""

    def start(self, bits: tuple[int, ...]) -> "_GeneratorRun":
        return _GeneratorRun(self, tuple(bits))


class _GeneratorRun:
    def __init__(self, prog: GeneratorProgram, bits: tuple[int, ...]):
        self.prog = prog
        self.bits = bits
        self.responses: list[tuple[float, ...]] = []
        self._done = False

    def next_query(self) -> SQQuery | None:
        t = len(self.responses) + 1
        if self._done or t > self.prog.rounds:
            return None
        q = self.prog.query_generator(t, self.bits, tuple(self.responses))
        if q is None:
            self._done = True
        return q

    def receive(self, response: Sequence[float]) -> None:
        self.responses.append(tuple(float(v) for v in response))

    def predictor(self):
        return self.prog.final_predictor(self.bits, tuple(self.responses))


class BitStream:
    """Counting source of fair coin flips, deterministic in its seed.

    Each 62-bit draw serves its bits from the least significant up; the
    buffer holds them reversed, next bit highest among `_available`."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB175]))
        self.consumed = 0
        self._buffer = 0
        self._available = 0

    def bit(self) -> int:
        return self.take(1)

    def take(self, k: int) -> int:
        """k fresh bits assembled MSB first."""
        out = 0
        while k > 0:
            if self._available == 0:
                drawn = int(self._rng.integers(0, 1 << 62, dtype=np.int64))
                self._buffer = int(f"{drawn:062b}"[::-1], 2)
                self._available = 62
            n = min(k, self._available)
            self._available -= n
            self.consumed += n
            out = (out << n) | ((self._buffer >> self._available)
                                & ((1 << n) - 1))
            k -= n
        return out


@dataclass(eq=False)
class MethodRun:
    predictor: object
    transcript: Transcript
    final_params: np.ndarray | None = None
    init_bits: tuple[int, ...] | None = None


@dataclass(eq=False)
class PACMethod:
    """Learns from m labelled samples and r random bits."""

    m: int
    r: int
    learn: Callable[[Sequence[Example], tuple[int, ...]], object]
    name: str = "pac"

    def __post_init__(self) -> None:
        if self.m <= 0 or self.r < 0:
            raise ValueError("PAC method needs m >= 1 and r >= 0")

    def run(self, D: FiniteDistribution, seed: int = 0, **_: object) -> MethodRun:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9AC]))
        sample_seed = int(rng.integers(0, 1 << 62))
        batch = sample_batch(D, self.m, sample_seed)
        bits = tuple(int(v) for v in rng.integers(0, 2, size=self.r))
        predictor = self.learn(batch.items, bits)
        transcript = Transcript(meta={"kind": "pac", "m": self.m, "r": self.r})
        transcript.samples_consumed = self.m
        transcript.random_bits_consumed = self.r
        return MethodRun(predictor=predictor, transcript=transcript,
                         init_bits=bits)


def _drive_query_method(program: QueryProgram, k: int, oracle,
                        seed: int, expected_arity: int) -> MethodRun:
    bits_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB117]))
    bits = tuple(int(v) for v in bits_rng.integers(0, 2, size=program.random_bits))
    run = program.start(bits)
    rounds_used = 0
    for _ in range(k):
        query = run.next_query()
        if query is None:
            break
        if query.arity != expected_arity:
            raise ValueError(
                f"program emitted arity {query.arity}, declared {expected_arity}")
        response = oracle.ask(query)
        run.receive(response)
        rounds_used += 1
    predictor = run.predictor()
    transcript = oracle.transcript
    transcript.meta["rounds_used"] = rounds_used
    transcript.random_bits_consumed = program.random_bits
    if hasattr(run, "bits_consumed"):
        transcript.random_bits_consumed += int(run.bits_consumed)
    return MethodRun(predictor=predictor, transcript=transcript, init_bits=bits)


def _check_dyadic(tau: float) -> float:
    grid_exponent(tau)
    return float(tau)


@dataclass(eq=False)
class SQMethod:
    """k adaptive scalar statistical queries at tolerance tau."""

    k: int
    tau: float
    program: QueryProgram
    name: str = "sq"

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("round count cannot be negative")
        _check_dyadic(self.tau)

    def run(self, D: FiniteDistribution, seed: int = 0,
            adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
            record: bool = True, **_: object) -> MethodRun:
        oracle = SQOracle(D, self.tau, adversary, seed, record=record)
        return _drive_query_method(self.program, self.k, oracle, seed, 1)


@dataclass(eq=False)
class BSQMethod:
    """k adaptive vector queries answered from fresh hidden b-batches."""

    k: int
    tau: float
    b: int
    program: QueryProgram
    name: str = "bsq"

    def __post_init__(self) -> None:
        if self.k < 0 or self.b <= 0 or self.program.arity <= 0:
            raise ValueError("need k >= 0, positive b and program arity")
        _check_dyadic(self.tau)

    def run(self, D: FiniteDistribution, seed: int = 0,
            adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
            record: bool = True, record_items: bool = False,
            **_: object) -> MethodRun:
        oracle = BSQOracle(D, self.b, self.tau, adversary, seed,
                           record=record, record_items=record_items)
        return _drive_query_method(self.program, self.k, oracle, seed,
                                   self.program.arity)


@dataclass(eq=False)
class FBSQMethod:
    """k adaptive vector queries against one frozen batch of size m."""

    k: int
    tau: float
    m: int
    program: QueryProgram
    name: str = "fbsq"

    def __post_init__(self) -> None:
        if self.k < 0 or self.m <= 0 or self.program.arity <= 0:
            raise ValueError("need k >= 0, positive m and program arity")
        _check_dyadic(self.tau)

    def run(self, D: FiniteDistribution, seed: int = 0,
            adversary: NoiseAdversary = NoiseAdversary.ZERO_NOISE,
            record: bool = True, record_items: bool = False,
            **_: object) -> MethodRun:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFB5]))
        batch = sample_batch(D, self.m, int(rng.integers(0, 1 << 62)))
        oracle = FBSQOracle(batch, self.tau, adversary, seed,
                            record=record, record_items=record_items)
        out = _drive_query_method(self.program, self.k, oracle, seed,
                                  self.program.arity)
        out.transcript.samples_consumed = self.m
        return out


@dataclass(eq=False)
class BSGDMethod:
    """T rounds of rho-precision SGD on fresh hidden b-batches."""

    model: DiffModel
    T: int
    rho: float
    b: int
    gamma: float = 1.0
    name: str = "bsgd"

    def __post_init__(self) -> None:
        grid_exponent(self.rho)
        if self.T < 0 or self.b <= 0:
            raise ValueError("need T >= 0 and positive b")

    def run(self, D: FiniteDistribution, seed: int = 0,
            rounding: RoundingOracle | None = None, record: bool = True,
            hook=None, **_: object) -> MethodRun:
        return run_bsgd(self.model, D, self.T, self.rho, self.b, self.gamma,
                        rounding, seed, record=record, hook=hook)


@dataclass(eq=False)
class FBGDMethod:
    """T rounds of rho-precision full-batch descent on one frozen batch."""

    model: DiffModel
    T: int
    rho: float
    m: int
    gamma: float = 1.0
    name: str = "fbgd"

    def __post_init__(self) -> None:
        grid_exponent(self.rho)
        if self.T < 0 or self.m <= 0:
            raise ValueError("need T >= 0 and positive m")

    def run(self, D: FiniteDistribution, seed: int = 0,
            rounding: RoundingOracle | None = None, record: bool = True,
            hook=None, **_: object) -> MethodRun:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFB6D]))
        S = sample_batch(D, self.m, int(rng.integers(0, 1 << 62)))
        return run_fbgd(self.model, S, self.T, self.rho, self.gamma, rounding,
                        seed, record=record, hook=hook)


@dataclass(frozen=True)
class ErrorEstimate:
    mean: float
    stderr: float
    trials: int

    def __str__(self) -> str:
        return f"{self.mean:.4f} +- {self.stderr:.4f} ({self.trials} trials)"


def eval_method_error(method, D: FiniteDistribution, trials: int,
                      seed: int = 0, **run_kwargs) -> ErrorEstimate:
    """Monte-Carlo mean population loss over independent runs.

    Predictor outputs are clamped to [-1, 1] before the loss is taken.
    """
    if trials <= 0:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    trial_seeds = rng.integers(0, 1 << 62, size=trials)
    losses = np.empty(trials)
    for i, s in enumerate(trial_seeds):
        out = method.run(D, seed=int(s), record=False, **run_kwargs)
        losses[i] = population_loss(D, clip_predictor(out.predictor))
    stderr = float(losses.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return ErrorEstimate(mean=float(losses.mean()), stderr=stderr, trials=trials)


# ---------------------------------------------------------------------------
# Reference PAC payload: parity learning by elimination over GF(2)


def gf2_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """A particular solution of A x = rhs over GF(2), free variables 0.

    Returns None when the system is inconsistent.
    """
    A = np.asarray(A, dtype=np.uint8) % 2
    rhs = np.asarray(rhs, dtype=np.uint8) % 2
    rows, cols = A.shape
    M = np.concatenate([A, rhs.reshape(-1, 1)], axis=1)
    pivot_cols = []
    row = 0
    for col in range(cols):
        pivot = None
        for rr in range(row, rows):
            if M[rr, col]:
                pivot = rr
                break
        if pivot is None:
            continue
        M[[row, pivot]] = M[[pivot, row]]
        mask = M[:, col].astype(bool)
        mask[row] = False
        M[mask] ^= M[row]
        pivot_cols.append(col)
        row += 1
        if row == rows:
            break
    for rr in range(row, rows):
        if M[rr, cols]:
            return None
    x = np.zeros(cols, dtype=np.uint8)
    for i, col in enumerate(pivot_cols):
        x[col] = M[i, cols]
    return x


def parity_learner(n: int, m: int | None = None) -> PACMethod:
    """PAC method solving for a parity (mask, bias) consistent with the sample.

    Uses m = 2n samples by default and zero random bits.  An
    inconsistent sample yields the zero predictor.
    """
    if m is None:
        m = 2 * n

    def learn(samples: Sequence[Example], bits: tuple[int, ...]):
        A = np.array([list(ex.x) + [1] for ex in samples], dtype=np.uint8)
        rhs = np.array([ex.y for ex in samples], dtype=np.uint8)
        sol = gf2_solve(A, rhs)
        if sol is None:
            return ZeroPredictor()
        return ParityPredictor(tuple(int(v) for v in sol[:n]), int(sol[n]))

    return PACMethod(m=m, r=0, learn=learn, name=f"parity-gf2-n{n}")
