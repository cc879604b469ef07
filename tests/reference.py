"""Reference implementations that the property tests hold the library to.

Each piece is an older, plainer formulation of a library path that now
runs a faster one, kept here so the fast path can be compared with it
bit for bit.  Nothing under `src/` imports this module.

The extraction round: a fresh `prefix_query` object every round, counts
read off `recover_batch_average`'s numerators, random bits assembled
one `bit()` call at a time, and the batch mean taken by `ndarray.mean`
with the batch codes gathered on every ask.

Query values round by round: a support cache with one entry per query
object, a frozen-batch oracle that evaluates every ask, a compiled
model's batch gradient that evaluates each round's query on a
relabelled copy of the round's joint bits, and an auditor that averages
each active round's query over the round's batch.
"""
from __future__ import annotations

import dataclasses
import hashlib
from typing import Sequence

import numpy as np

from gradlab import paradigms
from gradlab.diffsim import TrajectoryAuditor
from gradlab.extract import (
    ExtractionProgram,
    Failure,
    _check_tolerance,
    _CountError,
    _label_query,
    descent_bit,
    prefix_query,
)
from gradlab.numerics import recover_batch_average
from gradlab.paradigms import (
    DiffModel,
    LabelRestriction,
    SQQuery,
    _IntBits,
    _Relabelled,
    constant_zero_query,
    round_restriction,
)
from gradlab.problems import Example, ZeroPredictor


class BitStream:
    """Fair coin flips from one 62-bit draw at a time, served LSB first."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB175]))
        self.consumed = 0
        self._buffer = 0
        self._available = 0

    def bit(self) -> int:
        if self._available == 0:
            self._buffer = int(self._rng.integers(0, 1 << 62, dtype=np.int64))
            self._available = 62
        out = self._buffer & 1
        self._buffer >>= 1
        self._available -= 1
        self.consumed += 1
        return out

    def take(self, k: int) -> int:
        """k fresh bits assembled MSB first."""
        out = 0
        for _ in range(k):
            out = (out << 1) | self.bit()
        return out


class BSQOracle(paradigms.BSQOracle):
    """The library's batch oracle, averaging with `ndarray.mean`."""

    def _rows(self, query: SQQuery):
        vals = self._store.values(query)
        idx = self.D.draw_indices(self._rng, self.b)
        self.samples_consumed += self.b
        self.transcript.samples_consumed = self.samples_consumed
        rows = vals[idx]
        return rows, rows.mean(axis=0), self.D.joint_codes[idx]


class _Attempt:
    def __init__(self, n: int, batch_size: int, tau: float,
                 taken: Sequence[Example] = ()):
        self.n = int(n)
        self.batch_size = int(batch_size)
        self.tau = tau
        self.taken = [tuple(map(int, ex.joint_bits())) for ex in taken]
        self.root_count = self.batch_size - len(self.taken)
        self.prefix: tuple[int, ...] = ()

    def query(self, *, pad_to: int | None = None,
              restriction: LabelRestriction = LabelRestriction.NONE) -> SQQuery:
        return prefix_query(self.prefix, self.n, pad_to=pad_to,
                            restriction=restriction)

    def step(self, response: Sequence[float], bits) -> Example | None:
        ell = len(self.prefix)
        head = 1 if ell else 0
        width = head + self.n + 1 - ell
        trimmed = np.asarray(response, dtype=float)[:width]
        counts = [av.numerator for av in
                  recover_batch_average(trimmed, self.batch_size, self.tau)]
        for z in self.taken:
            if z[:ell] == self.prefix:
                if head:
                    counts[0] -= 1
                for j, bit in enumerate(z[ell:]):
                    counts[head + j] -= bit
        w = counts[0] if head else self.root_count
        child = counts[head:]
        if w < 0 or w > self.batch_size or any(c < 0 or c > w for c in child):
            raise _CountError(
                f"counts {counts} impossible at prefix {self.prefix}")
        if w == 0:
            return None
        if w == 1:
            return Example.from_joint_bits(
                self.prefix + tuple(1 if c == 1 else 0 for c in child))
        bit = descent_bit(child[0], w, self.batch_size, bits)
        self.prefix = self.prefix + (bit,)
        if len(self.prefix) == self.n + 1:
            return Example.from_joint_bits(self.prefix)
        return None


def sample_extract(oracle, n: int, b: int, tau: float, seed: int = 0, *,
                   rng_bits=None, round_budget: int | None = None,
                   ) -> tuple[Example, int] | Failure:
    _check_tolerance(b, tau)
    bits = BitStream(seed) if rng_bits is None else rng_bits
    attempt = _Attempt(n, b, tau)
    rounds = 0
    while round_budget is None or rounds < round_budget:
        response = oracle.ask(attempt.query())
        rounds += 1
        found = attempt.step(response, bits)
        if found is not None:
            return found, rounds
    return Failure(extracted=0, rounds_used=rounds)


def extract_m_samples(oracle, m: int, round_budget: int, seed: int = 0,
                      ) -> list[Example] | Failure:
    n, b, tau = int(oracle.D.n), int(oracle.b), float(oracle.tau)
    _check_tolerance(b, tau)
    if m <= 0:
        raise ValueError("need m >= 1")
    bits = BitStream(seed)
    out: list[Example] = []
    rounds = 0
    while len(out) < m:
        left = round_budget - rounds
        if left <= 0:
            return Failure(extracted=len(out), rounds_used=rounds)
        got = sample_extract(oracle, n, b, tau, rng_bits=bits,
                             round_budget=left)
        if isinstance(got, Failure):
            return Failure(extracted=len(out),
                           rounds_used=rounds + got.rounds_used)
        example, used = got
        out.append(example)
        rounds += used
    return out


def fb_extract_all(oracle, n: int, tau: float, already: Sequence[Example],
                   *, seed: int = 0) -> Example:
    m = int(oracle.m)
    _check_tolerance(m, tau)
    if not len(already) < m:
        raise ValueError(f"already holds {len(already)} of {m} examples")
    bits = BitStream(seed)
    attempt = _Attempt(n, m, tau, already)
    for _ in range(n + 1):
        depth = len(attempt.prefix)
        found = attempt.step(oracle.ask(attempt.query()), bits)
        if found is not None:
            return found
        if len(attempt.prefix) == depth:
            raise _CountError(
                "frozen-batch walk stalled; remaining examples missing")
    raise _CountError("frozen-batch walk exceeded its round bound")


class _BitCursor:
    def __init__(self, bits: tuple[int, ...]):
        self._bits = bits
        self._pos = 0
        self._overflow: BitStream | None = None
        self.overflow_consumed = 0

    def bit(self) -> int:
        if self._pos < len(self._bits):
            out = self._bits[self._pos]
            self._pos += 1
            return out
        if self._overflow is None:
            digest = hashlib.sha256(
                b"bit-pool:" + bytes(self._bits)).digest()
            self._overflow = BitStream(int.from_bytes(digest[:8], "little"))
        self.overflow_consumed += 1
        return self._overflow.bit()

    take = BitStream.take


class ReferenceExtractionProgram(ExtractionProgram):
    """An ExtractionProgram whose runs take the reference round."""

    def start(self, bits: Sequence[int]) -> "_ExtractionRun":
        return _ExtractionRun(self, bits if type(bits) is _IntBits
                              else tuple(map(int, bits)))


class _ExtractionRun:
    def __init__(self, prog: ExtractionProgram, bits: tuple[int, ...]):
        if len(bits) < prog.learner_bits:
            raise ValueError("bit pool smaller than the learner's share")
        self.prog = prog
        self.payload_bits = bits[:prog.learner_bits]
        self.cursor = _BitCursor(bits[prog.learner_bits:])
        self.examples: list[Example] = []
        self.round = 0
        self.attempt: _Attempt | None = None
        self.pending: str | None = None

    @property
    def bits_consumed(self) -> int:
        return self.cursor.overflow_consumed

    def next_query(self) -> SQQuery | None:
        prog = self.prog
        if len(self.examples) >= prog.m or self.round >= prog.rounds:
            return None
        self.round += 1
        if self.attempt is None:
            taken = self.examples if prog.fixed_batch else ()
            self.attempt = _Attempt(prog.n, prog.b, prog.tau, taken)
        if not prog.alternating:
            self.pending = "walk"
            return self.attempt.query(pad_to=prog.arity)
        want = round_restriction(self.round)
        prefix = self.attempt.prefix
        if not prefix and want is LabelRestriction.ONE_QUERY:
            self.pending = "label"
            return _label_query(prog.arity)
        if prefix and prefix[0] == want.forced_label:
            self.pending = "walk"
            return self.attempt.query(pad_to=prog.arity, restriction=want)
        self.pending = "pad"
        return constant_zero_query(prog.arity, want)

    def receive(self, response: Sequence[float]) -> None:
        prog = self.prog
        kind, self.pending = self.pending, None
        if kind == "pad":
            return
        if kind == "label":
            trimmed = np.asarray(response, dtype=float)[:1]
            (avg,) = recover_batch_average(trimmed, prog.b, prog.tau)
            ones = avg.numerator - sum(z[0] for z in self.attempt.taken)
            if not 0 <= ones <= self.attempt.root_count:
                raise _CountError(f"label count {ones} impossible")
            bit = descent_bit(ones, self.attempt.root_count, prog.b,
                              self.cursor)
            self.attempt.prefix = (bit,)
            if prog.n == 0:
                self._finish(Example.from_joint_bits((bit,)))
            return
        if kind != "walk":
            raise RuntimeError("response without a pending query")
        found = self.attempt.step(response, self.cursor)
        if found is not None:
            self._finish(found)

    def _finish(self, example: Example) -> None:
        self.examples.append(example)
        self.attempt = None

    def predictor(self):
        prog = self.prog
        if len(self.examples) < prog.m:
            return ZeroPredictor()
        return prog.learner(self.examples[:prog.m], self.payload_bits)


# ---------------------------------------------------------------------------
# query values round by round


class ObjectCache:
    """The support cache before keys: one entry per query object."""

    def __init__(self, D):
        self.D = D
        self._values: dict = {}

    def values(self, query: SQQuery) -> np.ndarray:
        hit = self._values.get(id(query))
        if hit is not None and hit[0] is query:
            return hit[1]
        vals = query.evaluate(self.D.support, self.D.joint_bits)
        self._values[id(query)] = (query, vals)
        return vals


class FBSQOracle(paradigms.FBSQOracle):
    """The frozen-batch oracle, evaluating every ask on the batch."""

    def _rows(self, query: SQQuery):
        vals = query.evaluate(self.batch.items, self._bits)
        return vals, vals.mean(axis=0), self._codes


def per_round_model(model: DiffModel) -> DiffModel:
    """The compiled `model` with a batch gradient that ignores the run's
    value store: each round evaluates its query on the round's rows."""
    core = model.batch_gradient.__self__

    def batch_gradient(w, items, bits, store=None, rows=None):
        cur, i = core._locate(w)
        lay = core.layout
        b = len(items)
        if i == lay.T + 1:
            empty = np.zeros((b, 0))
            return np.zeros(0, np.intp), empty, empty != 0.0
        kidx = lay.kappa_index(i)
        kap = float(w[kidx])
        q = core._query(cur, w, i)
        odd = i % 2 == 1
        feats, inner = np.ones((b, 1)), 0.0
        if q is not None:
            label = 1 if odd else 0
            relabelled = bits.copy()
            relabelled[:, 0] = label
            vals = q.evaluate(_Relabelled(items, label), relabelled)
            theta = lay.theta(w, i)
            inner = (np.array([row @ theta for row in vals]) if theta.any()
                     else (vals * theta).sum(axis=1))
            feats = np.concatenate((vals, feats), axis=1)
        f = inner + kap - core.eps if odd else 1.0 - inner - kap + core.eps
        slope = (f - bits[:, 0]) * (1.0 if odd else -1.0)
        coords = np.arange(kidx + 1 - feats.shape[1], kidx + 1)
        return coords, slope[:, None] * feats, feats != 0.0

    return dataclasses.replace(model, batch_gradient=batch_gradient)


class PerRoundAuditor(TrajectoryAuditor):
    """The auditor averaging each active round's query over its batch."""

    def _batch_average(self, query: SQQuery, info) -> np.ndarray:
        return np.mean(query.evaluate(info.batch, info.bits), axis=0)
