"""Recovering labelled examples through batched statistical queries.

The extractor walks down the tree of joint bit strings z = (y, x_1,
..., x_n).  Holding a prefix of z, it asks one vector indicator query
per round: does a hidden example extend the prefix, and which next bits
occur.  Because the tolerance is below half a batch slot, every answer
snaps to exact batch counts, and the walk either reads off a unique
matching example, descends one bit chosen proportionally to the counts,
or retries on a fresh batch.  A without-replacement variant plays the
same game against one frozen batch and always terminates.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .numerics import ToleranceError, recover_batch_counts
from .numerics import recover_batch_average  # noqa: F401, traced by name
from .paradigms import (
    BitStream,
    LabelRestriction,
    SQQuery,
    _IntBits,
    constant_zero_query,
    round_restriction,
)
from .problems import Example, ZeroPredictor

__all__ = [
    "Failure",
    "ExtractionProgram",
    "descent_bit",
    "extract_m_samples",
    "fb_extract_all",
    "prefix_query",
    "sample_extract",
]


@dataclass(frozen=True)
class Failure:
    """Round budget ran out before enough examples were recovered."""

    extracted: int
    rounds_used: int


def prefix_query(prefix: Sequence[int], n: int, *, pad_to: int | None = None,
                 restriction: LabelRestriction = LabelRestriction.NONE,
                 ) -> SQQuery:
    """Indicator query for one descent round at the given joint prefix.

    Coordinate layout: for a nonempty prefix, coordinate 0 indicates a
    match of the whole prefix and coordinate j >= 1 indicates a match
    with next bit j equal to one.  The empty prefix drops coordinate 0
    (every example matches) and starts directly with the next-bit
    indicators.  Optional zero padding up to a fixed arity lets the
    query ride transports that insist on a constant width.
    """
    prefix = tuple(int(v) for v in prefix)
    ell = len(prefix)
    if not 0 <= ell <= n:
        raise ValueError(f"prefix length {ell} out of range for n={n}")
    if any(v not in (0, 1) for v in prefix):
        raise ValueError("prefix bits must be 0/1")
    head = 1 if ell else 0
    width = head + n + 1 - ell
    arity = width if pad_to is None else int(pad_to)
    if arity < width:
        raise ValueError(f"cannot pad width {width} down to {arity}")

    def evaluate(example: Example) -> np.ndarray:
        z = example.joint_bits()
        out = np.zeros(arity)
        if z[:ell] != prefix:
            return out
        if head:
            out[0] = 1.0
        for j in range(n + 1 - ell):
            if z[ell + j] == 1:
                out[head + j] = 1.0
        return out

    def block(bits: np.ndarray) -> np.ndarray:
        out = np.zeros((len(bits), arity))
        hit = (bits[:, :ell] == prefix).all(axis=1)[:, None]
        out[:, :head] = hit
        out[:, head:width] = bits[:, ell:n + 1] * hit
        return out

    name = "prefix:" + "".join(str(v) for v in prefix)
    return SQQuery(arity=arity, evaluator=evaluate, restriction=restriction,
                   name=name, block=block,
                   key=("prefix", prefix, n, arity, restriction))


def descent_bit(w1: int, w: int, batch_size: int, bits) -> int:
    """Choose the next bit, one w.p. w1/w, by rejection sampling.

    Each attempt reads ceil(log2(batch_size)) fresh bits and accepts
    when the value lands below w; a draw below w1 selects bit one.
    Deliberately spends bits even when the choice is forced, matching
    the per-round randomness budget of the callers.
    """
    if not 1 <= w <= batch_size or not 0 <= w1 <= w:
        raise ValueError(f"bad branch counts w1={w1} w={w} b={batch_size}")
    nbits = max(1, math.ceil(math.log2(batch_size)))
    while True:
        u = bits.take(nbits)
        if u < w1:
            return 1
        if u < w:
            return 0


class _CountError(RuntimeError):
    """Recovered counts are not consistent with any hidden batch."""


class _Attempt:
    """One descent attempt: the current prefix plus the branch rules.

    `taken` holds the frozen-batch examples already extracted; their
    joint bits are kept when the walk starts, and `step` subtracts the
    ones that extend the prefix from every recovered answer.  A walk on
    fresh batches takes none.  `queries` holds prefix queries by
    (prefix, pad_to, restriction): the attempt's own, or one dict the
    attempts of an `extract_m_samples` call share.
    """

    def __init__(self, n: int, batch_size: int, tau: float,
                 taken: Sequence[Example] = (), queries: dict | None = None):
        self.n = int(n)
        self.batch_size = int(batch_size)
        self.tau = tau
        self.taken = [tuple(map(int, ex.joint_bits())) for ex in taken]
        self.root_count = self.batch_size - len(self.taken)
        self.prefix: tuple[int, ...] = ()
        self.queries = {} if queries is None else queries

    def query(self, *, pad_to: int | None = None,
              restriction: LabelRestriction = LabelRestriction.NONE) -> SQQuery:
        key = (self.prefix, pad_to, restriction)
        query = self.queries.get(key)
        if query is None:
            query = self.queries[key] = prefix_query(
                self.prefix, self.n, pad_to=pad_to, restriction=restriction)
        return query

    def step(self, response: Sequence[float], bits) -> Example | None:
        """One round of the walk; an Example ends it.

        Recovers the exact counts behind the response, subtracts the
        taken examples that extend the prefix, then reads off a unique
        match, descends one bit, or keeps the prefix when no example
        matches it.
        """
        ell = len(self.prefix)
        head = 1 if ell else 0
        width = head + self.n + 1 - ell
        trimmed = np.asarray(response, dtype=float)[:width]
        counts = recover_batch_counts(trimmed, self.batch_size, self.tau)
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


def _check_tolerance(batch_size: int, tau: float) -> None:
    if not batch_size * tau < 0.5:
        raise ToleranceError(
            f"recovery needs batch_size*tau < 1/2, got {batch_size}*{tau}")


def sample_extract(oracle, n: int, b: int, tau: float, seed: int = 0, *,
                   rng_bits=None, round_budget: int | None = None,
                   _queries: dict | None = None,
                   ) -> tuple[Example, int] | Failure:
    """Pull one example, distributed as the source, out of batch queries.

    The oracle must answer vector queries against fresh hidden batches
    of size b at tolerance tau with b*tau < 1/2.  Returns the example
    together with the number of rounds spent.  With a round budget the
    call may instead return Failure; without one it runs until done,
    which takes finitely many rounds with probability one.
    """
    _check_tolerance(b, tau)
    bits = BitStream(seed) if rng_bits is None else rng_bits
    attempt = _Attempt(n, b, tau, queries=_queries)
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
    """Repeat single-example extraction until m examples or budget out.

    n, b and tau are read off the oracle (`oracle.D.n`, `oracle.b`,
    `oracle.tau`), and every extraction draws from one bit stream
    seeded by `seed`.  A Failure result tells the caller to fall back
    to the trivial zero predictor; it carries how far the run got.
    The extractions share their prefix queries.
    """
    n, b, tau = int(oracle.D.n), int(oracle.b), float(oracle.tau)
    _check_tolerance(b, tau)
    if m <= 0:
        raise ValueError("need m >= 1")
    bits = BitStream(seed)
    queries: dict = {}
    out: list[Example] = []
    rounds = 0
    while len(out) < m:
        left = round_budget - rounds
        if left <= 0:
            return Failure(extracted=len(out), rounds_used=rounds)
        got = sample_extract(oracle, n, b, tau, rng_bits=bits,
                             round_budget=left, _queries=queries)
        if isinstance(got, Failure):
            return Failure(extracted=len(out),
                           rounds_used=rounds + got.rounds_used)
        example, used = got
        out.append(example)
        rounds += used
    return out


def fb_extract_all(oracle, n: int, tau: float, already: Sequence[Example],
                   *, seed: int = 0) -> Example:
    """Draw one example uniformly from a frozen batch, skipping `already`.

    The oracle answers against one hidden batch of `oracle.m` examples
    at tolerance tau with m*tau < 1/2.  Each round's step subtracts the
    examples in `already` that extend the prefix, so repeated calls
    walk through the whole batch without replacement; each call
    finishes within n+1 rounds and cannot fail.
    """
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


# ---------------------------------------------------------------------------
# The same walk packaged as a fixed-arity query program


class _BitCursor:
    """Serves a pre-drawn bit pool, extending deterministically if dry.

    The extension is hashed from the pool itself, so a replay with the
    same pool sees the same stream.  Bits served past the pool are
    tracked separately for randomness accounting.
    """

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

    def take(self, k: int) -> int:
        """k bits assembled MSB first, one `bit` call each."""
        out = 0
        for _ in range(k):
            out = (out << 1) | self.bit()
        return out


@dataclass(eq=False)
class ExtractionProgram:
    """Query program that farms examples and hands them to a learner.

    Emits the descent walk as fixed-arity vector queries, restarting
    after every recovered example, and stops early once `m` examples
    are in hand.  The predictor is learner(examples, payload_bits), or
    the zero predictor when the round budget ran out first.

    In alternating form every attempt opens with a pure label query on
    an odd round; once the label bit is fixed, the remaining restricted
    queries run only on rounds of the matching parity, with constant
    zero queries padding the off-parity rounds.

    With fixed_batch set the program plays the without-replacement
    variant against a frozen batch of size `b`: counts of already
    extracted examples are subtracted from every recovered answer, so
    the walk enumerates the batch and cannot stall.
    """

    n: int
    b: int
    tau: float
    m: int
    rounds: int
    learner: Callable[[Sequence[Example], tuple[int, ...]], object]
    learner_bits: int = 0
    alternating: bool = False
    fixed_batch: bool = False
    name: str = "extract"

    def __post_init__(self) -> None:
        _check_tolerance(self.b, self.tau)
        if self.fixed_batch and self.m > self.b:
            raise ValueError("cannot extract more than the frozen batch")

    @property
    def arity(self) -> int:
        return self.n + 1

    @property
    def random_bits(self) -> int:
        per_round = max(1, math.ceil(math.log2(self.b)))
        return self.learner_bits + self.rounds * per_round

    def start(self, bits: Sequence[int]) -> "_ExtractionRun":
        # the one conversion of the pool; the run's bit cursor shares it
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
        # an attempt opens on a label-1 round; its walk then takes the
        # rounds of its label and pads the others
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
            (count,) = recover_batch_counts(trimmed, prog.b, prog.tau)
            ones = count - sum(z[0] for z in self.attempt.taken)
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


def _label_query(arity: int) -> SQQuery:
    """First alternating round: count examples whose label is one.

    The padded depth-0 prefix query of n = 0 renamed: same values, so it
    keeps that query's key."""
    return replace(prefix_query((), 0, pad_to=arity,
                                restriction=LabelRestriction.ONE_QUERY),
                   name="label")
