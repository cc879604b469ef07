"""Byte-level pins for sample extraction, and the round step's reference.

Each digest is a SHA-256 over the exact bytes the extraction walkers
produced when the pin was taken: extracted examples, round counts and
oracle transcript files for `sample_extract`, `extract_m_samples` and
`fb_extract_all`, and predictor examples, transcript files and random
bits for `ExtractionProgram` under `BSQMethod` and `FBSQMethod`, for
every `NoiseAdversary` and three seeds.  Lying oracles must fail with
the same error type after the same number of asks.

The property tests compare the frozen-batch walkers against a copy of
the walk as it stood before the walkers shared one round step, which
evaluated a padded prefix query on every taken example and subtracted
the summed values.
"""
import hashlib
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from gradlab.extract import (
    ExtractionProgram,
    Failure,
    _BitCursor,
    _CountError,
    _label_query,
    descent_bit,
    extract_m_samples,
    fb_extract_all,
    prefix_query,
    sample_extract,
)
from gradlab.numerics import recover_batch_average
from gradlab.paradigms import (
    BSQMethod,
    BSQOracle,
    BitStream,
    FBSQMethod,
    FBSQOracle,
    LabelRestriction,
    NoiseAdversary,
    constant_zero_query,
)
from gradlab.problems import Batch, Example, FiniteDistribution, sample_batch

SEEDS = (0, 7, 1234)
N, B, TAU = 3, 8, 1 / 32

DIGESTS = {
    "sample_extract":
        "87017019aed7c44b6b7295da968bcebde0b2a6d88a789ead2c176c5fb6c0c93b",
    "extract_m_samples":
        "978c586a9bf133a31b0f19d8641840123b7339fd89a1a44fb48b1b1eff441997",
    "fb_extract_all":
        "c7e115b73e3e2b56f71c38e70b50c7bc226f5a8871070289b26fdd0b1a8ab2ee",
    "program":
        "04ccf18be201cc03c27f4cc6d7c86568b074ba4c245611d8cd9aa6d1a1e4cb35",
    "liars":
        "5ee056e6ed2277cc93ed0dc179160a6114def9f21b771da700785565928c73ab",
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def _dist() -> FiniteDistribution:
    # five support points, so frozen batches of eight repeat examples
    return FiniteDistribution.random(N, 5, seed=3)


def _codes(examples) -> str:
    return json.dumps([ex.joint_code() for ex in examples])


def _oracle_bytes(oracle, path) -> list[bytes | str]:
    oracle.transcript.to_jsonl(path)
    return [path.read_bytes(),
            json.dumps([oracle.rounds,
                        getattr(oracle, "samples_consumed", None)])]


def _result(got) -> str:
    if isinstance(got, Failure):
        return json.dumps(["failure", got.extracted, got.rounds_used])
    if isinstance(got, list):
        return _codes(got)
    example, rounds = got
    return json.dumps([example.joint_code(), rounds])


def _sample_extract_chunks(path) -> list[bytes | str]:
    D, chunks = _dist(), []
    for seed in SEEDS:
        for adv in NoiseAdversary:
            oracle = BSQOracle(D, B, TAU, adv, seed, record_items=True)
            for i in range(4):
                chunks.append(_result(
                    sample_extract(oracle, N, B, TAU, seed=seed + i)))
            for budget in (1, 2, 3, 50):
                chunks.append(_result(sample_extract(
                    oracle, N, B, TAU, seed=seed, round_budget=budget)))
            bits = BitStream(seed + 99)
            for _ in range(4):
                chunks.append(_result(
                    sample_extract(oracle, N, B, TAU, rng_bits=bits)))
            chunks.append(str(bits.consumed))
            chunks += _oracle_bytes(oracle, path)
    return chunks


def _extract_m_chunks(path) -> list[bytes | str]:
    D, chunks = _dist(), []
    for seed in SEEDS:
        for adv in NoiseAdversary:
            for m, budget in ((6, 10_000), (6, 9), (40, 25)):
                oracle = BSQOracle(D, B, TAU, adv, seed)
                chunks.append(_result(
                    extract_m_samples(oracle, m, budget, seed=seed)))
                chunks += _oracle_bytes(oracle, path)
    return chunks


def _fb_chunks(path) -> list[bytes | str]:
    D, chunks = _dist(), []
    for seed in SEEDS:
        for adv in NoiseAdversary:
            batch = sample_batch(D, B, seed)
            oracle = FBSQOracle(batch, TAU, adv, seed, record_items=True)
            already: list[Example] = []
            for i in range(B):
                already.append(fb_extract_all(oracle, N, TAU, already,
                                              seed=seed + i))
            chunks.append(_codes(already))
            chunks += _oracle_bytes(oracle, path)
    return chunks


def _keep_samples(samples, bits):
    return tuple(samples)


def _program(alternating: bool, fixed_batch: bool, m: int,
             rounds: int) -> ExtractionProgram:
    if alternating:
        rounds *= 2
    return ExtractionProgram(n=N, b=B, tau=TAU, m=m, rounds=rounds,
                             learner=_keep_samples, learner_bits=3,
                             alternating=alternating,
                             fixed_batch=fixed_batch)


def _method(program: ExtractionProgram):
    if program.fixed_batch:
        return FBSQMethod(k=program.rounds, tau=TAU, m=B, program=program)
    return BSQMethod(k=program.rounds, tau=TAU, b=B, program=program)


def _program_chunks(path) -> list[bytes | str]:
    D, chunks = _dist(), []
    for alternating in (False, True):
        for fixed_batch in (False, True):
            for m, rounds in ((4, 200), (6, 6)):
                program = _program(alternating, fixed_batch, m, rounds)
                for seed in SEEDS:
                    for adv in NoiseAdversary:
                        run = _method(program).run(D, seed, adv,
                                                   record_items=True)
                        pred = run.predictor
                        chunks.append(_codes(pred) if isinstance(pred, tuple)
                                      else type(pred).__name__)
                        run.transcript.to_jsonl(path)
                        chunks.append(path.read_bytes())
                        chunks.append(str(run.transcript.random_bits_consumed))
    return chunks


class _Liar:
    """Honest for `honest` asks, then answers zero on coordinate 0 and one
    on every other coordinate, which no walk can square with a batch."""

    def __init__(self, inner, honest: int):
        self.inner = inner
        self.honest = honest
        self.asks = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def ask(self, query):
        self.asks += 1
        if self.asks <= self.honest:
            return self.inner.ask(query)
        return np.array([0.0] + [1.0] * (query.arity - 1))


def _failure(liar, call) -> str:
    try:
        call()
    except (_CountError, ValueError) as err:
        return json.dumps([type(err).__name__, liar.asks])
    return json.dumps(["no error", liar.asks])


def _liar_chunks() -> list[str]:
    D, chunks = _dist(), []
    for seed in SEEDS:
        for adv in NoiseAdversary:
            for honest in (0, 1, 3, 6):
                liar = _Liar(BSQOracle(D, B, TAU, adv, seed), honest)
                chunks.append(_failure(liar, lambda: extract_m_samples(
                    liar, 6, 1000, seed=seed)))
                batch = sample_batch(D, B, seed)
                liar = _Liar(FBSQOracle(batch, TAU, adv, seed), honest)

                def walk(liar=liar):
                    already = []
                    for i in range(B):
                        already.append(fb_extract_all(liar, N, TAU, already,
                                                      seed=seed + i))
                chunks.append(_failure(liar, walk))
                for alternating in (False, True):
                    for fixed_batch in (False, True):
                        program = _program(alternating, fixed_batch, 4, 200)
                        inner = (FBSQOracle(batch, TAU, adv, seed)
                                 if fixed_batch
                                 else BSQOracle(D, B, TAU, adv, seed))
                        liar = _Liar(inner, honest)
                        chunks.append(_failure(
                            liar, lambda: _drive(program, liar, seed)))
    return chunks


def _drive(program, oracle, seed: int, start=None):
    bits = tuple(int(v) for v in np.random.default_rng(seed).integers(
        0, 2, program.random_bits))
    run = (start or program.start)(bits)
    asked = []
    while (q := run.next_query()) is not None:
        asked.append((q.name, q.restriction.value))
        run.receive(oracle.ask(q))
    return run, asked


def test_sample_extract_bytes(tmp_path):
    chunks = _sample_extract_chunks(tmp_path / "t.jsonl")
    assert _sha(chunks) == DIGESTS["sample_extract"]


def test_extract_m_samples_bytes(tmp_path):
    chunks = _extract_m_chunks(tmp_path / "t.jsonl")
    assert _sha(chunks) == DIGESTS["extract_m_samples"]


def test_fb_extract_all_bytes(tmp_path):
    chunks = _fb_chunks(tmp_path / "t.jsonl")
    assert _sha(chunks) == DIGESTS["fb_extract_all"]


def test_extraction_program_bytes(tmp_path):
    chunks = _program_chunks(tmp_path / "t.jsonl")
    assert _sha(chunks) == DIGESTS["program"]


def test_lying_oracles_fail_after_the_same_asks():
    assert _sha(_liar_chunks()) == DIGESTS["liars"]


# ---------------------------------------------------------------------------
# the frozen-batch walk as it stood before the shared round step


def _ref_counts(response, width: int, b: int, tau: float) -> list[int]:
    trimmed = np.asarray(response, dtype=float)[:width]
    return [av.numerator for av in recover_batch_average(trimmed, b, tau)]


def _ref_already(query, already) -> np.ndarray:
    total = np.zeros(query.arity)
    for example in already:
        total += query.evaluate(example)
    return np.rint(total).astype(int)


class _RefAttempt:
    def __init__(self, n: int, batch_size: int, root_count: int):
        self.n, self.batch_size, self.root_count = n, batch_size, root_count
        self.prefix: tuple[int, ...] = ()

    def width(self) -> int:
        ell = len(self.prefix)
        return (1 if ell else 0) + (self.n + 1 - ell)

    def absorb(self, counts, bits):
        ell = len(self.prefix)
        if ell == 0:
            w = self.root_count
            child = [int(c) for c in counts[:self.n + 1]]
        else:
            w = int(counts[0])
            child = [int(c) for c in counts[1:self.n + 2 - ell]]
        if w < 0 or w > self.batch_size or any(c < 0 or c > w for c in child):
            raise _CountError(f"counts {list(counts)} impossible")
        if w == 0:
            return None
        if w == 1:
            z = self.prefix + tuple(1 if c == 1 else 0 for c in child)
            return Example(x=z[1:], y=z[0])
        self.prefix += (descent_bit(child[0], w, self.batch_size, bits),)
        if len(self.prefix) == self.n + 1:
            return Example(x=self.prefix[1:], y=self.prefix[0])
        return None


def _ref_fb_extract(oracle, n: int, tau: float, already, seed: int):
    m = int(oracle.m)
    already = list(already)
    bits = BitStream(seed)
    attempt = _RefAttempt(n, m, m - len(already))
    for _ in range(n + 1):
        depth = len(attempt.prefix)
        query = prefix_query(attempt.prefix, n)
        counts = _ref_counts(oracle.ask(query), attempt.width(), m, tau)
        counts = [c - a for c, a in zip(counts, _ref_already(query, already))]
        found = attempt.absorb(counts, bits)
        if found is not None:
            return found
        if len(attempt.prefix) == depth:
            raise _CountError("stalled")
    raise _CountError("exceeded its round bound")


class _RefRun:
    def __init__(self, prog: ExtractionProgram, bits):
        self.prog = prog
        self.cursor = _BitCursor(bits[prog.learner_bits:])
        self.examples: list[Example] = []
        self.round = 0
        self.attempt = None
        self.label_bit = None
        self.pending = None

    def next_query(self):
        prog = self.prog
        if len(self.examples) >= prog.m or self.round >= prog.rounds:
            return None
        self.round += 1
        if self.attempt is None:
            root = prog.b - len(self.examples) if prog.fixed_batch else prog.b
            self.attempt = _RefAttempt(prog.n, prog.b, root)
            self.label_bit = None
        prefix = self.attempt.prefix
        if not prog.alternating:
            self.pending = "walk"
            return prefix_query(prefix, prog.n, pad_to=prog.arity)
        odd = self.round % 2 == 1
        if self.label_bit is None:
            if odd:
                self.pending = "label"
                return _label_query(prog.arity)
            self.pending = "pad"
            return constant_zero_query(prog.arity,
                                       LabelRestriction.ZERO_QUERY)
        if odd == (self.label_bit == 1):
            self.pending = "walk"
            restriction = (LabelRestriction.ONE_QUERY if self.label_bit == 1
                           else LabelRestriction.ZERO_QUERY)
            return prefix_query(prefix, prog.n, pad_to=prog.arity,
                                restriction=restriction)
        self.pending = "pad"
        return constant_zero_query(prog.arity, LabelRestriction.ONE_QUERY
                                   if odd else LabelRestriction.ZERO_QUERY)

    def receive(self, response) -> None:
        prog = self.prog
        kind, self.pending = self.pending, None
        if kind == "pad":
            return
        if kind == "label":
            ones = _ref_counts(response, 1, prog.b, prog.tau)[0]
            if prog.fixed_batch:
                ones -= sum(1 for ex in self.examples if ex.y == 1)
            bit = descent_bit(ones, self.attempt.root_count, prog.b,
                              self.cursor)
            self.attempt.prefix = (bit,)
            self.label_bit = bit
            if prog.n == 0:
                self._finish(Example(x=(), y=bit))
            return
        counts = _ref_counts(response, self.attempt.width(), prog.b,
                             prog.tau)
        if prog.fixed_batch:
            query = prefix_query(self.attempt.prefix, prog.n,
                                 pad_to=prog.arity)
            counts = [c - a for c, a in
                      zip(counts, _ref_already(query, self.examples))]
        found = self.attempt.absorb(counts, self.cursor)
        if found is not None:
            self._finish(found)

    def _finish(self, example) -> None:
        self.examples.append(example)
        self.attempt = None
        self.label_bit = None


@st.composite
def _frozen_batches(draw):
    n = draw(st.integers(0, 6))
    codes = draw(st.lists(st.integers(0, (1 << (n + 1)) - 1), min_size=1,
                          max_size=4, unique=True))
    picks = draw(st.lists(st.sampled_from(codes), min_size=1, max_size=10))
    items = tuple(Example(x=tuple((c >> (n - 1 - k)) & 1 for k in range(n)),
                          y=c >> n) for c in picks)
    # the largest dyadic tolerance with m * tau < 1/2
    tau = 2.0 ** -(math.ceil(math.log2(len(items))) + 2)
    return n, Batch(items=items, draw_seed=0), tau


def _fb_walk(extract, batch, n, tau, adv, seed):
    oracle = FBSQOracle(batch, tau, adv, seed)
    already: list[Example] = []
    for i in range(len(batch.items)):
        already.append(extract(oracle, n, tau, already, seed=seed + i))
    return [ex.joint_code() for ex in already], oracle.rounds


@settings(max_examples=60, deadline=None)
@given(_frozen_batches(), st.sampled_from(list(NoiseAdversary)),
       st.integers(0, 2 ** 20))
def test_fb_extract_all_matches_reference(case, adv, seed):
    n, batch, tau = case
    got = _fb_walk(fb_extract_all, batch, n, tau, adv, seed)
    assert got == _fb_walk(_ref_fb_extract, batch, n, tau, adv, seed)
    assert sorted(got[0]) == sorted(ex.joint_code() for ex in batch.items)


@settings(max_examples=60, deadline=None)
@given(_frozen_batches(), st.booleans(), st.sampled_from(list(NoiseAdversary)),
       st.integers(0, 2 ** 20), st.data())
def test_fixed_batch_program_matches_reference(case, alternating, adv, seed,
                                               data):
    n, batch, tau = case
    b = len(batch.items)
    m = data.draw(st.integers(1, b))
    scale = 2 if alternating else 1
    program = ExtractionProgram(n=n, b=b, tau=tau, m=m,
                                rounds=scale * m * (n + 1),
                                learner=_keep_samples,
                                alternating=alternating, fixed_batch=True)
    runs = []
    for start in (program.start, lambda bits: _RefRun(program, bits)):
        oracle = FBSQOracle(batch, tau, adv, seed)
        run, asked = _drive(program, oracle, seed, start)
        runs.append(([ex.joint_code() for ex in run.examples],
                     oracle.rounds, asked))
    assert runs[0] == runs[1]
