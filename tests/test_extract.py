"""Tests for prefix-descent example extraction."""
import itertools

import numpy as np
import pytest

from gradlab.extract import (
    ExtractionProgram,
    Failure,
    _CountError,
    descent_bit,
    extract_m_samples,
    fb_extract_all,
    prefix_query,
    sample_extract,
)
from gradlab.numerics import ToleranceError, recover_batch_average
from gradlab.paradigms import (
    BSQMethod,
    BSQOracle,
    BitStream,
    FBSQMethod,
    FBSQOracle,
    LabelRestriction,
    NoiseAdversary,
)
from gradlab.problems import (
    Batch,
    Example,
    FiniteDistribution,
    ZeroPredictor,
    sample_batch,
)


def two_point_uniform(n: int = 4) -> FiniteDistribution:
    lo = Example(x=(0,) * n, y=0)
    hi = Example(x=(1,) * n, y=1)
    return FiniteDistribution(n, ((lo, 0.5), (hi, 0.5)))


def four_point(n: int = 4) -> FiniteDistribution:
    pts = [
        (Example(x=(0, 0, 0, 0), y=0), 0.4),
        (Example(x=(1, 0, 1, 0), y=1), 0.3),
        (Example(x=(0, 1, 1, 0), y=1), 0.2),
        (Example(x=(1, 1, 1, 1), y=0), 0.1),
    ]
    return FiniteDistribution(n, tuple(pts))


# ---------------------------------------------------------------------------
# prefix queries


def test_prefix_query_layout():
    q = prefix_query((1, 0), n=3, pad_to=None)
    # head indicator plus next-bit indicators for positions 3..4 of z
    assert q.arity == 3
    hit = Example(x=(0, 1, 1), y=1)  # z = 1,0,1,1
    miss = Example(x=(1, 1, 1), y=1)
    assert q.evaluate(hit).tolist() == [1.0, 1.0, 1.0]
    assert q.evaluate(miss).tolist() == [0.0, 0.0, 0.0]


def test_prefix_query_empty_prefix_drops_head():
    q = prefix_query((), n=2, pad_to=None)
    assert q.arity == 3
    ex = Example(x=(1, 0), y=0)  # z = 0,1,0
    assert q.evaluate(ex).tolist() == [0.0, 1.0, 0.0]


def test_prefix_query_padding_and_errors():
    q = prefix_query((1,), n=2, pad_to=5)
    ex = Example(x=(1, 1), y=1)
    assert q.evaluate(ex).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        prefix_query((1, 0, 1, 0), n=2)
    with pytest.raises(ValueError):
        prefix_query((2,), n=2)
    with pytest.raises(ValueError):
        prefix_query((), n=4, pad_to=2)


# ---------------------------------------------------------------------------
# branch randomness


def test_descent_bit_frequency_matches_counts():
    bits = BitStream(7)
    trials = 20000
    ones = sum(descent_bit(1, 3, 8, bits) for _ in range(trials))
    assert abs(ones / trials - 1 / 3) < 0.02


def test_descent_bit_forced_choices_still_consume_bits():
    bits = BitStream(0)
    assert descent_bit(2, 2, 2, bits) == 1
    assert descent_bit(0, 2, 2, bits) == 0
    assert bits.consumed >= 2


def test_descent_bit_rejects_bad_counts():
    bits = BitStream(0)
    with pytest.raises(ValueError):
        descent_bit(3, 2, 4, bits)
    with pytest.raises(ValueError):
        descent_bit(0, 0, 4, bits)
    with pytest.raises(ValueError):
        descent_bit(1, 5, 4, bits)


# ---------------------------------------------------------------------------
# single-example extraction


def test_point_mass_returns_unique_example_quickly():
    target = Example(x=(1, 0, 1, 1), y=1)
    D = FiniteDistribution.point_mass(target)
    oracle = BSQOracle(D, b=4, tau=1 / 16, seed=3)
    got, rounds = sample_extract(oracle, n=4, b=4, tau=1 / 16, seed=5)
    assert got == target
    assert rounds <= 6


def test_point_mass_single_slot_batch_reads_off_in_one_round():
    target = Example(x=(0, 1, 0), y=0)
    D = FiniteDistribution.point_mass(target)
    oracle = BSQOracle(D, b=1, tau=1 / 4, seed=0)
    got, rounds = sample_extract(oracle, n=3, b=1, tau=1 / 4, seed=0)
    assert got == target
    assert rounds == 1


def test_tolerance_contract_enforced():
    D = two_point_uniform()
    oracle = BSQOracle(D, b=4, tau=1 / 8, seed=0)
    with pytest.raises(ToleranceError):
        sample_extract(oracle, n=4, b=4, tau=1 / 8, seed=0)


def test_extraction_deterministic_in_seeds():
    D = four_point()
    runs = []
    for _ in range(2):
        oracle = BSQOracle(D, b=8, tau=1 / 32, seed=11)
        runs.append(sample_extract(oracle, n=4, b=8, tau=1 / 32, seed=21))
    assert runs[0] == runs[1]


def test_recovery_immune_to_deterministic_noise():
    D = four_point()
    outcomes = {}
    for adversary in (NoiseAdversary.ZERO_NOISE, NoiseAdversary.PLUS_TAU,
                      NoiseAdversary.MINUS_TAU):
        oracle = BSQOracle(D, b=8, tau=1 / 32, adversary=adversary, seed=13)
        got = [sample_extract(oracle, n=4, b=8, tau=1 / 32, seed=100 + i)[0]
               for i in range(50)]
        outcomes[adversary] = got
    assert outcomes[NoiseAdversary.PLUS_TAU] == outcomes[NoiseAdversary.ZERO_NOISE]
    assert outcomes[NoiseAdversary.MINUS_TAU] == outcomes[NoiseAdversary.ZERO_NOISE]


def test_round_counts_match_recovered_counts_every_round():
    D = four_point()
    oracle = BSQOracle(D, b=8, tau=1 / 32, adversary=NoiseAdversary.PLUS_TAU,
                       seed=2)
    for i in range(40):
        sample_extract(oracle, n=4, b=8, tau=1 / 32, seed=i)
    for rec in oracle.transcript.records:
        recovered = recover_batch_average(rec.response, 8, 1 / 32)
        exact = [round(float(v) * 8) for v in rec.exact_mean]
        assert [av.numerator for av in recovered] == exact


def test_lying_oracle_raises_count_error():
    class Liar:
        def __init__(self):
            self.calls = 0

        def ask(self, query):
            self.calls += 1
            if self.calls == 1:
                return np.array([0.5, 0.5])
            return np.array([0.25, 0.75][:query.arity])

    with pytest.raises(RuntimeError, match="impossible"):
        sample_extract(Liar(), n=1, b=4, tau=1 / 16, seed=0)


# ---------------------------------------------------------------------------
# repeated extraction


def test_budget_zero_fails_immediately():
    D = two_point_uniform()
    oracle = BSQOracle(D, b=4, tau=1 / 16, seed=0)
    got = extract_m_samples(oracle, m=3, round_budget=0, seed=0)
    assert isinstance(got, Failure)
    assert got.extracted == 0 and got.rounds_used == 0


def test_budget_exhaustion_reports_partial_progress():
    D = two_point_uniform()
    oracle = BSQOracle(D, b=4, tau=1 / 16, seed=1)
    got = extract_m_samples(oracle, m=1000, round_budget=30, seed=1)
    assert isinstance(got, Failure)
    assert 0 < got.rounds_used <= 30


def test_label_marginal_matches_source():
    D = two_point_uniform(n=4)
    oracle = BSQOracle(D, b=4, tau=1 / 16, seed=42, record=False)
    got = extract_m_samples(oracle, m=10_000, round_budget=10_000_000, seed=7)
    assert not isinstance(got, Failure)
    frac = sum(ex.y for ex in got) / len(got)
    assert abs(frac - 0.5) < 0.02


def test_extracted_distribution_passes_chi_square():
    D = four_point()
    oracle = BSQOracle(D, b=8, tau=1 / 32, seed=9, record=False)
    got = extract_m_samples(oracle, m=10_000, round_budget=10_000_000, seed=8)
    assert not isinstance(got, Failure)
    counts = {}
    for ex in got:
        counts[ex] = counts.get(ex, 0) + 1
    stat = 0.0
    for ex, prob in D.entries:
        expected = prob * len(got)
        stat += (counts.get(ex, 0) - expected) ** 2 / expected
    assert stat < 16.266  # 0.999 quantile at 3 degrees of freedom


def test_mean_rounds_within_budget_bound():
    D = four_point()
    oracle = BSQOracle(D, b=8, tau=1 / 32, adversary=NoiseAdversary.PLUS_TAU,
                       seed=17, record=False)
    trials = 2000
    total = 0
    bits = BitStream(19)
    for _ in range(trials):
        _, used = sample_extract(oracle, n=4, b=8, tau=1 / 32, rng_bits=bits)
        total += used
    assert total / trials <= 50


# ---------------------------------------------------------------------------
# frozen-batch extraction


def frozen_batch(n: int, m: int, seed: int) -> Batch:
    D = four_point(n)
    rng = np.random.default_rng(seed)
    items = tuple(D.support[i]
                  for i in rng.integers(0, len(D.support), size=m))
    return Batch(items=items, draw_seed=seed)


def test_fb_extraction_recovers_whole_batch():
    for trial in range(20):
        batch = frozen_batch(n=4, m=8, seed=trial)
        oracle = FBSQOracle(batch, tau=1 / 32, seed=trial)
        already: list[Example] = []
        for _ in range(8):
            already.append(fb_extract_all(oracle, n=4, tau=1 / 32,
                                          already=already, seed=trial))
        assert sorted(ex.joint_code() for ex in already) == \
            sorted(ex.joint_code() for ex in batch.items)
        assert oracle.rounds <= 8 * 5


def test_fb_last_call_is_forced():
    batch = frozen_batch(n=4, m=6, seed=100)
    oracle = FBSQOracle(batch, tau=1 / 16, seed=0)
    already = list(batch.items[:5])
    got = fb_extract_all(oracle, n=4, tau=1 / 16, already=already, seed=0)
    have = sorted(ex.joint_code() for ex in already + [got])
    want = sorted(ex.joint_code() for ex in batch.items)
    assert have == want


def test_fb_rejects_full_already_and_bad_tolerance():
    batch = frozen_batch(n=4, m=4, seed=5)
    oracle = FBSQOracle(batch, tau=1 / 16, seed=0)
    with pytest.raises(ValueError):
        fb_extract_all(oracle, n=4, tau=1 / 16, already=list(batch.items))
    with pytest.raises(ToleranceError):
        fb_extract_all(oracle, n=4, tau=1 / 4, already=[])


def test_fb_uniform_over_remaining():
    batch = Batch(items=(Example(x=(0,), y=0), Example(x=(1,), y=1),
                         Example(x=(1,), y=0), Example(x=(0,), y=1)),
                  draw_seed=0)
    picks = {}
    for i in range(4000):
        oracle = FBSQOracle(batch, tau=1 / 16, seed=0, record=False)
        got = fb_extract_all(oracle, n=1, tau=1 / 16, already=[], seed=i)
        picks[got] = picks.get(got, 0) + 1
    for count in picks.values():
        assert abs(count / 4000 - 0.25) < 0.03


# ---------------------------------------------------------------------------
# the query-program wrapper


class _CapturingOracle:
    """Delegating shim that keeps every query it forwards."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = []
        self.transcript = inner.transcript

    def ask(self, query):
        self.queries.append(query)
        return self.inner.ask(query)


def _keep_samples(samples, bits):
    return tuple(samples)


def test_extraction_program_collects_m_and_stops_early():
    D = four_point()
    program = ExtractionProgram(n=4, b=8, tau=1 / 32, m=6, rounds=400,
                                learner=_keep_samples)
    method = BSQMethod(k=400, tau=1 / 32, b=8, program=program)
    run = method.run(D, seed=3)
    assert isinstance(run.predictor, tuple) and len(run.predictor) == 6
    assert run.transcript.meta["rounds_used"] < 400
    support = set(D.support)
    assert all(ex in support for ex in run.predictor)


def test_extraction_program_budget_failure_gives_zero_predictor():
    D = four_point()
    program = ExtractionProgram(n=4, b=8, tau=1 / 32, m=50, rounds=3,
                                learner=_keep_samples)
    method = BSQMethod(k=3, tau=1 / 32, b=8, program=program)
    run = method.run(D, seed=3)
    assert isinstance(run.predictor, ZeroPredictor)


def test_alternating_program_obeys_parity_and_padding():
    D = four_point()
    program = ExtractionProgram(n=4, b=8, tau=1 / 32, m=4, rounds=400,
                                learner=_keep_samples, alternating=True)
    assert program.rounds == 400
    oracle = _CapturingOracle(BSQOracle(D, b=8, tau=1 / 32, seed=5))
    bits_rng = np.random.default_rng(123)
    bits = tuple(int(v) for v in bits_rng.integers(0, 2, program.random_bits))
    run = program.start(bits)
    t = 0
    while True:
        q = run.next_query()
        if q is None:
            break
        t += 1
        want = (LabelRestriction.ONE_QUERY if t % 2 == 1
                else LabelRestriction.ZERO_QUERY)
        assert q.restriction is want
        assert q.arity == 5
        run.receive(oracle.ask(q))
    samples = run.predictor()
    assert len(samples) == 4
    support = set(D.support)
    assert all(ex in support for ex in samples)
    # every attempt opens with the pure label count on an odd round
    label_rounds = [i + 1 for i, q in enumerate(oracle.queries)
                    if q.name == "label"]
    assert label_rounds and all(r % 2 == 1 for r in label_rounds)
    # off-parity padding answers are exact zero under the silent adversary
    pad_rounds = [i for i, q in enumerate(oracle.queries)
                  if q.name == "pad-zero"]
    for i in pad_rounds:
        assert np.all(oracle.transcript.records[i].exact_mean == 0.0)


def test_alternating_label_marginal_still_correct():
    D = two_point_uniform(n=2)
    ones = 0
    trials = 400
    for i in range(trials):
        program = ExtractionProgram(n=2, b=4, tau=1 / 16, m=1, rounds=120,
                                    learner=_keep_samples, alternating=True)
        method = BSQMethod(k=120, tau=1 / 16, b=4, program=program)
        run = method.run(D, seed=i)
        (sample,) = run.predictor
        ones += sample.y
    assert abs(ones / trials - 0.5) < 0.1


def test_fixed_batch_program_recovers_batch_via_method():
    program = ExtractionProgram(n=4, b=8, tau=1 / 32, m=8, rounds=60,
                                learner=_keep_samples, fixed_batch=True)
    method = FBSQMethod(k=60, tau=1 / 32, m=8, program=program)
    D = four_point()
    run = method.run(D, seed=6)
    got = sorted(ex.joint_code() for ex in run.predictor)
    hidden = run.transcript.records[0].batch_codes
    assert got == sorted(hidden)


def test_fixed_batch_alternating_program_recovers_batch():
    program = ExtractionProgram(n=4, b=8, tau=1 / 32, m=8, rounds=120,
                                learner=_keep_samples, alternating=True,
                                fixed_batch=True)
    method = FBSQMethod(k=120, tau=1 / 32, m=8, program=program)
    D = four_point()
    run = method.run(D, seed=8)
    got = sorted(ex.joint_code() for ex in run.predictor)
    hidden = run.transcript.records[0].batch_codes
    assert got == sorted(hidden)


def test_alternating_label_round_rejects_impossible_count():
    # every label is one, so once an example is taken a label count of
    # zero leaves -1 ones among the rest: no batch gives that answer
    D = FiniteDistribution.uniform_over(
        [Example(x, 1) for x in itertools.product((0, 1), repeat=3)])
    oracle = FBSQOracle(sample_batch(D, 8, seed=0), tau=1 / 32)
    honest = 5

    class LabelLiar:
        asks = 0

        def ask(self, query):
            self.asks += 1
            if query.name == "label" and self.asks > honest:
                return np.zeros(query.arity)
            return oracle.ask(query)

    program = ExtractionProgram(n=3, b=8, tau=1 / 32, m=6, rounds=200,
                                learner=_keep_samples, alternating=True,
                                fixed_batch=True)
    run = program.start((0,) * program.random_bits)
    liar = LabelLiar()
    with pytest.raises(_CountError, match="label count -1"):
        while (query := run.next_query()) is not None:
            run.receive(liar.ask(query))
    assert len(run.examples) >= 1 and liar.asks > honest


def test_program_replay_is_pure_in_bits_and_responses():
    D = four_point()
    program = ExtractionProgram(n=4, b=8, tau=1 / 32, m=3, rounds=100,
                                learner=_keep_samples)
    bits = tuple(int(v) for v in
                 np.random.default_rng(9).integers(0, 2, program.random_bits))
    transcripts = []
    for _ in range(2):
        oracle = BSQOracle(D, b=8, tau=1 / 32, seed=77)
        run = program.start(bits)
        seen = []
        while True:
            q = run.next_query()
            if q is None:
                break
            resp = oracle.ask(q)
            seen.append((q.name, tuple(np.round(resp, 9))))
            run.receive(resp)
        transcripts.append((tuple(seen), run.predictor()))
    assert transcripts[0] == transcripts[1]
