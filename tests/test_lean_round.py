"""The extraction round against its reference formulation.

The library's walk reuses its query objects, reads integer counts, takes
its random bits in blocks and averages a batch with one reduction;
`reference` holds the round written the plain way.  Both must give the
same examples, rounds, transcripts, draws and errors, bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from gradlab import extract, paradigms
from gradlab.extract import ExtractionProgram, Failure
from gradlab.numerics import recover_batch_average, recover_batch_counts
from gradlab.paradigms import (
    BitStream,
    BSQMethod,
    BSQOracle,
    FBSQMethod,
    FBSQOracle,
    MethodRun,
    NoiseAdversary,
)
from gradlab.problems import FiniteDistribution, sample_batch

# ---------------------------------------------------------------------------
# integer counts


def _numerators_or_error(call):
    try:
        got = call()
    except Exception as err:  # both must fail alike
        return type(err).__name__, str(err)
    if isinstance(got, list):
        return [getattr(g, "numerator", g) for g in got]
    return getattr(got, "numerator", got)


ENTRIES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0,
                           math.nan, 0.25 + 1e-9]) | st.floats(-1.2, 1.2)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, max_size=6) | ENTRIES,
       st.integers(-2, 40), st.sampled_from([0.0, 1 / 64, 1 / 16, 0.25]))
def test_counts_are_the_numerators(v, b, tau):
    with np.errstate(invalid="ignore"):
        want = _numerators_or_error(lambda: recover_batch_average(v, b, tau))
        got = _numerators_or_error(lambda: recover_batch_counts(v, b, tau))
    assert got == want
    if not isinstance(got, tuple):
        counts = got if isinstance(got, list) else [got]
        assert all(type(k) is int for k in counts)


def test_counts_raise_like_recovery():
    cases = [(0.5, 0, 0.1), (0.5, -3, 0.1), (0.5, 2, 0.25),
             ([0.0, 1.5, -1.5], 4, 1 / 16), (np.nan, 4, 1 / 16),
             ([0.25, np.nan], 4, 1 / 16)]
    for v, b, tau in cases:
        with np.errstate(invalid="ignore"):
            want = _numerators_or_error(
                lambda: recover_batch_average(v, b, tau))
            got = _numerators_or_error(lambda: recover_batch_counts(v, b, tau))
        assert isinstance(want, tuple) and got == want


def test_recovery_stays_a_name_of_extract():
    # span tracers patch extract.recover_batch_average; the walk no
    # longer calls it, so a traced walk counts zero recoveries
    assert extract.recover_batch_average is recover_batch_average


# ---------------------------------------------------------------------------
# buffered bits


@pytest.mark.parametrize("lead", [0, 1, 30, 58, 61, 62, 63])
def test_take_is_k_bit_calls(lead):
    # k in 0..64 from every offset: inside one buffer and across refills
    for k in range(65):
        fast, slow = BitStream(lead + 100 * k), reference.BitStream(
            lead + 100 * k)
        for stream in (fast, slow):
            for _ in range(lead):
                stream.bit()
        assert fast.take(k) == slow.take(k), (lead, k)
        assert fast.consumed == slow.consumed == lead + k
        assert [fast.bit() for _ in range(70)] == [
            slow.bit() for _ in range(70)]
        assert fast._rng.random() == slow._rng.random()


# ---------------------------------------------------------------------------
# the walk


def _made(cls, made):
    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.asked = []
            made.append(self)

        def ask(self, query):
            self.asked.append((query.name, query.arity, query.restriction,
                               query.key))
            return super().ask(query)

    return Recording


def _outcome(call, path, made_oracles, made_bits):
    """Everything observable about one call: result or error, transcript
    bytes, samples drawn, rounds, the queries asked (name, arity,
    restriction, key) and the next draw of every stream."""
    try:
        got = call()
    except Exception as err:  # both sides must fail alike
        got = ("error", type(err).__name__, str(err))
    if isinstance(got, MethodRun):
        got.transcript.to_jsonl(path)
        predictor = got.predictor
        got = (predictor if isinstance(predictor, tuple)
               else type(predictor).__name__, got.init_bits,
               path.read_bytes())
    elif isinstance(got, tuple) and len(got) == 2:
        got = (got[0].joint_code(), got[1])
    elif isinstance(got, list):
        got = [ex.joint_code() for ex in got]
    seen = []
    for oracle in made_oracles:
        oracle.transcript.to_jsonl(path)
        seen.append((path.read_bytes(), getattr(oracle, "samples_consumed",
                                                None),
                     oracle.rounds, oracle._rng.random(), oracle.asked))
    for bits in made_bits:
        seen.append((bits.consumed, bits.take(64), bits._rng.random()))
    return got, seen


def _keep(samples, bits):
    return tuple(ex.joint_code() for ex in samples), tuple(bits)


def _side(lib: bool, call, path, D, b, tau, adversary, seed):
    """Run `call(ns, make_oracle, bits_cls)` on the library or the
    reference, with every oracle and bit stream it builds recorded."""
    oracles, streams = [], []
    ns = extract if lib else reference
    oracle_cls = _made(BSQOracle if lib else reference.BSQOracle, oracles)
    bits_cls = _made(BitStream if lib else reference.BitStream, streams)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ns, "BitStream", bits_cls)
        mp.setattr(paradigms, "BSQOracle", oracle_cls)
        mp.setattr(paradigms, "FBSQOracle", _made(FBSQOracle, oracles))

        def make_oracle():
            return oracle_cls(D, b, tau, adversary, seed, record=True,
                              record_items=True)

        return _outcome(lambda: call(ns, make_oracle, bits_cls), path,
                        oracles, streams)


ADVERSARIES = list(NoiseAdversary)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 4), support=st.integers(1, 12),
       dist_seed=st.integers(0, 60), seed=st.integers(0, 2 ** 16),
       b=st.sampled_from([1, 2, 3, 4, 8, 16]), tau_exp=st.integers(0, 2),
       adversary=st.sampled_from(ADVERSARIES),
       budget=st.integers(1, 80), m=st.integers(1, 4),
       learner_bits=st.integers(0, 3), alternating=st.booleans())
def test_walk_matches_reference(tmp_path_factory, n, support, dist_seed,
                                seed, b, tau_exp, adversary, budget, m,
                                learner_bits, alternating):
    path = tmp_path_factory.mktemp("lean") / "t.jsonl"
    D = FiniteDistribution.random(n, min(support, 2 ** (n + 1)),
                                  seed=dist_seed)
    tau = 2.0 ** -(math.ceil(math.log2(b)) + 2 + tau_exp)  # b * tau < 1/2
    assert b * tau < 0.5

    def single(ns, make_oracle, bits_cls):
        return ns.sample_extract(make_oracle(), n, b, tau,
                                 rng_bits=bits_cls(seed),
                                 round_budget=budget)

    def several(ns, make_oracle, bits_cls):
        return ns.extract_m_samples(make_oracle(), m, budget, seed=seed)

    def frozen(ns, make_oracle, bits_cls):
        oracle = paradigms.FBSQOracle(sample_batch(D, b, seed), tau,
                                      adversary, seed, record_items=True)
        already = []
        while len(already) < b:
            already.append(ns.fb_extract_all(oracle, n, tau, already,
                                             seed=seed + len(already)))
        return already

    def program(ns, make_oracle, bits_cls, fixed):
        cls = ExtractionProgram if ns is extract else \
            reference.ReferenceExtractionProgram
        prog = cls(n=n, b=b, tau=tau, m=min(m, b) if fixed else m,
                   rounds=budget, learner=_keep, learner_bits=learner_bits,
                   alternating=alternating, fixed_batch=fixed)
        method = (FBSQMethod(k=budget, tau=tau, m=b, program=prog) if fixed
                  else BSQMethod(k=budget, tau=tau, b=b, program=prog))
        return method.run(D, seed, adversary=adversary, record_items=True)

    calls = [single, several, frozen,
             lambda *a: program(*a, fixed=False),
             lambda *a: program(*a, fixed=True)]
    for call in calls:
        lib = _side(True, call, path, D, b, tau, adversary, seed)
        ref = _side(False, call, path, D, b, tau, adversary, seed)
        assert lib == ref


def test_budgets_end_in_failure_alike(tmp_path):
    # the property's budgets reach Failure; pin one case that does
    D = FiniteDistribution.random(4, 20, seed=3)

    def several(ns, make_oracle, bits_cls):
        return ns.extract_m_samples(make_oracle(), 4, 9, seed=5)

    lib = _side(True, several, tmp_path / "t.jsonl", D, 8, 1 / 32,
                NoiseAdversary.SEEDED_RANDOM, 5)
    ref = _side(False, several, tmp_path / "t.jsonl", D, 8, 1 / 32,
                NoiseAdversary.SEEDED_RANDOM, 5)
    assert lib == ref
    assert isinstance(lib[0], Failure)
