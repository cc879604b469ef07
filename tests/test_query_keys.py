"""Structural query keys, and oracles that evaluate each key once.

`SQQuery.key` promises that two queries with equal keys return the same
values and pass or fail the same checks on any rows.  Prefix, label and
pad queries carry keys, and the value store of `SQOracle` and
`BSQOracle` looks values up by key (by query object when there is
none).  The reference is the support cache as it was before keys, one
entry per query object: both must give the same examples, transcripts,
samples drawn and oracle random stream, bit for bit.

The auditor reads a round's rows from the runner's joint-bit matrix
(`BSGDRoundInfo.bits`, `rows` and `pool_bits`, `RoundBlock.pool_bits`);
handed the same rounds without those rows, it must reach the same audit
or error.
"""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradlab.diffsim import TrajectoryAuditor
from gradlab.extract import (
    ExtractionProgram,
    _label_query,
    extract_m_samples,
    prefix_query,
)
from gradlab.paradigms import (
    BSGDRoundInfo,
    BSQMethod,
    BSQOracle,
    GeneratorProgram,
    LabelRestriction,
    NoiseAdversary,
    QueryRangeError,
    RestrictionError,
    SQMethod,
    SQOracle,
    SQQuery,
    _drive_query_method,
    constant_zero_query,
    run_bsgd,
    run_fbgd,
)
from gradlab.problems import (
    Example,
    FiniteDistribution,
    joint_bit_matrix,
    sample_batch,
)
from gradlab.reductions import sq_to_bsq
from reference import ObjectCache
from test_batch_gradient import ROUNDS, _case
from test_train_bytes import _audit_fields

N_MAX = 4
RESTRICTIONS = list(LabelRestriction)


# ---------------------------------------------------------------------------
# key soundness


def _catalogue() -> list[SQQuery]:
    """Every prefix, label and pad query for n <= N_MAX, each built twice,
    the second time from other argument types where they are allowed."""
    out = []
    for n in range(N_MAX + 1):
        for ell in range(n + 1):
            width = (1 if ell else 0) + n + 1 - ell
            for prefix in itertools.product((0, 1), repeat=ell):
                for pad in (None, width, width + 1, width + 2):
                    for r in RESTRICTIONS:
                        out.append(prefix_query(prefix, n, pad_to=pad,
                                                restriction=r))
                        out.append(prefix_query(
                            [np.int8(v) for v in prefix], np.int64(n),
                            pad_to=None if pad is None else np.int64(pad),
                            restriction=r))
    for arity in range(1, N_MAX + 4):
        out += [_label_query(arity), _label_query(arity)]
        for r in RESTRICTIONS:
            out += [constant_zero_query(arity, r),
                    constant_zero_query(arity, r)]
    return out


CATALOGUE = _catalogue()
GROUPS: dict = {}
for _q in CATALOGUE:
    GROUPS.setdefault(_q.key, []).append(_q)
KEYS = sorted(GROUPS, key=repr)
ROWS = np.array(list(itertools.product((0, 1), repeat=N_MAX + 1)),
                dtype=np.int8)


def _outcome(query: SQQuery, bits: np.ndarray, path: str):
    """The values on the rows `bits` (bytes, dtype, shape) or the error."""
    examples = [Example.from_joint_bits(tuple(z)) for z in bits.tolist()]
    try:
        if path == "loop":
            vals = np.stack([query.evaluate(ex) for ex in examples])
        else:
            vals = query.evaluate(examples, bits if path == "bits" else None)
    except Exception as err:  # equal keys must fail alike
        return ("error", type(err).__name__, str(err))
    return ("ok", vals.tobytes(), vals.dtype.str, vals.shape)


def test_catalogued_queries_are_keyed_and_hashable():
    assert all(q.key is not None for q in CATALOGUE)
    assert len({q.key for q in CATALOGUE}) == len(KEYS)


def test_equal_keys_mean_equal_values_on_every_row():
    # row by row on every joint-bit string: values and check outcomes
    for key in KEYS:
        sigs = {tuple(_outcome(q, ROWS[i:i + 1], "loop")[:2]
                      for i in range(len(ROWS))) for q in GROUPS[key]}
        assert len(sigs) == 1, key


def test_keys_tell_apart_what_the_arguments_change():
    # the label query is the padded depth-0 prefix query of n = 0, whose
    # values it has; no other two constructors share a key
    for a in range(1, N_MAX + 4):
        assert _label_query(a).key == prefix_query(
            (), 0, pad_to=a, restriction=LabelRestriction.ONE_QUERY).key
    prefixes = {q.key for q in CATALOGUE if q.name.startswith("prefix")}
    pads = {q.key for q in CATALOGUE if q.name == "pad-zero"}
    assert not pads & prefixes
    assert len(pads) == (N_MAX + 3) * len(RESTRICTIONS)
    # prefix keys: one per (prefix, n, padded arity, restriction), three
    # arities per prefix, whatever integer types built the query
    prefix_count = sum(2 ** ell for n in range(N_MAX + 1)
                       for ell in range(n + 1))
    assert len(prefixes) == prefix_count * 3 * len(RESTRICTIONS)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(KEYS), data=st.data(),
       rows=st.lists(st.integers(0, len(ROWS) - 1), min_size=1,
                     max_size=12))
def test_equal_keys_evaluate_alike_on_random_blocks(key, data, rows):
    group = GROUPS[key]
    a = data.draw(st.sampled_from(group))
    b = data.draw(st.sampled_from(group))
    bits = ROWS[rows]
    for path in ("bits", "examples", "loop"):
        assert _outcome(a, bits, path) == _outcome(b, bits, path)


# ---------------------------------------------------------------------------
# keyed oracles against the cache by query object


def _pair(make):
    keyed, reference = make(), make()
    reference._store = ObjectCache(reference.D)
    return keyed, reference


def _observed(oracle, result, path) -> tuple:
    oracle.transcript.to_jsonl(path)
    return (result, path.read_bytes(),
            getattr(oracle, "samples_consumed", None), oracle.rounds,
            oracle._rng.random())


def _codes(examples) -> object:
    if isinstance(examples, list):
        return [ex.joint_code() for ex in examples]
    return repr(examples)


def _keep(samples, bits):
    return _codes(list(samples)), tuple(bits)


def _scalar_program(k: int) -> GeneratorProgram:
    """Scalar queries: the label indicator and pad (keyed), and one
    query without a key, each round building fresh objects."""

    def qgen(t, bits, responses):
        if t % 3 == 1:
            return prefix_query((), 0)
        if t % 3 == 2:
            return constant_zero_query(1, LabelRestriction.NONE)
        return SQQuery(1, lambda ex: [0.5 * ex.x[0] - 0.25 * ex.y],
                       name="mixed")

    return GeneratorProgram(rounds=k, arity=1, random_bits=0,
                            query_generator=qgen,
                            final_predictor=lambda bits, rs: rs)


def _drive(method, oracle, seed):
    run = _drive_query_method(method.program, method.k, oracle, seed,
                              method.program.arity)
    return run.predictor if isinstance(run.predictor, tuple) else repr(
        type(run.predictor))


ADVERSARIES = list(NoiseAdversary)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), support=st.integers(1, 9),
       dist_seed=st.integers(0, 50), seed=st.integers(0, 2 ** 16),
       b=st.sampled_from([1, 2, 4, 8]), tau_exp=st.integers(0, 3),
       adversary=st.sampled_from(ADVERSARIES))
def test_keyed_oracles_match_the_object_cache(tmp_path_factory, n, support,
                                              dist_seed, seed, b, tau_exp,
                                              adversary):
    path = tmp_path_factory.mktemp("keys") / "t.jsonl"
    D = FiniteDistribution.random(n, min(support, 2 ** (n + 1)),
                                  seed=dist_seed)
    tau = 2.0 ** -(int(np.log2(b)) + 2 + tau_exp)  # b * tau < 1/2

    def bsq():
        return BSQOracle(D, b, tau, adversary, seed, record=True,
                         record_items=True)

    outcomes = []
    for oracle in _pair(bsq):
        got = extract_m_samples(oracle, 3, 120, seed=seed + 1)
        outcomes.append(_observed(oracle, _codes(got), path))
    assert outcomes[0] == outcomes[1]

    prog = ExtractionProgram(n=n, b=b, tau=tau, m=2, rounds=60,
                             learner=_keep, learner_bits=2,
                             alternating=True)
    method = BSQMethod(k=60, tau=tau, b=b, program=prog)
    outcomes = [_observed(o, _drive(method, o, seed), path)
                for o in _pair(bsq)]
    assert outcomes[0] == outcomes[1]

    sq = SQMethod(k=4, tau=0.5, program=_scalar_program(4))
    outcomes = [_observed(o, _drive(sq, o, seed), path)
                for o in _pair(lambda: SQOracle(D, sq.tau, adversary, seed))]
    assert outcomes[0] == outcomes[1]
    for alternating in (False, True):
        lifted = sq_to_bsq(sq, 16, 0.5, alternating=alternating)
        outcomes = []
        for o in _pair(lambda: BSQOracle(D, lifted.b, lifted.tau, adversary,
                                         seed, record_items=True)):
            outcomes.append(_observed(o, _drive(lifted, o, seed), path))
            outcomes[-1] += (len(o._store._values),)
        assert outcomes[0][:-1] == outcomes[1][:-1]
        assert outcomes[0][-1] <= outcomes[1][-1]


def test_walk_evaluates_each_distinct_prefix_once():
    D = FiniteDistribution.random(3, 12, seed=5)
    keyed, reference = _pair(lambda: BSQOracle(D, 8, 1 / 32, seed=4))
    for oracle in (keyed, reference):
        extract_m_samples(oracle, 8, 400, seed=9)
    assert keyed.rounds == reference.rounds
    # the walk reuses its query objects, so the identity-keyed cache
    # holds one entry per distinct prefix, as the keyed one does
    assert len(reference._store._values) == len(keyed._store._values)
    assert len(keyed._store._values) < keyed.rounds


@pytest.mark.parametrize("kind", ["sq", "bsq"])
@pytest.mark.parametrize("bad", ["range", "restriction"])
def test_failing_query_raises_on_every_ask(kind, bad):
    D = FiniteDistribution.random(2, 6, seed=3)
    assert {ex.y for ex in D.support} == {0, 1}

    def make():
        if kind == "sq":
            return SQOracle(D, 1 / 16, NoiseAdversary.SEEDED_RANDOM, seed=3)
        return BSQOracle(D, 4, 1 / 16, NoiseAdversary.SEEDED_RANDOM, seed=3)

    if bad == "range":
        query = SQQuery(1, lambda ex: [2.0 * ex.y], name="double",
                        key=("double",))
        err = QueryRangeError
    else:
        query = prefix_query((1,), 2, restriction=LabelRestriction.ZERO_QUERY)
        err = RestrictionError
    oracle, fresh = make(), make()
    messages = set()
    for _ in range(3):
        with pytest.raises(err) as info:
            oracle.ask(query)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert oracle.rounds == 0 and not oracle.transcript.records
    assert oracle.transcript.samples_consumed == 0
    assert not oracle._store._values
    assert oracle._rng.random() == fresh._rng.random()


# ---------------------------------------------------------------------------
# the auditor's rows from the runner


class _Relay:
    """Hands the auditor every round, as delivered or without its rows;
    notes any delivered rows that are not the batch's joint bits."""

    takes_round_blocks = True

    def __init__(self, auditor: TrajectoryAuditor, strip: bool):
        self.auditor = auditor
        self.strip = strip
        self.kinds: set = set()
        self.wrong_rows = 0

    def hook(self, info) -> None:
        if isinstance(info, BSGDRoundInfo):
            fields, items = ("bits", "rows", "pool_bits"), info.batch
            rows = info.bits
            pool = info.pool_bits
            if pool is None or not np.array_equal(
                    rows, pool if info.rows is None else pool[info.rows]):
                self.wrong_rows += 1
        else:
            fields, items = ("pool_bits",), info.pool
            rows = info.pool_bits
        self.kinds.add(fields[0])
        if rows is None or not np.array_equal(rows, joint_bit_matrix(items)):
            self.wrong_rows += 1
        self.auditor.hook(dataclasses.replace(info, **dict.fromkeys(fields))
                          if self.strip else info)


def _audited(case, runner, b, seed, record, strip):
    model, program, T, rho, D = case
    relay = _Relay(TrajectoryAuditor(program, rho), strip)
    try:
        if runner == "bsgd":
            out = run_bsgd(model, D, T, rho, b, seed=seed, record=record,
                           hook=relay.hook)
        else:
            out = run_fbgd(model, sample_batch(D, b, seed), T, rho,
                           seed=seed, record=record, hook=relay.hook)
        result = ("ok", out.final_params.tobytes())
    except Exception as err:  # both deliveries must fail alike
        result = ("error", type(err).__name__, str(err))
    return (result, _audit_fields(relay.auditor.audit), relay.kinds,
            relay.wrong_rows)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["bsq", "fbsq", "table"]),
       bad=st.sampled_from([None, "range", "restriction"]),
       t=st.integers(1, ROUNDS), stop=st.integers(0, ROUNDS),
       table_seed=st.integers(0, 3), runner=st.sampled_from(["bsgd", "fbgd"]),
       b=st.sampled_from([1, 2, 4, 24]), seed=st.integers(0, 2 ** 16),
       record=st.booleans())
def test_audit_from_runner_rows_matches_audit_from_examples(
        name, bad, t, stop, table_seed, runner, b, seed, record):
    if name == "table":
        # the model's program finishes at `stop`, the one the auditor
        # replays asks every round: pad passes meet live queries
        fault = bad and (bad, t, 5)
        model = _case(name, stop, table_seed, fault)[0]
        case = (model,) + _case(name, ROUNDS, table_seed, fault)[1:]
    else:
        case = _case(name)
    with_rows = _audited(case, runner, b, seed, record, strip=False)
    without = _audited(case, runner, b, seed, record, strip=True)
    assert with_rows[:2] == without[:2]
    assert with_rows[3] == 0
