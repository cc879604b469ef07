"""A compiled model's batch gradient against its per-example gradients.

`batch_gradient` gives a round's per-example loss gradients as one
block, which the runners clip, sum in batch order, average and round.
The reference is the same model without it: the runners lift its
per-example gradients into the same block.  Both must agree bit for
bit on final parameters, transcript bytes, audits, everything a plain
hook is handed (keys, their order, the bits of every value) and any
error raised.
"""
import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradlab.diffsim import TrajectoryAuditor, compile_program
from gradlab.numerics import (
    RoundingOracle,
    RoundingStrategy,
    round_approximate,
)
from gradlab.paradigms import (
    DiffModel,
    GeneratorProgram,
    SQQuery,
    _gradient_step,
    round_restriction,
    run_bsgd,
    run_fbgd,
)
from gradlab.problems import Example, FiniteDistribution, sample_batch
from gradlab.reductions import build_pipeline
from test_train_bytes import _audit_fields

N = 3  # input bits of the table programs
P = 5  # their arity
ROUNDS = 10
RHO = 2 ** -6
CODE_WEIGHTS = 1 << np.arange(N)[::-1]


def _table_program(values: np.ndarray, stop: int, bad=None):
    """Alternating program whose round-t query is row `x` of values[t-1].

    It asks `stop` queries, then pads.  `bad = (kind, t, code)` makes
    round t's query leave [-1, 1] ("range") or ignore its restriction
    ("restriction") at input `code`.
    """

    def qgen(t, bits, responses):
        if t > stop:
            return None
        want = round_restriction(t)
        label = want.forced_label
        table = values[t - 1].copy()
        loose = None
        if bad is not None and bad[1] == t:
            if bad[0] == "range":
                table[bad[2], 1] = 1.5
            else:
                loose = bad[2]

        def evaluator(ex):
            code = int(np.dot(ex.x, CODE_WEIGHTS))
            if ex.y != label and code != loose:
                return np.zeros(P)
            return table[code]

        def block(bits):
            codes = bits[:, 1:].astype(np.int64) @ CODE_WEIGHTS
            out = table[codes]
            out[(bits[:, 0] != label) & (codes != loose)] = 0.0
            return out

        return SQQuery(P, evaluator, want, name=f"table-{t}", block=block)

    def final(bits, responses):
        total = float(sum(map(sum, responses)))
        return lambda x: total * x[0]

    return GeneratorProgram(rounds=ROUNDS, arity=P, random_bits=2,
                            query_generator=qgen, final_predictor=final,
                            alternating=True, name=f"table{stop}")


def _values(seed: int, dyadic: bool) -> np.ndarray:
    """Query tables with exact zeros: non-dyadic, or in {0, +-1/2, 1}."""
    rng = np.random.default_rng(seed)
    shape = (ROUNDS, 1 << N, P)
    vals = (rng.choice([0.5, -0.5, 1.0], size=shape) if dyadic
            else rng.uniform(-1.0, 1.0, size=shape))
    vals[rng.random(shape) < 0.3] = 0.0
    if dyadic:
        vals[:, :, 0] = 1.0
    return vals


def _with_blocks(model, blocks):
    """The model with every round block's slots set by `init`."""
    core = model.init.__self__
    lay = core.layout

    def init(bits):
        w = core.init(bits)
        for t in range(1, lay.T + 1):
            w[lay.start(t):lay.start(t) + lay.p] = blocks[t - 1]
        return w

    return dataclasses.replace(model, init=init)


@lru_cache(maxsize=None)
def _case(name: str, stop: int = 0, seed: int = 0, bad=None):
    """(model, program the auditor replays, T, rho, distribution)."""
    if name in ("bsq", "fbsq"):
        first = "pac_to_bsq" if name == "bsq" else "pac_to_fbsq"
        params = (dict(n=2, m=2, b=2, rho=1 / 64, delta=0.95) if name == "bsq"
                  else dict(n=2, m=2, m_batch=4, rho=1 / 64, delta=0.5))
        stages = [first, "bsq_alternating", "diffsim"]
        method, report = build_pipeline(stages, payload="parity", **params)
        audit_method, _ = build_pipeline(
            stages[:-1], payload="parity",
            **{**params, "delta": report.derived["delta_per_stage"]})
        return (method.model, audit_method.program, method.T, method.rho,
                FiniteDistribution.random(2, 6, seed=3))
    dyadic = name == "flat"
    program = _table_program(_values(seed, dyadic), stop, bad)
    model = compile_program(program, RHO)
    rng = np.random.default_rng(seed + 1)
    if dyadic:
        # theta = (2 rho, 0, ...): f meets y exactly where a query reads 1
        blocks = np.zeros((ROUNDS, P))
        blocks[:, 0] = 2 * RHO
    else:
        # large enough that f keeps the last bits of each inner product,
        # and off the grid by less than the snap allowance
        blocks = (rng.integers(-16, 17, size=(ROUNDS, P)) * RHO
                  + rng.uniform(-RHO / 16, RHO / 16, size=(ROUNDS, P)))
    return (_with_blocks(model, blocks), program, ROUNDS, RHO,
            FiniteDistribution.random(N, 12, seed=seed))


def _float_bits(v):
    if isinstance(v, dict):
        return [(k, float(x).hex()) for k, x in v.items()]
    return [float(x).hex() for x in v]


def _outcome(train, program, rho, path):
    """Everything observable about one run, or the error it raised."""
    auditor = TrajectoryAuditor(program, rho)
    seen = []

    def hook(info):
        seen.append((info.index, [ex.joint_code() for ex in info.batch],
                     _float_bits(info.avg), _float_bits(info.response),
                     info.w.tobytes()))
        auditor.hook(info)

    try:
        out = train(hook)
    except Exception as err:  # both paths must fail the same way
        return ("error", type(err).__name__, str(err), seen)
    out.transcript.to_jsonl(path)
    return ("ok", path.read_bytes(), out.final_params.tobytes(),
            _audit_fields(auditor.audit), seen)


def _both(case, runner, b, gamma, strategy, seed, flags, path):
    model, program, T, rho, D = case
    assert model.batch_gradient is not None
    reference = dataclasses.replace(model, batch_gradient=None)
    record, record_items, record_hashes = flags
    kw = dict(rounding=RoundingOracle(strategy, seed=seed), seed=seed,
              record=record, record_items=record_items,
              record_hashes=record_hashes)
    outcomes = []
    for m in (model, reference):
        if runner == "bsgd":
            def train(hook, m=m):
                return run_bsgd(m, D, T, rho, b, gamma, hook=hook, **kw)
        else:
            S = sample_batch(D, b, seed)

            def train(hook, m=m, S=S):
                return run_fbgd(m, S, T, rho, gamma, hook=hook, **kw)
        outcomes.append(_outcome(train, program, rho, path))
    return outcomes


FLAG_SETS = [(False, False, False), (True, False, False), (True, True, True),
             (True, True, False), (True, False, True)]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["bsq", "fbsq", "table", "flat"]),
       stop=st.integers(0, ROUNDS),
       table_seed=st.integers(0, 3),
       strategy=st.sampled_from(list(RoundingStrategy)),
       seed=st.integers(0, 2 ** 16),
       b=st.sampled_from([1, 2, 4, 24]),
       runner=st.sampled_from(["bsgd", "fbgd"]),
       gamma=st.sampled_from([1.0, 0.5, 0.25]),
       flags=st.sampled_from(FLAG_SETS))
def test_batch_gradient_matches_lifted_per_example_path(
        tmp_path_factory, name, stop, table_seed, strategy, seed, b, runner,
        gamma, flags):
    if name in ("bsq", "fbsq"):
        stop = table_seed = 0
    case = _case(name, stop, table_seed)
    path = tmp_path_factory.mktemp("batch") / "t.jsonl"
    fast, slow = _both(case, runner, b, gamma, strategy, seed, flags, path)
    assert fast == slow


@pytest.mark.parametrize("kind", ["range", "restriction"])
@pytest.mark.parametrize("runner", ["bsgd", "fbgd"])
@pytest.mark.parametrize("t", [1, 2, 5])
def test_query_faults_raise_alike(tmp_path, kind, runner, t):
    # the block declines and the per-example loop names the first bad
    # example; a broken restriction surfaces in the audit of the batch
    bad_code = 5
    case = _case("table", ROUNDS, 2, (kind, t, bad_code))
    D = case[4]
    assert any(int(np.dot(ex.x, CODE_WEIGHTS)) == bad_code
               for ex in D.support)
    fast, slow = _both(case, runner, 24, 1.0, RoundingStrategy.NEAREST, 7,
                       (True, True, True), tmp_path / "t.jsonl")
    assert fast == slow
    assert fast[0] == "error"
    want = "QueryRangeError" if kind == "range" else "RestrictionError"
    assert fast[1] == want


def test_exact_fit_gives_signed_zero_slopes(tmp_path):
    # where f meets y the slope is +-0.0, and its entries are still held
    case = _case("flat", ROUNDS, 1)
    model, D = case[0], case[4]
    S = sample_batch(D, 24, 3)
    bits = np.array([ex.joint_bits() for ex in S.items], dtype=np.int8)
    _, vals, present = model.batch_gradient(model.init((0, 1)), S.items,
                                            bits)
    held = vals[present & (vals == 0.0)]
    assert np.signbit(held).any() and not np.signbit(held).all()
    fast, slow = _both(case, "fbgd", 24, 1.0, RoundingStrategy.NEAREST, 3,
                       (True, True, True), tmp_path / "t.jsonl")
    assert fast == slow and fast[0] == "ok"


# ---------------------------------------------------------------------------
# the block step is the merge of per-example gradients


def _clip(v):
    return -1.0 if v < -1.0 else (1.0 if v > 1.0 else v)


def _merge_step(grads, w, rho, gamma, rounding):
    """Clip, merge the per-example dicts in batch order, average, round."""
    acc = {i: _clip(v) for i, v in grads[0].items()}
    for g in grads[1:]:
        for i, v in g.items():
            acc[i] = acc.get(i, 0.0) + _clip(v)
    avg = {i: v / len(grads) for i, v in acc.items()}
    idx = sorted(avg)
    rounded = (round_approximate(np.array([avg[i] for i in idx]), rho,
                                 rounding).tolist() if idx else [])
    response = dict(zip(idx, rounded))
    for i, v in response.items():
        if v != 0.0:
            w[i] -= gamma * v
    return avg, response


ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 2.0, -3.0]),
                    st.floats(-2.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), b=st.integers(1, 5), k=st.integers(0, 6),
       strategy=st.sampled_from(list(RoundingStrategy)),
       seed=st.integers(0, 2 ** 16), gamma=st.sampled_from([1.0, 0.75]))
def test_block_step_is_the_per_example_merge(data, b, k, strategy, seed,
                                              gamma):
    dim = 8
    coords = np.array(data.draw(st.permutations(range(dim)))[:k],
                      dtype=np.intp)
    present = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=k, max_size=k),
        min_size=b, max_size=b)), dtype=bool).reshape(b, k)
    vals = np.array(data.draw(st.lists(
        st.lists(ENTRIES, min_size=k, max_size=k),
        min_size=b, max_size=b))).reshape(b, k)
    # each example's dict lists its entries in coords order; the lifted
    # model may list them in any order
    grads = [dict(zip(coords[p].tolist(), v[p].tolist()))
             for v, p in zip(vals, present)]
    shuffled = [dict(data.draw(st.permutations(list(g.items()))))
                for g in grads]
    w0 = np.array(data.draw(st.lists(ENTRIES, min_size=dim, max_size=dim)))
    items = tuple(Example((0,), 0) for _ in range(b))
    bits = np.zeros((b, 2), dtype=np.int8)
    block = DiffModel(dim=dim, random_bits=0, init=None, value=None,
                      loss_gradient=None,
                      batch_gradient=lambda w, it, bt: (coords, vals, present))
    rows = iter(shuffled)
    lifted = DiffModel(dim=dim, random_bits=0, init=None, value=None,
                       loss_gradient=lambda w, ex: next(rows))
    for model, dicts in ((block, grads), (lifted, shuffled)):
        want_w = w0.copy()
        want = _merge_step(dicts, want_w, 2 ** -4, gamma,
                           RoundingOracle(strategy, seed=seed))
        w = w0.copy()
        grads_of, avg, response = _gradient_step(
            model, w, items, bits, 2 ** -4, gamma,
            RoundingOracle(strategy, seed=seed))
        assert _float_bits(avg) == _float_bits(want[0])
        assert _float_bits(response) == _float_bits(want[1])
        assert w.tobytes() == want_w.tobytes()
        assert [sorted(_float_bits(g)) for g in grads_of()] == [
            sorted(_float_bits({i: _clip(v) for i, v in g.items()}))
            for g in grads]


@settings(max_examples=50, deadline=None)
@given(b=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
       strategy=st.sampled_from(list(RoundingStrategy)),
       rows=st.lists(st.lists(ENTRIES, min_size=4, max_size=4), min_size=5,
                     max_size=5))
def test_dense_block_step_is_the_vector_sum(b, seed, strategy, rows):
    grads = [np.array(r) for r in rows[:b]]
    acc = np.clip(grads[0], -1.0, 1.0)
    for g in grads[1:]:
        acc += np.clip(g, -1.0, 1.0)
    want_avg = acc / b
    want_response = round_approximate(want_avg, 2 ** -4,
                                      RoundingOracle(strategy, seed=seed))
    it = iter(grads)
    model = DiffModel(dim=4, random_bits=0, init=None, value=None,
                      loss_gradient=lambda w, ex: next(it))
    w = np.zeros(4)
    grads_of, avg, response = _gradient_step(
        model, w, tuple(Example((0,), 0) for _ in range(b)),
        np.zeros((b, 2), dtype=np.int8), 2 ** -4, 1.0,
        RoundingOracle(strategy, seed=seed))
    assert avg.tobytes() == want_avg.tobytes()
    assert response.tobytes() == want_response.tobytes()
    assert w.tobytes() == (np.zeros(4) - want_response).tobytes()
    assert grads_of() == [np.clip(g, -1.0, 1.0).tolist() for g in grads]
