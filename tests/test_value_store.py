"""One value store per pool: query values looked up, bit for bit.

A gradient run keeps one store over its pool (the support for
`run_bsgd`, the frozen batch for `run_fbgd`); the compiled model takes
each round's relabelled values from it, and the auditor keeps a store
of its own per trial.  The reference (`tests/reference.py`) evaluates
every round's query on the round's rows: a relabelled copy of the joint
bits in the model, `evaluate` and `np.mean` in the auditor, and every
ask in the frozen-batch oracle.  Both must give the same final
parameters, transcript bytes, hook views, audits or errors, and the
same next random draw of a query oracle.
"""
import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from gradlab.diffsim import TrajectoryAuditor, compile_program
from gradlab.numerics import RoundingOracle, RoundingStrategy
from gradlab.paradigms import (
    FBSQOracle,
    GeneratorProgram,
    NoiseAdversary,
    QueryRangeError,
    RoundBlock,
    _apply_noise,
    _drive_query_method,
    _ValueStore,
    run_bsgd,
    run_fbgd,
)
from gradlab.problems import Example, FiniteDistribution, sample_batch
from gradlab.reductions import build_pipeline
from test_batch_gradient import (
    CODE_WEIGHTS,
    RHO,
    N,
    P,
    ROUNDS,
    _float_bits,
    _table_program,
    _values,
    _with_blocks,
)
from test_train_bytes import _audit_fields

BAD_CODE = 5


# ---------------------------------------------------------------------------
# cases: compiled pipelines and keyed table programs


@lru_cache(maxsize=None)
def _pipeline(name: str, n: int):
    """(model, audit program, T, rho, distribution, uncompiled method)."""
    first = "pac_to_bsq" if name == "bsq" else "pac_to_fbsq"
    params = (dict(n=n, m=2, b=2, rho=1 / 64, delta=0.95) if name == "bsq"
              else dict(n=n, m=2, m_batch=4, rho=1 / 64, delta=0.5))
    stages = [first, "bsq_alternating", "diffsim"]
    method, report = build_pipeline(stages, payload="parity", **params)
    inner, _ = build_pipeline(
        stages[:-1], payload="parity",
        **{**params, "delta": report.derived["delta_per_stage"]})
    return (method.model, inner.program, method.T, method.rho,
            FiniteDistribution.random(n, min(6, 2 ** (n + 1)), seed=3), inner)


def _keyed(program: GeneratorProgram, tag) -> GeneratorProgram:
    """The program with every query keyed by (tag, round)."""

    def qgen(t, bits, responses):
        q = program.query_generator(t, bits, responses)
        return None if q is None else dataclasses.replace(
            q, key=("table", tag, t))

    return dataclasses.replace(program, query_generator=qgen)


def _rare_bad_rows(seed: int) -> FiniteDistribution:
    """Every joint code of n = N, those with input code BAD_CODE at a
    mass no run here draws."""
    rng = np.random.default_rng(seed)
    examples = [Example(tuple((c >> (N - 1 - i)) & 1 for i in range(N)), y)
                for y in (0, 1) for c in range(1 << N)]
    rare = [int(np.dot(ex.x, CODE_WEIGHTS)) == BAD_CODE for ex in examples]
    weights = np.where(rare, 1e-300, rng.random(len(examples)) + 0.05)
    weights /= weights.sum()
    weights[-1] = 1.0 - float(weights[:-1].sum())
    return FiniteDistribution(N, list(zip(examples, weights.tolist())))


@lru_cache(maxsize=None)
def _table(stop: int, seed: int, bad, rare: bool):
    """A keyed table program's model, set as `test_batch_gradient` sets
    its non-dyadic cases, and the keyed program the auditor replays,
    which asks every round; `bad` breaks one query at BAD_CODE."""
    values = _values(seed, False)
    tag = (stop, seed, bad)
    model = compile_program(_keyed(_table_program(values, stop, bad), tag),
                            RHO)
    rng = np.random.default_rng(seed + 1)
    blocks = (rng.integers(-16, 17, size=(ROUNDS, P)) * RHO
              + rng.uniform(-RHO / 16, RHO / 16, size=(ROUNDS, P)))
    auditor_program = _keyed(_table_program(values, ROUNDS, bad),
                             ("audit",) + tag)
    D = (_rare_bad_rows(seed) if rare
         else FiniteDistribution.random(N, 12, seed=seed))
    return (_with_blocks(model, blocks), auditor_program, ROUNDS, RHO, D,
            None)


# ---------------------------------------------------------------------------
# the whole run against the reference


class _Spy:
    """Notes everything a hook is handed, then passes it to the auditor;
    as a bound method it takes pad passes as round blocks."""

    takes_round_blocks = True

    def __init__(self, auditor):
        self.auditor = auditor
        self.seen = []

    def hook(self, info):
        if isinstance(info, RoundBlock):
            self.seen.append((info.first, info.rows.tobytes(),
                              info.w.tobytes()))
        else:
            self.seen.append((info.index,
                              [ex.joint_code() for ex in info.batch],
                              _float_bits(info.avg),
                              _float_bits(info.response), info.w.tobytes()))
        self.auditor.hook(info)


def _outcome(case, model, auditor, runner, b, seed, strategy, record, items,
             blocks, path):
    """Everything observable about one run, or the error it raised."""
    _, _, T, rho, D, _ = case
    spy = _Spy(auditor)
    kw = dict(rounding=RoundingOracle(strategy, seed=seed), seed=seed,
              record=record, record_items=items,
              hook=spy.hook if blocks else (lambda info: spy.hook(info)))
    try:
        if runner == "bsgd":
            out = run_bsgd(model, D, T, rho, b, **kw)
        else:
            out = run_fbgd(model, sample_batch(D, b, seed), T, rho, **kw)
    except Exception as err:  # both paths must fail the same way
        result = ("error", type(err).__name__, str(err))
    else:
        out.transcript.to_jsonl(path)
        result = ("ok", path.read_bytes(), out.final_params.tobytes())
    return result, _audit_fields(auditor.audit), spy.seen


def _both(case, *args):
    model, program, _, rho, _, _ = case
    return (_outcome(case, model, TrajectoryAuditor(program, rho), *args),
            _outcome(case, reference.per_round_model(model),
                     reference.PerRoundAuditor(program, rho), *args))


def _oracle_outcome(oracle, method, seed, path):
    try:
        run = _drive_query_method(method.program, method.k, oracle, seed,
                                  method.program.arity)
        result = ("ok", repr(type(run.predictor)))
    except Exception as err:
        result = ("error", type(err).__name__, str(err))
    oracle.transcript.to_jsonl(path)
    return result, path.read_bytes(), oracle.rounds, oracle._rng.random()


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["bsq", "fbsq", "table"]),
       n=st.integers(1, 3),
       stop=st.integers(0, ROUNDS), table_seed=st.integers(0, 3),
       bad=st.sampled_from([None, ("range", 2), ("restriction", 3),
                            ("range", 1), ("restriction", 2)]),
       rare=st.booleans(),
       runner=st.sampled_from(["bsgd", "fbgd"]),
       b=st.sampled_from([1, 2, 4, 24]),
       strategy=st.sampled_from(list(RoundingStrategy)),
       seed=st.integers(0, 2 ** 16),
       adversary=st.sampled_from(list(NoiseAdversary)),
       flags=st.sampled_from([(False, False), (True, False), (True, True)]),
       blocks=st.booleans())
def test_store_runs_match_per_round_evaluation(
        tmp_path_factory, name, n, stop, table_seed, bad, rare, runner, b,
        strategy, seed, adversary, flags, blocks):
    path = tmp_path_factory.mktemp("store") / "t.jsonl"
    if name == "table":
        fault = bad and (bad[0], bad[1], BAD_CODE)
        case = _table(stop, table_seed, fault, rare)
    else:
        case = _pipeline(name, n)
    fast, slow = _both(case, runner, b, seed, strategy, *flags, blocks, path)
    assert fast == slow
    method = case[5]
    if method is not None and name == "fbsq":
        batch = sample_batch(case[4], method.m, seed)
        oracles = [cls(batch, method.tau, adversary, seed, record_items=True)
                   for cls in (FBSQOracle, reference.FBSQOracle)]
        assert (_oracle_outcome(oracles[0], method, seed, path)
                == _oracle_outcome(oracles[1], method, seed, path))


def _model_store(model):
    """The model with its batch gradient noting each store it is handed."""
    stores = []

    def batch_gradient(w, items, bits, store=None, rows=None):
        if store is not None and store not in stores:
            stores.append(store)
        return model.batch_gradient(w, items, bits, store, rows)

    return dataclasses.replace(model, batch_gradient=batch_gradient), stores


@pytest.mark.parametrize("rare", [True, False])
def test_keyed_query_failing_on_the_support(tmp_path, rare):
    # round 2's query leaves [-1, 1] on input code BAD_CODE: with that
    # code never drawn the run trains as per-round evaluation does, and
    # with it drawn both raise the same error in the same round
    case = _table(ROUNDS, 2, ("range", 2, BAD_CODE), rare)
    fast, slow = _both(case, "bsgd", 24, 7, RoundingStrategy.NEAREST, True,
                       True, True, tmp_path / "t.jsonl")
    assert fast == slow
    if rare:
        assert fast[0][0] == "ok"
    else:
        assert fast[0][:2] == ("error", QueryRangeError.__name__)
        assert fast[2][-1][0] == 1  # raised in round 2, before its hook
    model, stores = _model_store(case[0])
    _outcome((model,) + case[1:], model, TrajectoryAuditor(case[1], RHO),
             "bsgd", 24, 7, RoundingStrategy.NEAREST, False, False, True,
             tmp_path / "t.jsonl")
    (store,) = stores
    # the failed key falls back to the round's rows: never stored
    assert ((("table", (ROUNDS, 2, ("range", 2, BAD_CODE)), 2), 0)
            in store._failed)
    assert not any(k[0][2] == 2 for k in store._values)


def test_stores_evaluate_each_key_once_at_benchmark_size():
    # the fbgd_pipeline workload: n = 6, m = 12, a frozen batch of 24
    stages = ["pac_to_fbsq", "bsq_alternating", "diffsim"]
    params = dict(n=6, m=12, m_batch=24, rho=1 / 256, delta=0.1)
    method, report = build_pipeline(stages, payload="parity", **params)
    inner, _ = build_pipeline(
        stages[:-1], payload="parity",
        **{**params, "delta": report.derived["delta_per_stage"]})
    D = FiniteDistribution.parity(6, (1, 0, 1, 1, 0, 1), bias=1)
    model, stores = _model_store(method.model)
    for seed in (301, 302):
        auditor = TrajectoryAuditor(inner.program, method.rho)
        dataclasses.replace(method, model=model).run(
            D, seed=seed, record=False, hook=auditor.hook)
        audit = auditor.check()
        store = stores[-1]
        assert len(stores) == (seed - 300)  # one store per run
        # the model takes one round's values per active round
        assert store.evaluations + store.hits == audit.active_rounds
        assert store.evaluations == len(store._values) < audit.active_rounds
        assert store.hits > 0 and not store._failed
        ours = auditor._store
        assert ours is not store
        assert ours.evaluations == len({key for key, _ in ours._values})
        assert store.evaluations + ours.evaluations <= 80


# ---------------------------------------------------------------------------
# shared matrices and stored values are read-only


def test_a_hook_writing_into_its_rows_raises():
    model, program, T, rho, D, _ = _pipeline("fbsq", 2)

    def write(field):
        def hook(info):
            getattr(info, field)[0, 0] = 1
        return hook

    # every round a plain hook sees, active or pad, under both runners
    for runner in ("bsgd", "fbgd"):
        raised = []

        def try_write(info):
            with pytest.raises(ValueError, match="read-only"):
                info.bits[0, 0] = 1
            raised.append(info.index)

        if runner == "bsgd":
            run_bsgd(model, D, T, rho, 2, hook=try_write)
        else:
            run_fbgd(model, sample_batch(D, 4, 1), T, rho, hook=try_write)
        assert raised == list(range(1, T + 1))
    for runner in ("bsgd", "fbgd"):
        with pytest.raises(ValueError, match="read-only"):
            if runner == "bsgd":
                run_bsgd(model, D, T, rho, 2, hook=write("pool_bits"))
            else:
                run_fbgd(model, sample_batch(D, 4, 1), T, rho,
                         hook=write("pool_bits"))
    with pytest.raises(ValueError, match="read-only"):
        D.joint_bits[0, 0] = 1
    batch = sample_batch(D, 4, 1)
    oracle = FBSQOracle(batch, 1 / 8)
    with pytest.raises(ValueError, match="read-only"):
        oracle._bits[0, 0] = 1
    query = program.start((0,) * program.random_bits).next_query()
    seen = []
    for store in (_ValueStore(D.support, D.joint_bits),
                  _ValueStore(None, D.joint_bits)):
        vals = store.values(query, 1)
        with pytest.raises(ValueError, match="read-only"):
            vals[0, 0] = 0.5
        assert store.values(query, 1) is vals and store.hits == 1
        assert store.take(query, None, D.support, D.joint_bits, 1) is vals
        seen.append(vals.tobytes())
    # a pool rebuilt from its joint bits gives the same values, through
    # the per-example loop too
    loop = dataclasses.replace(query, block=None, key=("loop", query.key))
    seen.append(_ValueStore(None, D.joint_bits).values(loop, 1).tobytes())
    assert seen[0] == seen[1] == seen[2]


# ---------------------------------------------------------------------------
# the ndarray methods behind every ask are the numpy functions


SPECIALS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0,
                            1.5, -7.0, 1e300, -1e-300])
ENTRIES = st.one_of(SPECIALS, st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(mean=st.lists(ENTRIES, min_size=0, max_size=9),
       tau=st.sampled_from([0.0, 1 / 8, 0.75, 2.0]),
       adversary=st.sampled_from(list(NoiseAdversary)),
       seed=st.integers(0, 2 ** 16),
       cdf=st.lists(ENTRIES, min_size=1, max_size=8),
       u=st.lists(ENTRIES, min_size=0, max_size=8))
def test_clip_and_searchsorted_methods_match_the_functions(
        mean, tau, adversary, seed, cdf, u):
    mean = np.array(mean, dtype=float)
    with np.errstate(all="ignore"):
        got = _apply_noise(mean, tau, adversary, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        noisy = {NoiseAdversary.ZERO_NOISE: lambda: mean.copy(),
                 NoiseAdversary.PLUS_TAU: lambda: mean + tau,
                 NoiseAdversary.MINUS_TAU: lambda: mean - tau,
                 NoiseAdversary.SEEDED_RANDOM: lambda: mean + rng.uniform(
                     -tau, tau, size=mean.shape)}[adversary]()
        want = np.clip(noisy, -1.0, 1.0)
    assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
    assert got is not mean
    # searchsorted over any sorted table, NaN sorting last as numpy sorts
    table, u = np.sort(np.array(cdf, dtype=float)), np.array(u, dtype=float)
    for side in ("left", "right"):
        assert (table.searchsorted(u, side=side).tobytes()
                == np.searchsorted(table, u, side=side).tobytes())


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 3), size=st.integers(1, 8),
       dist_seed=st.integers(0, 50), seed=st.integers(0, 2 ** 16),
       b=st.integers(0, 40))
def test_draw_indices_is_the_inverse_cdf(n, size, dist_seed, seed, b):
    D = FiniteDistribution.random(n, min(size, 2 ** (n + 1)), seed=dist_seed)
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    got = D.draw_indices(got_rng, b)
    want = np.minimum(np.searchsorted(D.cdf, want_rng.random(b),
                                      side="right"), len(D.support) - 1)
    assert got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()
