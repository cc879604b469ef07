"""One active round of a compiled pipeline against its reference.

The library's round takes a draw's bits from its cursor in one call,
shares a program's prefix queries across every run of the program,
rounds short inputs to the nearest grid point on Python floats, and
steps a sparse block with few numpy calls.  `reference` holds each of
these written the plain way; both must agree bit for bit.
"""
from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from gradlab import extract, numerics
from gradlab.diffsim import compile_program
from gradlab.extract import ExtractionProgram
from gradlab.numerics import (
    GridError,
    RoundingOracle,
    RoundingStrategy,
    round_nearest_multiple,
)
from gradlab.paradigms import (
    BSQMethod,
    DiffModel,
    FBSQMethod,
    NoiseAdversary,
    _gradient_step,
)
from gradlab.problems import Example, FiniteDistribution
from test_batch_gradient import N, RHO, ROUNDS, _table_program, _values
from test_value_store import _both

# ---------------------------------------------------------------------------
# the bit cursor


def _cursors(pool):
    return extract._BitCursor(tuple(pool)), reference._BitCursor(tuple(pool))


def _same_next_draw(fast, slow):
    assert fast.take(64) == slow.take(64)
    assert fast.overflow_consumed == slow.overflow_consumed
    assert (fast._overflow is None) == (slow._overflow is None)
    if fast._overflow is not None:
        assert fast._overflow.consumed == slow._overflow.consumed
        assert fast._overflow._rng.random() == slow._overflow._rng.random()


def test_every_take_across_the_pool_end():
    # each k from every offset that ends inside, at or past the pool's end
    for size in range(71):
        pool = [(7 * j + size) % 3 % 2 for j in range(size)]
        for k in range(1, 9):
            for lead in range(max(0, size - k - 1), size + 2):
                fast, slow = _cursors(pool)
                for cursor in (fast, slow):
                    for _ in range(lead):
                        cursor.take(1)
                assert fast.take(k) == slow.take(k), (size, k, lead)
                assert fast.overflow_consumed == slow.overflow_consumed
                _same_next_draw(fast, slow)


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(st.integers(0, 1), max_size=70),
       takes=st.lists(st.integers(1, 8), max_size=40))
def test_take_sequences_match_per_bit_cursor(pool, takes):
    fast, slow = _cursors(pool)
    for k in takes:
        assert fast.take(k) == slow.take(k)
        assert fast.overflow_consumed == slow.overflow_consumed
    _same_next_draw(fast, slow)


# ---------------------------------------------------------------------------
# nearest rounding


STEPS = [2.0 ** -d for d in (0, 1, 4, 8, 40)]
TIES = [(q + 0.5) * s for q in (-3, -1, 0, 2) for s in (2 ** -4, 2 ** -8)]
NEAR_ONE = [1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0),
            math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0)]
ROUND_ENTRIES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
                                 + TIES + NEAR_ONE)
                 | st.floats(-1.5, 1.5))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _bits_or_error(call):
    try:
        out = call()
    except Exception as err:  # both must fail alike
        return type(err).__name__, str(err)
    return out.shape, out.dtype, out.tobytes()


@settings(max_examples=400, deadline=None)
@given(entries=st.lists(ROUND_ENTRIES, min_size=1, max_size=20),
       bad=st.lists(st.tuples(st.integers(0, 19), NON_FINITE), max_size=2),
       step=st.sampled_from(STEPS + [3.0, 2.0 ** -41, 0.0]),
       shape=st.sampled_from(["1d", "0d", "2d", "list"]))
def test_nearest_rounding_matches_numpy(entries, bad, step, shape):
    for at, v in bad:
        entries[at % len(entries)] = v
    if shape == "0d":
        v = np.float64(entries[0])
    elif shape == "2d":
        v = np.array(entries[:len(entries) // 2 * 2]).reshape(-1, 2)
    elif shape == "list":
        v = entries
    else:
        v = np.array(entries)
    with np.errstate(invalid="ignore", over="ignore"):
        got = _bits_or_error(lambda: round_nearest_multiple(v, step))
        want = _bits_or_error(
            lambda: reference.round_nearest_multiple(v, step))
    assert got == want
    if bad:  # non-finite entries take numpy
        assert numerics._small(np.asarray(v, dtype=float)) is None


def test_nearest_rounding_of_an_empty_input_and_a_bad_step():
    assert round_nearest_multiple([], 0.25).shape == (0,)
    with pytest.raises(GridError):
        round_nearest_multiple([0.5], 0.3)


# ---------------------------------------------------------------------------
# the block step


STEP_ENTRIES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0,
                                math.nan, math.inf]) | st.floats(-2.0, 2.0)


def _packed(v):
    if isinstance(v, dict):
        return [(k, struct.pack("<d", x)) for k, x in v.items()]
    return [struct.pack("<d", x) for x in np.asarray(v).ravel().tolist()]


def _step(step, model, w0, items, bits, strategy, seed, gamma):
    w = w0.copy()
    grads_of, avg, response = step(model, w, items, bits, 2 ** -4, gamma,
                                   RoundingOracle(strategy, seed=seed))
    return (w.tobytes(), _packed(avg), _packed(response),
            [_packed(g) for g in grads_of()])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), b=st.integers(1, 6), k=st.integers(0, 7),
       kind=st.sampled_from(["ascending", "lifted", "dense"]),
       strategy=st.sampled_from(list(RoundingStrategy)),
       seed=st.integers(0, 2 ** 16), gamma=st.sampled_from([1.0, 0.75]))
def test_step_matches_reference_tail(data, b, k, kind, strategy, seed,
                                     gamma):
    dim = 9
    coords = np.array(data.draw(st.permutations(range(dim)))[:k],
                      dtype=np.intp)
    if kind == "ascending":  # as compiled models give them
        coords.sort()
    present = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=k, max_size=k),
        min_size=b, max_size=b)), dtype=bool).reshape(b, k)
    vals = np.array(data.draw(st.lists(
        st.lists(STEP_ENTRIES, min_size=k, max_size=k),
        min_size=b, max_size=b)), dtype=float).reshape(b, k)
    w0 = np.array(data.draw(st.lists(STEP_ENTRIES, min_size=dim,
                                     max_size=dim)))
    # example r has input bits r, so a lifted model reads its row
    items = tuple(Example(((r >> 2) & 1, (r >> 1) & 1, r & 1), 0)
                  for r in range(b))
    bits = np.zeros((b, 4), dtype=np.int8)

    def row(ex):
        return ex.x[0] * 4 + ex.x[1] * 2 + ex.x[2]

    if kind == "ascending":
        model = DiffModel(dim=dim, random_bits=0, init=None, value=None,
                          loss_gradient=None,
                          batch_gradient=lambda w, it, bt: (coords, vals,
                                                            present))
    elif kind == "lifted":
        # each example's dict in its own order: the block's coordinates
        # are their first appearance, not ascending
        orders = [data.draw(st.permutations(range(k))) for _ in range(b)]
        dicts = [{int(coords[j]): float(v[j]) for j in order if p[j]}
                 for v, p, order in zip(vals, present, orders)]
        model = DiffModel(dim=dim, random_bits=0, init=None, value=None,
                          loss_gradient=lambda w, ex: dicts[row(ex)])
    else:
        dense = np.zeros((b, dim))
        dense[:, :k] = vals
        model = DiffModel(dim=dim, random_bits=0, init=None, value=None,
                          loss_gradient=lambda w, ex: dense[row(ex)])
    args = (model, w0, items, bits, strategy, seed, gamma)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _step(_gradient_step, *args) == _step(reference.gradient_step,
                                                     *args)


# ---------------------------------------------------------------------------
# a compiled model whose query values hold NaN, on blocks not yet written


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 3), nan=st.booleans(),
       t=st.integers(1, ROUNDS), clock=st.floats(0.0, RHO / 2),
       rows=st.lists(st.integers(0, 2 ** (N + 1) - 1), min_size=1,
                     max_size=6))
def test_batch_gradient_on_a_cold_clock_matches_reference(seed, nan, t, clock,
                                                          rows):
    values = _values(seed, False)
    if nan:
        rng = np.random.default_rng(seed)
        values[rng.random(values.shape) < 0.2] = math.nan
    model = compile_program(_table_program(values, ROUNDS), RHO)
    core = model.init.__self__
    w = core.init((0, 1))
    for i in range(1, t):
        w[core.layout.kappa_index(i)] = RHO
    w[core.layout.kappa_index(t)] = clock
    items = tuple(Example.from_joint_bits(tuple(
        (code >> s) & 1 for s in range(N, -1, -1))) for code in rows)
    bits = np.array([ex.joint_bits() for ex in items], dtype=np.int8)
    slow = reference.per_round_model(model)
    with np.errstate(invalid="ignore"):
        got = model.batch_gradient(w, items, bits)
        want = slow.batch_gradient(w.copy(), items, bits)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), stop=st.integers(1, ROUNDS),
       runner=st.sampled_from(["bsgd", "fbgd"]),
       b=st.sampled_from([1, 2, 4]),
       strategy=st.sampled_from(list(RoundingStrategy)),
       run_seed=st.integers(0, 2 ** 16), blocks=st.booleans())
def test_nan_query_values_match_reference(tmp_path_factory, seed, stop,
                                          runner, b, strategy, run_seed,
                                          blocks):
    path = tmp_path_factory.mktemp("nan") / "t.jsonl"
    values = _values(seed, False)
    rng = np.random.default_rng(seed)
    values[rng.random(values.shape) < 0.1] = math.nan
    program = _table_program(values, stop)
    case = (compile_program(program, RHO), program, ROUNDS, RHO,
            FiniteDistribution.random(N, 12, seed=seed), None)
    with np.errstate(invalid="ignore"):
        fast, slow = _both(case, runner, b, run_seed, strategy, False,
                           False, blocks, path)
    assert fast == slow


# ---------------------------------------------------------------------------
# one program's queries, shared by all its runs


def _keep(samples, bits):
    return tuple(ex.joint_code() for ex in samples), tuple(bits)


def _run(method, D, seed, adversary, path):
    try:
        run = method.run(D, seed, adversary=adversary, record_items=True)
    except Exception as err:  # both sides must fail alike
        return "error", type(err).__name__, str(err)
    run.transcript.to_jsonl(path)
    predictor = run.predictor
    return (predictor if isinstance(predictor, tuple)
            else type(predictor).__name__, run.init_bits, path.read_bytes())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3), dist_seed=st.integers(0, 40),
       seeds=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=6),
       b=st.sampled_from([1, 2, 4, 8]), m=st.integers(1, 4),
       budget=st.integers(1, 60), alternating=st.booleans(),
       fixed=st.booleans(), adversary=st.sampled_from(list(NoiseAdversary)))
def test_program_runs_share_queries_as_fresh_ones(
        tmp_path_factory, n, dist_seed, seeds, b, m, budget, alternating,
        fixed, adversary):
    path = tmp_path_factory.mktemp("shared") / "t.jsonl"
    D = FiniteDistribution.random(n, min(6, 2 ** (n + 1)), seed=dist_seed)
    tau = 2.0 ** -(math.ceil(math.log2(b)) + 2)

    def method(cls):
        prog = cls(n=n, b=b, tau=tau, m=min(m, b) if fixed else m,
                   rounds=budget, learner=_keep, learner_bits=1,
                   alternating=alternating, fixed_batch=fixed)
        return (FBSQMethod(k=budget, tau=tau, m=b, program=prog) if fixed
                else BSQMethod(k=budget, tau=tau, b=b, program=prog))

    shared = method(ExtractionProgram)
    for seed in seeds:
        got = _run(shared, D, seed, adversary, path)
        want = _run(method(reference.ReferenceExtractionProgram), D, seed,
                    adversary, path)
        assert got == want
    queries = shared.program._queries
    assert len(queries) <= 2 ** (n + 1) + 2
    # a repeated run builds no query
    before = dict(queries)
    _run(shared, D, seeds[0], adversary, path)
    assert queries.keys() == before.keys()
    assert all(queries[key] is q for key, q in before.items())
