"""One gradient path: the runners' clipped block, read three ways.

A compiled model's per-example `loss_gradient` is the one-row case of
its batch gradient, which must equal the per-example formula the model
had before (`reference.compiled_gradient`).  `bsgd_to_bsq`'s gradient
query reads the same clipped block, scattered to `dim` entries per
example; its per-example evaluator is that block on one row.  So a
compiled run's batches, replayed through `ReplayOracle` into the
query program and started with the run's init bits, retrace the run:
under zero noise the final parameters of a nearest-rounding run come
back bit for bit, and under any noise every snapped response is a valid
rounding of its round's exact batch mean.
"""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from gradlab.diffsim import compile_program
from gradlab.numerics import (
    RoundingOracle,
    RoundingStrategy,
    round_nearest_multiple,
    valid_rounding,
)
from gradlab.paradigms import DiffModel, NoiseAdversary
from gradlab.problems import Example, FiniteDistribution, joint_bit_matrix
from gradlab.reductions import ReplayOracle, bsgd_to_bsq, build_pipeline
from test_batch_gradient import RHO, _table_program, _values, _with_blocks

STAGES = {
    "bsgd": (["pac_to_bsq", "bsq_alternating", "diffsim"],
             dict(n=2, m=2, b=2, rho=1 / 64, delta=0.95)),
    "fbgd": (["pac_to_fbsq", "bsq_alternating", "diffsim"],
             dict(n=2, m=2, m_batch=4, rho=1 / 64, delta=0.5)),
}


@lru_cache(maxsize=None)
def _method(runner: str):
    stages, params = STAGES[runner]
    method, _ = build_pipeline(stages, payload="parity", **params)
    return method


def _batch_size(method) -> int:
    return method.b if hasattr(method, "b") else method.m


def _float_bits(g) -> list:
    return [(k, float(v).hex()) for k, v in g.items()]


def _outcome(call):
    try:
        return "ok", call()
    except Exception as err:  # both sides must fail alike
        return type(err).__name__, str(err)


# ---------------------------------------------------------------------------
# the compiled model's per-example gradient is the one-row block


@pytest.mark.parametrize("runner", ["bsgd", "fbgd"])
@pytest.mark.parametrize("seed", [1, 2])
def test_one_row_block_is_the_per_example_formula(runner, seed):
    method = _method(runner)
    model = method.model
    core = model.batch_gradient.__self__
    D = FiniteDistribution.random(2, 6, seed=seed + 2)
    iterates = []
    out = method.run(D, seed=seed, record=False,
                     hook=lambda info: iterates.append(info.w.copy()))
    iterates.insert(0, model.init(out.init_bits))
    items = list(D.support) + [Example(ex.x, 1 - ex.y) for ex in D.support]
    pairs = 0
    for w in iterates[::3 if runner == "bsgd" else 1]:
        for ex in items:
            got = _outcome(lambda: _float_bits(model.loss_gradient(w.copy(),
                                                                   ex)))
            want = _outcome(lambda: _float_bits(
                reference.compiled_gradient(core, w.copy(), ex)))
            assert got == want
            pairs += 1
    assert pairs >= 12 * 13


# ---------------------------------------------------------------------------
# compiled runs replayed through bsgd_to_bsq


def _replay(method, out, D, adversary, seed):
    """The run's batches answered through `bsgd_to_bsq`'s program, started
    with the run's init bits: the program's run and the oracle."""
    codes = [rec.batch_codes for rec in out.transcript.records]
    bsq = bsgd_to_bsq(method.model, method.T, method.rho,
                      _batch_size(method))
    oracle = ReplayOracle(D, codes, bsq.tau, adversary, seed)
    run = bsq.program.start(out.init_bits)
    while (query := run.next_query()) is not None:
        run.receive(oracle.ask(query))
    return run, oracle


@settings(max_examples=30, deadline=None)
@given(runner=st.sampled_from(["bsgd", "fbgd"]),
       strategy=st.sampled_from(list(RoundingStrategy)),
       adversary=st.sampled_from(list(NoiseAdversary)),
       seed=st.integers(0, 2 ** 16), dist_seed=st.integers(0, 20))
def test_replayed_run_closes_the_loop(runner, strategy, adversary, seed,
                                      dist_seed):
    method = _method(runner)
    D = FiniteDistribution.random(2, 6, seed=dist_seed)
    nearest = method.run(D, seed=seed)
    run, _ = _replay(method, nearest, D, NoiseAdversary.ZERO_NOISE, seed)
    assert run.w.tobytes() == nearest.final_params.tobytes()

    out = method.run(D, seed=seed, rounding=RoundingOracle(strategy, seed))
    run, oracle = _replay(method, out, D, adversary, seed + 1)
    records = oracle.transcript.records
    assert len(records) == method.T
    for rec in records:
        snapped = round_nearest_multiple(rec.response, method.rho)
        assert valid_rounding(snapped, rec.exact_mean, method.rho)


# ---------------------------------------------------------------------------
# the gradient query's block is its per-example loop


def _converted(model: DiffModel, w: np.ndarray, ex: Example) -> np.ndarray:
    """The per-example value the query had before it read the block: the
    model's gradient (a compiled model's by the reference formula) made
    dense, then clipped."""
    if model.batch_gradient is None:
        g = model.loss_gradient(w, ex)
    else:
        g = reference.compiled_gradient(model.batch_gradient.__self__, w, ex)
    if isinstance(g, dict):
        dense = np.zeros(model.dim)
        for idx, val in g.items():
            dense[idx] = val
        g = dense
    return np.clip(np.asarray(g, dtype=float), -1.0, 1.0)


def _query_agrees(model: DiffModel, w: np.ndarray, items) -> np.ndarray:
    run = bsgd_to_bsq(model, 1, 1 / 64, len(items)).program.start(
        (0,) * model.random_bits)
    run.w = w.copy()
    query = run.next_query()
    block = query.evaluate(items)
    loop = np.stack([query.evaluate(ex) for ex in items])
    want = np.stack([_converted(model, w.copy(), ex) for ex in items])
    assert block.tobytes() == loop.tobytes() == want.tobytes()
    assert block.tobytes() == np.asarray(
        query.block(joint_bit_matrix(items)), float).tobytes()
    return block


SPECIALS = st.one_of(st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0, 2.5,
                                      -3.0]), st.floats(-2.0, 2.0))
CODES = list(range(8))  # the joint codes of n = 2


def _example(code: int) -> Example:
    return Example.from_joint_bits(((code >> 2) & 1, (code >> 1) & 1,
                                    code & 1))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), sparse=st.booleans(),
       rows=st.lists(st.sampled_from(CODES), min_size=1, max_size=8))
def test_gradient_query_block_is_its_loop(data, dim, sparse, rows):
    if sparse:
        table = {c: data.draw(st.dictionaries(st.integers(0, dim - 1),
                                              SPECIALS, max_size=dim))
                 for c in CODES}
    else:
        table = {c: np.array(data.draw(st.lists(SPECIALS, min_size=dim,
                                                max_size=dim)))
                 for c in CODES}
    model = DiffModel(dim=dim, random_bits=0, init=lambda bits: np.zeros(dim),
                      value=None,
                      loss_gradient=lambda w, ex: table[ex.joint_code()])
    _query_agrees(model, np.zeros(dim), [_example(c) for c in rows])


@pytest.mark.parametrize("runner", ["bsgd", "fbgd"])
def test_compiled_gradient_query_block_is_its_loop(runner):
    method = _method(runner)
    model = method.model
    D = FiniteDistribution.random(2, 6, seed=4)
    iterates = []
    method.run(D, seed=3, record=False,
               hook=lambda info: iterates.append(info.w.copy()))
    items = list(D.support) + [Example(ex.x, 1 - ex.y) for ex in D.support]
    for w in iterates[:40:3] + iterates[-2:]:
        _query_agrees(model, w, items)


def test_compiled_gradient_query_with_nan_values():
    # a table program whose queries read NaN on some inputs, and a block
    # already written: NaN reaches f and every entry of its rows
    values = _values(1, False)
    values[:, 3, 1] = np.nan
    model = compile_program(_table_program(values, 10), RHO)
    blocks = np.full((10, values.shape[2]), 4 * RHO)
    model = _with_blocks(model, blocks)
    w = model.init((0, 1))
    items = [Example(((c >> 2) & 1, (c >> 1) & 1, c & 1), y)
             for c in range(8) for y in (0, 1)]
    assert np.isnan(_query_agrees(model, w, items)).any()
