"""Block query evaluation against the per-example loop it replaces.

`SQQuery.evaluate` on a sequence of examples evaluates a query's block
on the joint-bit matrix in one call.  Its values must equal the stacked
per-example values bit for bit, and when any example fails a check it
must raise the per-example error on the same example.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradlab.extract import _label_query, prefix_query
from gradlab.paradigms import (
    LabelRestriction,
    SQQuery,
    constant_zero_query,
)
from gradlab.problems import Example, joint_bit_matrix
from gradlab.reductions import _coordinate_query, _label_scaled_query

RESTRICTIONS = list(LabelRestriction)


def reference(query, examples):
    """The per-example loop: stacked values, or the error it raises."""
    try:
        return np.stack([query.evaluate(ex) for ex in examples])
    except Exception as err:  # compared by type and message
        return err


def table_query(coefs, n, restriction, with_block=True):
    """Coordinate j is coefs[j] times joint bit j mod n+1; any reals."""
    cols = [j % (n + 1) for j in range(len(coefs))]
    row = np.array(coefs, dtype=float)

    def evaluate(ex):
        z = ex.joint_bits()
        return [c * z[k] for c, k in zip(coefs, cols)]

    def block(bits):
        return row * bits[:, cols]

    return SQQuery(len(coefs), evaluate, restriction, name="table",
                   block=block if with_block else None)


@st.composite
def examples_of(draw, n):
    z = st.tuples(*[st.integers(0, 1)] * (n + 1))
    return [Example(x=bits[1:], y=bits[0])
            for bits in draw(st.lists(z, min_size=1, max_size=12))]


COEF = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 1.5, -2.0, math.nan]),
    st.floats(-1.0, 1.0))


@st.composite
def base_queries(draw, n):
    kind = draw(st.sampled_from(["prefix", "label", "pad", "table",
                                 "plain"]))
    restriction = draw(st.sampled_from(RESTRICTIONS))
    if kind == "prefix":
        ell = draw(st.integers(0, n))
        prefix = draw(st.tuples(*[st.integers(0, 1)] * ell))
        width = (1 if ell else 0) + n + 1 - ell
        pad_to = draw(st.sampled_from([None, width, width + 2]))
        return prefix_query(prefix, n, pad_to=pad_to, restriction=restriction)
    if kind == "label":
        return _label_query(draw(st.integers(1, n + 2)))
    if kind == "pad":
        return constant_zero_query(draw(st.integers(1, 4)), restriction)
    coefs = draw(st.lists(COEF, min_size=1, max_size=n + 3))
    return table_query(coefs, n, restriction, with_block=kind == "table")


@st.composite
def queries(draw, n):
    query = draw(base_queries(n))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            query = _label_scaled_query(query, draw(st.integers(0, 1)))
        else:
            query = _coordinate_query(query,
                                      draw(st.integers(0, query.arity - 1)))
    return query


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(queries(n), examples_of(n))))
def test_block_matches_per_example_loop(case):
    query, examples = case
    want = reference(query, examples)
    for got_bits in (None, joint_bit_matrix(examples)):
        try:
            got = query.evaluate(examples, got_bits)
        except Exception as err:
            assert isinstance(want, Exception), f"raised {err!r}"
            assert type(err) is type(want) and str(err) == str(want)
            continue
        assert not isinstance(want, Exception), f"missed {want!r}"
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_block_path_skips_the_evaluator():
    def boom(ex):
        raise AssertionError("per-example evaluator called")

    examples = [Example((0, 1), 1), Example((1, 1), 0), Example((1, 0), 1)]
    for inner in (prefix_query((1,), 2), _label_query(3),
                  constant_zero_query(3, LabelRestriction.ZERO_QUERY)):
        query = SQQuery(inner.arity, boom, inner.restriction, inner.name,
                        block=inner.block)
        got = query.evaluate(examples)
        assert got.tobytes() == reference(inner, examples).tobytes()


def test_failed_block_check_raises_the_per_example_error():
    # y=0 rows of a label-one query are nonzero; the loop names y=0
    query = table_query([0.5, 0.25], 1, LabelRestriction.ONE_QUERY)
    examples = [Example((1,), 1), Example((1,), 0)]
    with pytest.raises(Exception) as err:
        query.evaluate(examples)
    want = reference(query, examples)
    assert type(err.value) is type(want) and str(err.value) == str(want)
    assert "nonzero on y=0" in str(want)
