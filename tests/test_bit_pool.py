"""An extraction program's bit pool, whatever integer type carries it.

`ExtractionProgram.start` converts the pool to Python ints once, and
the run's bit cursor serves that tuple.  Numpy ints and bools must give
the run that Python ints give, bits served past a short pool included.
"""
import numpy as np
import pytest

from gradlab.extract import ExtractionProgram
from gradlab.paradigms import BSQOracle, FBSQOracle
from gradlab.problems import FiniteDistribution, sample_batch

TAU = 1 / 32


def _learner(samples, bits):
    return tuple(ex.joint_code() for ex in samples), bits


def _run(prog, bits, D, path):
    oracle = (FBSQOracle(sample_batch(D, prog.b, 1), TAU, seed=2)
              if prog.fixed_batch else BSQOracle(D, prog.b, TAU, seed=2))
    run = prog.start(bits)
    while (q := run.next_query()) is not None:
        run.receive(oracle.ask(q))
    oracle.transcript.to_jsonl(path)
    pred = run.predictor()
    return (path.read_bytes(), run.bits_consumed,
            pred if isinstance(pred, tuple) else type(pred).__name__,
            [type(v) for v in run.payload_bits])


@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("fixed_batch", [False, True])
@pytest.mark.parametrize("alternating", [False, True])
def test_pool_types_give_the_same_run(tmp_path, alternating, fixed_batch,
                                      short):
    D = FiniteDistribution.random(3, 10, seed=4)
    prog = ExtractionProgram(n=3, b=8, tau=TAU, m=4, rounds=80,
                             learner=_learner, learner_bits=3,
                             alternating=alternating,
                             fixed_batch=fixed_batch)
    size = prog.learner_bits + 4 if short else prog.random_bits
    pool = np.random.default_rng(9).integers(0, 2, size)
    variants = [tuple(int(v) for v in pool), list(pool.tolist()),
                pool.astype(np.int64), pool.astype(np.int8),
                pool.astype(bool), tuple(bool(v) for v in pool)]
    outcomes = [_run(prog, bits, D, tmp_path / "t.jsonl")
                for bits in variants]
    assert outcomes[0][3] == [int] * prog.learner_bits
    assert (outcomes[0][1] > 0) == short  # a short pool runs dry
    assert all(out == outcomes[0] for out in outcomes[1:])
