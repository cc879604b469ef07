"""Pad passes handed to the trajectory auditor as round blocks.

A run that keeps no transcript steps each pad pass in one assignment and
gives it to `TrajectoryAuditor.hook` as one RoundBlock; every other hook
sees the same rounds one BSGDRoundInfo at a time.  Block delivery must
leave everything observable as per-round delivery does, bit for bit:
final parameters, samples drawn, audits and their violations, errors
included.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradlab.diffsim import (
    TrajectoryAuditor,
    _Layout,
    compile_program,
    round_restriction,
)
from gradlab.numerics import RoundingOracle, RoundingStrategy
from gradlab.paradigms import (
    BSGDRoundInfo,
    GeneratorProgram,
    RoundBlock,
    SQQuery,
    run_bsgd,
    run_fbgd,
)
from gradlab.problems import FiniteDistribution, sample_batch
from gradlab.reductions import build_pipeline, decode_examples
from test_pad_rounds import (
    FAULTS,
    _PerRoundAuditor,
    _WrongRestriction,
    _clean_run,
    _dist,
    _early_finisher,
    _fault,
    _pipeline,
    _replay,
)
from test_train_bytes import _audit_fields


def _train(runner, model, D, T, rho, b, gamma, rounding, seed, hook):
    """Final parameters and samples drawn, or the error the run raised."""
    try:
        if runner == "bsgd":
            out = run_bsgd(model, D, T, rho, b, gamma, rounding, seed,
                           record=False, hook=hook)
        else:
            out = run_fbgd(model, sample_batch(D, b, seed), T, rho, gamma,
                           rounding, seed, record=False, hook=hook)
    except Exception as err:  # both deliveries must fail the same way
        return ("error", type(err).__name__, str(err))
    return ("ok", out.final_params.tobytes(), out.transcript.samples_consumed,
            out.init_bits)


def _audited(program, rho, train):
    auditor = TrajectoryAuditor(program, rho)
    return train(auditor.hook), _audit_fields(auditor.audit)


# ---------------------------------------------------------------------------
# block delivery is per-round delivery


def _finisher(stop: int) -> GeneratorProgram:
    """`_early_finisher` with queries that keep their label restriction,
    so the auditor can evaluate them on the batches drawn."""

    def qgen(t, bits, responses):
        if t > stop:
            return None
        want = round_restriction(t)
        return SQQuery(2, lambda ex: [0.5 * ex.x[0] - 0.25 * ex.x[1],
                                      0.75 * ex.x[t % 2]]
                       if ex.y == want.forced_label else [0.0, 0.0],
                       want, name=f"q{t}")

    return dataclasses.replace(_early_finisher(stop), query_generator=qgen)


@settings(max_examples=40, deadline=None)
@example(strategy=RoundingStrategy.NEAREST, seed=1, b=2, runner="bsgd",
         stop=0, gamma=1.0, T_extra=0, short_audit=True)
@given(strategy=st.sampled_from(list(RoundingStrategy)),
       seed=st.integers(0, 2 ** 16),
       b=st.sampled_from([1, 2, 4]),
       runner=st.sampled_from(["bsgd", "fbgd"]),
       stop=st.sampled_from([None, 0, 1, 3]),
       gamma=st.sampled_from([1.0, 0.5, 0.25, 0.1]),
       T_extra=st.sampled_from([-40, 0, 3]),
       short_audit=st.booleans())
def test_block_hook_matches_per_round_hook(strategy, seed, b, runner, stop,
                                           gamma, T_extra, short_audit):
    # stop=None: the parity pipeline under its audit program; otherwise a
    # program that finishes early, whose small steps can stall the clocks,
    # audited in full or as a shorter program that ends inside a block
    if stop is None:
        method, program = _pipeline(2)
        model, rho, T = method.model, method.rho, method.T
    else:
        program = _finisher(stop)
        rho, T = 1 / 16, program.rounds
        model = compile_program(program, rho)
        if short_audit:
            program = dataclasses.replace(program, rounds=40)
    D = _dist()
    T += T_extra

    def train(hook):
        rounding = RoundingOracle(strategy, seed=seed)
        return _train(runner, model, D, T, rho, b, gamma, rounding, seed,
                      hook)

    blocks = _audited(program, rho, train)
    rounds = _audited(program, rho,
                      lambda hook: train(lambda info: hook(info)))
    assert blocks == rounds
    assert train(None) == train(lambda info: None)


# ---------------------------------------------------------------------------
# recorded runs fed as blocks: faults and replay errors


def _wrong_coordinate(where, j, lay, rho, amount):
    """Round j writes one other coordinate in place of its clock."""
    target = {"own_slot": lay.start(j), "outside": lay.start(j + 3),
              "bits": lay.r - 1}[where]
    return {lay.kappa_index(j): 0.0, target: -amount * rho}


def _replay_blocks(auditor, method, out, faults, cuts, peek):
    """`_replay` for one auditor, with single-write rounds sent as blocks.

    A round whose response (with its faults) writes at most one
    coordinate joins the open block, unless that coordinate is already
    in it; any other round, a round in `cuts` and a round in `peek`
    close the block after them.  Returns the error (without its round)
    and the audit.
    """
    D = _dist()
    pool = D.support
    index = {ex.joint_code(): i for i, ex in enumerate(pool)}
    labels = np.array([ex.y for ex in pool])
    lay = auditor.layout
    w = method.model.init(out.init_bits).copy()
    block = []

    def flush():
        if not block:
            return
        cols = list(zip(*block))
        rows = np.array(cols[1], dtype=np.intp).reshape(len(block), -1)
        coords, avg, response, before, after = (np.array(c)
                                                for c in cols[2:])
        auditor.hook(RoundBlock(
            first=cols[0][0], pool=pool, labels=labels, rows=rows,
            coords=coords.astype(np.intp), avg=avg, response=response,
            before=before, after=after, w=w))
        block.clear()

    try:
        for rec in out.transcript.records:
            i = rec.index
            response = dict(rec.response)
            response.update(faults.get(i, {}))
            writes = {c: v for c, v in response.items() if v != 0.0}
            if len(writes) <= 1:
                c, v = next(iter(writes.items()), (lay.kappa_index(i), 0.0))
                if any(c == r[2] for r in block):
                    flush()
                before = float(w[c])
                if v != 0.0:
                    w[c] -= v
                block.append((i, [index[code] for code in rec.batch_codes],
                              c, dict(rec.exact_mean).get(c, 0.0), v, before,
                              float(w[c])))
                if i in cuts or i in peek:
                    flush()
            else:
                flush()
                for c, v in writes.items():
                    w[c] -= v
                auditor.hook(BSGDRoundInfo(
                    index=i, batch=decode_examples(D, rec.batch_codes),
                    avg=dict(rec.exact_mean), response=response, w=w))
            if i in peek and not block:
                auditor.audit  # noqa: B018 - reading flushes logged rounds
        flush()
    except Exception as err:  # both auditors must fail the same way
        return (type(err).__name__, str(err)), _audit_fields(auditor.audit)
    return None, _audit_fields(auditor.audit)


WRONG = ["own_slot", "outside", "bits"]


@settings(max_examples=40, deadline=None)
@given(seed=st.sampled_from([2, 3]),
       picks=st.lists(st.tuples(
           st.sampled_from(["clock"] + WRONG + FAULTS),
           st.floats(0.0, 1.0), st.sampled_from([0.25, 1.0, 3.3, 5.0])),
           max_size=4),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
       peek=st.lists(st.floats(0.0, 1.0), max_size=2),
       bad=st.sampled_from([None, 1, 2, 5, 6]))
def test_block_faults_match_per_round_audit(seed, picks, cuts, peek, bad):
    method, program, out = _clean_run(seed)
    lay = _Layout(r=program.random_bits, p=program.arity, T=program.rounds)

    def at(u):
        return 5 + int(u * (method.T - 9))

    faults = {}
    for kind, u, amount in picks:
        j = at(u)
        fault = (_wrong_coordinate(kind, j, lay, method.rho, amount)
                 if kind in WRONG
                 else _fault(kind, j, lay, method.rho, amount))
        faults.setdefault(j, {}).update(fault)
    audited = program if bad is None else _WrongRestriction(program, bad)
    peek = {at(u) for u in peek}
    fast = TrajectoryAuditor(audited, method.rho)
    got = _replay_blocks(fast, method, out, faults, {at(u) for u in cuts},
                         peek)
    (err, want), = _replay([_PerRoundAuditor(audited, method.rho)], method,
                           out, faults, peek=peek)
    assert got == (err and err[1:], want)


def test_clean_run_as_blocks_matches_per_round_audit():
    method, program, out = _clean_run(2)
    fast = TrajectoryAuditor(program, method.rho)
    got = _replay_blocks(fast, method, out, {}, set(), set())
    (err, want), = _replay([_PerRoundAuditor(program, method.rho)], method,
                           out, {})
    assert err is None and got == (None, want)
    assert fast.audit.pad_rounds > 200 and fast.audit.ok


# ---------------------------------------------------------------------------
# a wrapped hook, as the benchmark tracer installs it, still gets blocks


def test_wrapped_auditor_hook_keeps_the_block_path(monkeypatch):
    params = dict(n=4, m=8, b=4, rho=1 / 64, delta=0.1)
    stages = ["pac_to_bsq", "bsq_alternating", "diffsim"]
    method, report = build_pipeline(stages, payload="parity", **params)
    audit_method, _ = build_pipeline(
        stages[:-1], payload="parity",
        **{**params, "delta": report.derived["delta_per_stage"]})
    D = FiniteDistribution.parity(4, (1, 0, 1, 1), bias=0)

    def audit():
        auditor = TrajectoryAuditor(audit_method.program, method.rho)
        method.run(D, seed=301, record=False, hook=auditor.hook)
        return auditor.check()

    plain = audit()
    calls = []
    original = TrajectoryAuditor.hook

    def traced(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(TrajectoryAuditor, "hook", traced)
    wrapped = audit()
    assert method.T == plain.rounds == 16000
    assert plain.pad_rounds > 15000
    assert len(calls) < 100
    assert _audit_fields(wrapped) == _audit_fields(plain)
