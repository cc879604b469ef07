"""Byte-level pins for compiled-model training.

Each digest is a SHA-256 over the exact bytes that `run_bsgd` and
`run_fbgd` produced on compiled programs: transcript files, final
parameters, initial bits, the trained predictor on the support, every
`TrajectoryAudit` field, and the sequence of iterates a plain per-round
hook sees.  Two parity pipelines run 253 rounds, most of them pad
rounds after the program finishes; a frozen-batch parity pipeline runs
12 rounds, and a 9-round program finishes after 2.  A faster descent
path must reproduce them unchanged; a deliberate behaviour change must
update them and say why.
"""
import dataclasses
import hashlib
import json
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest

from gradlab.diffsim import TrajectoryAuditor, compile_program
from gradlab.numerics import RoundingOracle, RoundingStrategy
from gradlab.paradigms import (
    DiffModel,
    GeneratorProgram,
    LabelRestriction,
    QueryProgram,
    SQQuery,
    run_bsgd,
    run_fbgd,
)
from gradlab.problems import Example, FiniteDistribution, sample_batch
from gradlab.reductions import build_pipeline

SEEDS = (0, 5, 913)
# (record, record_items, record_hashes)
FLAGS = ((True, True, True), (True, False, False), (True, True, False),
         (True, False, True), (False, False, False))
# pipeline params: T = 253 for both, mostly pad rounds
PIPELINES = {"b2": dict(n=2, m=2, b=2, rho=1 / 64, delta=0.95),
             "b3": dict(n=2, m=2, b=3, rho=1 / 128, delta=0.95)}
ECHO_RHO = 2 ** -6

DIGESTS = {
    "bsgd-b2":
        "56cb15214ef2d7e8b55a490d00b1da9623ae057216f0f2da9f831a054b89e062",
    "bsgd-b3":
        "b68949745fe0b55d5e2f0774b35947bbe0fab07a6950013162f4a98cee0a14f7",
    "fbgd-b2":
        "0efc22d0247e88d6086a9aed6e441a3b233b749cf69660ab66c1e9caab65da32",
    "fbgd-b3":
        "db787783ab1b639614589cedbb26e61d94e8b7cfaaceb63aeb9617ea668f96e6",
    "fbgd-fbsq":
        "3c21fc743016eed2f0c1ed4c9568bf4e82bc83eb83cac4f9ddabda30785a1461",
    "bsgd-echo":
        "e13f8425629bc186a9b90d3f8813ba832b86a5a870dfb053d59776dc6094b078",
    "fbgd-echo":
        "9e1833d6a21580183e41f7323be376d48beb8a2a00ed12bdb4fa33879c3bd556",
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


@lru_cache(maxsize=None)
def _pipeline(name: str):
    params = PIPELINES[name]
    stages = ["pac_to_bsq", "bsq_alternating", "diffsim"]
    method, report = build_pipeline(stages, payload="parity", **params)
    audit_method, _ = build_pipeline(
        stages[:-1], payload="parity",
        **{**params, "delta": report.derived["delta_per_stage"]})
    assert method.T > 64
    return method, audit_method.program


def _dist() -> FiniteDistribution:
    return FiniteDistribution.random(2, 6, seed=3)


def _echo_program() -> GeneratorProgram:
    """Alternating arity-1 program: two queries, then pads to round 9."""

    def gen(t, bits, responses):
        if t > 2:
            return None
        if t % 2 == 1:
            return SQQuery(
                arity=1,
                evaluator=lambda ex: np.array([float(ex.y * ex.x[0])]),
                restriction=LabelRestriction.ONE_QUERY, name=f"one-{t}")
        return SQQuery(
            arity=1,
            evaluator=lambda ex: np.array([float((1 - ex.y) * ex.x[0])]),
            restriction=LabelRestriction.ZERO_QUERY, name=f"zero-{t}")

    def fin(bits, responses):
        total = float(sum(v[0] for v in responses))
        return lambda x: total

    return GeneratorProgram(rounds=9, arity=1, random_bits=0,
                            query_generator=gen, final_predictor=fin,
                            alternating=True, name="echo")


def _mixed() -> FiniteDistribution:
    return FiniteDistribution(2, [
        (Example((0, 0), 0), 0.4),
        (Example((0, 1), 1), 0.3),
        (Example((1, 0), 1), 0.2),
        (Example((1, 1), 0), 0.1),
    ])


class _Case(NamedTuple):
    model: DiffModel
    program: QueryProgram  # what the auditor replays
    T: int
    rho: float
    b: int  # SGD batch size
    m: int  # frozen batch size
    D: FiniteDistribution


@lru_cache(maxsize=None)
def _case(name: str) -> _Case:
    if name == "echo":
        program = _echo_program()
        return _Case(compile_program(program, ECHO_RHO), program, 9,
                     ECHO_RHO, 4, 4, _mixed())
    if name == "fbsq":
        stages = ["pac_to_fbsq", "bsq_alternating", "diffsim"]
        params = dict(n=2, m=2, m_batch=4, rho=1 / 64, delta=0.5)
        method, report = build_pipeline(stages, payload="parity", **params)
        audit_method, _ = build_pipeline(
            stages[:-1], payload="parity",
            **{**params, "delta": report.derived["delta_per_stage"]})
        assert method.T == 12 and method.m == 4
        return _Case(method.model, audit_method.program, method.T,
                     method.rho, 0, method.m, _dist())
    method, program = _pipeline(name)
    return _Case(method.model, program, method.T, method.rho, method.b,
                 method.b + 1, _dist())


class _IterateLog:
    """Plain per-round hook: what any caller sees of each round."""

    def __init__(self):
        self.h = hashlib.sha256()

    def __call__(self, info) -> None:
        resp = info.response
        avg = info.avg
        self.h.update(json.dumps([
            info.index, [ex.joint_code() for ex in info.batch],
            sorted(avg.items()) if isinstance(avg, dict) else avg.tolist(),
            sorted(resp.items()) if isinstance(resp, dict)
            else resp.tolist()]).encode())
        self.h.update(info.w.tobytes())


def _audit_fields(audit) -> str:
    fields = dataclasses.asdict(audit)
    return json.dumps({k: repr(v) if isinstance(v, float) else v
                       for k, v in fields.items()})


def _run_chunks(runner: str, name: str, path) -> list:
    case = _case(name)
    D = case.D
    chunks = []
    for strategy in RoundingStrategy:
        for seed in SEEDS:
            rounding = RoundingOracle(strategy, seed=seed + 11)
            flag_sets = FLAGS if name != "b3" else (FLAGS[0], FLAGS[-1])
            for record, items, hashes in flag_sets:
                auditor = TrajectoryAuditor(case.program, case.rho)
                log = _IterateLog() if not record else None

                def hook(info, auditor=auditor, log=log):
                    auditor.hook(info)
                    if log is not None:
                        log(info)

                kwargs = dict(rounding=rounding, seed=seed, record=record,
                              record_items=items, record_hashes=hashes,
                              hook=hook)
                if runner == "bsgd":
                    out = run_bsgd(case.model, D, case.T, case.rho, case.b,
                                   **kwargs)
                else:
                    S = sample_batch(D, case.m, seed)
                    out = run_fbgd(case.model, S, case.T, case.rho,
                                   **kwargs)
                out.transcript.to_jsonl(path)
                chunks.append(path.read_bytes())
                chunks.append(out.final_params.tobytes())
                chunks.append(json.dumps(list(out.init_bits)))
                chunks.append(json.dumps(
                    [repr(out.predictor(ex.x)) for ex in D.support]))
                chunks.append(_audit_fields(auditor.audit))
                if log is not None:
                    chunks.append(log.h.hexdigest())
    return chunks


def test_bsgd_training_bytes(tmp_path):
    path = tmp_path / "t.jsonl"
    for name in PIPELINES:
        key = f"bsgd-{name}"
        assert _sha(_run_chunks("bsgd", name, path)) == DIGESTS[key], key


def test_fbgd_training_bytes(tmp_path):
    path = tmp_path / "t.jsonl"
    for name in PIPELINES:
        key = f"fbgd-{name}"
        assert _sha(_run_chunks("fbgd", name, path)) == DIGESTS[key], key


@pytest.mark.parametrize("runner,name", [("fbgd", "fbsq"), ("bsgd", "echo"),
                                         ("fbgd", "echo")])
def test_short_program_training_bytes(tmp_path, runner, name):
    key = f"{runner}-{name}"
    assert _case(name).T <= 64
    got = _sha(_run_chunks(runner, name, tmp_path / "t.jsonl"))
    assert got == DIGESTS[key], key


def test_audits_cover_every_round():
    method, program = _pipeline("b2")
    auditor = TrajectoryAuditor(program, method.rho)
    run_bsgd(method.model, _dist(), method.T, method.rho, method.b, seed=1,
             record=False, hook=auditor.hook)
    audit = auditor.check()
    assert audit.rounds == method.T
    assert audit.active_rounds + audit.pad_rounds == method.T
    assert audit.pad_rounds > audit.active_rounds
    assert np.isfinite(audit.min_clock_after_fire)
