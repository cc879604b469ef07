"""Byte-level pins for compiled-model training.

Each digest is a SHA-256 over the exact bytes that `run_bsgd` and
`run_fbgd` produced on compiled parity pipelines with more than 64
rounds (so the compiled model runs on its forward-only replay and most
rounds are pad rounds after the program finishes): transcript files,
final parameters, initial bits, the trained predictor on the support,
every `TrajectoryAudit` field, and the sequence of iterates a plain
per-round hook sees.  A faster descent path must reproduce them
unchanged; a deliberate behaviour change must update them and say why.
"""
import dataclasses
import hashlib
import json
from functools import lru_cache

import numpy as np

from gradlab.diffsim import TrajectoryAuditor
from gradlab.numerics import RoundingOracle, RoundingStrategy
from gradlab.paradigms import run_bsgd, run_fbgd
from gradlab.problems import FiniteDistribution, sample_batch
from gradlab.reductions import build_pipeline

SEEDS = (0, 5, 913)
# (record, record_items, record_hashes)
FLAGS = ((True, True, True), (True, False, False), (True, True, False),
         (True, False, True), (False, False, False))
# pipeline params: T = 253 for both, mostly pad rounds
PIPELINES = {"b2": dict(n=2, m=2, b=2, rho=1 / 64, delta=0.95),
             "b3": dict(n=2, m=2, b=3, rho=1 / 128, delta=0.95)}

DIGESTS = {
    "bsgd-b2":
        "56cb15214ef2d7e8b55a490d00b1da9623ae057216f0f2da9f831a054b89e062",
    "bsgd-b3":
        "b68949745fe0b55d5e2f0774b35947bbe0fab07a6950013162f4a98cee0a14f7",
    "fbgd-b2":
        "0efc22d0247e88d6086a9aed6e441a3b233b749cf69660ab66c1e9caab65da32",
    "fbgd-b3":
        "db787783ab1b639614589cedbb26e61d94e8b7cfaaceb63aeb9617ea668f96e6",
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
    method, program = _pipeline(name)
    D = _dist()
    chunks = []
    for strategy in RoundingStrategy:
        for seed in SEEDS:
            rounding = RoundingOracle(strategy, seed=seed + 11)
            flag_sets = FLAGS if name == "b2" else (FLAGS[0], FLAGS[-1])
            for record, items, hashes in flag_sets:
                auditor = TrajectoryAuditor(program, method.rho)
                log = _IterateLog() if not record else None

                def hook(info, auditor=auditor, log=log):
                    auditor.hook(info)
                    if log is not None:
                        log(info)

                kwargs = dict(rounding=rounding, seed=seed, record=record,
                              record_items=items, record_hashes=hashes,
                              hook=hook)
                if runner == "bsgd":
                    out = run_bsgd(method.model, D, method.T, method.rho,
                                   method.b, **kwargs)
                else:
                    S = sample_batch(D, method.b + 1, seed)
                    out = run_fbgd(method.model, S, method.T, method.rho,
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
