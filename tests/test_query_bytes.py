"""Byte-level pins for the query oracles and the reduction wrappers.

Each digest is a SHA-256 over the exact bytes the code produced when
the pin was taken: transcript files, RNG-dependent draws, merged
answers fed back into adaptive programs, and program shapes.  A
refactor of the oracle core or of the wrappers must reproduce them
unchanged; a deliberate behaviour change must update them and say why.
"""
import hashlib
import json
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from gradlab.paradigms import (
    BSQMethod,
    BSQOracle,
    FBSQMethod,
    FBSQOracle,
    GeneratorProgram,
    LabelRestriction,
    NoiseAdversary,
    SQMethod,
    SQOracle,
    SQQuery,
)
from gradlab.problems import FiniteDistribution, sample_batch
from gradlab.reductions import (
    ReplayOracle,
    bsq_to_sq,
    fbsq_to_sq,
    population_violation_rate,
    sq_split_alternating,
    sq_to_bsq,
    sq_to_fbsq,
)

SEEDS = (0, 7, 1234)
TAU = 1 / 16
DETERMINISTIC = (NoiseAdversary.ZERO_NOISE, NoiseAdversary.PLUS_TAU,
                 NoiseAdversary.MINUS_TAU)

DIGESTS = {
    "sq":
        "cb105818b962ef3915d26d9bf1dd2c70362172a8665f913377a5f194d0403f78",
    "bsq":
        "a051e74295feb578ae2499cee52eac1bcf142762ef5a1767d6b9425523cb70b9",
    "fbsq":
        "cf2f7ea3d5c22c3789871b74f99e655f6f11eca91ec5a5c3b83b35c1cb891ac8",
    "replay":
        "3a7b8cfe75d3804a49fced414e1e90912a1a1d4432cb09cdba3ea37df34d68fa",
    "draws":
        "41e1cbb421478b55af661ec2c8a399ba61c66909f20854acd5fb82049ad7b6d8",
    "sq_to_bsq":
        "cf16db0cd5b310a62f646b38e79436425d9614d99fd32422a25cf7e434ff5b2f",
    "sq_to_bsq_alternating":
        "ee06923ee99880bc23a848cd77c1c850d94421adbeada1ece6ea62474e3baf84",
    "sq_split_alternating":
        "3ede8c2a57535b4f2b5f339a31257cb01152a5350ea0531883153906aed1827f",
    "bsq_to_sq":
        "7590c2549a7977de1b197c3ffdec69a4f57acb11a972a45c8a76e80ed6d159bc",
    "sq_to_fbsq":
        "76da73a6c914946df9cb70ab419ec69b1bc56fcbc84feb76b2288068d104bbda",
    "fbsq_to_sq":
        "6c6698b0ab00445175331c674c601f4636c894da8b5f21fab00577b3d442a548",
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def _dist() -> FiniteDistribution:
    return FiniteDistribution.random(3, 12, seed=5)


def _queries() -> list[SQQuery]:
    scalar = SQQuery(1, lambda ex: [(2 * ex.y - 1) * ex.x[0] * 0.75],
                     name="signed-x0")
    vector = SQQuery(3, lambda ex: [ex.x[0] - 0.5 * ex.x[1],
                                    ex.y / 3 - 0.125,
                                    0.97 if ex.x[2] else -0.97],
                     name="vec")
    one = SQQuery(1, lambda ex: [ex.y * ex.x[2] * 0.6],
                  LabelRestriction.ONE_QUERY, name="one-x2")
    # repeated objects exercise the support cache
    return [scalar, vector, one, vector, scalar]


def _ask_all(oracle, path) -> list[bytes | str]:
    out = []
    for q in _queries():
        out.append(np.asarray(oracle.ask(q)).tobytes())
    oracle.transcript.to_jsonl(path)
    out.append(path.read_bytes())
    out.append(json.dumps([oracle.rounds,
                           getattr(oracle, "samples_consumed", None)]))
    return out


def _oracle_chunks(kind: str, path) -> list[bytes | str]:
    D = _dist()
    chunks = []
    for seed in SEEDS:
        for adv in NoiseAdversary:
            if kind == "sq":
                chunks += _ask_all(SQOracle(D, TAU, adv, seed), path)
                continue
            if kind == "replay":
                src = BSQOracle(D, 5, TAU, adv, seed)
                _ask_all(src, path)
                codes = [r.batch_codes for r in src.transcript.records]
                chunks += _ask_all(ReplayOracle(D, codes, TAU, adv, seed), path)
                continue
            for items in (False, True):
                if kind == "bsq":
                    oracle = BSQOracle(D, 5, TAU, adv, seed,
                                       record_items=items)
                else:
                    oracle = FBSQOracle(sample_batch(D, 7, seed), TAU, adv,
                                        seed, record_items=items)
                chunks += _ask_all(oracle, path)
    return chunks


def test_oracle_transcript_bytes(tmp_path):
    path = tmp_path / "t.jsonl"
    for kind in ("sq", "bsq", "fbsq", "replay"):
        assert _sha(_oracle_chunks(kind, path)) == DIGESTS[kind], kind


def test_draw_bytes():
    D = _dist()
    chunks = []
    for seed in SEEDS:
        batch = sample_batch(D, 9, seed)
        chunks.append(json.dumps([[ex.joint_code() for ex in batch.items],
                                  batch.draw_seed]))
        for q in _queries()[:3]:
            for response in (None, [0.1] * q.arity):
                rate = population_violation_rate(D, q, b=4, tau=1 / 8,
                                                 trials=40, seed=seed,
                                                 response=response)
                chunks.append(repr(rate))
    assert _sha(chunks) == DIGESTS["draws"]


# ---------------------------------------------------------------------------
# wrapper paths driven by an adaptive program


def _adaptive(arity: int, rounds: int) -> GeneratorProgram:
    """Each query depends on the bits and on every answer so far."""

    def qgen(t, bits, responses):
        key = hashlib.sha256(repr((t, bits, responses)).encode()).digest()
        j, flip, scale = key[0] % 3, key[1] % 2, 0.25 + (key[2] % 4) / 8

        def evaluate(ex):
            base = scale * ex.x[j] - (0.5 - scale / 2) * ex.y
            sign = -1.0 if flip else 1.0
            return [sign * base if k % 2 == 0 else base / (k + 2)
                    for k in range(arity)]

        return SQQuery(arity, evaluate, name=f"adaptive-{t}")

    def final(bits, responses):
        return (bits, responses)

    return GeneratorProgram(rounds=rounds, arity=arity, random_bits=3,
                            query_generator=qgen, final_predictor=final)


def _wrapped(path_name: str):
    sq = SQMethod(k=3, tau=1 / 4, program=_adaptive(1, 3))
    if path_name == "sq_to_bsq":
        return sq_to_bsq(sq, b=16, delta=0.5)
    if path_name == "sq_to_bsq_alternating":
        return sq_to_bsq(sq, b=16, delta=0.5, alternating=True)
    if path_name == "sq_split_alternating":
        return sq_split_alternating(sq)
    if path_name == "sq_to_fbsq":
        return sq_to_fbsq(sq, m=24, delta=0.5)
    if path_name == "bsq_to_sq":
        bsq = BSQMethod(k=3, tau=1 / 8, b=16, program=_adaptive(3, 3))
        return bsq_to_sq(bsq, delta=0.5)
    fbsq = FBSQMethod(k=3, tau=1 / 8, m=24, program=_adaptive(3, 3))
    return fbsq_to_sq(fbsq, delta=0.5)


def _wrapper_chunks(path_name: str, path) -> list[bytes | str]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        method = _wrapped(path_name)
    prog = method.program
    chunks = [json.dumps([prog.rounds, prog.arity, prog.random_bits,
                          getattr(prog, "alternating", False), method.k,
                          method.tau])]
    D = _dist()
    for seed in SEEDS[:2]:
        for adv in (NoiseAdversary.ZERO_NOISE, NoiseAdversary.SEEDED_RANDOM):
            out = method.run(D, seed=seed, adversary=adv)
            out.transcript.to_jsonl(path)
            chunks.append(path.read_bytes())
            chunks.append(repr(out.predictor))
    return chunks


def test_wrapper_path_bytes(tmp_path):
    path = tmp_path / "w.jsonl"
    for name in ("sq_to_bsq", "sq_to_bsq_alternating", "sq_split_alternating",
                 "bsq_to_sq", "sq_to_fbsq", "fbsq_to_sq"):
        assert _sha(_wrapper_chunks(name, path)) == DIGESTS[name], name


# ---------------------------------------------------------------------------
# replay is the same ask path as the live batch oracles


def _answers(oracle):
    return [np.asarray(oracle.ask(q)).tobytes() for q in _queries()]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       adversary=st.sampled_from(DETERMINISTIC))
def test_replay_matches_batch_oracles_bitwise(seed, adversary):
    D = _dist()
    live = BSQOracle(D, 6, TAU, adversary, seed)
    want = _answers(live)
    codes = [r.batch_codes for r in live.transcript.records]
    assert _answers(ReplayOracle(D, codes, TAU, adversary)) == want

    batch = sample_batch(D, 8, seed)
    frozen = FBSQOracle(batch, TAU, adversary)
    want = _answers(frozen)
    codes = [[ex.joint_code() for ex in batch.items]] * len(want)
    assert _answers(ReplayOracle(D, codes, TAU, adversary)) == want
