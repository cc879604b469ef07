"""The closed-form pad pass against the per-example loop it replaces.

Once a compiled program has finished, the runners take every remaining
pad round in one vectorised pass, and the trajectory auditor records
every round and checks them in one pass.  The references here are the
per-example training loop and the per-round auditor as they stood
before those passes existed; both paths must agree bit for bit, errors
included.
"""
import dataclasses
import hashlib
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradlab.diffsim import (
    SnapBoundError,
    TrajectoryAudit,
    TrajectoryAuditor,
    TrajectoryError,
    _Layout,
    _ProgramCursor,
    compile_program,
    round_restriction,
    snap_responses,
)
from gradlab.numerics import (
    RoundingOracle,
    RoundingStrategy,
    grid_exponent,
    round_approximate,
    round_nearest_multiple,
)
from gradlab.paradigms import (
    BSGDRoundInfo,
    GeneratorProgram,
    LabelRestriction,
    MethodRun,
    ModelSnapshot,
    RoundRecord,
    SQQuery,
    Transcript,
    _clipped_gradient,
    _draw_init_bits,
    _hash_vector,
    run_bsgd,
    run_fbgd,
)
from gradlab.problems import (
    FiniteDistribution,
    sample_batch,
)
from gradlab.reductions import build_pipeline, decode_examples
from test_train_bytes import _audit_fields

STAGES = ["pac_to_bsq", "bsq_alternating", "diffsim"]


@lru_cache(maxsize=None)
def _pipeline(b: int):
    params = dict(n=2, m=2, b=b, rho=1 / 64 if b < 4 else 1 / 128,
                  delta=0.95)
    method, report = build_pipeline(STAGES, payload="parity", **params)
    audit_method, _ = build_pipeline(
        STAGES[:-1], payload="parity",
        **{**params, "delta": report.derived["delta_per_stage"]})
    return method, audit_method.program


def _dist() -> FiniteDistribution:
    return FiniteDistribution.random(2, 6, seed=3)


# ---------------------------------------------------------------------------
# reference: the per-example loop, one round at a time


def _reference_round(avg, rho, rounding):
    if not avg:
        return {}
    if len(avg) == 1 and rounding.strategy is RoundingStrategy.NEAREST:
        (i, v), = avg.items()
        s = v / rho
        if s == 0.0:
            return {i: 0.0}
        q = math.floor(abs(s) + 0.5)
        return {i: q * rho if s > 0 else -q * rho}
    idx = sorted(avg)
    vals = np.array([avg[i] for i in idx], dtype=float)
    return dict(zip(idx, round_approximate(vals, rho, rounding).tolist()))


def _reference_step(model, w, items, rho, gamma, rounding):
    b = len(items)
    acc = dict(_clipped_gradient(model, w, items[0]))
    for ex in items[1:]:
        for i, v in _clipped_gradient(model, w, ex).items():
            acc[i] = acc.get(i, 0.0) + v
    avg = {i: v / b for i, v in acc.items()}
    response = _reference_round(avg, rho, rounding)
    for i, v in response.items():
        if v != 0.0:
            w[i] -= gamma * v
    return avg, response


def _reference_run(model, batches, T, rho, gamma, rounding, seed, kind, b,
                   record, record_items, record_hashes, hook):
    grid_exponent(rho)
    bits = _draw_init_bits(seed, model.random_bits)
    w = np.array(model.init(bits), dtype=float)
    transcript = Transcript(meta={
        "kind": kind, "T": T, "rho": rho, "b": b, "gamma": gamma,
        "seed": seed, "dim": model.dim, "model": model.name,
        "strategy": rounding.strategy.value,
    })
    for t in range(1, T + 1):
        items = batches(t)
        item_grads = ([_clipped_gradient(model, w, ex) for ex in items]
                      if record and record_items else None)
        avg, response = _reference_step(model, w, items, rho, gamma,
                                        rounding)
        transcript.samples_consumed += len(items) if kind == "bsgd" else 0
        if record:
            rec = RoundRecord(
                index=t, kind=kind, response=dict(response),
                exact_mean=dict(avg),
                batch_codes=[ex.joint_code() for ex in items])
            if item_grads is not None:
                rec.item_values = [dict(g) for g in item_grads]
            if record_hashes:
                rec.iterate_hash = _hash_vector(w)
            transcript.append(rec)
        if hook is not None:
            hook(BSGDRoundInfo(index=t, batch=tuple(items), avg=avg,
                               response=response, w=w))
    transcript.random_bits_consumed = model.random_bits
    if kind == "fbgd":
        transcript.samples_consumed = len(batches(1))
    return MethodRun(predictor=ModelSnapshot(model, w.copy()),
                     transcript=transcript, final_params=w.copy(),
                     init_bits=bits)


def _reference_bsgd(model, D, T, rho, b, gamma, rounding, seed, **kw):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))

    def batches(t):
        return tuple(D.support[i] for i in D.draw_indices(rng, b))

    return _reference_run(model, batches, T, rho, gamma, rounding, seed,
                          "bsgd", b, **kw)


def _reference_fbgd(model, S, T, rho, gamma, rounding, seed, **kw):
    items = tuple(S.items)
    return _reference_run(model, lambda t: items, T, rho, gamma, rounding,
                          seed, "fbgd", len(items), **kw)


# ---------------------------------------------------------------------------
# reference: the per-round auditor


class _PerRoundAuditor:
    """Every round checked as it arrives, with numpy on each one.

    After a replay error a round has no query: it is counted unreplayed
    and gets the write, clock and final-sweep checks, no gap or drift."""

    def __init__(self, prog, rho):
        self.prog = prog
        self.rho = float(rho)
        self.layout = _Layout(r=prog.random_bits, p=prog.arity,
                              T=prog.rounds)
        self.audit = TrajectoryAudit(rho=self.rho)
        self._blocks = {}
        self._finished = False

    def _flag(self, message):
        self.audit.violations.append(message)

    def hook(self, info):
        lay = self.layout
        i = info.index
        w = info.w
        if i == 1:
            self._bits = tuple(float(v) for v in w[:lay.r])
            self._cursor = _ProgramCursor(
                self.prog, tuple(int(round(v)) for v in self._bits))
            self._blocks = {}
            self._finished = False
            self._failed = False
            self.audit.trials += 1
        self.audit.rounds += 1
        base = lay.start(i)
        top = base + lay.p
        response = info.response
        if not isinstance(response, dict):
            response = {j: float(v) for j, v in enumerate(response)}
        for idx, v in response.items():
            if v != 0.0 and not base <= idx <= top:
                self._flag(f"round {i} wrote parameter {idx} outside its "
                           f"block [{base}, {top}]")
        theta = w[base:top]
        kappa = float(w[top])
        query = None
        if not self._failed and not self._finished:
            try:
                query = self._cursor.query(i)
            except TrajectoryError as err:
                self._flag(str(err))
                self._failed = True
            else:
                self._finished = query is None
        touched = bool(theta.any())
        if not self._failed:  # else counted in audit.unreplayed_rounds
            if query is None:
                self.audit.pad_rounds += 1
                gap = float(np.max(np.abs(theta))) if touched else 0.0
            else:
                self.audit.active_rounds += 1
                vals = [query.evaluate(ex) for ex in info.batch]
                avg = np.mean(vals, axis=0) if vals else np.zeros(lay.p)
                gap = float(np.max(np.abs(theta - avg))) if lay.p else 0.0
            self.audit.max_response_gap = max(self.audit.max_response_gap,
                                              gap)
            if gap > 3.0 * self.rho + 1e-12:
                self._flag(f"round {i} response sits {gap:.3g} from the "
                           f"batch average, above 3*rho = {3 * self.rho}")
        if kappa < self.audit.min_clock_after_fire:
            self.audit.min_clock_after_fire = kappa
        if kappa < self.rho:
            self._flag(f"round {i} clock reached only {kappa}, below rho")
        snapped = None
        if touched:
            if not self._failed:
                snapped = round_nearest_multiple(theta, self.rho)
                drift = (float(np.max(np.abs(theta - snapped))) if lay.p
                         else 0.0)
                if drift > self.audit.max_snap_distance:
                    self.audit.max_snap_distance = drift
            self._blocks[i] = (theta.copy(), kappa)
        else:
            self._blocks[i] = (None, kappa)
        heavy_label = 0 if i % 2 == 0 else 1
        self.audit.clip_activations += sum(
            1 for ex in info.batch if ex.y == heavy_label)
        if query is not None:
            self._cursor.feed(
                i, snapped if snapped is not None else np.zeros(lay.p))
        if i == lay.T:
            expect = np.zeros(lay.dim)
            expect[:lay.r] = self._bits
            for t, (theta, kappa) in self._blocks.items():
                if theta is not None:
                    s = lay.start(t)
                    expect[s:s + lay.p] = theta
                expect[lay.kappa_index(t)] = kappa
            mismatch = np.flatnonzero(np.abs(w - expect) > 1e-12)
            for idx in mismatch[:8]:
                self._flag(f"parameter {int(idx)} ended at {w[idx]!r}, "
                           f"expected {expect[idx]!r}: some round touched "
                           f"a frozen block")


# ---------------------------------------------------------------------------
# helpers


class _Log:
    """Hash of everything a per-round hook is handed."""

    def __init__(self):
        self.h = hashlib.sha256()

    def __call__(self, info):
        resp, avg = info.response, info.avg
        self.h.update(json.dumps([
            info.index, [ex.joint_code() for ex in info.batch],
            sorted(avg.items()), sorted(resp.items())]).encode())
        self.h.update(info.w.tobytes())


def _outcome(fn, path):
    """Everything observable about one run: bytes, or the error raised."""
    log = _Log()
    try:
        out = fn(log)
    except Exception as err:  # both paths must fail the same way
        return ("error", type(err).__name__, str(err), log.h.hexdigest())
    out.transcript.to_jsonl(path)
    return ("ok", path.read_bytes(), out.final_params.tobytes(),
            out.init_bits, log.h.hexdigest(),
            [out.predictor(ex.x) for ex in _dist().support])


# ---------------------------------------------------------------------------
# the pad pass is the per-example loop


@settings(max_examples=30, deadline=None)
@given(strategy=st.sampled_from(list(RoundingStrategy)),
       seed=st.integers(0, 2 ** 16),
       b=st.sampled_from([2, 3, 4]),
       runner=st.sampled_from(["bsgd", "fbgd"]),
       m=st.integers(1, 6),
       gamma=st.sampled_from([1.0, 0.5, 0.25]),
       T_extra=st.sampled_from([-40, 0, 3]),
       flags=st.sampled_from([(False, False, False), (True, True, True),
                              (True, False, False)]))
def test_pad_pass_matches_per_example_loop(tmp_path_factory, strategy, seed,
                                           b, runner, m, gamma, T_extra,
                                           flags):
    method, _ = _pipeline(b)
    model = method.model
    reference = dataclasses.replace(model, pad_tail=None)
    assert model.pad_tail is not None
    D = _dist()
    T = method.T + T_extra
    rounding = RoundingOracle(strategy, seed=seed)
    record, record_items, record_hashes = flags
    kw = dict(record=record, record_items=record_items,
              record_hashes=record_hashes)
    path = tmp_path_factory.mktemp("pad") / "t.jsonl"
    if runner == "bsgd":
        fast = _outcome(lambda hook: run_bsgd(
            model, D, T, method.rho, b, gamma, rounding, seed, hook=hook,
            **kw), path)
        slow = _outcome(lambda hook: _reference_bsgd(
            reference, D, T, method.rho, b, gamma, rounding, seed,
            hook=hook, **kw), path)
    else:
        S = sample_batch(D, m, seed)
        fast = _outcome(lambda hook: run_fbgd(
            model, S, T, method.rho, gamma, rounding, seed, hook=hook, **kw),
            path)
        slow = _outcome(lambda hook: _reference_fbgd(
            reference, S, T, method.rho, gamma, rounding, seed, hook=hook,
            **kw), path)
    assert fast == slow


def _early_finisher(stop: int) -> GeneratorProgram:
    """Alternating program that asks `stop` queries, then pads to 80."""

    def qgen(t, bits, responses):
        if t > stop:
            return None
        return SQQuery(2, lambda ex: [0.5 * ex.x[0] - 0.25 * ex.x[1],
                                      0.75 * ex.x[t % 2]],
                       round_restriction(t), name=f"q{t}")

    def final(bits, responses):
        return lambda x: float(sum(sum(r) for r in responses)) + x[0]

    return GeneratorProgram(rounds=80, arity=2, random_bits=3,
                            query_generator=qgen, final_predictor=final,
                            alternating=True, name=f"stop{stop}")


@settings(max_examples=40, deadline=None)
@given(strategy=st.sampled_from(list(RoundingStrategy)),
       seed=st.integers(0, 2 ** 16),
       b=st.integers(1, 5),
       runner=st.sampled_from(["bsgd", "fbgd"]),
       stop=st.integers(0, 4),
       gamma=st.sampled_from([1.0, 0.75, 0.5, 0.3, 0.25, 0.2, 0.1, 2.0]),
       rho=st.sampled_from([1 / 16, 1 / 64]),
       flags=st.sampled_from([(False, False, False), (True, True, True)]))
def test_pad_pass_matches_loop_when_clocks_stall(tmp_path_factory, strategy,
                                                 seed, b, runner, stop,
                                                 gamma, rho, flags):
    # small steps leave pad clocks unfired or in the dead zone: the pass
    # must end where the per-example loop repeats a round or raises
    model = compile_program(_early_finisher(stop), rho)
    reference = dataclasses.replace(model, pad_tail=None)
    D = _dist()
    rounding = RoundingOracle(strategy, seed=seed)
    record, record_items, record_hashes = flags
    kw = dict(record=record, record_items=record_items,
              record_hashes=record_hashes)
    path = tmp_path_factory.mktemp("stall") / "t.jsonl"
    if runner == "bsgd":
        fast = _outcome(lambda hook: run_bsgd(
            model, D, 80, rho, b, gamma, rounding, seed, hook=hook, **kw),
            path)
        slow = _outcome(lambda hook: _reference_bsgd(
            reference, D, 80, rho, b, gamma, rounding, seed, hook=hook,
            **kw), path)
    else:
        S = sample_batch(D, b, seed)
        fast = _outcome(lambda hook: run_fbgd(
            model, S, 80, rho, gamma, rounding, seed, hook=hook, **kw), path)
        slow = _outcome(lambda hook: _reference_fbgd(
            reference, S, 80, rho, gamma, rounding, seed, hook=hook, **kw),
            path)
    assert fast == slow


@pytest.mark.parametrize("value", [1.0, 0.75, 0.25, float("nan")])
@pytest.mark.parametrize("runner", ["bsgd", "fbgd"])
def test_future_clock_set_by_init_fails_at_round_1(tmp_path, value, runner):
    # a future pad clock warmed by init: the clock check on the runner's
    # fresh vector raises at round 1, before any hook call, on both paths;
    # a cold nonzero clock (0.25 rho) trains on alike on both
    method, _ = _pipeline(2)
    model = method.model
    core = model.init.__self__
    j = method.T - 30

    def init(bits):
        w = core.init(bits)
        w[core.layout.kappa_index(j)] = value * method.rho
        return w

    fast_model = dataclasses.replace(model, init=init)
    reference = dataclasses.replace(model, init=init, pad_tail=None)
    D = _dist()
    S = sample_batch(D, 3, 1)
    outcomes = []
    for m in (fast_model, reference):
        runner_fn = _reference_bsgd if m is reference else run_bsgd
        if runner == "fbgd":
            runner_fn = _reference_fbgd if m is reference else run_fbgd
            args = (m, S, method.T, method.rho, 1.0, RoundingOracle(), 1)
        else:
            args = (m, D, method.T, method.rho, 2, 1.0, RoundingOracle(), 1)
        outcomes.append(_outcome(
            lambda hook: runner_fn(*args, record=True, record_items=False,
                                   record_hashes=False, hook=hook), tmp_path
            / "t.jsonl"))
    assert outcomes[0] == outcomes[1]
    if value != 0.25:
        assert outcomes[0][0] == "error"
        assert outcomes[0][3] == hashlib.sha256().hexdigest()  # no hook call


def _count_gradient_calls(record_items: bool):
    method, program = _pipeline(2)
    calls = {"batch": 0, "example": 0}
    model = method.model

    def counted(key, fn):
        def call(*a):
            calls[key] += 1
            return fn(*a)
        return call

    counted_model = dataclasses.replace(
        model, loss_gradient=counted("example", model.loss_gradient),
        batch_gradient=counted("batch", model.batch_gradient))
    auditor = TrajectoryAuditor(program, method.rho)
    run_bsgd(counted_model, _dist(), method.T, method.rho, 2, seed=4,
             record=record_items, record_items=record_items,
             hook=auditor.hook)
    audit = auditor.check()
    assert audit.rounds == method.T
    return calls, audit


def test_pad_pass_covers_the_tail():
    calls, audit = _count_gradient_calls(record_items=False)
    # one batch gradient for each active round and the first pad round
    assert calls == {"batch": audit.active_rounds + 1, "example": 0}


def test_recorded_items_are_the_step_gradients():
    calls, audit = _count_gradient_calls(record_items=True)
    # the recorded items are the rows the step summed, not a second pass
    assert calls == {"batch": audit.active_rounds + 1, "example": 0}
    assert audit.active_rounds + 1 == 5


def test_every_compiled_model_offers_a_pad_tail():
    method, program = _pipeline(2)
    assert compile_program(program, method.rho).pad_tail is not None
    short = dataclasses.replace(_early_finisher(2), rounds=20)
    assert compile_program(short, 1 / 64).pad_tail is not None


# ---------------------------------------------------------------------------
# the cursor skips untouched pad blocks and still snaps touched ones


def _trained(seed=1):
    method, _ = _pipeline(2)
    out = run_bsgd(method.model, _dist(), method.T, method.rho, 2, seed=seed,
                   record=False)
    return method, out.final_params


def test_cursor_skip_keeps_the_trained_predictor():
    method, w = _trained()
    model = method.model
    fresh = compile_program(model.init.__self__.prog, method.rho)
    for ex in _dist().support:
        assert model.value(w, ex.x) == fresh.value(w, ex.x)


@pytest.mark.parametrize("offsets", [(0.3,), (0.05, 0.3), (0.05,)])
def test_cursor_snaps_touched_pad_blocks(offsets):
    method, w = _trained()
    model = method.model
    core = model.init.__self__
    lay = core.layout
    pads = [t for t in range(lay.T // 2, lay.T + 1)
            if not w[lay.start(t):lay.start(t) + lay.p].any()]
    w = w.copy()
    blocks = []
    for k, off in enumerate(offsets):
        t = pads[10 * (k + 1)]
        s = lay.start(t)
        w[s] = (2 + off) * method.rho
        blocks.append(w[s:s + lay.p].copy())
    x = _dist().support[0].x
    bad = [blk for blk in blocks
           if np.max(np.abs(blk - round_nearest_multiple(blk, method.rho)))
           > method.rho / 8 + 1e-12]
    if not bad:
        model.value(w, x)
        return
    with pytest.raises(SnapBoundError) as err:
        model.value(w, x)
    with pytest.raises(SnapBoundError) as want:
        snap_responses(bad[0], method.rho)
    assert str(err.value) == str(want.value)


# ---------------------------------------------------------------------------
# the pad-round audit finds what the per-round audit finds


@lru_cache(maxsize=None)
def _clean_run(seed: int):
    method, program = _pipeline(2)
    out = run_bsgd(method.model, _dist(), method.T, method.rho, 2, seed=seed,
                   record=True)
    return method, program, out


def _replay(auditors, method, out, faults, peek=(), preset=None):
    """Feed recorded rounds to the auditors, with injected faulty writes.

    `faults` maps a round to extra {index: response} entries; each is
    applied to the parameters like any other response entry (a clock
    entry replaces the round's own).  `peek` lists rounds after which
    `audit` is read mid-run.  `preset` maps indices to values set before
    round 1, as an init may set them.  An auditor whose hook raises gets
    no further rounds; its outcome is the error with the audit it left.
    """
    D = _dist()
    w = method.model.init(out.init_bits).copy()
    for idx, v in (preset or {}).items():
        w[idx] = v
    errors = [None] * len(auditors)
    for rec in out.transcript.records:
        response = dict(rec.response)
        response.update(faults.get(rec.index, {}))
        for idx, v in response.items():
            if v != 0.0:
                w[idx] -= v
        info = BSGDRoundInfo(index=rec.index,
                             batch=decode_examples(D, rec.batch_codes),
                             avg=dict(rec.exact_mean), response=response, w=w)
        for k, auditor in enumerate(auditors):
            if errors[k] is not None:
                continue
            try:
                auditor.hook(info)
            except Exception as err:  # both auditors must fail the same way
                errors[k] = (rec.index, type(err).__name__, str(err))
                continue
            if rec.index in peek:
                auditor.audit  # noqa: B018 - reading flushes logged rounds
    return [(err, _audit_fields(a.audit)) for err, a in zip(errors, auditors)]


def _pad_range(method, program, out):
    auditor = TrajectoryAuditor(program, method.rho)
    _replay([auditor], method, out, {})
    audit = auditor.check()
    first_pad = method.T - audit.pad_rounds + 1
    return first_pad


def _fault(kind, j, lay, rho, amount):
    top = lay.kappa_index(j)
    if kind == "outside":
        return {lay.start(j + 3): -amount * rho}
    if kind == "clock":
        return {top: -amount * rho / 4}
    if kind == "off_grid":
        return {lay.start(j): -amount * rho}
    if kind == "frozen":
        return {lay.start(2): amount * rho, lay.r - 1: 0.5}
    if kind == "frozen_pad":
        return {lay.start(j - 3) + lay.p - 1: amount * rho}
    if kind == "erase":
        return {lay.start(j) + c: 0.0 for c in range(lay.p)}
    raise ValueError(kind)


FAULTS = ["outside", "clock", "off_grid", "frozen", "frozen_pad"]
FAULT_WORDS = {
    "outside": "outside its block",
    "clock": "below rho",
    "frozen": "touched a frozen block",
    "frozen_pad": "touched a frozen block",
}


@pytest.mark.parametrize("kind", FAULTS)
def test_pad_faults_match_per_round_audit(kind):
    method, program, out = _clean_run(2)
    lay = _Layout(r=program.random_bits, p=program.arity, T=program.rounds)
    j = (_pad_range(method, program, out) + method.T) // 2
    faults = {j: _fault(kind, j, lay, method.rho, 3.3)}
    fast = TrajectoryAuditor(program, method.rho)
    slow = _PerRoundAuditor(program, method.rho)
    got, want = _replay([fast, slow], method, out, faults)
    assert got == want
    audit = fast.audit
    assert audit.pad_rounds > 0 and audit.unreplayed_rounds == 0
    if kind == "off_grid":
        assert audit.max_snap_distance == pytest.approx(0.3 * method.rho)
        assert audit.binding_bound == "tight bound exceeded"
        assert any("from the batch average" in v for v in audit.violations)
    else:
        assert any(FAULT_WORDS[kind] in v for v in audit.violations)
    with pytest.raises(TrajectoryError):
        fast.check()


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from([2, 3]),
       picks=st.lists(st.tuples(
           st.sampled_from(FAULTS),
           st.floats(0.0, 1.0), st.sampled_from([0.25, 1.0, 3.3, 5.0])),
           min_size=0, max_size=4),
       peek=st.lists(st.floats(0.0, 1.0), max_size=2))
def test_pad_fault_mixes_match_per_round_audit(seed, picks, peek):
    method, program, out = _clean_run(seed)
    lay = _Layout(r=program.random_bits, p=program.arity, T=program.rounds)
    first = _pad_range(method, program, out)
    last = method.T - 4

    def at(u):
        return first + int(u * (last - first))

    faults = {}
    for kind, u, amount in picks:
        j = at(u)
        faults.setdefault(j, {}).update(
            _fault(kind, j, lay, method.rho, amount))
    fast = TrajectoryAuditor(program, method.rho)
    slow = _PerRoundAuditor(program, method.rho)
    got, want = _replay([fast, slow], method, out, faults,
                        peek={at(u) for u in peek})
    assert got == want


# ---------------------------------------------------------------------------
# the whole-run audit finds what the per-round audit finds


class _WrongRestriction:
    """The audit program, but round `bad` emits the other label restriction."""

    def __init__(self, prog, bad):
        self.prog = prog
        self.bad = bad
        self.rounds = prog.rounds
        self.arity = prog.arity
        self.random_bits = prog.random_bits

    def start(self, bits):
        return _WrongRestrictionRun(self.prog.start(bits), self.bad)


class _WrongRestrictionRun:
    def __init__(self, run, bad):
        self.run = run
        self.bad = bad
        self.t = 1

    def next_query(self):
        q = self.run.next_query()
        if q is not None and self.t == self.bad:
            flip = (LabelRestriction.ZERO_QUERY
                    if q.restriction is LabelRestriction.ONE_QUERY
                    else LabelRestriction.ONE_QUERY)
            q = dataclasses.replace(q, restriction=flip)
        return q

    def receive(self, response):
        self.t += 1
        self.run.receive(response)

    def predictor(self):
        return self.run.predictor()


@pytest.mark.parametrize("bad", [1, 2, 5, 6])
def test_replay_errors_match_per_round_audit(bad):
    method, program, out = _clean_run(3)
    audited = _WrongRestriction(program, bad)
    fast = TrajectoryAuditor(audited, method.rho)
    slow = _PerRoundAuditor(audited, method.rho)
    got, want = _replay([fast, slow], method, out, {})
    assert got == want
    audit = fast.audit
    assert audit.rounds == method.T
    assert audit.active_rounds == bad - 1 and audit.pad_rounds == 0
    assert audit.unreplayed_rounds == slow.audit.unreplayed_rounds
    assert audit.unreplayed_rounds == method.T - bad + 1
    assert "alternating discipline" in audit.violations[0]
    assert len(audit.violations) == 1


@pytest.mark.parametrize("kind", ["outside", "clock", "frozen"])
def test_faults_after_a_replay_error_are_reported(kind):
    # the rounds after the error get the checks that need no program
    method, program, out = _clean_run(3)
    lay = _Layout(r=program.random_bits, p=program.arity, T=program.rounds)
    audited = _WrongRestriction(program, 2)
    j = method.T - 10
    faults = {j: _fault(kind, j, lay, method.rho, 3.3)}
    fast = TrajectoryAuditor(audited, method.rho)
    slow = _PerRoundAuditor(audited, method.rho)
    got, want = _replay([fast, slow], method, out, faults)
    assert got == want
    audit = fast.audit
    assert audit.unreplayed_rounds == slow.audit.unreplayed_rounds
    assert audit.unreplayed_rounds == method.T - 1
    assert any(FAULT_WORDS[kind] in v for v in audit.violations)
    if kind == "frozen":
        assert any(v.startswith("parameter ") for v in audit.violations)


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from([2, 3]),
       picks=st.lists(st.tuples(
           st.sampled_from(FAULTS + ["erase"]),
           st.floats(0.0, 1.0), st.sampled_from([0.25, 1.0, 3.3, 5.0])),
           min_size=0, max_size=4),
       peek=st.lists(st.floats(0.0, 1.0), max_size=2),
       bad=st.sampled_from([None, 1, 2, 5, 6]))
def test_whole_run_fault_mixes_match_per_round_audit(seed, picks, peek, bad):
    # faults land in active rounds and the first pad rounds; an off-grid
    # write into an active block can make the program raise mid-run, and
    # an erased one leaves the block at zero, away from its batch average
    method, program, out = _clean_run(seed)
    lay = _Layout(r=program.random_bits, p=program.arity, T=program.rounds)
    first = 5
    last = _pad_range(method, program, out) + 3

    def at(u):
        return first + int(u * (last - first))

    faults = {}
    for kind, u, amount in picks:
        j = at(u)
        faults.setdefault(j, {}).update(
            _fault(kind, j, lay, method.rho, amount))
    audited = program if bad is None else _WrongRestriction(program, bad)
    fast = TrajectoryAuditor(audited, method.rho)
    slow = _PerRoundAuditor(audited, method.rho)
    got, want = _replay([fast, slow], method, out, faults,
                        peek={at(u) for u in peek})
    assert got == want
    assert fast.audit.unreplayed_rounds == slow.audit.unreplayed_rounds


def test_active_round_fault_raises_like_per_round_audit():
    method, program, out = _clean_run(3)
    lay = _Layout(r=program.random_bits, p=program.arity, T=program.rounds)
    faults = {6: _fault("off_grid", 6, lay, method.rho, 3.3)}
    fast = TrajectoryAuditor(program, method.rho)
    slow = _PerRoundAuditor(program, method.rho)
    got, want = _replay([fast, slow], method, out, faults)
    assert got == want
    error, _ = got
    assert error is not None and error[:2] == (6, "_CountError")


def test_erased_active_block_matches_per_round_audit():
    method, program, out = _clean_run(2)
    lay = _Layout(r=program.random_bits, p=program.arity, T=program.rounds)
    faults = {j: _fault("erase", j, lay, method.rho, 1.0) for j in (11, 14)}
    fast = TrajectoryAuditor(program, method.rho)
    slow = _PerRoundAuditor(program, method.rho)
    got, want = _replay([fast, slow], method, out, faults)
    assert got == want
    assert any(v.startswith("round 11 response sits")
               for v in fast.audit.violations)


@pytest.mark.parametrize("amount", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("where", ["active", "first_pad", "late_pad"])
def test_blocks_set_before_round_1_match_per_round_audit(where, amount):
    # an init may set a round block; the audit must see it from round 1
    method, program, out = _clean_run(2)
    lay = _Layout(r=program.random_bits, p=program.arity, T=program.rounds)
    t = {"active": 6, "first_pad": _pad_range(method, program, out),
         "late_pad": method.T - 5}[where]
    preset = {lay.start(t) + 1: amount * method.rho}
    fast = TrajectoryAuditor(program, method.rho)
    slow = _PerRoundAuditor(program, method.rho)
    got, want = _replay([fast, slow], method, out, {}, preset=preset)
    assert got == want
    if amount == 4.0:
        assert any(v.startswith(f"round {t} response sits")
                   for v in fast.audit.violations)
