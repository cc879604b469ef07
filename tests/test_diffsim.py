"""Tests for query programs compiled into trainable models."""
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradlab.diffsim import (
    ClockRegionError,
    SnapBoundError,
    TrajectoryAuditor,
    TrajectoryError,
    _rounded_bits,
    build_single_query_model,
    central_loss_fd,
    clock_gate,
    compile_program,
    gradient_check,
    round_restriction,
    snap_responses,
    train_audited,
)
from gradlab.numerics import GridError, RoundingOracle, RoundingStrategy, clip1
from gradlab.paradigms import (
    GeneratorProgram,
    LabelRestriction,
    SQQuery,
    eval_method_error,
    parity_learner,
    run_bsgd,
    run_fbgd,
)
from gradlab.problems import (
    Example,
    FiniteDistribution,
    sample_batch,
)
from gradlab.reductions import ReplayOracle, build_pipeline, pac_to_bsq

RHO = 2 ** -6
EPS = 2 * RHO

ALL_STRATEGIES = [RoundingStrategy.NEAREST, RoundingStrategy.ADVERSARIAL_UP,
                  RoundingStrategy.ADVERSARIAL_DOWN,
                  RoundingStrategy.SEEDED_RANDOM]


def mixed_distribution():
    """Two-bit inputs with both labels present."""
    return FiniteDistribution(2, [
        (Example((0, 0), 0), 0.4),
        (Example((0, 1), 1), 0.3),
        (Example((1, 0), 1), 0.2),
        (Example((1, 1), 0), 0.1),
    ])


def label_mass_query():
    """Arity-1 one-query counting the labelled coordinate."""
    return SQQuery(arity=1,
                   evaluator=lambda ex: np.array([float(ex.y * ex.x[0])]),
                   restriction=LabelRestriction.ONE_QUERY, name="x0-on-ones")


def echo_program(rounds: int, finish_after: int | None = None,
                 random_bits: int = 0) -> GeneratorProgram:
    """Alternating arity-1 program; the predictor sums all responses."""

    def gen(t, bits, responses):
        if finish_after is not None and t > finish_after:
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

    return GeneratorProgram(rounds=rounds, arity=1, random_bits=random_bits,
                            query_generator=gen, final_predictor=fin,
                            alternating=True, name="echo")


class TestRoundRestriction:
    def test_odd_rounds_ask_about_ones(self):
        assert round_restriction(1) is LabelRestriction.ONE_QUERY
        assert round_restriction(3) is LabelRestriction.ONE_QUERY

    def test_even_rounds_ask_about_zeros(self):
        assert round_restriction(2) is LabelRestriction.ZERO_QUERY
        assert round_restriction(10) is LabelRestriction.ZERO_QUERY

    def test_rounds_start_at_one(self):
        with pytest.raises(ValueError):
            round_restriction(0)


class TestClockGate:
    def test_open_gate_passes_payload(self):
        value, grads = clock_gate(2 * RHO, 0.0, 5.0, RHO)
        assert value == 5.0
        assert grads == (0.0, 0.0, 1.0)

    def test_both_fired_gives_flat_zero(self):
        assert clock_gate(2 * RHO, 2 * RHO, 5.0, RHO) == (0.0, (0.0, 0.0, 0.0))

    def test_neither_fired_gives_flat_zero(self):
        assert clock_gate(0.0, 0.0, 5.0, RHO) == (0.0, (0.0, 0.0, 0.0))

    def test_region_boundaries_are_inclusive(self):
        value, grads = clock_gate(RHO, RHO / 2, -1.0, RHO)
        assert value == -1.0 and grads == (0.0, 0.0, 1.0)
        assert clock_gate(RHO / 2, RHO / 2, 3.0, RHO)[0] == 0.0

    def test_dead_zone_raises(self):
        with pytest.raises(ClockRegionError):
            clock_gate(2 * RHO, 0.75 * RHO, 5.0, RHO)
        with pytest.raises(ClockRegionError):
            clock_gate(0.75 * RHO, 0.0, 5.0, RHO)


class TestSnapResponses:
    def test_grid_points_pass_through(self):
        grid = 1 / 32
        v = np.array([0.0, grid, -3 * grid, 17 * grid])
        assert np.array_equal(snap_responses(v, grid), v)

    def test_small_drift_is_absorbed(self):
        grid = 1 / 16
        v = np.array([grid + grid / 16])
        assert np.array_equal(snap_responses(v, grid), np.array([grid]))

    def test_large_drift_raises(self):
        grid = 1 / 16
        with pytest.raises(SnapBoundError):
            snap_responses(np.array([grid + grid / 4]), grid)

    def test_custom_allowance_widens_the_band(self):
        grid = 1 / 16
        out = snap_responses(np.array([grid + grid / 4]), grid,
                             bound=grid / 2)
        assert np.array_equal(out, np.array([grid]))

    def test_grid_must_be_dyadic(self):
        with pytest.raises(GridError):
            snap_responses(np.array([0.1]), 0.3)


class TestSingleQueryModel:
    def test_point_mass_zero_query_fills_slot_and_clock(self):
        q = SQQuery(arity=1, evaluator=lambda ex: np.array([1.0 - ex.y]),
                    restriction=LabelRestriction.ZERO_QUERY,
                    name="one-minus-label")
        model = build_single_query_model(q, epsilon=EPS)
        D = FiniteDistribution.point_mass(Example((0,), 0))
        for strategy in ALL_STRATEGIES:
            out = run_bsgd(model, D, T=1, rho=RHO, b=4, seed=3,
                           rounding=RoundingOracle(strategy=strategy))
            assert np.array_equal(out.final_params, np.array([1.0, 1.0]))

    def test_raw_gradient_overshoots_the_clip_range(self):
        q = SQQuery(arity=1, evaluator=lambda ex: np.array([1.0 - ex.y]),
                    restriction=LabelRestriction.ZERO_QUERY)
        model = build_single_query_model(q, epsilon=EPS)
        g = np.asarray(model.loss_gradient(np.zeros(2), Example((0,), 0)))
        assert g == pytest.approx([-(1 + EPS), -(1 + EPS)])
        assert np.array_equal(clip1(g), np.array([-1.0, -1.0]))

    def test_one_query_without_positive_mass_stays_near_zero(self):
        model = build_single_query_model(label_mass_query(), epsilon=EPS)
        D = FiniteDistribution(2, [(Example((0, 0), 0), 0.5),
                                   (Example((1, 1), 0), 0.5)])
        for strategy in ALL_STRATEGIES:
            out = run_bsgd(model, D, T=1, rho=RHO, b=8, seed=5,
                           rounding=RoundingOracle(strategy=strategy))
            theta, kappa = out.final_params
            assert abs(theta) <= EPS + RHO
            assert kappa >= EPS - RHO

    def test_random_queries_land_within_epsilon_plus_rho(self):
        rng = np.random.default_rng(11)
        D = mixed_distribution()
        support = {ex.joint_code(): ex for ex, _ in D.entries}
        for trial in range(150):
            table = {ex.x: rng.uniform(-1, 1, size=2)
                     for ex, _ in D.entries}
            q = SQQuery(arity=2,
                        evaluator=lambda ex, t=table: ex.y * t[ex.x],
                        restriction=LabelRestriction.ONE_QUERY)
            model = build_single_query_model(q, epsilon=EPS)
            strategy = ALL_STRATEGIES[trial % 4]
            out = run_bsgd(model, D, T=1, rho=RHO, b=4, seed=trial,
                           rounding=RoundingOracle(strategy=strategy,
                                                   seed=trial))
            batch = [support[c] for c in out.transcript.records[0].batch_codes]
            avg = np.mean([q.evaluate(ex) for ex in batch], axis=0)
            theta = out.final_params[:2]
            kappa = out.final_params[2]
            assert np.max(np.abs(theta - avg)) <= EPS + RHO + 1e-12
            assert kappa >= EPS - RHO - 1e-12

    def test_unrestricted_query_rejected(self):
        q = SQQuery(arity=1, evaluator=lambda ex: np.array([0.0]))
        with pytest.raises(ValueError):
            build_single_query_model(q, epsilon=EPS)

    def test_finite_differences_match(self):
        model = build_single_query_model(label_mass_query(), epsilon=EPS)
        w = np.array([0.25, 0.125])
        for ex in (Example((1,), 1), Example((0,), 0)):
            summary = gradient_check(model, w, ex)
            assert summary["max_rel_err"] <= 1e-5


class TestCompileChecks:
    def test_requires_alternating_discipline(self):
        prog = echo_program(2)
        plain = GeneratorProgram(rounds=2, arity=1, random_bits=0,
                                 query_generator=prog.query_generator,
                                 final_predictor=prog.final_predictor,
                                 alternating=False)
        with pytest.raises(ValueError, match="alternating"):
            compile_program(plain, RHO)

    def test_requires_dyadic_grid(self):
        with pytest.raises(GridError):
            compile_program(echo_program(2), 0.01)

    def test_parameter_count_is_bits_plus_blocks(self):
        prog = GeneratorProgram(
            rounds=4, arity=3, random_bits=5,
            query_generator=lambda t, b, r: None,
            final_predictor=lambda b, r: (lambda x: 0.0),
            alternating=True)
        model = compile_program(prog, RHO)
        assert model.dim == 5 + (3 + 1) * 4
        assert model.random_bits == 5

    def test_wrong_parity_program_fails_during_training(self):
        def gen(t, bits, responses):
            return SQQuery(arity=1, evaluator=lambda ex: np.array([0.0]),
                           restriction=LabelRestriction.ZERO_QUERY)

        prog = GeneratorProgram(rounds=2, arity=1, random_bits=0,
                                query_generator=gen,
                                final_predictor=lambda b, r: (lambda x: 0.0),
                                alternating=True)
        model = compile_program(prog, RHO)
        with pytest.raises(TrajectoryError, match="alternating"):
            run_bsgd(model, mixed_distribution(), T=2, rho=RHO, b=4)

    def test_arity_drift_detected(self):
        def gen(t, bits, responses):
            return SQQuery(arity=2,
                           evaluator=lambda ex: np.zeros(2),
                           restriction=round_restriction(t))

        prog = GeneratorProgram(rounds=1, arity=1, random_bits=0,
                                query_generator=gen,
                                final_predictor=lambda b, r: (lambda x: 0.0),
                                alternating=True)
        model = compile_program(prog, RHO)
        with pytest.raises(TrajectoryError, match="arity"):
            run_bsgd(model, mixed_distribution(), T=1, rho=RHO, b=4)


class TestSingleRoundEquivalence:
    def test_one_round_compilation_matches_one_step_model(self):
        q = label_mass_query()
        one_step = build_single_query_model(q, epsilon=EPS)

        prog = GeneratorProgram(rounds=1, arity=1, random_bits=0,
                                query_generator=lambda t, b, r: q,
                                final_predictor=lambda b, r: (lambda x: r[0][0]),
                                alternating=True)
        compiled = compile_program(prog, RHO)
        assert compiled.dim == one_step.dim
        D = mixed_distribution()
        for seed in range(6):
            for strategy in ALL_STRATEGIES:
                oracle = RoundingOracle(strategy=strategy, seed=seed)
                a = run_bsgd(one_step, D, T=1, rho=RHO, b=4, seed=seed,
                             rounding=oracle)
                b_ = run_bsgd(compiled, D, T=1, rho=RHO, b=4, seed=seed,
                              rounding=oracle)
                assert np.array_equal(a.final_params, b_.final_params)


class TestCompiledTrajectory:
    def test_audited_run_reports_clean(self):
        prog = echo_program(4)
        model = compile_program(prog, RHO)
        out, audit = train_audited(model, prog, mixed_distribution(), b=4,
                                   rho=RHO, seed=2)
        assert audit.ok
        assert audit.active_rounds == 4 and audit.pad_rounds == 0
        assert audit.max_response_gap <= 3 * RHO
        assert audit.min_clock_after_fire >= RHO
        assert audit.max_snap_distance == 0.0
        assert audit.binding_bound == "neither (responses exactly on grid)"

    def test_final_value_is_program_predictor(self):
        prog = echo_program(4)
        model = compile_program(prog, RHO)
        out, _ = train_audited(model, prog, mixed_distribution(), b=4,
                               rho=RHO, seed=7)
        w = out.final_params
        fresh = compile_program(prog, RHO)
        for ex, _ in mixed_distribution().entries:
            direct = model.value(w, ex.x)
            assert out.predictor(ex.x) == direct
            assert fresh.value(w, ex.x) == direct

    def test_random_bit_prefix_survives_training(self):
        prog = echo_program(4, random_bits=6)
        model = compile_program(prog, RHO)
        out = run_bsgd(model, mixed_distribution(), T=4, rho=RHO, b=4, seed=9)
        assert np.array_equal(out.final_params[:6], np.array(out.init_bits,
                                                             dtype=float))

    def test_early_finish_pads_keep_clocks_running(self):
        prog = echo_program(9, finish_after=2)
        model = compile_program(prog, RHO)
        out, audit = train_audited(model, prog, mixed_distribution(), b=4,
                                   rho=RHO, seed=4)
        assert audit.active_rounds == 2 and audit.pad_rounds == 7
        w = out.final_params
        for t in range(3, 10):
            start = (t - 1) * 2
            assert w[start] == 0.0
            assert w[start + 1] >= RHO
        assert out.predictor((1, 0)) == pytest.approx(w[0] + w[2])

    @pytest.mark.parametrize("strategy", [RoundingStrategy.ADVERSARIAL_UP,
                                          RoundingStrategy.ADVERSARIAL_DOWN,
                                          RoundingStrategy.SEEDED_RANDOM])
    def test_worst_case_rounding_keeps_promises(self, strategy):
        prog = echo_program(6, finish_after=3)
        model = compile_program(prog, RHO)
        _, audit = train_audited(model, prog, mixed_distribution(), b=4,
                                 rho=RHO, seed=1,
                                 rounding=RoundingOracle(strategy=strategy,
                                                         seed=5))
        assert audit.ok
        assert audit.max_response_gap <= 3 * RHO
        assert audit.min_clock_after_fire >= RHO

    def test_clip_census_matches_label_counts(self):
        prog = echo_program(4)
        model = compile_program(prog, RHO)
        D = mixed_distribution()
        support = {ex.joint_code(): ex for ex, _ in D.entries}
        out, audit = train_audited(model, prog, D, b=4, rho=RHO, seed=6,
                                   record=True)
        expected = 0
        for rec in out.transcript.records:
            heavy = 1 if rec.index % 2 == 1 else 0
            expected += sum(1 for c in rec.batch_codes
                            if support[c].y == heavy)
        assert audit.clip_activations == expected

    def test_dead_zone_clock_detected(self):
        prog = echo_program(2)
        model = compile_program(prog, RHO)
        out = run_bsgd(model, mixed_distribution(), T=2, rho=RHO, b=4, seed=0)
        w = out.final_params.copy()
        w[1] = 0.75 * RHO
        with pytest.raises(ClockRegionError):
            model.value(w, (0, 0))

    def test_out_of_order_clocks_detected(self):
        prog = echo_program(3)
        fresh = compile_program(prog, RHO)
        trained = compile_program(prog, RHO)
        run_bsgd(trained, mixed_distribution(), T=3, rho=RHO, b=4, seed=0)
        for model in (fresh, trained):
            w = np.zeros(model.dim)
            w[3] = 2 * RHO  # second clock fired, first still cold
            with pytest.raises(TrajectoryError):
                model.value(w, (0, 0))


def parity_pipeline():
    """253-round compiled parity pipeline and the program it compiles."""
    stages = ["pac_to_bsq", "bsq_alternating", "diffsim"]
    params = dict(n=2, m=2, b=2, rho=1 / 64, delta=0.95)
    method, report = build_pipeline(stages, payload="parity", **params)
    inner, _ = build_pipeline(
        stages[:-1], payload="parity",
        **{**params, "delta": report.derived["delta_per_stage"]})
    assert method.T == 253
    return method, inner.program


def pipeline_iterate(at: int):
    """The pipeline, its program, and a copy of round `at`'s iterate."""
    method, prog = parity_pipeline()
    seen = {}
    method.run(FiniteDistribution.random(2, 6, seed=3), seed=1, record=False,
               hook=lambda info: seen.setdefault(info.index, info.w.copy()))
    return method, prog, seen[at].copy()


def answers(model, w, D):
    """Everything a model answers at w, its pad tail asked first."""
    tail = model.pad_tail(w)
    seen = [None if tail is None else
            (tail.coords.tolist(), tail.grad0.tobytes(), tail.grad1.tobytes(),
             tail.fire)]
    for ex in D.support:
        seen.append(repr(model.value(w, ex.x)))
        g = model.loss_gradient(w, ex)
        seen.append(sorted((k, repr(v)) for k, v in g.items()))
    return seen


class TestPureFunctionOfParameters:
    @settings(max_examples=12, deadline=None)
    @given(strategy=st.sampled_from(ALL_STRATEGIES),
           seeds=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)),
           runner=st.sampled_from(["bsgd", "fbgd"]))
    def test_every_iterate_answers_as_on_a_fresh_model(self, strategy, seeds,
                                                       runner):
        # one model trains two runs; during the second, copies of both
        # runs' iterates are probed on it, interleaved, and on fresh models
        method, prog = parity_pipeline()
        model = compile_program(prog, method.rho)
        D = FiniteDistribution.random(2, 6, seed=3)

        def train(m, seed, hook=None):
            rounding = RoundingOracle(strategy=strategy, seed=seed)
            if runner == "bsgd":
                return run_bsgd(m, D, method.T, method.rho, method.b,
                                rounding=rounding, seed=seed, record=False,
                                hook=hook)
            return run_fbgd(m, sample_batch(D, 3, seed), method.T,
                            method.rho, rounding=rounding, seed=seed,
                            record=False, hook=hook)

        first = []
        train(model, seeds[0], lambda info: first.append(info.w.copy()))

        def probe(info):
            for w in (info.w.copy(), first[info.index - 1]):
                fresh = compile_program(prog, method.rho)
                assert answers(model, w, D) == answers(fresh, w, D)

        second = train(model, seeds[1], probe)
        alone = train(compile_program(prog, method.rho), seeds[1])
        assert second.final_params.tobytes() == alone.final_params.tobytes()
        for ex in D.support:
            assert repr(second.predictor(ex.x)) == repr(alone.predictor(ex.x))

    @pytest.mark.parametrize("seeds", [(3, 4), (5, 6), (7, 8)])
    def test_snapshot_outlives_a_second_run(self, seeds):
        method, prog = parity_pipeline()
        D1 = FiniteDistribution.random(2, 6, seed=3)
        D2 = FiniteDistribution.random(2, 6, seed=11)
        first = method.run(D1, seed=seeds[0], record=False)
        method.run(D2, seed=seeds[1], record=False)
        fresh = compile_program(prog, method.rho)
        for ex in D1.support:
            assert first.predictor(ex.x) == fresh.value(first.final_params,
                                                        ex.x)

    @pytest.mark.parametrize("value,error", [(0.75, ClockRegionError),
                                             (2.0, TrajectoryError)])
    def test_far_clock_detected_on_a_copy(self, value, error):
        prog = echo_program(4)
        model = compile_program(prog, RHO)
        out = run_bsgd(model, mixed_distribution(), T=1, rho=RHO, b=4,
                       seed=0)
        w = out.final_params.copy()
        w[7] = value * RHO  # clock 4, while round 2 is active
        with pytest.raises(error):
            model.value(w, (0, 0))

    @pytest.mark.parametrize("value,error", [(0.75, ClockRegionError),
                                             (2.0, TrajectoryError)])
    @pytest.mark.parametrize("at", [1, 40, 200])
    def test_far_clock_detected_on_a_pipeline_iterate(self, value, error,
                                                      at):
        method, _, w = pipeline_iterate(at)
        model = method.model
        w[-1] = value * method.rho  # the last clock, rounds ahead
        with pytest.raises(error):
            model.value(w, (0, 0))
        with pytest.raises(error):
            model.loss_gradient(w, Example((1, 0), 1))

    @pytest.mark.parametrize("value", [1.0, 0.75, float("nan")])
    def test_pad_pass_keeps_the_next_clock_check(self, value):
        # a hook warms a pad clock in place, on the vector the replay
        # knows: the pad pass must stop where the per-example loop raises
        method, prog = parity_pipeline()
        j = method.T - 30
        kidx = prog.random_bits + (prog.arity + 1) * j - 1
        D = FiniteDistribution.random(2, 6, seed=3)

        def outcome(model):
            log = hashlib.sha256()

            def hook(info):
                log.update(info.w.tobytes())
                if info.index == 1:
                    info.w[kidx] = value * method.rho

            try:
                run_bsgd(model, D, method.T, method.rho, method.b, seed=1,
                         record=False, hook=hook)
            except (ClockRegionError, TrajectoryError) as err:
                return type(err).__name__, str(err), log.hexdigest()
            return "ok", log.hexdigest()

        fast = outcome(method.model)
        assert fast[0] != "ok"
        assert fast == outcome(dataclasses.replace(method.model,
                                                   pad_tail=None))

    @pytest.mark.parametrize("value,error", [(0.75, ClockRegionError),
                                             (0.0, TrajectoryError)])
    @pytest.mark.parametrize("at", [40, 200])
    def test_fired_clock_checked_on_a_pipeline_iterate(self, value, error,
                                                       at):
        # the model's replay has read the run's vector past round at/2
        method, prog, w = pipeline_iterate(at)
        model = method.model
        w[prog.random_bits + (prog.arity + 1) * (at // 2) - 1] = (
            value * method.rho)
        with pytest.raises(error):
            model.value(w, (0, 0))
        with pytest.raises(error):
            model.pad_tail(w)


class TestGradientCheck:
    def test_every_iterate_passes_finite_differences(self):
        prog = echo_program(4)
        model = compile_program(prog, RHO)
        iterates = []
        run_bsgd(model, mixed_distribution(), T=4, rho=RHO, b=4, seed=8,
                 hook=lambda info: iterates.append(info.w.copy()))
        assert len(iterates) == 4
        probes = [Example((1, 0), 1), Example((0, 1), 0)]
        for w in [np.zeros(model.dim)] + iterates:
            for ex in probes:
                summary = gradient_check(model, w, ex)
                assert summary["max_rel_err"] <= 1e-5
                assert summary["max_zero_fd"] <= 1e-7

    def test_finished_model_is_flat_everywhere(self):
        prog = echo_program(3)
        model = compile_program(prog, RHO)
        out = run_bsgd(model, mixed_distribution(), T=3, rho=RHO, b=4, seed=3)
        g = model.loss_gradient(out.final_params, Example((1, 1), 1))
        assert g == {}
        summary = gradient_check(model, out.final_params, Example((1, 1), 1))
        assert summary["max_zero_fd"] <= 1e-7

    def test_one_sided_fallback_at_region_edge(self):
        prog = echo_program(2)
        model = compile_program(prog, RHO)
        out = run_bsgd(model, mixed_distribution(), T=2, rho=RHO, b=4, seed=0)
        w = out.final_params.copy()
        w[1] = RHO  # lowest firing value: a downward probe enters the gap
        fd = central_loss_fd(model, w, Example((1, 0), 1), coord=1)
        assert fd == 0.0


class TestPipelineIntegration:
    def test_full_scale_wiring(self):
        method, report = build_pipeline(
            ["pac_to_bsq", "bsq_alternating", "diffsim"], payload="parity",
            n=6, m=12, b=4, rho=1 / 64, delta=0.1)
        assert method.T == 33600
        assert method.rho == 1 / 64 and method.b == 4
        assert method.model.dim == method.model.random_bits + 8 * 33600
        assert report.derived["delta_per_stage"] == 0.05

    def test_compiled_training_replays_like_direct_queries(self):
        rho = 1 / 64
        tau = 4 * rho
        D = FiniteDistribution(2, [
            (Example((0, 0), 0), 0.25),
            (Example((0, 1), 1), 0.25),
            (Example((1, 0), 1), 0.25),
            (Example((1, 1), 0), 0.25),
        ])
        pac = parity_learner(2, m=3)
        bsq = pac_to_bsq(pac, b=4, tau=tau, delta=0.05, n=2,
                         alternating=True)
        model = compile_program(bsq.program, rho)
        out, audit = train_audited(model, bsq.program, D, b=4, rho=rho,
                                   seed=12, record=True)
        assert audit.ok

        codes = [rec.batch_codes for rec in out.transcript.records]
        replay = ReplayOracle(D, codes, tau=tau)
        run = bsq.program.start(out.init_bits)
        while True:
            q = run.next_query()
            if q is None:
                break
            run.receive(replay.ask(q))
        direct = run.predictor()
        for ex, _ in D.entries:
            assert out.predictor(ex.x) == direct(ex.x)

    def test_error_estimate_forwards_audit_hook(self):
        rho = 1 / 64
        D = FiniteDistribution(2, [
            (Example((0, 0), 0), 0.25),
            (Example((0, 1), 1), 0.25),
            (Example((1, 0), 1), 0.25),
            (Example((1, 1), 0), 0.25),
        ])
        pac = parity_learner(2, m=3)
        bsq = pac_to_bsq(pac, b=4, tau=4 * rho, delta=0.05, n=2,
                         alternating=True)
        method, _ = build_pipeline(
            ["pac_to_bsq", "bsq_alternating", "diffsim"], payload="parity",
            n=2, m=3, b=4, rho=rho, delta=0.1)
        auditor = TrajectoryAuditor(bsq.program, rho)
        estimate = eval_method_error(method, D, trials=2, seed=21,
                                     hook=auditor.hook)
        audit = auditor.check()
        assert audit.trials == 2
        assert 0.0 <= estimate.mean <= 1.0


@pytest.mark.parametrize("head", [
    [], [0.0, 1.0, -0.0, 1.0], [0.0, 0.5, 1.0], [1.5, 2.5, -0.5, 3.0],
    [1.0, 1.0 + 2.0 ** -52, 2.0 ** 70], [1.0, float("nan")],
    [0.0, float("inf")]])
def test_rounded_bits_is_python_round(head):
    # a replay's bits: one numpy pass on 0/1 blocks, Python's round else
    head = np.array(head, dtype=float)
    try:
        want = tuple(map(round, head.tolist()))
    except (ValueError, OverflowError) as err:
        with pytest.raises(type(err), match=str(err)):
            _rounded_bits(head)
        return
    got = _rounded_bits(head)
    assert got == want and all(type(v) is int for v in got)
