import math
import warnings

import numpy as np
import pytest

from gradlab.diffsim import TrajectoryAuditor
from gradlab.numerics import ToleranceError, round_nearest_multiple
from gradlab.paradigms import (
    BSQOracle,
    DiffModel,
    ErrorEstimate,
    GeneratorProgram,
    LabelRestriction,
    NoiseAdversary,
    PACMethod,
    SQMethod,
    SQQuery,
    eval_method_error,
    parity_learner,
    run_bsgd,
)
from gradlab.paradigms import _drive_query_method
from gradlab.problems import (
    SQUARE_LOSS,
    Example,
    FiniteDistribution,
    TablePredictor,
    clip_predictor,
    population_loss,
)
from gradlab.reductions import (
    PipelineError,
    ReductionReport,
    ReplayOracle,
    bsgd_to_bsq,
    bsq_to_sq,
    build_pipeline,
    compare_methods,
    decode_examples,
    fbsq_to_sq,
    pac_to_bsq,
    pac_to_fbsq,
    population_violation_rate,
    repeat_count,
    sq_split_alternating,
    sq_to_bsq,
    sq_to_fbsq,
)


def four_point(n=2):
    exs = [Example((0,) * n, 0), Example((1,) * n, 1),
           Example((1,) + (0,) * (n - 1), 1), Example((0,) * (n - 1) + (1,), 0)]
    return FiniteDistribution(n, list(zip(exs, [0.4, 0.3, 0.2, 0.1])))


def coin_flip():
    exs = [Example((0,), 0), Example((1,), 1)]
    return FiniteDistribution(1, list(zip(exs, [0.5, 0.5])))


def parity_distribution(n, mask, seed=0, points=None):
    rng = np.random.default_rng(seed)
    xs = []
    seen = set()
    target = points if points is not None else 2 ** min(n, 4)
    while len(xs) < target:
        x = tuple(int(v) for v in rng.integers(0, 2, n))
        if x not in seen:
            seen.add(x)
            xs.append(x)
    exs = [Example(x, sum(a & b for a, b in zip(mask, x)) % 2) for x in xs]
    probs = [1.0 / len(xs)] * len(xs)
    return FiniteDistribution(n, list(zip(exs, probs)))


def recording_sq_program(queries):
    """Scalar-query program whose predictor is the tuple of responses."""

    def qgen(t, bits, responses):
        return queries[t - 1]

    def fpred(bits, responses):
        return tuple(r[0] for r in responses)

    return GeneratorProgram(rounds=len(queries), arity=1, random_bits=0,
                            query_generator=qgen, final_predictor=fpred)


def label_query():
    return SQQuery(1, lambda ex: [float(ex.y)], name="label-mean")


def coord_query(j):
    return SQQuery(1, lambda ex, j=j: [float(ex.x[j])], name=f"x{j}-mean")


class _CapturingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.queries = []
        self.transcript = inner.transcript

    def ask(self, query):
        self.queries.append(query)
        return self.inner.ask(query)


def linear_model(n):
    def features(x):
        return np.array([1.0, *[float(v) for v in x]])

    return DiffModel(
        dim=n + 1,
        random_bits=0,
        init=lambda bits: np.zeros(n + 1),
        value=lambda w, x: float(w @ features(x)),
        loss_gradient=lambda w, ex: SQUARE_LOSS.derivative(
            float(w @ features(ex.x)), float(ex.y)) * features(ex.x),
        name="linear",
    )


class TestReductionReport:
    def test_incomplete_report_has_no_verdict(self):
        rep = ReductionReport(source="a", target="b", delta=0.1)
        assert rep.margin is None
        assert rep.holds is None

    def test_holds_inside_margin(self):
        rep = ReductionReport(
            source="a", target="b", delta=0.1,
            err_source=ErrorEstimate(0.20, 0.01, 50),
            err_target=ErrorEstimate(0.25, 0.01, 50))
        assert rep.margin == pytest.approx(0.1 + 3 * math.hypot(0.01, 0.01))
        assert rep.holds is True

    def test_fails_outside_margin(self):
        rep = ReductionReport(
            source="a", target="b", delta=0.05,
            err_source=ErrorEstimate(0.10, 0.001, 50),
            err_target=ErrorEstimate(0.30, 0.001, 50))
        assert rep.holds is False

    def test_violations_force_failure(self):
        rep = ReductionReport(
            source="a", target="b", delta=0.5,
            err_source=ErrorEstimate(0.2, 0.01, 50),
            err_target=ErrorEstimate(0.2, 0.01, 50),
            violations=3)
        assert rep.holds is False


class TestRepeatCount:
    def test_frozen_example(self):
        assert repeat_count(4, 2, 1 / 8, 0.05) == 1477

    def test_matches_formula(self):
        k, b, tau, delta = 10, 16, 1 / 4, 0.01
        expect = math.ceil(8 * math.log(4 * k / delta) / (b * tau * tau))
        assert repeat_count(k, b, tau, delta) == expect

    def test_alternating_costs_more(self):
        q = repeat_count(4, 2, 1 / 8, 0.05)
        qa = repeat_count(4, 2, 1 / 8, 0.05, alternating=True)
        assert qa > q
        assert qa == math.ceil(32 * math.log(8 * 4 / 0.05) / (2 * (1 / 8) ** 2))

    def test_larger_batches_need_fewer_repeats(self):
        qs = [repeat_count(8, b, 1 / 8, 0.1) for b in (2, 8, 32)]
        assert qs[0] > qs[1] > qs[2]


class TestSqToBsq:
    def test_derived_parameters(self):
        sq = SQMethod(k=2, tau=1 / 8,
                      program=recording_sq_program([label_query(),
                                                    coord_query(0)]))
        bsq = sq_to_bsq(sq, b=8, delta=0.1)
        q = repeat_count(2, 8, 1 / 8, 0.1)
        assert bsq.k == 2 * q
        assert bsq.tau == 1 / 16
        assert bsq.program.arity == 1
        assert bsq.program.random_bits == 0
        assert not bsq.program.alternating

    def test_each_query_repeated_q_times(self):
        sq = SQMethod(k=2, tau=1 / 4,
                      program=recording_sq_program([label_query(),
                                                    coord_query(0)]))
        bsq = sq_to_bsq(sq, b=32, delta=0.2)
        q = repeat_count(2, 32, 1 / 4, 0.2)
        D = four_point()
        oracle = _CapturingOracle(BSQOracle(D, b=32, tau=bsq.tau, seed=3))
        _drive_query_method(bsq.program, bsq.k, oracle, seed=3, expected_arity=1)
        names = [qr.name for qr in oracle.queries]
        assert names == ["label-mean"] * q + ["x0-mean"] * q
        # literally the same object each repeat so support caching applies
        assert all(qr is oracle.queries[0] for qr in oracle.queries[:q])

    def test_exact_on_point_mass(self):
        D = FiniteDistribution.point_mass(Example((1, 0), 1))
        sq = SQMethod(k=2, tau=1 / 8,
                      program=recording_sq_program([label_query(),
                                                    coord_query(1)]))
        bsq = sq_to_bsq(sq, b=4, delta=0.1)
        out = bsq.run(D, seed=0)
        assert out.predictor == (1.0, 0.0)

    def test_averaged_answers_match_population_within_tau(self):
        # adversarial in-band noise on every batch answer still averages out
        D = four_point()
        queries = [label_query(), coord_query(0), coord_query(1)]
        vals = {q.name: D.expectation(lambda ex, q=q: q.evaluate(ex)[0])
                for q in queries}
        sq = SQMethod(k=3, tau=1 / 8,
                      program=recording_sq_program(queries))
        bsq = sq_to_bsq(sq, b=8, delta=0.05)
        hits = 0
        trials = 40
        for s in range(trials):
            out = bsq.run(D, seed=s, adversary=NoiseAdversary.SEEDED_RANDOM,
                          record=False)
            got = out.predictor
            if all(abs(got[i] - vals[q.name]) <= sq.tau
                   for i, q in enumerate(queries)):
                hits += 1
        assert hits / trials >= 0.9

    def test_alternating_variant_discipline(self):
        sq = SQMethod(k=2, tau=1 / 4,
                      program=recording_sq_program([label_query(),
                                                    coord_query(0)]))
        bsq = sq_to_bsq(sq, b=16, delta=0.2, alternating=True)
        assert bsq.program.alternating
        assert bsq.tau == 1 / 16
        q = repeat_count(2, 16, 1 / 4, 0.2, alternating=True)
        assert bsq.k == 2 * 2 * q
        D = four_point()
        oracle = _CapturingOracle(BSQOracle(D, b=16, tau=bsq.tau, seed=9))
        out = _drive_query_method(bsq.program, bsq.k, oracle, seed=9,
                                  expected_arity=1)
        for i, qr in enumerate(oracle.queries):
            want = (LabelRestriction.ONE_QUERY if (i + 1) % 2 == 1
                    else LabelRestriction.ZERO_QUERY)
            assert qr.restriction is want
        # recombined halves reproduce the unrestricted answers
        exact = [0.5, 0.5]
        for got, want in zip(out.predictor, exact):
            assert abs(got - want) <= sq.tau

    def test_alternating_split_is_exact_on_point_mass(self):
        D = FiniteDistribution.point_mass(Example((0, 1), 1))
        sq = SQMethod(k=2, tau=1 / 8,
                      program=recording_sq_program([label_query(),
                                                    coord_query(1)]))
        bsq = sq_to_bsq(sq, b=4, delta=0.1, alternating=True)
        out = bsq.run(D, seed=2)
        assert out.predictor == (1.0, 1.0)


class TestBsqToSq:
    def _toy_bsq(self, b=2048, tau=1 / 4):
        def qgen(t, bits, responses):
            def evaluate(ex):
                return [float(ex.y), float(ex.x[0]), float(ex.y * ex.x[1])]

            return SQQuery(3, evaluate, name="triple")

        def fpred(bits, responses):
            return tuple(responses[-1])

        prog = GeneratorProgram(rounds=2, arity=3, random_bits=0,
                                query_generator=qgen, final_predictor=fpred)
        from gradlab.paradigms import BSQMethod

        return BSQMethod(k=2, tau=tau, b=b, program=prog)

    def test_round_count_and_tolerance(self):
        bsq = self._toy_bsq()
        sq = bsq_to_sq(bsq, delta=0.1)
        assert sq.k == bsq.k * bsq.program.arity
        assert sq.tau == bsq.tau / 2

    def test_warns_outside_concentration_regime(self):
        bsq = self._toy_bsq(b=4, tau=1 / 8)
        with pytest.warns(RuntimeWarning, match="without guarantee"):
            bsq_to_sq(bsq, delta=0.05)

    def test_silent_inside_regime(self):
        bsq = self._toy_bsq(b=4096, tau=1 / 4)
        assert 4096 * (1 / 4) ** 2 >= 8 * math.log(4 * 2 * 3 / 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bsq_to_sq(bsq, delta=0.1)

    def test_scalarized_answers_reassemble_exactly(self):
        D = four_point()
        bsq = self._toy_bsq(b=4096, tau=1 / 4)
        sq = bsq_to_sq(bsq, delta=0.1)
        out = sq.run(D, seed=0)
        assert out.transcript.meta["rounds_used"] == 6
        expect = (0.5, 0.5, D.expectation(lambda ex: ex.y * ex.x[1]))
        assert out.predictor == pytest.approx(expect)

    def test_coordinate_queries_carry_index_names(self):
        D = four_point()
        bsq = self._toy_bsq(b=4096, tau=1 / 4)
        sq = bsq_to_sq(bsq, delta=0.1)
        from gradlab.paradigms import SQOracle

        oracle = _CapturingOracle(SQOracle(D, sq.tau, seed=1))
        _drive_query_method(sq.program, sq.k, oracle, seed=1, expected_arity=1)
        assert [q.name for q in oracle.queries[:3]] == [
            "triple[0]", "triple[1]", "triple[2]"]


class TestSplitAlternating:
    def test_round_doubling_and_tolerance(self):
        sq = SQMethod(k=3, tau=1 / 8,
                      program=recording_sq_program([label_query(),
                                                    coord_query(0),
                                                    coord_query(1)]))
        split = sq_split_alternating(sq)
        assert split.k == 6
        assert split.tau == 1 / 16

    def test_halves_alternate_and_recombine(self):
        D = four_point()
        queries = [label_query(), coord_query(0)]
        sq = SQMethod(k=2, tau=1 / 8,
                      program=recording_sq_program(queries))
        split = sq_split_alternating(sq)
        from gradlab.paradigms import SQOracle

        oracle = _CapturingOracle(SQOracle(D, split.tau, seed=4))
        out = _drive_query_method(split.program, split.k, oracle, seed=4,
                                  expected_arity=1)
        restrictions = [q.restriction for q in oracle.queries]
        assert restrictions == [LabelRestriction.ONE_QUERY,
                                LabelRestriction.ZERO_QUERY] * 2
        # zero-noise halves sum to the unrestricted population answer
        assert out.predictor == pytest.approx((0.5, 0.5))

    def test_restricted_halves_vanish_off_label(self):
        base = coord_query(0)
        sq = SQMethod(k=1, tau=1 / 8,
                      program=recording_sq_program([base]))
        split = sq_split_alternating(sq)
        run = split.program.start(())
        one_half = run.next_query()
        assert one_half.restriction is LabelRestriction.ONE_QUERY
        assert one_half.evaluate(Example((1, 1), 0))[0] == 0.0
        assert one_half.evaluate(Example((1, 1), 1))[0] == 1.0


class TestSqToFbsq:
    def _sq(self, k=2, tau=1 / 4):
        return SQMethod(k=k, tau=tau,
                        program=recording_sq_program(
                            [label_query(), coord_query(0)][:k]))

    def test_derived_parameters(self):
        fbsq = sq_to_fbsq(self._sq(), m=100000, delta=0.1)
        assert fbsq.k == 2
        assert fbsq.tau == 1 / 8
        assert fbsq.m == 100000
        assert fbsq.program.arity == 1

    def test_responses_snapped_to_half_tau_grid(self):
        assert round_nearest_multiple(0.30, 1 / 8) == pytest.approx(0.25)
        D = four_point()
        fbsq = sq_to_fbsq(self._sq(tau=1 / 4), m=100000, delta=0.1)
        out = fbsq.run(D, seed=6, adversary=NoiseAdversary.SEEDED_RANDOM)
        grid = 1 / 8
        for value in out.predictor:
            assert value == pytest.approx(round(value / grid) * grid)

    def test_warns_outside_regime(self):
        with pytest.warns(RuntimeWarning, match="without guarantee"):
            sq_to_fbsq(self._sq(), m=50, delta=0.1)

    def test_keeps_the_alternating_flag(self):
        split = sq_split_alternating(self._sq())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert sq_to_fbsq(split, m=50, delta=0.1).program.alternating
            assert not sq_to_fbsq(self._sq(), m=50,
                                  delta=0.1).program.alternating

    def test_silent_inside_regime(self):
        k, tau, delta = 2, 1 / 4, 0.1
        need = 32 * (k * math.log(4 / tau + 1) + math.log(4 / delta))
        m = math.ceil(need / tau ** 2) + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sq_to_fbsq(self._sq(), m=m, delta=delta)


class TestFbsqToSq:
    def _fbsq(self, m=10 ** 5, tau=1 / 4):
        def qgen(t, bits, responses):
            return SQQuery(2, lambda ex: [float(ex.y), float(ex.x[0])],
                           name="pair")

        def fpred(bits, responses):
            return tuple(responses[-1])

        prog = GeneratorProgram(rounds=1, arity=2, random_bits=0,
                                query_generator=qgen, final_predictor=fpred)
        from gradlab.paradigms import FBSQMethod

        return FBSQMethod(k=1, tau=tau, m=m, program=prog)

    def test_round_count_and_grid(self):
        sq = fbsq_to_sq(self._fbsq(), delta=0.1)
        assert sq.k == 2
        assert sq.tau == 1 / 8
        D = four_point()
        out = sq.run(D, seed=0)
        assert out.predictor == pytest.approx((0.5, 0.5))

    def test_warns_outside_regime(self):
        with pytest.warns(RuntimeWarning, match="without guarantee"):
            fbsq_to_sq(self._fbsq(m=100), delta=0.05)


class TestPacToBsq:
    def test_budget_formula(self):
        pac = parity_learner(6, m=12)
        bsq = pac_to_bsq(pac, b=4, tau=1 / 16, delta=0.1, n=6)
        assert bsq.k == math.ceil(10 * 12 * 7 / 0.1)
        assert bsq.program.arity == 7
        # two descent bits per round at b=4
        assert bsq.program.random_bits == bsq.k * 2
        assert not bsq.program.alternating

    def test_alternating_budget_doubles(self):
        pac = parity_learner(6, m=12)
        bsq = pac_to_bsq(pac, b=4, tau=1 / 16, delta=0.1, n=6,
                         alternating=True)
        assert bsq.k == math.ceil(20 * 12 * 7 / 0.1)
        assert bsq.program.alternating

    def test_rejects_coarse_tolerance(self):
        pac = parity_learner(4, m=8)
        with pytest.raises(ToleranceError):
            pac_to_bsq(pac, b=8, tau=1 / 16, delta=0.1, n=4)

    def test_parity_error_close_to_direct(self):
        n = 4
        D = parity_distribution(n, (1, 0, 1, 1), seed=1)
        pac = parity_learner(n, m=10)
        bsq = pac_to_bsq(pac, b=4, tau=1 / 16, delta=0.1, n=n)
        report = compare_methods(pac, bsq, D, delta=0.1, trials=40, seed=0)
        assert report.holds is True

    def test_constant_payload_unaffected_by_transport(self):
        D = four_point()
        pac = PACMethod(m=1, r=0,
                        learn=lambda items, bits: TablePredictor({}, 1.0),
                        name="constant")
        bsq = pac_to_bsq(pac, b=2, tau=1 / 8, delta=0.1, n=2)
        for s in range(20):
            out = bsq.run(D, seed=s, record=False)
            assert out.predictor((0, 0)) == 1.0
            assert out.predictor((1, 1)) == 1.0

    def test_sample_accounting(self):
        D = four_point()
        pac = PACMethod(m=2, r=0,
                        learn=lambda items, bits: TablePredictor({}, 0.0))
        bsq = pac_to_bsq(pac, b=2, tau=1 / 8, delta=0.5, n=2)
        out = bsq.run(D, seed=0)
        assert out.transcript.samples_consumed <= bsq.k * bsq.b
        assert out.transcript.samples_consumed > 0


class TestPacToFbsq:
    def test_round_budget_is_exact(self):
        pac = parity_learner(4, m=8)
        fbsq = pac_to_fbsq(pac, m=8, tau=1 / 32, n=4)
        assert fbsq.k == 8 * 5
        assert fbsq.m == 8

    def test_batch_must_cover_sample_size(self):
        pac = parity_learner(4, m=8)
        with pytest.raises(ValueError, match="cannot supply"):
            pac_to_fbsq(pac, m=4, tau=1 / 32, n=4)

    def test_paired_with_direct_learning_difference_zero(self):
        n = 4
        D = parity_distribution(n, (0, 1, 1, 0), seed=3)
        pac = parity_learner(n, m=8)
        fbsq = pac_to_fbsq(pac, m=8, tau=1 / 32, n=n)
        for s in range(25):
            out = fbsq.run(D, seed=s)
            hidden = decode_examples(D, out.transcript.records[0].batch_codes)
            direct = pac.learn(list(hidden), ())
            err_t = population_loss(D, clip_predictor(out.predictor))
            err_s = population_loss(D, clip_predictor(direct))
            assert err_t == err_s

    def test_consumes_exactly_the_frozen_batch(self):
        pac = parity_learner(3, m=6)
        fbsq = pac_to_fbsq(pac, m=6, tau=1 / 16, n=3)
        D = parity_distribution(3, (1, 1, 0), seed=5)
        out = fbsq.run(D, seed=2)
        assert out.transcript.samples_consumed == 6


class TestBsgdToBsq:
    def test_derived_parameters(self):
        model = linear_model(3)
        bsq = bsgd_to_bsq(model, T=5, rho=2 ** -4, b=8)
        assert bsq.k == 5
        assert bsq.tau == 2 ** -6
        assert bsq.program.arity == 4
        assert bsq.program.random_bits == 0

    def test_replayed_batches_reproduce_descent_exactly(self):
        model = linear_model(2)
        D = four_point()
        T, rho, b = 6, 2 ** -5, 4
        for s in (0, 7, 21):
            ref = run_bsgd(model, D, T=T, rho=rho, b=b, seed=s)
            codes = [rec.batch_codes for rec in ref.transcript.records]
            gm = bsgd_to_bsq(model, T, rho, b)
            oracle = ReplayOracle(D, codes, tau=gm.tau)
            out = _drive_query_method(gm.program, gm.k, oracle, seed=s,
                                      expected_arity=model.dim)
            assert np.array_equal(out.predictor.params, ref.predictor.params)

    def test_snapped_answers_stay_in_validity_band(self):
        # any tau-accurate answer snaps to within 3/4 of a grid step
        rng = np.random.default_rng(12)
        rho = 2 ** -6
        tau = rho / 4
        for _ in range(2000):
            mean = rng.uniform(-1, 1)
            response = mean + rng.uniform(-tau, tau)
            g = round_nearest_multiple(response, rho)
            assert abs(g - mean) <= 3 * rho / 4 + 1e-12

    def test_zero_steps_issue_no_queries(self):
        model = linear_model(2)
        D = four_point()
        bsq = bsgd_to_bsq(model, T=0, rho=2 ** -4, b=4)
        out = bsq.run(D, seed=0)
        assert out.transcript.meta["rounds_used"] == 0
        assert np.array_equal(out.predictor.params, np.zeros(3))

    def test_gradient_queries_are_clipped(self):
        model = linear_model(1)
        gm = bsgd_to_bsq(model, T=1, rho=2 ** -3, b=2)
        run = gm.program.start(())
        run.w = np.array([10.0, 10.0])
        q = run.next_query()
        vals = q.evaluate(Example((1,), 0))
        assert np.max(np.abs(vals)) <= 1.0


class TestReplayOracle:
    def test_replays_recorded_batches_verbatim(self):
        D = four_point()
        codes = [[int(D.joint_codes[0]), int(D.joint_codes[1])]]
        oracle = ReplayOracle(D, codes, tau=1 / 8)
        got = oracle.ask(label_query())
        assert got[0] == pytest.approx(0.5)
        rec = oracle.transcript.records[0]
        assert rec.batch_codes == codes[0]

    def test_runs_out_after_recorded_rounds(self):
        D = four_point()
        oracle = ReplayOracle(D, [[int(D.joint_codes[0])]], tau=1 / 8)
        oracle.ask(label_query())
        with pytest.raises(RuntimeError, match="ran out"):
            oracle.ask(label_query())

    def test_adversary_shifts_within_band(self):
        D = four_point()
        codes = [[int(c) for c in D.joint_codes]]
        up = ReplayOracle(D, codes, tau=1 / 8,
                          adversary=NoiseAdversary.PLUS_TAU)
        got = up.ask(label_query())
        assert got[0] == pytest.approx(0.5 + 1 / 8)

    def test_range_edge_clipped_like_live_oracle(self):
        # queries may overshoot 1 by up to 1e-12; every oracle clips the answer
        D = four_point()
        edge = SQQuery(1, lambda ex: [1 + 5e-13], name="edge")
        live = BSQOracle(D, b=4, tau=1 / 8, seed=2)
        want = live.ask(edge)
        codes = [live.transcript.records[0].batch_codes]
        got = ReplayOracle(D, codes, tau=1 / 8).ask(edge)
        assert got.tobytes() == want.tobytes()
        assert got[0] == 1.0

    def test_decode_rejects_unknown_codes(self):
        D = four_point()
        with pytest.raises(ValueError, match="not in the support"):
            decode_examples(D, [9999])
        codes = [[int(D.joint_codes[0])], [int(D.joint_codes[1]), 9999]]
        with pytest.raises(ValueError, match="9999 not in the support"):
            ReplayOracle(D, codes, tau=1 / 8)

    def test_batches_decode_through_one_table(self):
        D = four_point()
        rows = [[int(c) for c in D.joint_codes[::-1]], [], [
            int(D.joint_codes[2])] * 3]
        oracle = ReplayOracle(D, rows, tau=1 / 8)
        assert oracle.batches == [decode_examples(D, r) for r in rows]


class TestPopulationViolationRate:
    def test_large_batches_rarely_violate(self):
        D = coin_flip()
        rate = population_violation_rate(D, label_query(), b=10 ** 4,
                                         tau=1 / 4, trials=300, seed=0)
        assert rate <= 0.01

    def test_tiny_batches_usually_violate(self):
        D = coin_flip()
        rate = population_violation_rate(D, label_query(), b=2, tau=1 / 4,
                                         trials=300, seed=0)
        assert rate >= 0.2

    def test_candidate_response_override(self):
        D = coin_flip()
        rate = population_violation_rate(D, label_query(), b=10 ** 4,
                                         tau=1 / 4, trials=50, seed=0,
                                         response=[0.99])
        assert rate == 1.0

    def test_empty_batches_and_no_trials_are_rejected(self):
        D = coin_flip()
        with pytest.raises(ValueError, match="batch size must be positive"):
            population_violation_rate(D, label_query(), b=0, tau=1 / 4,
                                      trials=10)
        with pytest.raises(ValueError, match="need at least one trial"):
            population_violation_rate(D, label_query(), b=4, tau=1 / 4,
                                      trials=0)


class TestCompareMethods:
    def test_identical_methods_always_hold(self):
        D = four_point()
        pac = parity_learner(2, m=4)
        report = compare_methods(pac, pac, D, delta=0.0, trials=10, seed=0)
        assert report.err_source == report.err_target
        assert report.holds is True

    def test_report_names_methods(self):
        D = four_point()
        pac = parity_learner(2, m=4)
        report = compare_methods(pac, pac, D, delta=0.1, trials=5, seed=1)
        assert report.source == "parity-gf2-n2"
        assert report.target == "parity-gf2-n2"


class TestBuildPipeline:
    def test_empty_pipeline_returns_payload(self):
        pac = parity_learner(3)
        method, report = build_pipeline([], pac)
        assert method is pac
        assert report.derived["stages"] == []

    def test_dict_form_with_parity_payload(self):
        spec = {"pipeline": ["pac_to_bsq", "bsq_alternating"],
                "payload": "parity",
                "params": {"n": 6, "b": 4, "rho": 1 / 64, "delta": 0.1,
                           "m": 12}}
        method, report = build_pipeline(spec)
        assert method.program.alternating
        assert method.tau == 1 / 16
        assert method.k == math.ceil(20 * 12 * 7 / 0.1)
        assert report.derived["bsq_alternating"]["k"] == method.k

    def test_two_major_stages_split_the_failure_budget(self):
        spec = {"pipeline": ["pac_to_bsq", "bsq_to_sq"],
                "payload": "parity",
                "params": {"n": 4, "b": 2, "tau": 1 / 8, "delta": 0.1,
                           "m": 8}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            method, report = build_pipeline(spec)
        assert report.derived["delta_per_stage"] == 0.05
        assert report.derived["pac_to_bsq"]["k"] == math.ceil(
            10 * 8 * 5 / 0.05)
        assert isinstance(method, SQMethod)
        assert method.k == report.derived["pac_to_bsq"]["k"] * 5

    def test_precision_gate_accepts_and_rejects(self):
        ok = {"pipeline": ["pac_to_bsq"], "payload": "parity",
              "params": {"n": 4, "b": 4, "rho": 1 / 64, "m": 8}}
        method, _ = build_pipeline(ok)
        assert method.tau == 1 / 16
        bad = {"pipeline": ["pac_to_bsq"], "payload": "parity",
               "params": {"n": 4, "b": 4, "rho": 1 / 16, "m": 8}}
        with pytest.raises(PipelineError, match="1/\\(8b\\)"):
            build_pipeline(bad)

    def test_list_form_with_keyword_params(self):
        pac = parity_learner(4, m=8)
        method, report = build_pipeline(["pac_to_bsq"], pac, n=4, b=2,
                                        tau=1 / 8, delta=0.2)
        assert method.k == math.ceil(10 * 8 * 5 / 0.2)

    def test_unknown_stage_rejected(self):
        with pytest.raises(PipelineError, match="unknown stage"):
            build_pipeline(["warp_drive"], parity_learner(2))

    def test_unknown_payload_rejected(self):
        with pytest.raises(PipelineError, match="unknown payload"):
            build_pipeline({"pipeline": [], "payload": "oracle-of-delphi"})

    def test_stage_type_mismatch_rejected(self):
        with pytest.raises(PipelineError, match="population-query"):
            build_pipeline(["sq_to_bsq"], parity_learner(2), b=4)

    def test_alternating_modifier_needs_batched_stage(self):
        with pytest.raises(PipelineError, match="must follow"):
            build_pipeline(["bsq_alternating"], parity_learner(2))

    def test_gradient_compile_requires_alternating(self):
        spec = {"pipeline": ["pac_to_bsq", "diffsim"], "payload": "parity",
                "params": {"n": 4, "b": 4, "rho": 1 / 64, "m": 8,
                           "delta": 0.1}}
        with pytest.raises(PipelineError, match="alternating"):
            build_pipeline(spec)

    def test_split_then_frozen_batch_compiles_and_trains(self):
        # the sq_to_fbsq stage keeps the split program's alternation
        stages = ["pac_to_bsq", "bsq_to_sq", "sq_split_alternating",
                  "sq_to_fbsq"]
        params = dict(payload="parity", n=2, m=3, b=4, tau=1 / 64,
                      m_batch=64, delta=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            method, report = build_pipeline(stages + ["diffsim"], **params)
            audit_method, _ = build_pipeline(stages, **params)
        assert audit_method.program.alternating
        assert method.T == audit_method.k == report.derived["diffsim"]["T"]
        D = FiniteDistribution.parity(2, (1, 1))
        auditor = TrajectoryAuditor(audit_method.program, method.rho)
        method.run(D, seed=0, record=False, hook=auditor.hook)
        audit = auditor.check()
        assert audit.rounds == method.T
        assert audit.active_rounds + audit.pad_rounds == method.T

    def test_zero_payload_runs_end_to_end(self):
        spec = {"pipeline": ["pac_to_bsq"], "payload": "zero",
                "params": {"n": 2, "b": 2, "tau": 1 / 8, "delta": 0.5}}
        method, _ = build_pipeline(spec)
        out = method.run(four_point(), seed=0)
        assert out.predictor((0, 0)) == 0.0

    def test_sq_stage_chain(self):
        queries = [label_query(), coord_query(0)]
        sq = SQMethod(k=2, tau=1 / 4,
                      program=recording_sq_program(queries))
        method, report = build_pipeline(["sq_to_bsq", "bsq_alternating"],
                                        sq, b=16, delta=0.1)
        assert method.program.alternating
        assert method.tau == 1 / 16
        q = repeat_count(2, 16, 1 / 4, 0.1, alternating=True)
        assert method.k == 2 * 2 * q
