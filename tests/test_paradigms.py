import numpy as np
import pytest

from gradlab.numerics import RoundingOracle, RoundingStrategy, clip1, valid_rounding
from gradlab.problems import (
    Example,
    FiniteDistribution,
    SQUARE_LOSS,
    ZeroPredictor,
    population_loss,
    sample_batch,
)
from gradlab.paradigms import (
    BitStream,
    BSQOracle,
    DiffModel,
    FBSQOracle,
    GeneratorProgram,
    LabelRestriction,
    NoiseAdversary,
    PACMethod,
    QueryRangeError,
    RestrictionError,
    SQMethod,
    SQOracle,
    SQQuery,
    Transcript,
    bsq_oracle_answer,
    eval_method_error,
    fbsq_oracle_answer,
    gf2_solve,
    parity_learner,
    run_bsgd,
    run_fbgd,
    sq_oracle_answer,
)

ADVERSARIES = list(NoiseAdversary)


def label_query():
    return SQQuery(1, lambda ex: [float(ex.y)], name="y")


def const_query(c=1.0):
    return SQQuery(1, lambda ex: [c], name="const")


def quarter_label_distribution():
    # P(y=1) = 0.25 on a 1-bit input space
    return FiniteDistribution(1, [
        (Example((0,), 0), 0.5),
        (Example((1,), 0), 0.25),
        (Example((1,), 1), 0.25),
    ])


class TestSQQuery:
    def test_range_enforced(self):
        q = SQQuery(1, lambda ex: [1.5])
        with pytest.raises(QueryRangeError):
            q.evaluate(Example((0,), 0))

    def test_restriction_enforced(self):
        q = SQQuery(1, lambda ex: [1.0], restriction=LabelRestriction.ONE_QUERY)
        assert q.evaluate(Example((0,), 1)).tolist() == [1.0]
        with pytest.raises(RestrictionError):
            q.evaluate(Example((0,), 0))

    def test_arity_enforced(self):
        q = SQQuery(2, lambda ex: [0.0])
        with pytest.raises(ValueError):
            q.evaluate(Example((0,), 0))


class TestSQOracle:
    def test_constant_query_zero_noise(self):
        D = quarter_label_distribution()
        assert sq_oracle_answer(D, const_query(), 1 / 16) == 1.0

    def test_plus_tau_on_label_query(self):
        D = quarter_label_distribution()
        got = sq_oracle_answer(D, label_query(), 1 / 16,
                               adversary=NoiseAdversary.PLUS_TAU)
        assert got == 0.3125

    def test_random_queries_within_tau(self):
        rng = np.random.default_rng(0)
        D = FiniteDistribution.random(3, 12, seed=3)
        tau = 1 / 8
        for i in range(100):
            coeffs = rng.uniform(-1, 1, 16)
            q = SQQuery(1, lambda ex, c=coeffs: [c[ex.joint_code()]])
            exact = D.expectation(lambda ex, c=coeffs: c[ex.joint_code()])
            for adv in ADVERSARIES:
                oracle = SQOracle(D, tau, adv, seed=i, record=False)
                got = float(oracle.ask(q)[0])
                assert abs(got - exact) <= tau + 1e-12

    def test_response_clamped_to_unit_range(self):
        D = quarter_label_distribution()
        got = sq_oracle_answer(D, const_query(), 1 / 4,
                               adversary=NoiseAdversary.PLUS_TAU)
        assert got == 1.0


class TestBSQOracle:
    def test_constant_query(self):
        D = quarter_label_distribution()
        resp, _ = bsq_oracle_answer(D, const_query(), b=8, tau=1 / 16, seed=0)
        assert abs(resp[0] - 1.0) <= 1 / 16

    def test_point_mass_indicator(self):
        ex = Example((1, 0), 1)
        D = FiniteDistribution.point_mass(ex)
        q = SQQuery(1, lambda e: [1.0 if e == ex else 0.0])
        resp, _ = bsq_oracle_answer(D, q, b=8, tau=1 / 16, seed=1)
        assert resp[0] == 1.0

    def test_validity_against_hidden_batch(self):
        D = FiniteDistribution.random(3, 10, seed=9)
        by_code = {ex.joint_code(): ex for ex in D.support}
        q = SQQuery(2, lambda ex: [float(ex.y), float(ex.x[0])])
        tau = 1 / 8
        for seed, adv in enumerate(ADVERSARIES):
            oracle = BSQOracle(D, b=6, tau=tau, adversary=adv, seed=seed)
            resp = oracle.ask(q)
            rec = oracle.transcript.records[-1]
            batch = [by_code[c] for c in rec.batch_codes]
            mean = np.mean([q.evaluate(ex) for ex in batch], axis=0)
            assert np.all(np.abs(resp - mean) <= tau + 1e-12)
            assert np.array_equal(rec.exact_mean, mean)

    def test_master_stream_is_deterministic(self):
        D = FiniteDistribution.random(2, 6, seed=4)
        q = label_query()
        a = BSQOracle(D, 5, 1 / 8, seed=11)
        b = BSQOracle(D, 5, 1 / 8, seed=11)
        for _ in range(4):
            assert np.array_equal(a.ask(q), b.ask(q))
        assert a.samples_consumed == 20

    def test_restriction_checked_on_support(self):
        D = quarter_label_distribution()
        bad = SQQuery(1, lambda ex: [1.0], restriction=LabelRestriction.ZERO_QUERY)
        oracle = BSQOracle(D, 4, 1 / 8, seed=0)
        with pytest.raises(RestrictionError):
            oracle.ask(bad)


class TestFBSQOracle:
    def test_identical_queries_identical_answers(self):
        D = FiniteDistribution.random(2, 5, seed=2)
        S = sample_batch(D, 7, seed=3)
        oracle = FBSQOracle(S, 1 / 8, seed=0)
        q = label_query()
        assert np.array_equal(oracle.ask(q), oracle.ask(q))

    def test_mean_recompute(self):
        D = FiniteDistribution.random(2, 5, seed=2)
        S = sample_batch(D, 9, seed=5)
        q = SQQuery(1, lambda ex: [float(ex.x[1])])
        resp, transcript = fbsq_oracle_answer(S, q, 1 / 8,
                                              adversary=NoiseAdversary.MINUS_TAU)
        mean = np.mean([q.evaluate(ex)[0] for ex in S.items])
        assert abs(resp[0] - mean) <= 1 / 8 + 1e-12
        assert transcript.meta["m"] == 9


def constant_model():
    # f_w(x) = w, one parameter, no randomness
    return DiffModel(
        dim=1,
        random_bits=0,
        init=lambda bits: np.zeros(1),
        value=lambda w, x: float(w[0]),
        loss_gradient=lambda w, ex: np.array(
            [SQUARE_LOSS.derivative(float(w[0]), float(ex.y))]),
        name="constant",
    )


def linear_model(n):
    # f_w(x) = <w, (1, x)>, gradient (f - y) * (1, x)
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


class TestRunBSGD:
    def test_closed_form_single_step(self):
        D = FiniteDistribution.point_mass(Example((0,), 1))
        out = run_bsgd(constant_model(), D, T=1, rho=2 ** -6, b=4, gamma=1.0)
        assert out.final_params[0] == 1.0
        assert out.predictor((0,)) == 1.0

    def test_zero_rounds_returns_initialization(self):
        D = FiniteDistribution.point_mass(Example((0,), 1))
        out = run_bsgd(constant_model(), D, T=0, rho=2 ** -6, b=4)
        assert out.final_params[0] == 0.0
        assert out.transcript.rounds == 0

    def test_every_update_is_valid_rounding_of_clipped_batch_gradient(self):
        D = FiniteDistribution.random(3, 10, seed=21)
        by_code = {ex.joint_code(): ex for ex in D.support}
        model = linear_model(3)
        rho = 2 ** -5
        for strat in RoundingStrategy:
            out = run_bsgd(model, D, T=6, rho=rho, b=3, gamma=0.5,
                           rounding=RoundingOracle(strat, seed=2), seed=8)
            w = np.zeros(model.dim)
            for rec in out.transcript.records:
                batch = [by_code[c] for c in rec.batch_codes]
                grads = [clip1(model.loss_gradient(w, ex))
                         for ex in batch]
                mean = np.mean(grads, axis=0)
                assert np.array_equal(np.asarray(rec.exact_mean), mean)
                assert valid_rounding(rec.response, mean, rho)
                w = w - 0.5 * np.asarray(rec.response)
            assert np.array_equal(w, out.final_params)

    def test_deterministic_in_seed(self):
        D = FiniteDistribution.random(2, 6, seed=1)
        model = linear_model(2)
        a = run_bsgd(model, D, T=5, rho=2 ** -4, b=4, seed=3)
        b = run_bsgd(model, D, T=5, rho=2 ** -4, b=4, seed=3)
        c = run_bsgd(model, D, T=5, rho=2 ** -4, b=4, seed=4)
        assert np.array_equal(a.final_params, b.final_params)
        assert not np.array_equal(a.final_params, c.final_params)

    def test_sample_accounting(self):
        D = FiniteDistribution.random(2, 4, seed=0)
        out = run_bsgd(linear_model(2), D, T=7, rho=2 ** -4, b=5, seed=0)
        assert out.transcript.samples_consumed == 35

    def test_sparse_matches_dense(self):
        # a model reporting sparse gradients must train identically to
        # the same model reporting dense ones
        def sparse_grad(w, ex):
            diff = SQUARE_LOSS.derivative(float(w[0] + w[1] * ex.x[0]),
                                          float(ex.y))
            return {0: diff, 1: diff * ex.x[0]}

        def dense_grad(w, ex):
            diff = SQUARE_LOSS.derivative(float(w[0] + w[1] * ex.x[0]),
                                          float(ex.y))
            return np.array([diff, diff * ex.x[0], 0.0, 0.0])

        common = dict(random_bits=0, init=lambda bits: np.zeros(4),
                      value=lambda w, x: float(w[0] + w[1] * x[0]))
        sparse = DiffModel(dim=4, loss_gradient=sparse_grad, **common)
        dense = DiffModel(dim=4, loss_gradient=dense_grad, **common)
        D = FiniteDistribution.random(2, 5, seed=6)
        for strat in RoundingStrategy:
            ra = run_bsgd(sparse, D, T=8, rho=2 ** -4, b=3, seed=5,
                          rounding=RoundingOracle(strat, seed=1))
            rb = run_bsgd(dense, D, T=8, rho=2 ** -4, b=3, seed=5,
                          rounding=RoundingOracle(strat, seed=1))
            assert np.array_equal(ra.final_params, rb.final_params)

    def test_fbgd_reuses_frozen_batch(self):
        D = FiniteDistribution.random(2, 5, seed=2)
        S = sample_batch(D, 6, seed=9)
        out = run_fbgd(linear_model(2), S, T=4, rho=2 ** -4)
        codes = [ex.joint_code() for ex in S.items]
        for rec in out.transcript.records:
            assert rec.batch_codes == codes
        assert out.transcript.samples_consumed == 6


def test_transcript_jsonl_roundtrip(tmp_path):
    t = Transcript(meta={"kind": "bsgd", "T": 2})
    t.samples_consumed = 8
    from gradlab.paradigms import RoundRecord
    t.append(RoundRecord(index=1, kind="bsgd", response={3: 0.25, 1: -0.5},
                         exact_mean={3: 0.2, 1: -0.4}, batch_codes=[5, 2]))
    t.append(RoundRecord(index=2, kind="bsq", response=np.array([0.5]),
                         exact_mean=np.array([0.5])))
    path = tmp_path / "t.jsonl"
    t.to_jsonl(path)
    back = Transcript.from_jsonl(path)
    assert back.meta == {"kind": "bsgd", "T": 2}
    assert back.samples_consumed == 8
    assert back.records[0].response == {"idx": [1, 3], "val": [-0.5, 0.25]}
    assert back.records[1].response == [0.5]
    assert back.records[0].batch_codes == [5, 2]


def test_bitstream_is_deterministic_and_counts():
    a, b = BitStream(3), BitStream(3)
    bits_a = [a.bit() for _ in range(100)]
    bits_b = [b.bit() for _ in range(100)]
    assert bits_a == bits_b
    assert a.consumed == 100
    assert set(bits_a) == {0, 1}
    v = a.take(5)
    assert 0 <= v < 32
    assert a.consumed == 105


class TestGF2:
    def test_solves_consistent_system(self):
        A = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
        rhs = np.array([1, 0, 1])
        x = gf2_solve(A, rhs)
        assert x is not None
        assert np.array_equal((A @ x) % 2, rhs)

    def test_inconsistent_returns_none(self):
        A = np.array([[1, 1], [1, 1]])
        rhs = np.array([0, 1])
        assert gf2_solve(A, rhs) is None

    def test_free_variables_are_zero(self):
        A = np.array([[1, 0, 0]])
        rhs = np.array([1])
        x = gf2_solve(A, rhs)
        assert x.tolist() == [1, 0, 0]


class TestMethods:
    def test_pac_parity_learner_recovers_parity(self):
        D = FiniteDistribution.parity(5, (1, 0, 1, 1, 0), bias=1)
        method = parity_learner(5)
        est = eval_method_error(method, D, trials=100, seed=0)
        assert est.mean < 0.05

    def test_eval_error_closed_forms(self):
        D = FiniteDistribution.parity(3, (1, 1, 1))

        class Exact:
            m, r = 1, 0

            def run(self, D_, seed=0, **kw):
                from gradlab.paradigms import MethodRun
                return MethodRun(predictor=lambda x: float(x[0] ^ x[1] ^ x[2]),
                                 transcript=Transcript())

        class Zero:
            def run(self, D_, seed=0, **kw):
                from gradlab.paradigms import MethodRun
                return MethodRun(predictor=ZeroPredictor(),
                                 transcript=Transcript())

        exact = eval_method_error(Exact(), D, trials=3, seed=0)
        assert exact.mean == 0.0
        zero = eval_method_error(Zero(), D, trials=3, seed=0)
        assert zero.mean == pytest.approx(0.25)
        assert zero.stderr == 0.0

    def test_sq_method_drives_program(self):
        D = quarter_label_distribution()

        def gen(t, bits, responses):
            return label_query() if t == 1 else None

        def predictor(bits, responses):
            p = responses[0][0]
            return lambda x: p

        prog = GeneratorProgram(rounds=3, arity=1, random_bits=0,
                                query_generator=gen, final_predictor=predictor)
        method = SQMethod(k=3, tau=1 / 16, program=prog)
        out = method.run(D, seed=0)
        assert out.predictor((0,)) == 0.25
        assert out.transcript.meta["rounds_used"] == 1

    def test_pac_method_accounting(self):
        D = quarter_label_distribution()
        learner = PACMethod(m=12, r=3, learn=lambda items, bits: ZeroPredictor())
        out = learner.run(D, seed=0)
        assert out.transcript.samples_consumed == 12
        assert out.transcript.random_bits_consumed == 3
        assert len(out.init_bits) == 3
