import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlab.numerics import (
    EmpiricalAverage,
    GridError,
    GridValue,
    RoundingOracle,
    RoundingStrategy,
    ToleranceError,
    clip1,
    grid_exponent,
    _SMALL,
    recover_batch_average,
    round_approximate,
    round_nearest_multiple,
    valid_rounding,
)

ALL_STRATEGIES = list(RoundingStrategy)


def oracle(strategy, seed=0):
    return RoundingOracle(strategy=strategy, seed=seed)


class TestGridExponent:
    def test_accepts_dyadic(self):
        assert grid_exponent(1.0) == 0
        assert grid_exponent(0.5) == 1
        assert grid_exponent(0.25) == 2
        assert grid_exponent(2.0 ** -40) == 40

    @pytest.mark.parametrize("bad", [0.3, 3 / 8, 2.0, 0.0, -0.5, 2.0 ** -41])
    def test_rejects_non_dyadic(self, bad):
        with pytest.raises(GridError):
            grid_exponent(bad)


def test_grid_value_quotient():
    assert GridValue(0.375, 0.125).quotient == 3
    assert GridValue(-0.5, 0.125).quotient == -4
    with pytest.raises(GridError):
        GridValue(0.3, 0.125)


def test_empirical_average():
    avg = EmpiricalAverage(3, 8)
    assert avg.value == 0.375
    assert EmpiricalAverage(-8, 8).value == -1.0
    with pytest.raises(ValueError):
        EmpiricalAverage(9, 8)
    with pytest.raises(ValueError):
        EmpiricalAverage(1, 0)


def test_clip1():
    out = clip1([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert out.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


class TestRoundNearest:
    def test_basic(self):
        assert round_nearest_multiple(0.3, 0.125) == 0.25
        assert round_nearest_multiple(-0.3, 0.125) == -0.25

    def test_ties_away_from_zero(self):
        assert round_nearest_multiple(0.0625, 0.125) == 0.125
        assert round_nearest_multiple(-0.0625, 0.125) == -0.125

    def test_vector(self):
        got = round_nearest_multiple([0.0, 1.0, -1.0, 0.49], 0.5)
        assert got.tolist() == [0.0, 1.0, -1.0, 0.5]


class TestRoundApproximate:
    def test_forced_band_all_strategies(self):
        # 0.26 lies strictly within rho/4 of 0.25, so the choice is forced
        for strat in ALL_STRATEGIES:
            got = round_approximate(np.array([0.26]), 0.125, oracle(strat))
            assert got[0] == 0.25

    def test_free_band_choices(self):
        # 0.3 is in [0.25 + rho/4, 0.25 + 3*rho/4]: both neighbours valid
        v = np.array([0.3])
        assert round_approximate(v, 0.125, oracle(RoundingStrategy.NEAREST))[0] == 0.25
        assert round_approximate(v, 0.125, oracle(RoundingStrategy.ADVERSARIAL_UP))[0] == 0.375
        assert round_approximate(v, 0.125, oracle(RoundingStrategy.ADVERSARIAL_DOWN))[0] == 0.25
        got = round_approximate(v, 0.125, oracle(RoundingStrategy.SEEDED_RANDOM))[0]
        assert got in (0.25, 0.375)

    def test_up_falls_back_when_invalid(self):
        # upper neighbour 0.375 is farther than 3*rho/4 from 0.26
        got = round_approximate(np.array([0.26]), 0.125,
                                oracle(RoundingStrategy.ADVERSARIAL_UP))
        assert got[0] == 0.25

    def test_exact_zero_forced_under_every_strategy(self):
        v = np.zeros(4)
        for strat in ALL_STRATEGIES:
            for seed in (0, 1, 7):
                got = round_approximate(v, 2.0 ** -6, oracle(strat, seed))
                assert np.all(got == 0.0)

    def test_on_grid_input_forced(self):
        # a value already on the grid admits no other valid neighbour
        v = np.array([0.5, -0.875, 0.0, 1.0])
        for strat in ALL_STRATEGIES:
            got = round_approximate(v, 0.125, oracle(strat, seed=3))
            assert np.array_equal(got, v)

    def test_range_check(self):
        with pytest.raises(ValueError):
            round_approximate(np.array([1.5]), 0.125)

    def test_seeded_random_is_pure(self):
        v = np.array([0.3, -0.7, 0.11])
        a = round_approximate(v, 2.0 ** -4, oracle(RoundingStrategy.SEEDED_RANDOM, 9))
        b = round_approximate(v, 2.0 ** -4, oracle(RoundingStrategy.SEEDED_RANDOM, 9))
        assert np.array_equal(a, b)

    def test_seeded_random_varies_with_seed(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, 64)
        outs = {round_approximate(v, 0.125,
                                  oracle(RoundingStrategy.SEEDED_RANDOM, s)).tobytes()
                for s in range(8)}
        assert len(outs) > 1


@settings(max_examples=300)
@given(
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=8),
    st.integers(0, 12),
    st.sampled_from(ALL_STRATEGIES),
    st.integers(0, 5),
)
def test_every_output_is_a_valid_rounding(vals, d, strat, seed):
    rho = 2.0 ** -d
    v = np.array(vals)
    g = round_approximate(v, rho, oracle(strat, seed))
    assert valid_rounding(g, v, rho)


@settings(max_examples=200)
@given(st.integers(-64, 64), st.integers(2, 10),
       st.floats(-0.2499, 0.2499), st.sampled_from(ALL_STRATEGIES))
def test_near_band_is_forced(q, d, frac, strat):
    rho = 2.0 ** -d
    v = (q + frac) * rho
    if abs(v) > 1.0:
        return
    g = round_approximate(np.array([v]), rho, oracle(strat, seed=1))
    assert g[0] == pytest.approx(q * rho, abs=0.0)


def _reference_round(v, rho, strat, seed):
    """round_approximate as first written: both candidates and both
    validity masks for every strategy, and one hashed bit per free entry
    in flattened order."""
    grid_exponent(rho)
    arr = np.asarray(v, dtype=float)
    if arr.size and np.abs(arr).max() > 1.0 + 1e-9:
        raise ValueError("round_approximate expects entries in [-1, 1]")
    if strat is RoundingStrategy.NEAREST:
        scaled = arr / rho
        return np.floor(np.abs(scaled) + 0.5) * np.sign(scaled) * rho
    scaled = arr / rho
    lo = np.floor(scaled)
    hi = lo + 1.0
    lo_ok, hi_ok = scaled - lo <= 0.75, hi - scaled <= 0.75
    if strat is RoundingStrategy.ADVERSARIAL_UP:
        return np.where(hi_ok, hi, lo) * rho
    if strat is RoundingStrategy.ADVERSARIAL_DOWN:
        return np.where(lo_ok, lo, hi) * rho
    take_hi = np.zeros(scaled.shape, dtype=bool).reshape(-1)
    prefix = (b"round-approximate" + seed.to_bytes(16, "little", signed=True)
              + grid_exponent(rho).to_bytes(2, "little"))
    for k, (val, free) in enumerate(zip(scaled.reshape(-1),
                                        (lo_ok & hi_ok).reshape(-1))):
        if free:
            digest = hashlib.sha256(prefix + struct.pack("<d", val)).digest()
            take_hi[k] = digest[0] & 1
    take_hi = take_hi.reshape(scaled.shape)
    return np.where(hi_ok & (take_hi | ~lo_ok), hi, lo) * rho


def _reference_valid(g, v, rho):
    scaled = g / rho
    on_grid = (np.abs(scaled - np.rint(scaled)) < 1e-9).all()
    within = (np.abs(g - np.asarray(v)) <= 0.75 * rho + 1e-12 * rho).all()
    return bool(on_grid and within)


def _bytes_or_error(call):
    try:
        out = np.asarray(call())
    except Exception as err:
        return type(err).__name__, str(err)
    return out.tobytes(), out.dtype.str, out.shape


EDGES = [0.0, -0.0, 0.25, 0.5, 0.75, -0.25, -0.5, -0.75, 1.0, -1.0,
         1.0 + 5e-10, 1.0 + 2e-9, math.nan, 5e-324]


@settings(max_examples=400)
@given(st.integers(0, 13), st.sampled_from(ALL_STRATEGIES),
       st.integers(-3, 5),
       st.sampled_from([(), (1,), (4,), (_SMALL,), (_SMALL + 1,), (2, 3),
                        (40,)]),
       st.data())
def test_rounding_matches_reference_bitwise(d, strat, seed, shape, data):
    # band edges, signed zeros, NaN (which passes the range check) and
    # out-of-range entries, on 0-d, 1-d and 2-d inputs; 1-d inputs of up
    # to _SMALL entries take the Python-float path, the others numpy
    rho = 2.0 ** -d
    q = data.draw(st.lists(st.integers(-(2 ** d), 2 ** d),
                           min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    off = data.draw(st.lists(st.sampled_from(EDGES) | st.floats(-1, 1),
                             min_size=len(q), max_size=len(q)))
    # an edge drawn as it is keeps its sign: q * rho + -0.0 is +0.0
    raw = data.draw(st.lists(st.none() | st.sampled_from(EDGES),
                             min_size=len(q), max_size=len(q)))
    v = np.array([qi * rho + oi * (rho if abs(oi) < 1 else 1.0)
                  if ri is None else ri
                  for qi, oi, ri in zip(q, off, raw)]).reshape(shape)
    got = _bytes_or_error(lambda: round_approximate(v, rho,
                                                    oracle(strat, seed)))
    assert got == _bytes_or_error(lambda: _reference_round(v, rho, strat,
                                                           seed))
    if len(got) == 3:
        g = round_approximate(v, rho, oracle(strat, seed))
        for other in (v, v + rho / 2, np.zeros(7)):
            with np.errstate(invalid="ignore"):
                assert _bytes_or_error(
                    lambda: valid_rounding(g, other, rho)) == _bytes_or_error(
                    lambda: _reference_valid(g, other, rho))


@pytest.mark.parametrize("d", [0, 1, 5, 12, 40])
def test_valid_rounding_at_its_tolerance_edge(d):
    # |g - v| equal to the tolerance passes, one ulp past it fails, on
    # both sides of the Python-float cutoff
    rho = 2.0 ** -d
    tol = 0.75 * rho + 1e-12 * rho
    for size in (1, 3, _SMALL, _SMALL + 1, 20):
        for v in (tol, -tol, np.nextafter(tol, 1.0)):
            g, vs = np.zeros(size), np.full(size, v)
            assert valid_rounding(g, vs, rho) == _reference_valid(g, vs, rho)
            assert valid_rounding(g, vs, rho) == (abs(v) <= tol)
    # a finite entry whose quotient overflows is off the grid, not an error
    for g in ([1e300], [0.0, -1e300, 0.5]):
        with np.errstate(invalid="ignore", over="ignore"):
            want = _reference_valid(np.array(g), np.zeros(len(g)), rho)
        assert valid_rounding(g, np.zeros(len(g)), rho) == want


def test_valid_rounding_rejects():
    assert valid_rounding([0.25], [0.3], 0.125)
    assert not valid_rounding([0.26], [0.3], 0.125)  # off grid
    assert not valid_rounding([0.5], [0.3], 0.125)   # too far


class TestRecovery:
    def test_scalar(self):
        got = recover_batch_average(0.55, 2, 0.125)
        assert (got.numerator, got.denominator) == (1, 2)

    def test_vector(self):
        got = recover_batch_average(np.array([0.0, 1.0, -0.49]), 2, 0.125)
        assert [(g.numerator, g.denominator) for g in got] == [(0, 2), (2, 2), (-1, 2)]

    def test_tolerance_contract(self):
        with pytest.raises(ToleranceError):
            recover_batch_average(0.5, 2, 0.25)

    def test_exhaustive_small_batches_with_worst_noise(self):
        # recovery must be exact for every count under noise at +-tau
        for b in range(1, 9):
            tau = 2.0 ** -math.ceil(math.log2(2 * b) + 1e-9)
            if not tau < 1 / (2 * b):
                tau /= 2
            for k in range(-b, b + 1):
                for noise in (-tau, 0.0, tau):
                    v = k / b + noise
                    got = recover_batch_average(v, b, tau)
                    assert got.numerator == k
