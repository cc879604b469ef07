"""Exact grid arithmetic for finite-precision gradient oracles.

Grid steps are dyadic (2**-d with d <= 40), so every multiple of a step
with magnitude at most 1 is exactly representable in float64 and all
scaling by the step is lossless.  Empirical averages of indicator
queries are carried as integer-count / batch-size pairs so that no
rounding noise enters except at the oracle boundary.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_GRID_EXPONENT = 40

__all__ = [
    "MAX_GRID_EXPONENT",
    "GridError",
    "ToleranceError",
    "GridValue",
    "EmpiricalAverage",
    "RoundingStrategy",
    "RoundingOracle",
    "grid_exponent",
    "clip1",
    "round_nearest_multiple",
    "round_approximate",
    "valid_rounding",
    "recover_batch_average",
]


class GridError(ValueError):
    """A value is not a dyadic grid step or not on its declared grid."""


class ToleranceError(ValueError):
    """A tolerance parameter violates an exactness contract."""


_DYADIC_EXPONENTS = {2.0 ** -d: d for d in range(MAX_GRID_EXPONENT + 1)}


def grid_exponent(step: float) -> int:
    """Return d such that step == 2**-d, or raise GridError.

    Only dyadic steps up to 2**-40 are admitted; beyond that the
    exactness guarantees of float64 multiples no longer hold.
    """
    if not (isinstance(step, (int, float)) and step > 0):
        raise GridError(f"grid step must be positive, got {step!r}")
    d = _DYADIC_EXPONENTS.get(step)
    if d is not None:
        return d
    mantissa, exp = math.frexp(float(step))
    if mantissa != 0.5:
        raise GridError(f"grid step {step!r} is not a power of two")
    raise GridError(
        f"grid step 2**-{1 - exp} outside supported range [1, 2**-{MAX_GRID_EXPONENT}]"
    )


@dataclass(frozen=True)
class GridValue:
    """A real value together with the dyadic grid it is claimed to lie on."""

    value: float
    grid_step: float

    def __post_init__(self) -> None:
        grid_exponent(self.grid_step)
        scaled = self.value / self.grid_step
        if abs(scaled - round(scaled)) >= 1e-12:
            raise GridError(
                f"{self.value!r} is not a multiple of grid step {self.grid_step!r}"
            )

    @property
    def quotient(self) -> int:
        return round(self.value / self.grid_step)


@dataclass(frozen=True)
class EmpiricalAverage:
    """Batch average of an integer-valued query held exactly as count / b."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("denominator must be a positive batch size")
        if abs(self.numerator) > self.denominator:
            raise ValueError(
                f"average {self.numerator}/{self.denominator} outside [-1, 1]"
            )

    @property
    def value(self) -> float:
        return self.numerator / self.denominator


class RoundingStrategy(Enum):
    NEAREST = "nearest"
    ADVERSARIAL_UP = "adversarial_up"
    ADVERSARIAL_DOWN = "adversarial_down"
    SEEDED_RANDOM = "seeded_random"


@dataclass(frozen=True)
class RoundingOracle:
    """Picks one valid rounding per call; a fixed strategy per instance.

    SEEDED_RANDOM draws uniformly among the valid grid points and is a
    pure function of (vector, step, seed): identical inputs always give
    identical outputs, with no hidden stream state.
    """

    strategy: RoundingStrategy = RoundingStrategy.NEAREST
    seed: int = 0


def clip1(v) -> np.ndarray:
    """Entrywise clamp to [-1, 1]."""
    return np.clip(np.asarray(v, dtype=float), -1.0, 1.0)


def round_nearest_multiple(v, step: float) -> np.ndarray:
    """Round each entry to the nearest multiple of step, ties away from zero."""
    d = grid_exponent(step)
    arr = np.asarray(v, dtype=float)
    vals = _small(arr)
    if vals is not None:
        try:
            return np.array(_round_small(vals, step, RoundingStrategy.NEAREST,
                                         d, None))
        except OverflowError:  # an entry scaled past the floats: numpy's inf
            pass
    return _nearest(arr, step)


def _nearest(arr: np.ndarray, step: float) -> np.ndarray:
    scaled = arr / step
    q = np.floor(np.abs(scaled) + 0.5) * np.sign(scaled)
    return q * step


def _seed_prefix(seed: int, d: int) -> bytes:
    return (b"round-approximate" + seed.to_bytes(16, "little", signed=True)
            + d.to_bytes(2, "little"))


def _seeded_choice_bits(scaled: np.ndarray, free: np.ndarray, d: int,
                        seed: int) -> np.ndarray:
    """One fair bit per free-band entry, hashed from (entry, step, seed).

    Bits are per entry, not per vector, so the choice for a coordinate
    does not depend on vector length or on the other coordinates.  That
    makes rounding of a sparse gradient agree exactly with rounding of
    its dense embedding (forced entries, zeros included, consume no
    randomness at all).
    """
    take_hi = np.zeros(scaled.shape, dtype=bool)
    if np.count_nonzero(free):
        prefix = _seed_prefix(seed, d)
        take_hi[free] = [
            hashlib.sha256(prefix + struct.pack("<d", val)).digest()[0] & 1
            for val in scaled[free].tolist()]
    return take_hi


# Inputs of up to this many entries take a loop over Python floats,
# which computes the numpy path's floats for less per call; longer,
# multi-dimensional or non-finite inputs take numpy.  Nearest rounding
# costs the same on both paths at 14-16 entries (timeit, 1-d, 2 vCPUs).
_SMALL = 14


def _small(arr: np.ndarray) -> list[float] | None:
    """The entries of a short, finite, nonempty 1-d array, or None."""
    if arr.ndim != 1 or not 0 < len(arr) <= _SMALL:
        return None
    vals = arr.tolist()
    total = sum(vals)
    return vals if total - total == 0.0 else None  # else NaN or infinite


def round_approximate(v, rho: float, oracle: RoundingOracle | None = None) -> np.ndarray:
    """Return a valid rho-approximate rounding of v chosen by the oracle.

    The output g satisfies g in rho*Z entrywise and ||g - v||_inf <= 3*rho/4.
    Entries strictly inside the band (q*rho - rho/4, q*rho + rho/4) are
    forced to q*rho; entries in [q*rho + rho/4, q*rho + 3*rho/4] may go to
    either neighbour, and the strategy decides which.
    """
    d = grid_exponent(rho)
    arr = np.asarray(v, dtype=float)
    strategy = RoundingStrategy.NEAREST if oracle is None else oracle.strategy
    vals = _small(arr)
    if vals is not None:
        if max(map(abs, vals)) > 1.0 + 1e-9:
            raise ValueError("round_approximate expects entries in [-1, 1]")
        return np.array(_round_small(vals, rho, strategy, d, oracle))
    if arr.size and abs(arr).max() > 1.0 + 1e-9:  # a NaN passes
        raise ValueError("round_approximate expects entries in [-1, 1]")
    if strategy is RoundingStrategy.NEAREST:
        return _nearest(arr, rho)
    # a quotient q is valid when |q - scaled| <= 3/4: at most two grid
    # points are, floor and ceil of the scaled value
    scaled = arr / rho
    lo = np.floor(scaled)
    hi = lo + 1.0
    if strategy is RoundingStrategy.ADVERSARIAL_UP:
        q = np.where(hi - scaled <= 0.75, hi, lo)
    elif strategy is RoundingStrategy.ADVERSARIAL_DOWN:
        q = np.where(scaled - lo <= 0.75, lo, hi)
    elif strategy is RoundingStrategy.SEEDED_RANDOM:
        lo_ok = scaled - lo <= 0.75
        hi_ok = hi - scaled <= 0.75
        take_hi = _seeded_choice_bits(scaled, lo_ok & hi_ok, d, oracle.seed)
        q = np.where(hi_ok & (take_hi | ~lo_ok), hi, lo)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown rounding strategy {strategy}")
    return q * rho


def _round_small(vals: list[float], rho: float, strategy: RoundingStrategy,
                 d: int, oracle: RoundingOracle | None) -> list[float]:
    """The numpy path's outputs on finite Python floats, entry by entry.

    `math.floor` is exact on floats; floor(-0.0) keeps its sign, as
    np.floor does, and np.sign(+-0.0) is +0.0.
    """
    if strategy is RoundingStrategy.NEAREST:
        return [math.floor(abs(s := x / rho) + 0.5)
                * (1.0 if s > 0 else -1.0 if s < 0 else 0.0) * rho
                for x in vals]
    scaled = [x / rho for x in vals]
    lows = [float(math.floor(s)) if s else s for s in scaled]
    if strategy is RoundingStrategy.ADVERSARIAL_UP:
        return [(lo + 1.0 if lo + 1.0 - s <= 0.75 else lo) * rho
                for s, lo in zip(scaled, lows)]
    if strategy is RoundingStrategy.ADVERSARIAL_DOWN:
        return [(lo if s - lo <= 0.75 else lo + 1.0) * rho
                for s, lo in zip(scaled, lows)]
    prefix = _seed_prefix(oracle.seed, d)
    out = []
    for s, lo in zip(scaled, lows):
        hi = lo + 1.0
        lo_ok, hi_ok = s - lo <= 0.75, hi - s <= 0.75
        take_hi = lo_ok and hi_ok and hashlib.sha256(
            prefix + struct.pack("<d", s)).digest()[0] & 1
        out.append((hi if hi_ok and (take_hi or not lo_ok) else lo) * rho)
    return out


def valid_rounding(g, v, rho: float) -> bool:
    """Check the approximate-rounding contract: on-grid and within 3*rho/4."""
    grid_exponent(rho)
    g_arr = np.asarray(g, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    gs = _small(g_arr)
    if gs is not None and v_arr.shape == g_arr.shape:
        tol = 0.75 * rho + 1e-12 * rho
        for x, y in zip(gs, v_arr.tolist()):
            s = x / rho  # infinite for a huge x, and then off the grid
            if not (s - s == 0.0 and abs(s - round(s)) < 1e-9
                    and abs(x - y) <= tol):
                return False
        return True
    scaled = g_arr / rho
    on_grid = abs(scaled - np.rint(scaled)) < 1e-9
    within = abs(g_arr - v_arr) <= 0.75 * rho + 1e-12 * rho
    return (np.count_nonzero(on_grid) == on_grid.size
            and np.count_nonzero(within) == within.size)


def recover_batch_counts(v, b: int, tau: float) -> int | list[int]:
    """Recover the exact batch counts behind a tau-noisy response.

    Valid responses sit within tau of a multiple of 1/b, so when
    tau < 1/(2b) the nearest multiple is unique and rounding recovers the
    integer count exactly.  Raises ToleranceError otherwise, and
    ValueError for a count past +-b (a NaN entry rounds to one).
    """
    if b <= 0:
        raise ValueError("batch size must be positive")
    if not tau < 1.0 / (2.0 * b):
        raise ToleranceError(
            f"recovery needs tau < 1/(2b); got tau={tau} with b={b}"
        )
    arr = np.asarray(v, dtype=float)
    counts = np.rint(arr * b).astype(int).tolist()
    for k in [counts] if arr.ndim == 0 else counts:
        if abs(k) > b:
            raise ValueError(f"average {k}/{b} outside [-1, 1]")
    return counts


def recover_batch_average(v, b: int, tau: float) -> EmpiricalAverage | list[EmpiricalAverage]:
    """The counts of `recover_batch_counts`, each held as count / b."""
    counts = recover_batch_counts(v, b, tau)
    if type(counts) is int:
        return EmpiricalAverage(counts, b)
    return [EmpiricalAverage(k, b) for k in counts]
