"""Finite learning problems over bit-vector inputs with binary labels.

A distribution is an explicit probability table over distinct labelled
examples.  Population quantities are computed by exact summation over
the table; sampling is inverse-CDF driven so a seed fully determines a
batch.  The joint sample is ordered (y, x_1, ..., x_n) wherever a
prefix over the joint bits is needed.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_SUPPORT = 1 << 16
PROB_TOL = 1e-12

__all__ = [
    "MAX_SUPPORT",
    "Example",
    "Batch",
    "FiniteDistribution",
    "SquareLoss",
    "SQUARE_LOSS",
    "ZeroPredictor",
    "TablePredictor",
    "ParityPredictor",
    "clip_predictor",
    "sample_batch",
    "joint_bit_matrix",
    "population_loss",
    "prefix_probability",
    "load_distribution",
    "save_distribution",
]


@dataclass(frozen=True)
class Example:
    """One labelled input: x in {0,1}^n, y in {0,1}."""

    x: tuple[int, ...]
    y: int
    _shared = weakref.WeakValueDictionary()  # no annotation: not a field

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.x):
            raise ValueError(f"input bits must be 0/1, got {self.x!r}")
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0/1, got {self.y!r}")

    @property
    def n(self) -> int:
        return len(self.x)

    def joint_bits(self) -> tuple[int, ...]:
        """The joint sample z = (y, x_1, ..., x_n)."""
        return (self.y, *self.x)

    def joint_code(self) -> int:
        """Integer with z_1 = y as the most significant bit."""
        code = self.__dict__.get("_code")
        if code is None:  # frozen, so worked out once
            code = self.y
            for b in self.x:
                code = (code << 1) | b
            object.__setattr__(self, "_code", code)
        return code

    @classmethod
    def from_joint_bits(cls, z: tuple[int, ...]) -> "Example":
        """The example with joint bits z; equal ones share one object."""
        return cls._shared.setdefault(z, cls(x=z[1:], y=z[0]))


@dataclass(frozen=True)
class Batch:
    items: tuple[Example, ...]
    draw_seed: int | None = None

    def __len__(self) -> int:
        return len(self.items)


def _normalize_prefix(s) -> tuple[int, ...]:
    if isinstance(s, str):
        if any(c not in "01" for c in s):
            raise ValueError(f"prefix string must be over 0/1, got {s!r}")
        return tuple(int(c) for c in s)
    bits = tuple(int(b) for b in s)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"prefix bits must be 0/1, got {s!r}")
    return bits


class FiniteDistribution:
    """Explicit finite distribution over labelled examples.

    Entries must be distinct examples with positive probabilities that
    sum to 1 within 1e-12.  The support is capped at 2**16 entries.
    """

    def __init__(self, n: int, entries: list[tuple[Example, float]]):
        if not entries:
            raise ValueError("distribution needs at least one entry")
        if len(entries) > MAX_SUPPORT:
            raise ValueError(f"support of {len(entries)} exceeds {MAX_SUPPORT}")
        seen = set()
        probs = []
        for ex, p in entries:
            if ex.n != n:
                raise ValueError(f"example {ex} has dimension {ex.n}, expected {n}")
            if ex in seen:
                raise ValueError(f"duplicate example {ex}")
            seen.add(ex)
            if not p > 0:
                raise ValueError(f"probability {p} must be positive")
            probs.append(float(p))
        total = float(sum(probs))
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.n = n
        self.entries: tuple[tuple[Example, float], ...] = tuple(
            (ex, float(p)) for (ex, _), p in zip(entries, probs)
        )
        self.support: tuple[Example, ...] = tuple(ex for ex, _ in self.entries)
        self.probs: np.ndarray = np.array(probs, dtype=float)
        self.cdf: np.ndarray = np.cumsum(self.probs)
        self.cdf[-1] = 1.0
        self.joint_codes: np.ndarray = np.array(
            [ex.joint_code() for ex in self.support], dtype=np.int64
        )
        self.joint_bits: np.ndarray = joint_bit_matrix(self.support)
        self.joint_bits.setflags(write=False)  # shared by oracles and runs

    def __len__(self) -> int:
        return len(self.support)

    def draw_indices(self, rng: np.random.Generator, b: int) -> np.ndarray:
        """Support indices of b i.i.d. inverse-CDF draws from rng."""
        idx = self.cdf.searchsorted(rng.random(b), side="right")
        return np.minimum(idx, len(self.support) - 1)

    def expectation(self, f) -> float:
        """Exact sum of f(example) weighted by the table."""
        return float(sum(p * f(ex) for ex, p in self.entries))

    @classmethod
    def point_mass(cls, example: Example) -> "FiniteDistribution":
        return cls(example.n, [(example, 1.0)])

    @classmethod
    def uniform_over(cls, examples: list[Example]) -> "FiniteDistribution":
        if not examples:
            raise ValueError("need at least one example")
        p = 1.0 / len(examples)
        return cls(examples[0].n, [(ex, p) for ex in examples])

    @classmethod
    def random(cls, n: int, support_size: int, seed: int) -> "FiniteDistribution":
        """Seeded distribution over distinct random examples.

        Probabilities are drawn from a Dirichlet-like normalization of
        uniforms, snapped so they sum to 1 exactly up to float addition.
        """
        if support_size > min(MAX_SUPPORT, 1 << (n + 1)):
            raise ValueError("support size too large for dimension")
        rng = np.random.default_rng(seed)
        chosen: dict[int, Example] = {}
        while len(chosen) < support_size:
            code = int(rng.integers(0, 1 << (n + 1)))
            if code in chosen:
                continue
            y = (code >> n) & 1
            x = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
            chosen[code] = Example(x, y)
        weights = rng.random(support_size) + 0.05
        weights = weights / weights.sum()
        weights[-1] = 1.0 - float(weights[:-1].sum())
        return cls(n, list(zip(chosen.values(), weights.tolist())))

    @classmethod
    def parity(cls, n: int, mask: tuple[int, ...], bias: int = 0) -> "FiniteDistribution":
        """Uniform x in {0,1}^n labelled by the parity <mask, x> xor bias."""
        if len(mask) != n:
            raise ValueError("mask length must equal n")
        entries = []
        p = 1.0 / (1 << n)
        for code in range(1 << n):
            x = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
            y = (sum(a * b for a, b in zip(mask, x)) + bias) % 2
            entries.append((Example(x, y), p))
        return cls(n, entries)


def joint_bit_matrix(examples) -> np.ndarray:
    """(k, n+1) int8 matrix of the joint bits (y first) of k examples."""
    return np.array([ex.joint_bits() for ex in examples], dtype=np.int8)


def sample_batch(D: FiniteDistribution, b: int, seed: int) -> Batch:
    """Draw b i.i.d. examples by inverse CDF; deterministic in seed."""
    if b <= 0:
        raise ValueError("batch size must be positive")
    idx = D.draw_indices(np.random.default_rng(seed), b)
    return Batch(tuple(D.support[i] for i in idx), draw_seed=seed)


class SquareLoss:
    """l(y_hat, y) = (y_hat - y)^2 / 2, with derivative y_hat - y."""

    @staticmethod
    def value(y_hat: float, y: float) -> float:
        diff = y_hat - y
        return 0.5 * diff * diff

    @staticmethod
    def derivative(y_hat: float, y: float) -> float:
        return y_hat - y


SQUARE_LOSS = SquareLoss()


class ZeroPredictor:
    """Constant 0 output; the designated failure predictor."""

    def __call__(self, x: tuple[int, ...]) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "ZeroPredictor()"


@dataclass(frozen=True)
class TablePredictor:
    table: dict = field(hash=False)
    default: float = 0.0

    def __call__(self, x: tuple[int, ...]) -> float:
        return float(self.table.get(tuple(x), self.default))


@dataclass(frozen=True)
class ParityPredictor:
    """Predicts <mask, x> xor bias over GF(2), output in {0, 1}."""

    mask: tuple[int, ...]
    bias: int = 0

    def __call__(self, x: tuple[int, ...]) -> float:
        acc = self.bias
        for a, b in zip(self.mask, x):
            acc ^= a & b
        return float(acc)


class _ClippedPredictor:
    def __init__(self, inner):
        self.inner = inner

    def __call__(self, x: tuple[int, ...]) -> float:
        v = self.inner(x)
        return -1.0 if v < -1.0 else (1.0 if v > 1.0 else float(v))

    def __repr__(self) -> str:
        return f"clip({self.inner!r})"


def clip_predictor(f) -> _ClippedPredictor:
    """Clamp a predictor's outputs to [-1, 1] for error evaluation."""
    if isinstance(f, _ClippedPredictor):
        return f
    return _ClippedPredictor(f)


def population_loss(D: FiniteDistribution, f) -> float:
    """Exact expected square loss of predictor f under D."""
    return float(sum(p * SQUARE_LOSS.value(f(ex.x), ex.y)
                     for ex, p in D.entries))


def prefix_probability(D: FiniteDistribution, s) -> float:
    """Probability that the joint sample (y, x_1, ..., x_n) starts with s."""
    bits = _normalize_prefix(s)
    ell = len(bits)
    if ell > D.n + 1:
        raise ValueError(f"prefix length {ell} exceeds n+1 = {D.n + 1}")
    if ell == 0:
        return 1.0
    s_code = 0
    for b in bits:
        s_code = (s_code << 1) | b
    shift = D.n + 1 - ell
    mask = (D.joint_codes >> shift) == s_code
    return float(D.probs[mask].sum())


def save_distribution(D: FiniteDistribution, path: str | Path) -> None:
    payload = {
        "n": D.n,
        "entries": [
            {"x": "".join(str(b) for b in ex.x), "y": ex.y, "p": p}
            for ex, p in D.entries
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_distribution(path: str | Path) -> FiniteDistribution:
    payload = json.loads(Path(path).read_text())
    n = int(payload["n"])
    entries = []
    for row in payload["entries"]:
        x = tuple(int(c) for c in row["x"])
        entries.append((Example(x, int(row["y"])), float(row["p"])))
    return FiniteDistribution(n, entries)
