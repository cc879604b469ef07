"""Query programs compiled into models that answer them by training.

A program that alternates one-label and zero-label batch queries can be
baked into a single differentiable model whose plain minibatch SGD
trajectory executes it.  Each descent step answers one query: the
(clipped, rounded) batch gradient writes the query's batch average into
a reserved parameter block, while a chain of clock parameters advances
so the next step poses the next query.  Once every round has run, the
model's output switches to the program's final predictor.

The model is exactly gated: inactive rounds sit inside a clock gate
whose value and partial derivatives all vanish, so one descent step
touches one parameter block and everything else is provably frozen.
Query generators consume parameter blocks only after snapping them to
the response grid, and declare zero gradient with respect to those
inputs; tiny probes (finite differences) therefore cannot change which
query is generated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RoundingOracle, grid_exponent, round_nearest_multiple
from .paradigms import (
    BSGDRoundInfo,
    DiffModel,
    LabelRestriction,
    MethodRun,
    PadTail,
    QueryProgram,
    RoundBlock,
    SQQuery,
    _IntBits,
    _ValueStore,
    _block_rows,
    round_restriction,
    run_bsgd,
)
from .problems import (SQUARE_LOSS, Example, FiniteDistribution,
                       joint_bit_matrix)

__all__ = [
    "ClockRegionError",
    "SnapBoundError",
    "TrajectoryAudit",
    "TrajectoryAuditor",
    "TrajectoryError",
    "build_single_query_model",
    "central_loss_fd",
    "clock_gate",
    "compile_program",
    "gradient_check",
    "round_restriction",
    "snap_responses",
    "train_audited",
]


class ClockRegionError(RuntimeError):
    """A clock coordinate landed in the dead zone between its regions."""


def _clock_error(v: float, half: float, rho: float) -> ClockRegionError:
    """The error for a clock value in neither region: NaN or the dead zone."""
    return ClockRegionError(f"clock value {v} " + (
        "is not a number" if v != v else f"in the dead zone ({half}, {rho})"))


class SnapBoundError(RuntimeError):
    """A response drifted further from the grid than the construction allows."""


class TrajectoryError(RuntimeError):
    """A training trajectory broke one of the compiled-model guarantees."""


def clock_gate(a1: float, a2: float, a3: float,
               rho: float) -> tuple[float, tuple[float, float, float]]:
    """Three-region gate passing a3 through exactly between two clock ticks.

    Active when the previous clock has fired (a1 >= rho) and this one
    has not (a2 <= rho/2): value a3, partials (0, 0, 1).  Zero with all
    partials zero when both clocks agree.  The gap between rho/2 and
    rho is never visited by a valid trajectory and raises.
    """
    half = rho / 2.0
    if a1 >= rho and a2 <= half:
        return float(a3), (0.0, 0.0, 1.0)
    if a1 >= rho and a2 >= rho:
        return 0.0, (0.0, 0.0, 0.0)
    if a1 <= half and a2 <= half:
        return 0.0, (0.0, 0.0, 0.0)
    if a1 != a1 or a2 != a2:
        raise _clock_error(a1 if a1 != a1 else a2, half, rho)
    raise ClockRegionError(
        f"clock pair ({a1}, {a2}) falls in the dead zone of width {half}")


def snap_responses(v, grid: float, bound: float | None = None) -> np.ndarray:
    """Snap a response vector onto its grid, policing the drift allowance.

    Valid trajectories keep recorded responses exactly on the grid, so
    any drift beyond `bound` (grid/8 unless overridden) indicates a
    construction bug rather than numerical noise, and raises.
    """
    grid_exponent(grid)
    arr = np.asarray(v, dtype=float)
    snapped = round_nearest_multiple(arr, grid)
    if arr.size:
        dist = float(np.max(np.abs(arr - snapped)))
        limit = grid / 8.0 if bound is None else float(bound)
        if dist > limit + 1e-12:
            raise SnapBoundError(
                f"response sits {dist:.3g} from the {grid} grid, "
                f"allowance {limit:.3g}")
    return snapped


def _rounded_bits(head: np.ndarray) -> _IntBits:
    """tuple(map(round, head)), in one pass when every entry is 0 or 1."""
    if ((head == 0.0) | (head == 1.0)).all():
        return _IntBits(head.astype(np.int64).tolist())
    return _IntBits(map(round, head.tolist()))


def build_single_query_model(query: SQQuery,
                             restriction: LabelRestriction | None = None,
                             epsilon: float = 2 ** -5) -> DiffModel:
    """One-step model whose single descent step answers one batch query.

    Parameters are (theta, kappa) = (query slot, clock), both starting
    at 0.  One step of precision-rho SGD with unit rate yields theta
    within epsilon + rho of the batch average of the query and kappa at
    least epsilon - rho, for any batch and any valid rounding.
    """
    if restriction is None:
        restriction = query.restriction
    label = restriction.forced_label
    if label is None:
        raise ValueError("query must carry a one-label restriction")
    if epsilon <= 0:
        raise ValueError("need epsilon > 0")
    one = label == 1
    p = query.arity
    sign = 1.0 if one else -1.0

    def features(x) -> np.ndarray:
        return query.evaluate(Example(x, label))

    def value(w: np.ndarray, x) -> float:
        inner = float(features(x) @ w[:p])
        if one:
            return inner + float(w[p]) - epsilon
        return 1.0 - inner - float(w[p]) + epsilon

    def gradient(w: np.ndarray, ex: Example) -> np.ndarray:
        feats = features(ex.x)
        inner = float(feats @ w[:p])
        f = inner + float(w[p]) - epsilon if one \
            else 1.0 - inner - float(w[p]) + epsilon
        lp = SQUARE_LOSS.derivative(f, float(ex.y))
        g = np.empty(p + 1)
        g[:p] = lp * sign * feats
        g[p] = lp * sign
        return g

    return DiffModel(dim=p + 1, random_bits=0,
                     init=lambda bits: np.zeros(p + 1),
                     value=value, loss_gradient=gradient,
                     name=f"one-step[{query.name or 'query'}]")


# ---------------------------------------------------------------------------
# compiled multi-round models


@dataclass(frozen=True)
class _Layout:
    """Parameter map: [bit block r][round blocks: p query slots + 1 clock]."""

    r: int
    p: int
    T: int

    @property
    def dim(self) -> int:
        return self.r + (self.p + 1) * self.T

    def start(self, t: int) -> int:
        return self.r + (self.p + 1) * (t - 1)

    def theta(self, w: np.ndarray, t: int) -> np.ndarray:
        s = self.start(t)
        return w[s:s + self.p]

    def kappa_index(self, t: int) -> int:
        return self.start(t) + self.p


class _ProgramCursor:
    """Forward-only replay of a program run fed snapped responses.

    Wraps the single mutable run a compiled model consults; everything
    it is fed is deterministic, so restarting from the same bits and
    responses always reproduces the same queries and predictor.  A
    compiled model's replay also keeps the vector `w` it last read, the
    active round found there (`hint`), and `finished_at`, the first
    round the program left without a query.
    """

    def __init__(self, prog: QueryProgram, bits: tuple[int, ...]):
        self.prog = prog
        self.run = prog.start(bits)
        self.w: np.ndarray | None = None
        self.hint = 1
        self.fed = 0
        self.finished_at: int | None = None
        self.pending: SQQuery | None = None
        self.fetched = False
        self._predictor = None

    def query(self, t: int) -> SQQuery | None:
        """Round-t query, or None once the program has finished early."""
        if t != self.fed + 1:
            raise TrajectoryError(
                f"cursor at round {self.fed + 1} asked for round {t}")
        if not self.fetched:
            if self.finished_at is None:
                q = self.run.next_query()
                if q is None:
                    self.finished_at = t
                else:
                    want = round_restriction(t)
                    if q.restriction is not want:
                        raise TrajectoryError(
                            f"round {t} emitted a {q.restriction.value} "
                            f"query; the alternating discipline needs "
                            f"{want.value}")
                    if q.arity != self.prog.arity:
                        raise TrajectoryError(
                            f"round {t} query arity {q.arity} != "
                            f"{self.prog.arity}")
                    self.pending = q
            self.fetched = True
        return self.pending

    def feed(self, t: int, response: np.ndarray) -> None:
        q = self.query(t)
        if q is not None:
            self.run.receive(np.asarray(response, dtype=float))
            self._predictor = None
        self.fed += 1
        self.pending = None
        self.fetched = False

    def skip_finished(self, upto: int) -> None:
        """Feed the pad rounds of a finished run up to round `upto`."""
        self.fed = upto
        self.pending = None
        self.fetched = False

    def predictor(self):
        if self._predictor is None:
            self._predictor = self.run.predictor()
        return self._predictor


class _CompiledCore:
    """Shared state and arithmetic behind a compiled model's callables.

    Every answer is a function of the parameter vector alone.  The one
    program replay serves the vector it last read, and any vector that
    agrees with that one on every block the replay has consumed; any
    other vector gets a fresh replay.
    """

    def __init__(self, prog: QueryProgram, rho: float):
        self.prog = prog
        self.rho = float(rho)
        self.eps = 2.0 * self.rho
        self.layout = _Layout(r=prog.random_bits, p=prog.arity,
                              T=prog.rounds)
        self._cursor: _ProgramCursor | None = None

    # -- clock scan

    def _locate(self, w: np.ndarray) -> tuple[_ProgramCursor, int]:
        """The replay serving w, and w's active round (T+1: training done).

        The scan walks the clocks from the replay's last active round.
        On a vector the replay has not read yet it starts at the first
        round the replay has not consumed (every clock before it sits in
        the agreeing prefix), and it checks every clock after the active
        round in one pass, so a copy or a probe fails with the same
        error wherever its clocks went wrong.
        """
        cur = self._cursor
        if cur is not None and cur.w is w:
            cur.hint = i = self._walk(w, cur.hint)
            return cur, i
        if cur is not None:
            n = self.layout.start(cur.fed + 1)
            if not np.array_equal(w[:n], cur.w[:n]):
                cur = None
        if cur is None:
            cur = _ProgramCursor(self.prog, _rounded_bits(w[:self.layout.r]))
        i = self._walk(w, cur.fed + 1)
        self._check_later_clocks(w, i)
        cur.w, cur.hint = w, i
        self._cursor = cur
        return cur, i

    def _walk(self, w: np.ndarray, i: int) -> int:
        """Round whose gate is open, walking the clocks from round i."""
        lay = self.layout
        T = lay.T
        rho = self.rho
        half = 0.5 * rho
        stride = lay.p + 1
        while True:
            prev = 1.0 if i == 1 else w[lay.r + stride * (i - 1) - 1]
            here = 0.0 if i == T + 1 else w[lay.r + stride * i - 1]
            if prev >= rho:
                if here <= half:
                    nxt = w[lay.r + stride * (i + 1) - 1] if i < T else 0.0
                    if nxt > half:  # the next clock must still be cold
                        if nxt < rho:
                            raise _clock_error(nxt, half, rho)
                        raise TrajectoryError(
                            f"clock {i + 1} fired before clock {i}")
                    return i
                if here >= rho:
                    i += 1
                    if i <= T and w[lay.r + stride * i - 1] >= rho:
                        # several clocks fired since the last call (a pad
                        # pass): pass over all of them in one search
                        clocks = w[lay.r + stride * i - 1:
                                   lay.r + stride * T:stride]
                        unfired = np.flatnonzero(~(clocks >= rho))
                        i += int(unfired[0]) if unfired.size else T + 1 - i
                    continue
                raise _clock_error(here, half, rho)
            if not prev <= half:
                raise _clock_error(prev, half, rho)
            raise TrajectoryError("no active round: clocks out of order")

    def _check_later_clocks(self, w: np.ndarray, i: int) -> None:
        """Every clock after active round i must still be cold."""
        lay = self.layout
        rho = self.rho
        half = 0.5 * rho
        later = w[lay.kappa_index(i + 1)::lay.p + 1]
        warm = np.flatnonzero(~(later <= half))
        if warm.size:
            j = i + 1 + int(warm[0])
            v = float(later[warm[0]])
            if not v >= rho:
                raise _clock_error(v, half, rho)
            raise TrajectoryError(f"clock {j} fired before clock {j - 1}")

    # -- program replay

    def _snapped_block(self, w: np.ndarray, t: int) -> np.ndarray:
        blk = self.layout.theta(w, t)
        if not blk.any():
            # untouched blocks (pads and not-yet-active rounds) skip the snap
            return np.zeros(self.layout.p)
        return snap_responses(blk, self.rho)

    def _feed(self, cur: _ProgramCursor, w: np.ndarray,
              upto: int) -> _ProgramCursor:
        while cur.fed < upto:
            if cur.finished_at is not None:
                self._skip_pads(cur, w, upto)
                break
            t = cur.fed + 1
            cur.feed(t, self._snapped_block(w, t))
        return cur

    def _skip_pads(self, cur: _ProgramCursor, w: np.ndarray,
                   upto: int) -> None:
        """Feed a finished cursor its pad blocks up to `upto` at once.

        Untouched blocks need no snap; touched ones still go through
        snap_responses in round order, so the first one that drifted
        raises as it would fed one by one.
        """
        lay = self.layout
        stride = lay.p + 1
        blocks = w[lay.start(cur.fed + 1):lay.r + stride * upto]
        blocks = blocks.reshape(-1, stride)[:, :lay.p]
        for row in np.flatnonzero(blocks.any(axis=1)):
            snap_responses(blocks[row], self.rho)
        cur.skip_finished(upto)

    def _query(self, cur: _ProgramCursor, w: np.ndarray,
               t: int) -> SQQuery | None:
        """Round-t query; None for the pad rounds past the finish."""
        fin = cur.finished_at
        if fin is not None and t >= fin:
            return None
        return self._feed(cur, w, t - 1).query(t)

    # -- model callables

    def init(self, bits: tuple[int, ...]) -> np.ndarray:
        lay = self.layout
        if len(bits) != lay.r:
            raise ValueError(f"need {lay.r} bits, got {len(bits)}")
        w = np.zeros(lay.dim)
        w[:lay.r] = bits
        return w

    def value(self, w: np.ndarray, x) -> float:
        cur, i = self._locate(w)
        lay = self.layout
        if i == lay.T + 1:
            return float(self._feed(cur, w, lay.T).predictor()(x))
        q = self._query(cur, w, i)
        kap = float(w[lay.kappa_index(i)])
        odd = i % 2 == 1
        inner = 0.0
        if q is not None:
            feats = q.evaluate(Example(x, 1 if odd else 0))
            inner = float(feats @ lay.theta(w, i))
        if odd:
            return inner + kap - self.eps
        return 1.0 - inner - kap + self.eps

    def pad_tail(self, w: np.ndarray) -> PadTail | None:
        """Closed form of the pad rounds from the active one on.

        Past the program's finish a round's gradient is its clock's
        alone, a function of that clock and the label.  The tail starts
        once the previous round was a pad round too, so the first pad
        round of a run trains per example.  Rounds after the active one
        stay pad rounds while their clock and the next one are cold,
        which is what the clock scan checks on the way; the tail stops
        before the first round that would fail it.
        """
        cur, i = self._locate(w)
        lay = self.layout
        if not 1 < i <= lay.T:
            return None
        if cur.finished_at is None and cur.fed < i - 1:
            self._query(cur, w, i - 1)
        fin = cur.finished_at
        if fin is None or fin >= i:
            return None
        half = 0.5 * self.rho
        coords = np.arange(lay.kappa_index(i), lay.dim, lay.p + 1)
        kap = w[coords]
        ok = kap <= half
        ok[:-1] &= ~(kap[1:] > half)
        ok[0] = True
        bad = np.flatnonzero(~ok)
        if bad.size:
            coords, kap = coords[:bad[0]], kap[:bad[0]]
        odd = (i + np.arange(len(coords))) % 2 == 1
        f = np.where(odd, kap - self.eps, 1.0 - kap + self.eps)

        def clipped(y: float) -> np.ndarray:
            d = SQUARE_LOSS.derivative(f, y)
            return np.clip(np.where(odd, d, -d), -1.0, 1.0)

        return PadTail(coords, clipped(0.0), clipped(1.0), self.rho)

    def gradient(self, w: np.ndarray, ex: Example) -> dict[int, float]:
        """`batch_gradient`'s one-row case: a dict of its held entries."""
        return _block_rows(*self.batch_gradient(
            w, (ex,), joint_bit_matrix((ex,))))[0]

    def batch_gradient(self, w: np.ndarray, items, bits: np.ndarray,
                       store: _ValueStore | None = None,
                       rows: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The loss gradients of a round's examples as one block: the
        query's values relabelled to the round's label, from the run's
        `store` (the round: pool rows `rows`) or a store over this round,
        and each row's dot with the round's block in 1-D, since a matrix
        product may round differently (a zero dot's sign never reaches f)."""
        cur, i = self._locate(w)
        lay = self.layout
        b = len(items)
        if i == lay.T + 1:
            empty = np.zeros((b, 0))
            return np.zeros(0, np.intp), empty, empty != 0.0
        kidx = lay.kappa_index(i)
        kap = float(w[kidx])
        q = self._query(cur, w, i)
        odd = i % 2 == 1
        # f with an inner product of (signed) zero, which never moves it
        f = kap - self.eps if odd else 1.0 - kap + self.eps
        feats = np.ones((b, 1 if q is None else lay.p + 1))  # clock last
        if q is not None:
            if store is None:
                store = _ValueStore(items, bits)
            vals = store.take(q, rows, items, bits, 1 if odd else 0)
            feats[:, :-1] = vals
            theta = lay.theta(w, i)
            if theta.any():
                inner = np.array([row @ theta for row in vals])
                f = (inner + kap - self.eps if odd
                     else 1.0 - inner - kap + self.eps)
            else:
                # a block not yet written: a row's dot is a signed zero,
                # unless the row holds a NaN (or an inf)
                total = float(vals.sum())
                if total - total != 0.0:
                    f = (vals * theta).sum(axis=1) + f
        slope = (f - bits[:, 0]) * (1.0 if odd else -1.0)
        coords = np.arange(kidx + 1 - feats.shape[1], kidx + 1)
        return coords, slope[:, None] * feats, feats != 0.0


def compile_program(prog: QueryProgram, rho: float) -> DiffModel:
    """Bake an alternating query program into a trainable model.

    Running precision-rho minibatch SGD with unit rate for `prog.rounds`
    steps executes the program: step t answers its round-t query with a
    validity-grade response (within 3*rho of the batch average), and the
    trained model computes the program's final predictor.  Parameter
    count is r + (arity+1)*rounds.

    The model is a pure function of its parameter vector.  It keeps one
    replay of the program for the vector it last read and reuses it for
    any vector that agrees on the blocks already replayed, so a vector
    may change in place only as a descent step changes it, in the block
    of its active round; pass anything else (a probe, an edited
    iterate) as a copy.  A round's gradients come as one block through
    `batch_gradient`; finished programs state their pad rounds through
    `pad_tail`.
    """
    grid_exponent(rho)
    if not getattr(prog, "alternating", False):
        raise ValueError("compilation needs a program marked alternating; "
                         "route others through the label-splitting transform")
    core = _CompiledCore(prog, rho)
    return DiffModel(
        dim=core.layout.dim,
        random_bits=core.layout.r,
        init=core.init,
        value=core.value,
        loss_gradient=core.gradient,
        name=f"compiled[{getattr(prog, 'name', '') or 'program'}]",
        pad_tail=core.pad_tail,
        batch_gradient=core.batch_gradient,
    )


# ---------------------------------------------------------------------------
# trajectory auditing


@dataclass
class TrajectoryAudit:
    """Aggregate evidence that training executed the program faithfully."""

    rho: float
    rounds: int = 0
    trials: int = 0
    active_rounds: int = 0
    pad_rounds: int = 0
    max_response_gap: float = 0.0
    min_clock_after_fire: float = math.inf
    max_snap_distance: float = 0.0
    clip_activations: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def unreplayed_rounds(self) -> int:
        """Rounds from a replay error to the end of its trial: every
        check but the response gap and the snap drift."""
        return self.rounds - self.active_rounds - self.pad_rounds

    @property
    def tight_snap_bound(self) -> float:
        """Enforced drift allowance: an eighth of the response grid."""
        return self.rho / 8.0

    @property
    def binding_bound(self) -> str:
        if self.max_snap_distance > self.tight_snap_bound:
            return "tight bound exceeded"
        if self.max_snap_distance > 0:
            return "tight"
        return "neither (responses exactly on grid)"

    @property
    def ok(self) -> bool:
        return not self.violations


class _RoundLog:
    """Rounds recorded by the auditor, awaiting their checks.

    `base` holds the parameters as they stood after round 1.  A round
    writes its own block, so a logged round's block is `base`'s, changed
    only by the writes that logged responses made away from their
    clocks; those are kept with the value they left behind.  Active
    rounds also keep their query's batch average (pad rounds: zero).
    Clock values come in arrays, of one round or a run of pad rounds.
    The last `unreplayed` rounds logged come after a replay error.
    """

    def __init__(self, base: np.ndarray):
        self.base = base
        self.first = 1
        self.unreplayed = 0
        self.kappas: list[np.ndarray] = []
        self.avgs: list[tuple[int, np.ndarray]] = []
        self.writes: list[tuple[int, list[tuple[int, float | None]]]] = []
        self.found: list[tuple[int, int, str]] = []

    def note_writes(self, i: int, response, top: int, w: np.ndarray) -> None:
        if not isinstance(response, dict):
            response = {j: float(v) for j, v in enumerate(response)}
        writes = [(idx, float(w[idx]) if 0 <= idx < len(w) else None)
                  for idx, v in response.items() if v != 0.0 and idx != top]
        if writes:
            self.writes.append((i, writes))


class TrajectoryAuditor:
    """Replays the program alongside training and checks every claim.

    Per round, with the update already applied: the sparse response may
    touch only the active block (everything else stays frozen at its
    initial or recorded value by induction); the active query slots
    must sit within 3*rho of the true batch average of the round's
    query (zero for the pad rounds after the program has finished); the
    active clock must have fired to at least rho; recorded responses
    must lie on the response grid.  The final round triggers a full
    parameter sweep against the recorded blocks.  A replay error is
    reported once; the rounds from it on are counted as unreplayed and
    get every check but the gap and the drift, which need the program.

    The hook records every round (clock, heavy-label count, any write
    away from the clock, the batch average of an active round's query)
    and feeds the replay; all the checks run in one pass over the
    recorded rounds at the final round, or whenever `audit` is read,
    with findings in round order.  Runs without a transcript hand `hook`
    pad passes as RoundBlocks (`takes_round_blocks`): rounds past the
    replay's finish writing only their clocks are recorded at once.
    """

    takes_round_blocks = True

    def __init__(self, prog: QueryProgram, rho: float):
        self.prog = prog
        self.rho = float(rho)
        self.layout = _Layout(r=prog.random_bits, p=prog.arity,
                              T=prog.rounds)
        self._audit = TrajectoryAudit(rho=self.rho)
        self._cursor: _ProgramCursor | None = None
        self._log: _RoundLog | None = None
        self._blocks: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._bits: np.ndarray | None = None
        self._replay_failed = False
        self._store: _ValueStore | None = None
        self._means: dict = {}

    @property
    def audit(self) -> TrajectoryAudit:
        """Findings so far, with every recorded round checked."""
        self._check()
        return self._audit

    def hook(self, info: BSGDRoundInfo | RoundBlock) -> None:
        if isinstance(info, RoundBlock):
            self._take_block(info)
        else:
            self._take_round(info)

    def _take_block(self, block: RoundBlock) -> None:
        lay = self.layout
        coords, first, k = block.coords, block.first, len(block.coords)
        i = first + np.arange(k)
        # rounds that write only their own clock; a run of them stops at
        # round T, which is checked, and leaves round 1 to reset the audit
        own = (coords == lay.kappa_index(1) + (lay.p + 1) * (i - 1)) \
            & (i > 1) & (i != lay.T + 1)
        w = block.w.copy()
        w[coords] = block.before
        j = 0
        while j < k:
            cur = self._cursor
            if not (own[j] and cur and cur.finished_at is not None):
                c, row = int(coords[j]), block.rows[j]
                w[c] = block.after[j]
                self._take_round(BSGDRoundInfo(int(i[j]), tuple(
                    [block.pool[x] for x in row.tolist()]),
                    {c: float(block.avg[j])}, {c: float(block.response[j])},
                    w, None if block.pool_bits is None
                    else block.pool_bits[row], row, block.pool_bits))
                j += 1
                continue
            stop = j + int(np.argmin(np.append(own[j:], False)))
            w[coords[j:stop]] = block.after[j:stop]
            audit, log, n = self._audit, self._log, stop - j
            audit.rounds += n
            audit.pad_rounds += n
            log.kappas.append(block.after[j:stop])
            audit.clip_activations += int((block.labels[block.rows[j:stop]]
                                           == i[j:stop, None] % 2).sum())
            j = stop
            if i[j - 1] == lay.T:
                self._check()
                self._final_sweep(w)

    def _take_round(self, info: BSGDRoundInfo) -> None:
        lay = self.layout
        i = info.index
        w = info.w
        audit = self._audit
        if i == 1:
            self._check()
            self._bits = w[:lay.r].copy()
            self._cursor = _ProgramCursor(
                self.prog, _rounded_bits(self._bits))
            self._log = _RoundLog(w.copy())
            self._blocks = []
            self._replay_failed = False
            self._store = None
            audit.trials += 1
        audit.rounds += 1
        log = self._log
        top = lay.r + (lay.p + 1) * i - 1
        response = info.response
        if (type(response) is not dict or len(response) != 1
                or top not in response):
            log.note_writes(i, response, top, w)
        cur = self._cursor
        query = None
        if not self._replay_failed and cur.finished_at is None:
            try:
                query = cur.query(i)
            except TrajectoryError as err:
                log.found.append((i, 1, str(err)))
                self._replay_failed = True
        if self._replay_failed:
            log.unreplayed += 1
        elif query is None:
            audit.pad_rounds += 1
        else:
            audit.active_rounds += 1
            log.avgs.append((i - log.first, self._batch_average(query, info)
                             if info.batch else np.zeros(lay.p)))
        log.kappas.append(np.array([w[top]]))
        # pre-update output is constant in x, so the per-example loss slope
        # hits 1 + eps exactly on the off-label examples of the round
        labels = (info.bits[:, 0] if info.bits is not None
                  else [ex.y for ex in info.batch])
        ones = int(np.count_nonzero(labels))
        audit.clip_activations += ones if i % 2 else len(labels) - ones
        if query is not None:
            theta = w[top - lay.p:top]
            cur.feed(i, round_nearest_multiple(theta, self.rho)
                     if theta.any() else np.zeros(lay.p))
        if i == lay.T:
            self._check()
            self._final_sweep(w)

    def _batch_average(self, query: SQQuery, info: BSGDRoundInfo
                       ) -> np.ndarray:
        """The round's query averaged over its batch.  Given the pool's
        rows, the values come from the trial's own store over that pool,
        and a whole-pool round averages each key once."""
        if info.pool_bits is None:
            return np.mean(query.evaluate(info.batch, info.bits), axis=0)
        store = self._store
        if store is None or store.bits is not info.pool_bits:
            store = self._store = _ValueStore(None, info.pool_bits)
            self._means = {}
        whole = info.rows is None and query.key is not None
        mean = self._means.get(query.key) if whole else None
        if mean is None:
            mean = np.mean(store.take(query, info.rows, info.batch,
                                      info.bits), axis=0)
            if whole:
                self._means[query.key] = mean
        return mean

    def _check(self) -> None:
        """Run every check on the rounds recorded since the last one."""
        log = self._log
        if log is None or not (log.kappas or log.writes or log.found):
            return
        lay = self.layout
        p, stride = lay.p, lay.p + 1
        first, k = log.first, sum(map(len, log.kappas))
        found = log.found
        s = lay.start(first)
        theta = log.base[s:s + stride * k].reshape(k, stride)[:, :p].copy()
        for t, writes in log.writes:
            base = lay.start(t)
            top = base + p
            for idx, after in writes:
                if not base <= idx <= top:
                    found.append((t, 0, f"round {t} wrote parameter {idx} "
                                        f"outside its block [{base}, {top}]"))
                if after is None:
                    continue
                log.base[idx] = after
                block, col = divmod(idx - lay.r, stride)
                row = block + 1 - first
                if idx >= lay.r and col < p and t - first <= row < k:
                    theta[row, col] = after
        kappa = np.concatenate(log.kappas) if log.kappas else np.zeros(0)
        gap = np.zeros(k)
        drift = np.zeros(k)
        touched = theta.any(axis=1)
        touched[k - log.unreplayed:] = False  # no program, no gap or drift
        avg = np.zeros((k, p))
        active = np.zeros(k, dtype=bool)
        for row, a in log.avgs:
            avg[row] = a
            active[row] = True
        rows = np.flatnonzero(touched | active)
        if p and rows.size:
            gap[rows] = np.abs(theta[rows] - avg[rows]).max(axis=1)
        rows = np.flatnonzero(touched)
        if rows.size:
            blocks = theta[rows]
            drift[rows] = np.abs(
                blocks - round_nearest_multiple(blocks, self.rho)).max(axis=1)
        audit = self._audit
        # NaN never wins a comparison, as in per-round updates
        top_gap = gap[gap == gap]
        if top_gap.size and top_gap.max() > audit.max_response_gap:
            audit.max_response_gap = float(top_gap.max())
        top_drift = drift[drift == drift]
        if top_drift.size and top_drift.max() > audit.max_snap_distance:
            audit.max_snap_distance = float(top_drift.max())
        if k:
            low = int(np.argmin(np.where(kappa == kappa, kappa, np.inf)))
            if kappa[low] < audit.min_clock_after_fire:
                audit.min_clock_after_fire = float(kappa[low])
        for row in np.flatnonzero(gap > 3.0 * self.rho + 1e-12).tolist():
            found.append((first + row, 2,
                          f"round {first + row} response sits "
                          f"{float(gap[row]):.3g} from the batch average, "
                          f"above 3*rho = {3 * self.rho}"))
        for row in np.flatnonzero(kappa < self.rho).tolist():
            found.append((first + row, 3,
                          f"round {first + row} clock reached only "
                          f"{float(kappa[row])}, below rho"))
        found.sort(key=lambda f: f[:2])
        audit.violations.extend(f[2] for f in found)
        self._blocks.append((first, theta, kappa))
        log.first += k
        log.unreplayed = 0
        log.kappas = []
        log.avgs = []
        log.writes = []
        log.found = []

    def _final_sweep(self, w: np.ndarray) -> None:
        lay = self.layout
        stride = lay.p + 1
        expect = np.zeros(lay.dim)
        expect[:lay.r] = self._bits
        for first, theta, kappa in self._blocks:
            s = lay.start(first)
            view = expect[s:s + stride * len(kappa)].reshape(-1, stride)
            view[:, :lay.p] = theta
            view[:, lay.p] = kappa
        mismatch = np.flatnonzero(np.abs(w - expect) > 1e-12)
        for idx in mismatch[:8]:
            self._audit.violations.append(
                f"parameter {int(idx)} ended at {w[idx]!r}, expected "
                f"{expect[idx]!r}: some round touched a frozen block")

    def check(self) -> TrajectoryAudit:
        audit = self.audit
        if audit.violations:
            raise TrajectoryError(
                "trajectory claims failed:\n  "
                + "\n  ".join(audit.violations[:12]))
        return audit


def train_audited(model: DiffModel, prog: QueryProgram,
                  D: FiniteDistribution, b: int, *, rho: float,
                  gamma: float = 1.0, seed: int = 0,
                  rounding: RoundingOracle | None = None,
                  record: bool = False) -> tuple[MethodRun, TrajectoryAudit]:
    """Run the compiled model's full training loop under the auditor."""
    auditor = TrajectoryAuditor(prog, rho)
    out = run_bsgd(model, D, prog.rounds, rho, b, gamma, rounding, seed,
                   record=record, hook=auditor.hook)
    return out, auditor.check()


# ---------------------------------------------------------------------------
# gradient verification


def central_loss_fd(model: DiffModel, w: np.ndarray, ex: Example, coord: int,
                    h: float = 1e-6) -> float:
    """Symmetric finite difference of the per-example loss along one axis.

    Falls back to a one-sided difference when a probe direction lands in
    a clock dead zone (possible only off-trajectory).
    """

    def at(delta: float) -> float:
        probe = w.copy()
        probe[coord] += delta
        return SQUARE_LOSS.value(model.value(probe, ex.x), float(ex.y))

    try:
        return (at(h) - at(-h)) / (2.0 * h)
    except ClockRegionError:
        center = SQUARE_LOSS.value(model.value(w, ex.x), float(ex.y))
        try:
            return (at(h) - center) / h
        except ClockRegionError:
            return (center - at(-h)) / h


def gradient_check(model: DiffModel, w: np.ndarray, ex: Example,
                   coords=None, h: float = 1e-6, rtol: float = 1e-5,
                   zero_tol: float = 1e-7) -> dict:
    """Compare analytic per-example gradients against finite differences.

    Coordinates the model reports (nonzero analytic value) must match
    within relative tolerance; coordinates it omits or reports as zero
    must show a finite difference no larger than `zero_tol`.  Returns a
    summary dict; raises AssertionError on the first failure.
    """
    g = model.loss_gradient(w, ex)
    if isinstance(g, dict):
        dense = {int(k): float(v) for k, v in g.items()}
    else:
        dense = {j: float(v) for j, v in enumerate(np.asarray(g))
                 if v != 0.0}
    if coords is None:
        coords = range(model.dim)
    worst_rel = 0.0
    worst_zero = 0.0
    checked = 0
    for j in coords:
        fd = central_loss_fd(model, w, ex, j, h)
        analytic = dense.get(j, 0.0)
        checked += 1
        if analytic != 0.0:
            rel = abs(fd - analytic) / max(abs(analytic), 1e-12)
            worst_rel = max(worst_rel, rel)
            assert rel <= rtol, (
                f"coordinate {j}: analytic {analytic}, fd {fd}, "
                f"relative error {rel:.3g}")
        else:
            worst_zero = max(worst_zero, abs(fd))
            assert abs(fd) <= zero_tol, (
                f"coordinate {j} asserted zero but fd = {fd:.3g}")
    return {"checked": checked, "max_rel_err": worst_rel,
            "max_zero_fd": worst_zero}
