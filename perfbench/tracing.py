"""In-memory span tracing around gradlab's public boundaries.

Spans are recorded from the benchmark's side only: a boundary is an
attribute (module function, class method or instance callable) that is
swapped for a timing wrapper while tracing is on and restored after.
Nothing under `src/` is edited.

A node is either one span, or, for a folded boundary, the aggregate of
every call with one name under one parent node.  Folding keeps memory
bounded for boundaries hit ~10^5 times per trial (per-example
gradients, query evaluations).  Each node keeps its inclusive time and
the part of it covered by children, so self time is the difference.
Because every closed node adds its duration to exactly one parent,
the self times of a trial's nodes add up to its root span.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Node:
    """One span, or the folded aggregate of repeated calls."""

    id: int
    name: str
    parent: int | None
    trial: object
    start: float = 0.0
    end: float = 0.0
    count: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    folded: bool = False

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Stack of open nodes plus the list of every node recorded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.nodes: list[Node] = []
        self._stack: list[int] = []
        self._folds: dict[tuple[int | None, str], int] = {}
        self.trial: object = None

    def open(self, name: str, fold: bool = False) -> int:
        parent = self._stack[-1] if self._stack else None
        if fold:
            key = (parent, name)
            nid = self._folds.get(key)
            if nid is None:
                nid = self._new(name, parent, folded=True)
                self._folds[key] = nid
        else:
            nid = self._new(name, parent, folded=False)
        self._stack.append(nid)
        return nid

    def _new(self, name: str, parent: int | None, folded: bool) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(nid, name, parent, self.trial, folded=folded))
        return nid

    def close(self, nid: int, t0: float, t1: float) -> None:
        top = self._stack.pop()
        if top != nid:
            raise RuntimeError(f"span {nid} closed while {top} is open")
        node = self.nodes[nid]
        dt = t1 - t0
        if node.count == 0:
            node.start = t0
        node.end = t1
        node.count += 1
        node.total_s += dt
        if self._stack:
            self.nodes[self._stack[-1]].child_s += dt

    @contextmanager
    def span(self, name: str, trial: object = None):
        """Full span; a root span (no parent open) starts a new trial id."""
        if not self._stack:
            self.trial = trial
        nid = self.open(name)
        t0 = self.clock()
        try:
            yield nid
        finally:
            self.close(nid, t0, self.clock())

    def wrap(self, fn, name: str, fold: bool = False):
        """Callable that times every call of fn as span `name`."""
        clock = self.clock

        def traced(*args, **kwargs):
            nid = self.open(name, fold)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(nid, t0, clock())

        return traced

    @contextmanager
    def patched(self, boundaries):
        """Swap each (owner, attribute, span name, fold) for a wrapper.

        Attributes are restored on exit, innermost first, whatever
        happens inside the block.
        """
        saved = []
        try:
            for owner, attr, name, fold in boundaries:
                original = getattr(owner, attr)
                saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self.wrap(original, name, fold))
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(n) for n in self.nodes], fh)


def self_time_gaps(nodes, root: str = "trial") -> dict:
    """Per trial: root span duration minus the sum of its nodes' self times."""
    roots = {n.trial: n for n in nodes if n.name == root and n.parent is None}
    sums = {t: 0.0 for t in roots}
    for n in nodes:
        if n.trial in sums:
            sums[n.trial] += n.self_s
    return {t: roots[t].total_s - sums[t] for t in roots}


def totals_by_name(nodes, trials) -> dict[str, tuple[int, float, float]]:
    """(calls, inclusive seconds, self seconds) per span name over trials."""
    out: dict[str, tuple[int, float, float]] = {}
    for n in nodes:
        if n.trial not in trials:
            continue
        calls, total, own = out.get(n.name, (0, 0.0, 0.0))
        out[n.name] = (calls + n.count, total + n.total_s, own + n.self_s)
    return out
