"""Tests for the benchmark's own helpers and output checks.

    python3 -m pytest perfbench -q

Corruption tests alter only a value returned to the benchmark, never
gradlab itself.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from stats import quartile_spread, tail_percentile
from tracing import Tracer, self_time_gaps, totals_by_name

HERE = Path(__file__).resolve().parent


# --- tail percentile --------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(range(10)) is None
    pct, value = tail_percentile(range(11))
    assert value == 0 and pct == pytest.approx(100 / 11)


def test_tail_leaves_exactly_ten_above():
    samples = list(np.random.default_rng(0).permutation(100) + 1)
    pct, value = tail_percentile(samples)
    assert (pct, value) == (90.0, 90)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_with_fewer_beyond_requested():
    pct, value = tail_percentile([5, 1, 4, 2, 3], beyond=1)
    assert (pct, value) == (80.0, 4)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(4 / 4)


# --- spans and self time ----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_nested_and_folded():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(0.5)

    folded_leaf = tracer.wrap(leaf, "leaf", fold=True)

    def middle():
        clock.advance(1.0)
        folded_leaf()
        folded_leaf()
        clock.advance(1.0)

    full_middle = tracer.wrap(middle, "middle")
    with tracer.span("trial", trial=7):
        clock.advance(2.0)
        full_middle()
        folded_leaf()
        full_middle()
        clock.advance(3.0)

    nodes = {(n.name, n.parent): n for n in tracer.nodes}
    trial = nodes[("trial", None)]
    assert trial.total_s == 2.0 + 3.0 + 0.5 + 3.0 + 3.0
    # two middle spans, each with one folded leaf node of two calls
    middles = [n for n in tracer.nodes if n.name == "middle"]
    assert len(middles) == 2
    for m in middles:
        assert m.total_s == 3.0 and m.self_s == 2.0
        leaf_node = nodes[("leaf", m.id)]
        assert leaf_node.folded and leaf_node.count == 2
        assert leaf_node.total_s == 1.0 and leaf_node.self_s == 1.0
    direct = nodes[("leaf", trial.id)]
    assert direct.count == 1 and direct.total_s == 0.5
    assert trial.self_s == 5.0
    assert self_time_gaps(tracer.nodes) == {7: 0.0}
    assert sum(n.self_s for n in tracer.nodes) == trial.total_s
    totals = totals_by_name(tracer.nodes, {7})
    assert totals["leaf"] == (5, 2.5, 2.5)
    assert totals["middle"] == (2, 6.0, 4.0)


def test_span_closes_on_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    traced = tracer.wrap(boom, "boom")
    with pytest.raises(ValueError):
        with tracer.span("trial", trial=0):
            traced()
    assert [n.count for n in tracer.nodes] == [1, 1]
    assert self_time_gaps(tracer.nodes) == {0: 0.0}


def test_patched_restores_every_kind_of_attribute():
    module = types.ModuleType("m")
    module.f = lambda: "module"

    class Owner:
        def method(self):
            return "class"

    inst = Owner()
    holder = types.SimpleNamespace(g=lambda: "instance")
    tracer = Tracer()
    originals = (module.f, Owner.__dict__["method"], holder.g)
    with pytest.raises(RuntimeError):
        with tracer.patched([(module, "f", "f", False),
                             (Owner, "method", "method", True),
                             (inst, "method", "bound", False),
                             (holder, "g", "g", False)]):
            with tracer.span("trial", trial=0):
                assert (module.f(), inst.method(), holder.g()) \
                    == ("module", "class", "instance")
            raise RuntimeError("leave the block")
    assert (module.f, Owner.__dict__["method"], holder.g) == originals
    assert "method" not in vars(inst)
    names = sorted(n.name for n in tracer.nodes)
    assert names == ["bound", "f", "g", "method", "trial"]


# --- output checks ----------------------------------------------------------


@pytest.fixture(scope="module")
def extract_wl():
    return wl.ExtractWorkload(3)


def test_extract_checks_flag_corruption(extract_wl):
    out = extract_wl.trial(wl.derive_seed(3, 0, 0))
    assert extract_wl.check(out) is None
    assert len(out.value) == extract_wl.m
    outside = next(code for code in range(1 << (extract_wl.n + 1))
                   if code not in extract_wl.codes)
    y = outside >> extract_wl.n
    x = tuple((outside >> (extract_wl.n - 1 - k)) & 1
              for k in range(extract_wl.n))
    examples = list(out.value)
    examples[3] = type(examples[3])(x, y)
    assert "not in the support" in extract_wl.check(wl.Outcome(examples))
    assert "returned" in extract_wl.check(wl.Outcome(out.value[1:]))


def test_extract_tv_check(extract_wl):
    exact = wl.problems.sample_batch(extract_wl.D, 2000, seed=11).items
    chunks = [wl.Outcome(list(exact[i:i + 8])) for i in range(0, 2000, 8)]
    assert extract_wl.run_checks(chunks) == []
    stuck = [wl.Outcome([exact[0]] * 8) for _ in chunks]
    assert "TV" in extract_wl.run_checks(stuck)[0]


def test_tv_bound_shrinks_with_trials():
    assert wl.tv_bound(256, 10_000) < wl.tv_bound(256, 100) / 5


@pytest.fixture(scope="module")
def fbgd_wl():
    return wl.FBGDPipelineWorkload(3)


def test_pipeline_checks_flag_corruption(fbgd_wl):
    out = fbgd_wl.trial(wl.derive_seed(3, 0, 0))
    assert fbgd_wl.check(out) is None
    audit, loss = out.value
    short = copy.deepcopy(audit)
    short.rounds -= 1
    assert "rounds" in fbgd_wl.check(wl.Outcome((short, loss)))
    broken = copy.deepcopy(audit)
    broken.violations.append("round 3 wrote parameter 0 outside its block")
    assert fbgd_wl.check(wl.Outcome((broken, loss))).startswith("audit")


def test_pipeline_loss_check(fbgd_wl):
    outs = [fbgd_wl.trial(wl.derive_seed(3, 0, i)) for i in range(4)]
    assert fbgd_wl.run_checks(outs) == []
    wrong = [wl.Outcome((o.value[0], 1.0)) for o in outs]
    assert "mean loss" in fbgd_wl.run_checks(wrong)[0]


@pytest.fixture(scope="module")
def emulation_wl():
    return wl.EmulationWorkload(3)


@pytest.fixture(scope="module")
def emulation_out(emulation_wl):
    return emulation_wl.trial(wl.derive_seed(3, 0, 0))


def _with(out, index, value):
    parts = list(out.value)
    parts[index] = value
    return wl.Outcome(tuple(parts))


def test_emulation_passes_clean(emulation_wl, emulation_out):
    assert emulation_wl.check(emulation_out) is None
    assert emulation_out.counters["nn.frozen_edges_moved"] == 0


def test_emulation_flags_wrong_answer(emulation_wl, emulation_out):
    answers = dict(emulation_out.value[0])
    answers[(2, 1)] += 2 * emulation_wl.tau
    assert "answered" in emulation_wl.check(_with(emulation_out, 0, answers))


def test_emulation_flags_silent_clock(emulation_wl, emulation_out):
    clocks = list(emulation_out.value[1])
    clocks[-1] = 0.0
    assert "clocks" in emulation_wl.check(_with(emulation_out, 1, clocks))


def test_emulation_flags_flipped_prediction(emulation_wl, emulation_out):
    preds = list(emulation_out.value[3])
    preds[5] = 1.0 - preds[5]
    assert "prediction" in emulation_wl.check(_with(emulation_out, 3, preds))


def test_emulation_flags_moved_frozen_edge(emulation_wl, emulation_out):
    assert "frozen" in emulation_wl.check(_with(emulation_out, 5, 1))


# --- the command ------------------------------------------------------------


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_main_reports_end_to_end(capsys):
    assert run.main(["--workload", "extract", "--seed", "5",
                     "--seconds", "0.2", "--trace", "0"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_main_reports_per_layer(capsys):
    assert run.main(["--workload", "extract", "--seed", "5",
                     "--seconds", "0.4", "--trace", "1"]) == 0
    result = _last_json(capsys.readouterr().out)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["extract.examples"] == 8
    assert metrics["extract.rounds_per_example"] >= 1
    assert metrics["paradigms.query_evals"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "extract",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
