import json
import re

import pytest

from gradlab.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    run_experiment,
    verify_transcript,
)
from gradlab.paradigms import (
    BSQOracle,
    FBSQOracle,
    NoiseAdversary,
    SQOracle,
    SQQuery,
)
from gradlab.problems import (
    Example,
    FiniteDistribution,
    sample_batch,
    save_distribution,
)
from gradlab.reductions import ReplayOracle, build_pipeline


def four_point(n: int = 4) -> FiniteDistribution:
    pad = (0,) * (n - 4)
    pts = [((0, 0, 0, 0), 0, 0.4), ((1, 0, 1, 0), 1, 0.3),
           ((0, 1, 1, 0), 1, 0.2), ((1, 1, 1, 1), 0, 0.1)]
    return FiniteDistribution(
        n, [(Example(x + pad, y), p) for x, y, p in pts])


def run_config(tmp_path, experiment, trials, params=None, **kwargs):
    cfg = ExperimentConfig(experiment=experiment, trials=trials,
                           out=str(tmp_path / "out"),
                           params=params or {}, **kwargs)
    return cfg, run_experiment(cfg)


def read_csv(out_dir):
    text = (out_dir / "results.csv").read_text()
    schema = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:] if l]
    return schema, header, rows


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig(experiment="Bogus")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "ExtractStats",
                                        "typo_key": 1})

    def test_missing_experiment_key(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict({"trials": 3})

    def test_missing_distribution_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            ExperimentConfig(experiment="ExtractStats",
                             distribution=str(tmp_path / "nope.json"))

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "RegimeSweep",
                                    "trials": 7, "seed": 5}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.experiment == "RegimeSweep"
        assert cfg.trials == 7 and cfg.seed == 5

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_file(path)

    def test_ratio_strings(self, tmp_path):
        _, report = run_config(tmp_path, "ExtractStats", 10,
                               {"tau": "1/32", "tv_max": 0.9})
        assert report.summary["tau"] == 1 / 32
        with pytest.raises(ConfigError, match="cannot parse"):
            run_config(tmp_path, "ExtractStats", 5, {"tau": "x/y"})

    def test_precondition_gate(self, tmp_path):
        # b*tau >= 1/2 kills extraction unless explicitly waived
        with pytest.raises(ConfigError, match="out_of_regime"):
            run_config(tmp_path, "ExtractStats", 5,
                       {"b": 8, "tau": "1/16"})
        _, report = run_config(tmp_path, "ExtractStats", 5,
                               {"b": 8, "tau": "1/16", "tv_max": 1.0,
                                "rounds_max": 1e9},
                               out_of_regime=True)
        # the run happens and honestly reports the method failing
        assert len(report.rows) == 5
        assert not report.passed
        assert all(row[1] == 1.0 for row in report.rows)


class TestExtractStats:
    def test_report_files(self, tmp_path):
        cfg, report = run_config(tmp_path, "ExtractStats", 40,
                                 {"tv_max": 0.3})
        assert report.passed
        out = tmp_path / "out"
        schema, header, rows = read_csv(out)
        assert header == ["seed", "error", "rounds", "samples",
                          "violations"]
        documented = {l.split(":")[0][2:] for l in schema[1:]}
        assert documented == set(header)
        assert len(rows) == 40
        assert all(r[1] == "0.0" and r[4] == "0" for r in rows)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["experiment"] == "ExtractStats"
        assert {c["name"] for c in summary["checks"]} \
            == {"tv_distance", "mean_rounds", "failures"}

        log = (out / "run.log").read_text()
        assert "result: PASS" in log
        assert log.count("PASS") == 4

    def test_distribution_file(self, tmp_path):
        path = tmp_path / "dist.json"
        save_distribution(four_point(), path)
        cfg = ExperimentConfig(experiment="ExtractStats", trials=25,
                               out=str(tmp_path / "out"),
                               distribution=str(path),
                               params={"tv_max": 0.4})
        report = run_experiment(cfg)
        assert report.passed and report.summary["extracted"] == 25

    def test_adversary_validation(self, tmp_path):
        _, report = run_config(tmp_path, "ExtractStats", 15,
                               {"adversary": "random", "tv_max": 0.5})
        assert report.summary["adversary"] == "random"
        with pytest.raises(ConfigError, match="unknown adversary"):
            run_config(tmp_path, "ExtractStats", 5,
                       {"adversary": "chaotic"})


class TestParityEndToEnd:
    def test_small_run(self, tmp_path):
        _, report = run_config(tmp_path, "ParityEndToEnd", 2)
        assert report.passed
        assert report.summary["audit_violations"] == 0
        assert all(row[4] == 0 for row in report.rows)
        # every trial takes the full compiled round budget
        assert {row[2] for row in report.rows} \
            == {report.summary["rounds"]}

    def test_requires_compiled_stage(self, tmp_path):
        with pytest.raises(ConfigError, match="diffsim"):
            run_config(tmp_path, "ParityEndToEnd", 2,
                       method={"pipeline": ["pac_to_bsq"],
                               "payload": "parity",
                               "params": {"n": 2, "m": 3, "b": 4,
                                          "rho": 1 / 64, "delta": 0.1}})

    def test_non_dyadic_step_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="dyadic"):
            run_config(tmp_path, "ParityEndToEnd", 2, {"rho": 0.01})


class TestRegimeSweep:
    def test_monotone_default(self, tmp_path):
        _, report = run_config(tmp_path, "RegimeSweep", 200)
        assert report.passed
        _, header, rows = read_csv(tmp_path / "out")
        assert header[-1] == "validity_rate"
        rates = [float(r[-1]) for r in rows]
        assert rates == sorted(rates)
        assert [int(r[0]) for r in rows] == [2, 8, 32, 128]

    def test_rejects_other_param(self, tmp_path):
        with pytest.raises(ConfigError, match="batch-size"):
            run_config(tmp_path, "RegimeSweep", 10, {"param": "tau"})

    def test_values_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="positive"):
            run_config(tmp_path, "RegimeSweep", 10, {"values": [4, 0]})


class TestGadgetAudit:
    def test_zero_violations(self, tmp_path):
        _, report = run_config(tmp_path, "GadgetAudit", 3)
        assert report.passed
        assert all(row[4] == 0 for row in report.rows)
        assert report.summary["weight_drift_violations"] == 0

    def test_tau_regime(self, tmp_path):
        with pytest.raises(ConfigError, match="tau"):
            run_config(tmp_path, "GadgetAudit", 2, {"tau": "1/4"})


class TestReductionMatrix:
    def test_default_pairs_hold(self, tmp_path):
        _, report = run_config(tmp_path, "ReductionMatrix", 6)
        assert report.passed
        _, header, rows = read_csv(tmp_path / "out")
        assert header[5] == "pair"
        assert [r[5] for r in rows] == ["pac_to_bsq",
                                       "pac_to_bsq+bsq_alternating",
                                       "pac_to_bsq+bsq_to_sq"]


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            cfg = ExperimentConfig(experiment="ExtractStats", trials=30,
                                   out=str(tmp_path / tag),
                                   params={"tv_max": 0.4})
            run_experiment(cfg)
            blobs.append((tmp_path / tag / "results.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_log_carries_no_timestamps(self, tmp_path):
        run_config(tmp_path, "RegimeSweep", 40)
        log = (tmp_path / "out" / "run.log").read_text()
        assert not re.search(r"\d{4}-\d{2}-\d{2}", log)
        assert not re.search(r"\d{2}:\d{2}:\d{2}", log)


@pytest.fixture(scope="module")
def bsq_transcript(tmp_path_factory):
    D = four_point(4)
    oracle = BSQOracle(D, b=4, tau=0.25, seed=1)
    query = SQQuery(arity=2,
                    evaluator=lambda ex: (float(ex.y), float(ex.x[0])))
    for _ in range(5):
        oracle.ask(query)
    path = tmp_path_factory.mktemp("ver") / "bsq.jsonl"
    oracle.transcript.to_jsonl(path)
    return path


@pytest.fixture(scope="module")
def gradient_transcript(tmp_path_factory):
    D = FiniteDistribution(2, [
        (Example((0, 0), 0), 0.25), (Example((0, 1), 1), 0.25),
        (Example((1, 0), 1), 0.25), (Example((1, 1), 0), 0.25)])
    method, _ = build_pipeline(
        ["pac_to_bsq", "bsq_alternating", "diffsim"], payload="parity",
        n=2, m=3, b=4, rho=1 / 64, delta=0.4)
    out = method.run(D, seed=3, record=True)
    path = tmp_path_factory.mktemp("ver") / "traj.jsonl"
    out.transcript.to_jsonl(path)
    return path


def perturb_round(src, dst, line_index, bump):
    lines = src.read_text().splitlines()
    record = json.loads(lines[line_index])
    payload = record["response"]
    if isinstance(payload, dict):
        payload["val"][0] += bump
    else:
        payload[0] += bump
    record["response"] = payload
    lines[line_index] = json.dumps(record)
    dst.write_text("\n".join(lines) + "\n")


class TestVerify:
    def test_valid_bsq_all_pass(self, bsq_transcript):
        report = verify_transcript(bsq_transcript)
        assert report.ok and report.kind == "bsq"
        assert len(report.verdicts) == 5
        assert all(v.ok for v in report.verdicts)

    def test_single_perturbed_round_flagged(self, bsq_transcript,
                                            tmp_path):
        bad = tmp_path / "bad.jsonl"
        perturb_round(bsq_transcript, bad, 3, 2 * 0.25)
        report = verify_transcript(bad)
        assert report.flagged == 1
        flagged = [v for v in report.verdicts if not v.ok]
        assert flagged[0].index == 3

    @pytest.mark.parametrize("kind", ["sq", "fbsq", "replay"])
    def test_other_query_kinds(self, kind, tmp_path):
        D = four_point(4)
        if kind == "sq":
            oracle = SQOracle(D, tau=0.25, adversary=NoiseAdversary.PLUS_TAU)
        elif kind == "fbsq":
            oracle = FBSQOracle(sample_batch(D, 4, seed=1), tau=0.25,
                                adversary=NoiseAdversary.SEEDED_RANDOM, seed=1)
        else:
            codes = [[int(c) for c in D.joint_codes]] * 3
            oracle = ReplayOracle(D, codes, tau=0.25,
                                  adversary=NoiseAdversary.MINUS_TAU)
        query = SQQuery(arity=2,
                        evaluator=lambda ex: (float(ex.y), float(ex.x[0])))
        for _ in range(3):
            oracle.ask(query)
        good = tmp_path / "good.jsonl"
        oracle.transcript.to_jsonl(good)
        report = verify_transcript(good)
        assert report.ok and report.kind == kind
        assert len(report.verdicts) == 3

        bad = tmp_path / "bad.jsonl"
        perturb_round(good, bad, 2, 1.0)
        report = verify_transcript(bad)
        assert [v.index for v in report.verdicts if not v.ok] == [2]

    def test_gradient_trajectory_passes(self, gradient_transcript):
        report = verify_transcript(gradient_transcript)
        assert report.ok and report.kind == "bsgd"
        assert len(report.verdicts) > 100

    def test_gradient_off_grid_round_flagged(self, gradient_transcript,
                                             tmp_path):
        bad = tmp_path / "bad.jsonl"
        perturb_round(gradient_transcript, bad, 10, 2 * (1 / 64))
        report = verify_transcript(bad)
        assert report.flagged == 1
        assert [v.index for v in report.verdicts if not v.ok] == [10]

    def test_int_keyed_payload_rejected(self, gradient_transcript, tmp_path):
        # the library writes sparse payloads only as {"idx", "val"}
        lines = gradient_transcript.read_text().splitlines()
        record = json.loads(lines[4])
        record["response"] = {"3": 0.5}
        lines[4] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^round {record['round']}: "):
            verify_transcript(bad)


class TestMain:
    def test_run_pass_and_fail_exits(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "ExtractStats", "trials": 20,
            "out": str(tmp_path / "ok"), "params": {"tv_max": 0.5}}))
        assert main(["run", str(cfg)]) == 0
        assert "result: PASS" in capsys.readouterr().out

        cfg.write_text(json.dumps({
            "experiment": "ExtractStats", "trials": 20,
            "out": str(tmp_path / "bad"), "params": {"tv_max": 0.0}}))
        assert main(["run", str(cfg)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_config_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "Bogus"}))
        assert main(["run", str(cfg)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_extract_stats_command(self, tmp_path, capsys):
        code = main(["extract-stats", "--trials", "20", "--seed", "2",
                     "--tv-max", "0.5", "--out", str(tmp_path / "es")])
        assert code == 0
        assert (tmp_path / "es" / "results.csv").exists()
        assert "mean_rounds" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        code = main(["sweep", "--values", "2,16,64", "--trials", "100",
                     "--out", str(tmp_path / "sw")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("validity_rate=") == 3
        _, _, rows = read_csv(tmp_path / "sw")
        assert [int(r[0]) for r in rows] == [2, 16, 64]

    def test_verify_command_exits(self, bsq_transcript, tmp_path,
                                  capsys):
        assert main(["verify", str(bsq_transcript)]) == 0
        bad = tmp_path / "bad.jsonl"
        perturb_round(bsq_transcript, bad, 2, 0.5)
        assert main(["verify", str(bad)]) == 1
        assert main(["verify", str(tmp_path / "missing.jsonl")]) == 2
