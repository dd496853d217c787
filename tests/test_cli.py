"""CLI tests (invoking main() in-process and checking stdout)."""

import pytest

from repro.cli import build_parser, main
from repro.workloads import ArrivalEvent, ArrivalTrace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out
        assert "inception_v4" in out
        assert "GFLOPs" in out

    def test_profile(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "Mali-G72" in out
        assert "vgg19" in out

    def test_space(self, capsys):
        assert main(["space", "alexnet", "mobilenet"]) == 0
        out = capsys.readouterr().out
        assert "paper estimate" in out
        assert "contiguous mappings" in out

    def test_motivate_small(self, capsys):
        assert main(["motivate", "--setups", "10"]) == 0
        out = capsys.readouterr().out
        assert "random set-ups" in out

    def test_train_and_schedule_roundtrip(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "est.npz")
        assert (
            main(
                [
                    "train",
                    "--samples",
                    "40",
                    "--epochs",
                    "2",
                    "--checkpoint",
                    checkpoint,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "checkpoint saved" in out

        assert (
            main(
                [
                    "schedule",
                    "alexnet",
                    "mobilenet",
                    "--checkpoint",
                    checkpoint,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "OmniBoost" in out
        assert "Baseline" in out


class TestServiceCommands:
    def test_schedule_scheduler_selection(self, capsys):
        assert (
            main(
                [
                    "schedule",
                    "alexnet",
                    "mobilenet",
                    "--samples",
                    "40",
                    "--epochs",
                    "2",
                    "--scheduler",
                    "baseline",
                    "--scheduler",
                    "omniboost",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Baseline" in out
        assert "OmniBoost" in out
        assert "MOSAIC" not in out

    def test_serve_batch(self, tmp_path, capsys):
        import json

        mix_file = tmp_path / "mixes.json"
        mix_file.write_text(
            json.dumps(
                [
                    ["alexnet", "mobilenet"],
                    ["mobilenet", "alexnet"],
                    {"models": ["alexnet", "squeezenet"], "budget": 30, "id": "cam"},
                ]
            )
        )
        assert (
            main(
                [
                    "serve-batch",
                    str(mix_file),
                    "--samples",
                    "40",
                    "--epochs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hit" in out
        assert "miss" in out
        assert "cam" in out
        assert "cache hit rate" in out
        assert "pooled estimator batches" in out

    def test_schedule_rejects_unknown_scheduler_before_training(self):
        with pytest.raises(SystemExit, match="unknown scheduler"):
            main(["schedule", "alexnet", "--scheduler", "bogus"])

    def test_serve_batch_rejects_unknown_scheduler(self, tmp_path):
        mix_file = tmp_path / "m.json"
        mix_file.write_text('[["alexnet"]]')
        with pytest.raises(SystemExit, match="unknown scheduler"):
            main(["serve-batch", str(mix_file), "--scheduler", "bogus"])

    def test_serve_batch_rejects_empty_file(self, tmp_path):
        mix_file = tmp_path / "empty.json"
        mix_file.write_text("[]")
        with pytest.raises(SystemExit):
            main(["serve-batch", str(mix_file)])


class TestNewCommands:
    def test_models_all_includes_extensions(self, capsys):
        assert main(["models", "--all"]) == 0
        out = capsys.readouterr().out
        assert "densenet121" in out
        assert "extension" in out

    def test_models_default_excludes_extensions(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "densenet121" not in out

    def test_power_smoke(self, capsys):
        assert (
            main(
                [
                    "power",
                    "alexnet",
                    "squeezenet",
                    "--samples",
                    "30",
                    "--epochs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "inf/J" in out
        assert "throughput (paper)" in out


class TestResilienceFlags:
    def test_malformed_fault_kind_is_usage_error(self):
        with pytest.raises(SystemExit, match="unknown fault kind"):
            main(["serve-trace", "estimator-brownout", "--faults", "bogus@2"])

    def test_malformed_fault_window_is_usage_error(self):
        with pytest.raises(SystemExit, match="KIND@CALL"):
            main(
                ["serve-trace", "estimator-brownout", "--faults",
                 "estimator-nan"]
            )

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit, match="--resume requires --journal"):
            main(["serve-trace", "estimator-brownout", "--resume"])

    def test_journal_accepts_enforcing_slo(self, tmp_path):
        journal = tmp_path / "x.journal"
        assert main(
            ["serve-trace", "estimator-brownout", "--events", "4",
             "--samples", "40", "--epochs", "3", "--budget", "20",
             "--journal", str(journal), "--slo", "1.0"]
        ) == 0
        # A header line plus one committed line per event group.
        assert len(journal.read_text().splitlines()) > 1

    def test_over_capacity_trace_is_usage_error(self, tmp_path):
        path = tmp_path / "trace.json"
        names = ["alexnet", "mobilenet", "squeezenet", "resnet34",
                 "resnet50", "vgg13"]
        ArrivalTrace(
            [
                ArrivalEvent(float(index), "arrival", f"t{index}", name)
                for index, name in enumerate(names)
            ]
        ).to_json(str(path))
        with pytest.raises(SystemExit, match="exceeds capacity"):
            main(
                ["serve-trace", "--trace-file", str(path), "--samples",
                 "40", "--epochs", "3", "--budget", "20"]
            )

    def test_malformed_chaos_is_usage_error(self):
        with pytest.raises(SystemExit, match="BOARD@TIME"):
            main(
                ["fleet-serve", "--trace", "--scenario", "fleet-churn",
                 "--chaos", "edge0@abc"]
            )

    def test_negative_chaos_time_is_usage_error(self):
        with pytest.raises(SystemExit, match="time_s"):
            main(
                ["fleet-serve", "--trace", "--scenario", "fleet-churn",
                 "--chaos", "edge0@-5"]
            )

    def test_journal_rejects_elastic(self, tmp_path):
        with pytest.raises(SystemExit, match="elastic"):
            main(
                ["fleet-serve", "--trace", "--scenario", "fleet-churn",
                 "--journal", str(tmp_path / "x.journal"), "--elastic"]
            )

    def test_fleet_journal_requires_trace(self, tmp_path):
        with pytest.raises(SystemExit, match="--trace"):
            main(
                ["fleet-serve", "--scenario", "request-burst",
                 "--journal", str(tmp_path / "x.journal")]
            )
