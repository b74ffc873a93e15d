"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "resnet50"])
        assert args.device == "i20"
        assert args.batch == 1
        assert args.groups is None


class TestCommands:
    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "Cloudblazer i20" in out and "Nvidia T4" in out

    def test_run(self, capsys):
        assert main(["run", "resnet50", "--groups", "3"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "ms" in out

    def test_run_with_profile(self, capsys):
        assert main(["run", "resnet50", "--groups", "3", "--profile"]) == 0
        assert "conv" in capsys.readouterr().out

    def test_run_unknown_model(self, capsys):
        assert main(["run", "alexnet"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_estimate(self, capsys):
        assert main(["estimate", "srresnet"]) == 0
        out = capsys.readouterr().out
        for device in ("i20", "i10", "t4", "a10"):
            assert device in out

    def test_estimate_unknown_model(self):
        assert main(["estimate", "alexnet"]) == 2

    def test_evaluate(self, capsys):
        assert main(["evaluate"]) == 0
        out = capsys.readouterr().out
        assert "GeoMean" in out and "SRResnet" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Kernels" in out and "resnet50" in out and "bert" in out

    def test_faults(self, capsys):
        assert main(["faults", "--duration", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out and "avail" in out

    def test_fuzz_list(self, capsys):
        assert main(["fuzz", "--list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mutations:") and "cycle" in out

    def test_loadgen_json_is_byte_stable(self, capsys):
        assert main(["loadgen", "--quick", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["loadgen", "--quick", "--json"]) == 0
        assert capsys.readouterr().out == first
        assert '"classes"' in first and '"requests"' in first
