"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

#: Every subcommand the CLI registers (kept in sync by test_help_sweep).
ALL_COMMANDS = (
    "devices", "masks", "mha", "e2e", "trace", "profile", "report",
    "decode", "serve-sim", "shard-sim", "fleet-sim", "plan-cache", "tune",
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_devices_parses(self):
        args = build_parser().parse_args(["devices"])
        assert args.command == "devices"

    def test_mha_defaults(self):
        args = build_parser().parse_args(["mha"])
        assert args.mask == "bigbird"
        assert args.device == "a100"

    def test_invalid_mask_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mha", "--mask", "nope"])

    def test_registered_commands(self):
        sub = build_parser()._subparsers._group_actions[0]
        assert set(ALL_COMMANDS) == set(sub.choices)

    def test_help_sweep(self, capsys):
        for cmd in ALL_COMMANDS:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([cmd, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out


class TestDeprecatedAliases:
    def test_retired_spellings_exit_2(self, capsys):
        """``--gpu``/``--pattern`` are gone: argparse rejects them."""
        for argv in (["mha", "--gpu", "rtx4090"], ["mha", "--pattern", "causal"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_canonical_spellings_do_not_warn(self, recwarn):
        args = build_parser().parse_args(
            ["mha", "--mask", "causal", "--device", "rtx4090"]
        )
        assert args.mask == "causal" and args.device == "rtx4090"
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "4090" in out

    def test_masks_all(self, capsys):
        assert main(["masks", "--seq-len", "256"]) == 0
        out = capsys.readouterr().out
        assert "bigbird" in out and "sparsity" in out

    def test_masks_single_pattern(self, capsys):
        assert main(["masks", "--mask", "causal", "--seq-len", "64"]) == 0
        out = capsys.readouterr().out
        assert "causal" in out and "bigbird" not in out

    def test_masks_unknown_pattern(self, capsys):
        assert main(["masks", "--mask", "nope"]) == 2

    def test_mha(self, capsys):
        assert main(["mha", "--mask", "sliding_window", "--batch", "1",
                     "--seq-len", "128"]) == 0
        out = capsys.readouterr().out
        assert "stof" in out and "over native" in out

    def test_mha_reports_unsupported(self, capsys):
        assert main(["mha", "--mask", "causal", "--batch", "1",
                     "--seq-len", "2048"]) == 0
        out = capsys.readouterr().out
        assert "unsupported" in out  # ByteTransformer past 1,024

    def test_e2e_subset(self, capsys):
        assert main(["e2e", "--model", "bert-small", "--batch", "1",
                     "--seq-len", "64",
                     "--engines", "pytorch-native,pytorch-compile"]) == 0
        out = capsys.readouterr().out
        assert "pytorch-compile" in out

    def test_e2e_unknown_engine(self, capsys):
        assert main(["e2e", "--engines", "tvm"]) == 2

    def test_tune(self, capsys):
        assert main(["tune", "--model", "bert-small", "--batch", "1",
                     "--seq-len", "64"]) == 0
        out = capsys.readouterr().out
        assert "framework overhead" in out
        assert "downstream chains" in out
        assert "scheme" in out

    def test_serve_sim(self, capsys):
        assert main(["serve-sim", "--num-requests", "4", "--rate", "500",
                     "--policy", "continuous", "--layers", "2",
                     "--heads", "2", "--head-size", "16",
                     "--prompt-min", "16", "--prompt-max", "32",
                     "--new-min", "4", "--new-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "TTFT" in out and "tok/s" in out

    def test_serve_sim_workload_knobs(self, capsys):
        assert main(["serve-sim", "--num-requests", "4", "--rate", "500",
                     "--policy", "continuous", "--layers", "2",
                     "--heads", "2", "--head-size", "16",
                     "--prompt-min", "16", "--prompt-max", "32",
                     "--new-min", "4", "--new-max", "8",
                     "--spec-decode", "4", "--accept-rate", "0.9",
                     "--chunk-tokens", "8",
                     "--lora-adapters", "2", "--lora-max-resident", "1"]) == 0
        out = capsys.readouterr().out
        assert "speculative" in out and "drafts accepted" in out
        assert "chunked fill" in out
        assert "lora" in out and "swaps" in out

    def test_shard_sim(self, capsys):
        assert main(["shard-sim", "--tp", "2", "--dp", "2",
                     "--num-requests", "8", "--rate", "1000",
                     "--layers", "2", "--heads", "4", "--head-size", "16",
                     "--prompt-min", "16", "--prompt-max", "32",
                     "--new-min", "4", "--new-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "tp2dp2" in out
        assert "plan cache" in out and "hit rate" in out

    def test_shard_sim_bad_divisibility(self, capsys):
        assert main(["shard-sim", "--tp", "3", "--heads", "8",
                     "--num-requests", "4"]) == 2
        err = capsys.readouterr().err
        assert "not divisible" in err

    def test_shard_sim_pipeline(self, capsys):
        assert main(["shard-sim", "--tp", "2", "--pp", "2",
                     "--micro-batches", "4", "--link", "pcie",
                     "--num-requests", "8", "--rate", "1000",
                     "--layers", "2", "--heads", "4", "--head-size", "16",
                     "--prompt-min", "16", "--prompt-max", "32",
                     "--new-min", "4", "--new-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "tp2pp2" in out
        assert "micro-batches" in out and "bubble" in out

    def test_shard_sim_no_overlap_and_inter_link(self, capsys):
        assert main(["shard-sim", "--tp", "2", "--link", "nvlink",
                     "--inter-link", "ib", "--no-overlap",
                     "--num-requests", "4", "--rate", "1000",
                     "--layers", "2", "--heads", "4", "--head-size", "16",
                     "--prompt-min", "16", "--prompt-max", "32",
                     "--new-min", "4", "--new-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "tp2dp1:nvlink,ib" in out
        assert "serialized" in out

    def test_fleet_sim(self, capsys):
        assert main(["fleet-sim", "--scenario", "diurnal",
                     "--num-requests", "16", "--rate", "3000",
                     "--max-replicas", "2", "--layers", "2",
                     "--heads", "4", "--head-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "autoscale" in out and "capacity" in out
        assert "prefix share" in out
        assert "tenant chat" in out and "% met" in out

    def test_fleet_sim_workload_knobs(self, capsys):
        assert main(["fleet-sim", "--scenario", "steady",
                     "--num-requests", "12", "--rate", "3000",
                     "--max-replicas", "2", "--layers", "2",
                     "--heads", "4", "--head-size", "16",
                     "--spec-decode", "2", "--lora-adapters", "3"]) == 0
        out = capsys.readouterr().out
        assert "speculative" in out
        assert "lora" in out

    def test_fleet_sim_frontier(self, capsys):
        assert main(["fleet-sim", "--scenario", "steady",
                     "--num-requests", "12", "--rate", "3000",
                     "--max-replicas", "2", "--layers", "2",
                     "--heads", "4", "--head-size", "16",
                     "--frontier", "--dp-values", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "cost/throughput frontier" in out
        assert "auto" in out and "dp2" in out

    def test_shard_sim_bad_pipeline_divisibility(self, capsys):
        assert main(["shard-sim", "--tp", "2", "--pp", "3",
                     "--layers", "4", "--heads", "4",
                     "--num-requests", "4"]) == 2
        err = capsys.readouterr().err
        assert "not divisible" in err

    def test_plan_cache(self, capsys):
        assert main(["plan-cache", "--num-requests", "4",
                     "--rate", "2000"]) == 0
        out = capsys.readouterr().out
        assert "reports identical: yes" in out
        assert "serving-decode" in out


class TestErrorExitCodes:
    def test_config_error_exits_2(self, capsys):
        assert main(["e2e", "--model", "bert-small", "--batch", "1",
                     "--seq-len", "64", "--mask", "not-a-mask"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not-a-mask" in err

    def test_config_error_no_traceback(self, capsys):
        main(["tune", "--model", "no-such-model"])
        err = capsys.readouterr().err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", ["{not json", "[]"],
                             ids=["not-json", "list"])
    def test_plan_cache_load_malformed_file_exits_2(self, tmp_path, capsys,
                                                    content):
        path = tmp_path / "plans.json"
        path.write_text(content)
        assert main(["plan-cache", "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "plans.json" in err
        assert "Traceback" not in err


class TestTraceAndReport:
    def test_trace_export(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "--model", "bert-small", "--batch", "1",
                     "--seq-len", "64", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert payload["otherData"]["engine"] == "stof"

    def test_report_collates(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table_x.txt").write_text("hello\nworld\n")
        out = tmp_path / "REPORT.md"
        assert main(["report", "--results-dir", str(results),
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert "## table_x" in text and "hello" in text

    def test_report_empty_dir_errors(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["report", "--results-dir", str(empty),
                     "--output", str(tmp_path / "r.md")]) == 2

    def test_decode_command(self, capsys):
        assert main(["decode", "--mask", "sliding_window", "--batch", "1",
                     "--prompt", "32", "--generate", "8",
                     "--heads", "2", "--head-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "tok/s" in out and "stof" in out

    def test_masks_show(self, capsys):
        assert main(["masks", "--mask", "causal", "--seq-len", "64",
                     "--show", "--show-width", "16", "--block", "16"]) == 0
        out = capsys.readouterr().out
        assert "block grid" in out
        assert "#" in out


class TestProfile:
    def test_profile_compile(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["profile", "--model", "bert-small", "--mask", "bigbird",
                     "--batch", "1", "--seq-len", "64",
                     "--output", str(out), "--check"]) == 0
        printed = capsys.readouterr().out
        assert "trace schema: OK" in printed
        payload = json.loads(out.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        # The span tree covers the planner and the kernel timeline.
        assert "runtime.plan" in names
        assert any("stof" in n for n in names)

    def test_profile_serve_sim(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["profile", "--workload", "serve-sim",
                     "--num-requests", "4", "--rate", "500",
                     "--output", str(out), "--check"]) == 0
        payload = json.loads(out.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        # Scheduler steps and request lifecycles are in the tree.
        assert "serve.step" in names
        assert any(n.startswith("request ") for n in names)

    def test_profile_metrics_output(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        csv = tmp_path / "m.csv"
        assert main(["profile", "--model", "bert-small", "--batch", "1",
                     "--seq-len", "64", "--output", str(tmp_path / "t.json"),
                     "--metrics-output", str(prom)]) == 0
        assert "plan_cache_lookups" in prom.read_text()
        assert main(["profile", "--model", "bert-small", "--batch", "1",
                     "--seq-len", "64", "--output", str(tmp_path / "t.json"),
                     "--metrics-output", str(csv)]) == 0
        assert csv.read_text().startswith("name,labels,type,field,value")
