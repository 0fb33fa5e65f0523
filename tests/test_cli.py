"""Tests for the repro-noc command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["setup"],
            ["table2", "--cycles", "100"],
            ["table3"],
            ["table3", "--jobs", "4", "--cache-dir", "cache"],
            ["table4", "--iterations", "2"],
            ["campaign", "--jobs", "0"],
            ["sweep", "--jobs", "2"],
            ["area", "--vcs", "2"],
            ["vth", "--rate", "0.2"],
            ["cooperation"],
            ["simulate", "--policy", "baseline"],
        ):
            assert parser.parse_args(argv).command == argv[0]


class TestCommands:
    def test_setup(self, capsys):
        assert main(["setup"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "3.25%" in out
        assert "< 4%" in out

    def test_area_custom_geometry(self, capsys):
        assert main(["area", "--vcs", "2", "--ports", "5"]) == 0
        assert "10 x" in capsys.readouterr().out  # 5 ports x 2 VCs sensors

    def test_simulate(self, capsys):
        assert main([
            "simulate", "--cycles", "1500", "--warmup", "300",
            "--policy", "sensor-wise",
        ]) == 0
        out = capsys.readouterr().out
        assert "duty cycles" in out
        assert "MD VC" in out

    def test_vth(self, capsys):
        assert main(["vth", "--cycles", "1500", "--warmup", "300", "--vcs", "2"]) == 0
        assert "Saving vs baseline" in capsys.readouterr().out

    def test_cooperation(self, capsys):
        assert main(["cooperation", "--cycles", "1500", "--warmup", "300"]) == 0
        assert "Cooperation gain" in capsys.readouterr().out

    def test_table3_small(self, capsys):
        # Keep it tiny: the full table is exercised by the benchmarks.
        assert main(["table3", "--cycles", "1200", "--warmup", "200"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "4core-inj0.10" in out
        assert "16core-inj0.30" in out

    def test_table3_jobs_matches_serial(self, capsys, tmp_path):
        args = ["table3", "--cycles", "800", "--warmup", "200"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        assert main(args + ["--jobs", "2", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "scenarios" in captured.err  # executor summary on stderr
        # Cached rerun: identical table again, all hits.
        assert main(args + ["--jobs", "2", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "(18 cached)" in captured.err


class TestGovernanceFlags:
    def _args(self, argv):
        return build_parser().parse_args(argv)

    def test_budget_and_poison_flags_parse_on_campaign_commands(self):
        parser = build_parser()
        for command in ("table3", "campaign", "sweep", "fault-campaign"):
            args = parser.parse_args([
                command, "--budget-cpu", "2", "--budget-wall", "30",
                "--budget-rss", "512", "--budget-scale", "1.5",
                "--poison-threshold", "2",
            ])
            assert args.budget_cpu == 2.0
            assert args.poison_threshold == 2
        assert parser.parse_args(["health", "--connect", "h:1"]).command == "health"

    def test_no_budget_flags_means_no_governor(self):
        from repro.cli import _make_governor

        assert _make_governor(self._args(["campaign"])) is None

    def test_budget_flag_enables_adaptive_governance(self):
        from repro.cli import _make_governor

        spec = _make_governor(self._args(["campaign", "--budget"]))
        assert spec is not None
        assert spec.adaptive
        assert spec.cpu_seconds is None
        assert spec.scale == 1.0

    def test_explicit_budget_flags_imply_budget(self):
        from repro.cli import _make_governor

        spec = _make_governor(self._args([
            "campaign", "--budget-cpu", "2.5", "--budget-rss", "64",
            "--budget-scale", "2.0",
        ]))
        assert spec.cpu_seconds == 2.5
        assert spec.rss_bytes == 64 * 1024 * 1024
        assert spec.scale == 2.0
        assert spec.wall_seconds is None

    def test_poison_threshold_reaches_distributed_spec(self):
        from repro.cli import _make_distributed

        spec = _make_distributed(self._args([
            "fault-campaign", "--workers", "1", "--poison-threshold", "5",
        ]))
        assert spec is not None
        assert spec.poison_threshold == 5


class TestHealthCommand:
    def test_unreachable_coordinator_exits_2(self, capsys):
        # A port nothing listens on: connection refused, not a hang.
        assert main(["health", "--connect", "127.0.0.1:9", "--timeout", "2"]) == 2

    def test_healthy_coordinator_exits_0(self, capsys):
        from repro.experiments.distributed import CoordinatorServer, DistributedSpec

        server = CoordinatorServer(DistributedSpec(bind="127.0.0.1", port=0))
        server.start()
        try:
            host, port = server.address
            assert main(["health", "--connect", f"{host}:{port}"]) == 0
            out = capsys.readouterr().out
            assert '"status": "ok"' in out
            assert '"verdict": "ok"' in out
        finally:
            server.close()

    def test_degraded_coordinator_exits_1(self, capsys):
        from repro.experiments.distributed import CoordinatorServer, DistributedSpec

        server = CoordinatorServer(
            DistributedSpec(bind="127.0.0.1", port=0, queue_limit=1)
        )
        server.start()
        try:
            server.events.put(("noise", "", None))  # saturate the queue
            host, port = server.address
            assert main(["health", "--connect", f"{host}:{port}"]) == 1
            assert '"verdict": "shed"' in capsys.readouterr().out
        finally:
            server.close()


class TestInterruptHint:
    """A drained run without a checkpoint directory journaled nothing:
    the exit message must say so instead of suggesting ``None``."""

    @pytest.mark.parametrize(
        "command, target",
        [
            ("table3", "repro.experiments.tables.run_synthetic_table"),
            ("campaign", "repro.experiments.campaign.run_campaign"),
        ],
    )
    def test_no_checkpoint_dir_means_nothing_journaled(
        self, capsys, monkeypatch, command, target
    ):
        from repro.experiments.checkpoint import EXIT_INTERRUPTED, CampaignInterrupted

        def drained(*args, **kwargs):
            raise CampaignInterrupted(3)

        monkeypatch.setattr(target, drained)
        assert main([command, "--cycles", "100", "--warmup", "20"]) == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert "None" not in err
        assert "journal flushed" not in err
        assert "nothing was journaled" in err
        assert "--checkpoint-dir DIR" in err

    def test_checkpoint_dir_names_the_resume_command(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.experiments.checkpoint import EXIT_INTERRUPTED, CampaignInterrupted

        def drained(*args, **kwargs):
            raise CampaignInterrupted(3)

        monkeypatch.setattr("repro.experiments.campaign.run_campaign", drained)
        ckpt = tmp_path / "ckpt"
        argv = ["campaign", "--cycles", "100", "--checkpoint-dir", str(ckpt)]
        assert main(argv) == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert f"repro-noc campaign --resume {ckpt}" in err


def _journal_records(directory) -> int:
    lines = (directory / "scenario.journal.jsonl").read_text().splitlines()
    return len(lines) - 1  # minus the header


class TestCampaignStateFile:
    """Every campaign command leaves ``campaign.state.json`` behind."""

    TINY = ["--cycles", "100", "--warmup", "20"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3"],
            ["sweep", "--rates", "0.1,0.2"],
            ["dse", "screen"],
            ["campaign", "--skip-real", "--iterations", "1"],
        ],
        ids=["table3", "sweep", "dse-screen", "campaign"],
    )
    def test_complete_state_matches_journal(self, capsys, tmp_path, argv):
        import json

        ckpt = tmp_path / "ckpt"
        extra = ["--out", str(tmp_path / "report.md")] if argv[0] == "campaign" else []
        assert main(argv + self.TINY + extra + ["--checkpoint-dir", str(ckpt)]) == 0
        capsys.readouterr()
        state = json.loads((ckpt / "campaign.state.json").read_text())
        assert state["status"] == "complete"
        assert state["pending"] == 0
        assert state["failed"] == []
        assert state["done"] == _journal_records(ckpt) > 0

    def test_budget_exceeded_table_run(self, capsys, tmp_path):
        import json

        ckpt = tmp_path / "ckpt"
        # A 1 ms wall budget: every attempt's deadline fires before the
        # scenario can finish, so the governed table raises BudgetExceeded.
        argv = ["table3", *self.TINY, "--budget-wall", "0.001",
                "--checkpoint-dir", str(ckpt)]
        assert main(argv) == 3
        capsys.readouterr()
        state = json.loads((ckpt / "campaign.state.json").read_text())
        assert state["status"] == "budget-exceeded"
        assert state["done"] == _journal_records(ckpt)
        assert state["pending"] == len(state["failed"]) > 0
        assert {entry["kind"] for entry in state["failed"]} == {"timeout"}
