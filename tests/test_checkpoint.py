"""Tests for the crash-safe checkpoint layer.

The load-bearing properties:

* atomic writes — an artifact file is either the old bytes or the new
  bytes, byte-compatible with the historical ``json.dump`` format;
* the write-ahead journal round-trips results exactly, tolerates a torn
  tail (skip + count, never abort) and rejects corrupted payloads via
  the per-record CRC;
* resume — an executor pointed at a journal serves completed units
  from it and the final artifacts are byte-identical to an
  uninterrupted run;
* drain — ``request_drain`` stops dispatch, in-flight units finish and
  the map raises ``CampaignInterrupted`` with the pending count.
"""

from __future__ import annotations

import base64
import json
import pickle
import zlib

import pytest

import repro.experiments.checkpoint as checkpoint_module
from repro.experiments.checkpoint import (
    TRACEBACK_MAX_BYTES,
    CampaignInterrupted,
    CheckpointError,
    CheckpointManager,
    ScenarioJournal,
    atomic_write_json,
    atomic_write_text,
    bound_traceback,
    verify_journal,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    Executor,
    ScenarioFailure,
    cache_key,
    make_executor,
)
from repro.experiments.runner import run_scenario

FAST = dict(cycles=300, warmup=100)


def tiny_units(n=3):
    base = ScenarioConfig(num_nodes=4, num_vcs=2, injection_rate=0.1, **FAST)
    policies = ("baseline", "rr-no-sensor", "sensor-wise")
    return [(base.with_policy(policies[i % 3]), i // 3) for i in range(n)]


def fingerprint(result):
    return (result.duty_cycles, result.md_vc, result.net_stats, result.initial_vths)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_litter(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(path, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_json_byte_compatible_with_json_dump(self, tmp_path):
        """Adopting atomic_write_json must not move any golden file."""
        blob = {"b": [1, 2], "a": {"z": None, "y": 0.5}}
        path = tmp_path / "blob.json"
        atomic_write_json(path, blob)
        assert path.read_text() == json.dumps(blob, indent=2, sort_keys=True) + "\n"

    def test_failure_leaves_old_file(self, tmp_path):
        path = tmp_path / "blob.json"
        atomic_write_json(path, {"ok": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"ok": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["blob.json"]


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestScenarioJournal:
    def _result(self):
        scenario, iteration = tiny_units(1)[0]
        return cache_key(scenario, iteration), run_scenario(scenario, iteration)

    def test_roundtrip_exact(self, tmp_path):
        key, result = self._result()
        journal = ScenarioJournal(tmp_path / "j.jsonl", meta={"m": 1})
        journal.append(key, result)
        journal.close()

        replayed = ScenarioJournal(tmp_path / "j.jsonl", meta={"m": 1})
        assert replayed.replayed == 1
        assert replayed.torn == 0
        assert fingerprint(replayed.get(key)) == fingerprint(result)
        replayed.close()

    def test_append_is_idempotent(self, tmp_path):
        key, result = self._result()
        journal = ScenarioJournal(tmp_path / "j.jsonl", meta={})
        journal.append(key, result)
        journal.append(key, result)
        journal.close()
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2  # header + one record

    def test_torn_tail_skipped_and_counted(self, tmp_path):
        key, result = self._result()
        path = tmp_path / "j.jsonl"
        journal = ScenarioJournal(path, meta={})
        journal.append(key, result)
        journal.close()

        # SIGKILL mid-append: truncate the last record partway through.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])

        replayed = ScenarioJournal(path, meta={})
        assert replayed.replayed == 0
        assert replayed.torn == 1
        assert replayed.get(key) is None
        # The journal stays appendable after terminating the torn line.
        replayed.append(key, result)
        replayed.close()
        again = ScenarioJournal(path, meta={})
        assert again.replayed == 1
        assert fingerprint(again.get(key)) == fingerprint(result)
        again.close()

    def test_crc_mismatch_rejected(self, tmp_path):
        key, result = self._result()
        path = tmp_path / "j.jsonl"
        journal = ScenarioJournal(path, meta={})
        journal.append(key, result)
        journal.close()

        header, record_line = path.read_text().splitlines()
        record = json.loads(record_line)
        blob = base64.b64decode(record["payload"])
        # Flip one payload byte: valid JSON, valid base64, stale CRC.
        tampered = bytes([blob[0] ^ 0xFF]) + blob[1:]
        assert zlib.crc32(tampered) & 0xFFFFFFFF != record["crc"]
        record["payload"] = base64.b64encode(tampered).decode("ascii")
        path.write_text(header + "\n" + json.dumps(record) + "\n")

        replayed = ScenarioJournal(path, meta={})
        assert replayed.torn == 1
        assert replayed.get(key) is None
        replayed.close()

    def test_garbage_line_skipped(self, tmp_path):
        key, result = self._result()
        path = tmp_path / "j.jsonl"
        journal = ScenarioJournal(path, meta={})
        journal.append(key, result)
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"type": "result", "key": 42}\n')
        replayed = ScenarioJournal(path, meta={})
        assert replayed.replayed == 1
        assert replayed.torn == 2
        replayed.close()

    def test_different_meta_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ScenarioJournal(path, meta={"config": {"cycles": 100}}).close()
        with pytest.raises(CheckpointError, match="different campaign"):
            ScenarioJournal(path, meta={"config": {"cycles": 200}})

    def test_unreadable_header_starts_fresh(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("garbage header\n")
        journal = ScenarioJournal(path, meta={"m": 1})
        assert journal.replayed == 0
        journal.close()
        # Recreated with a valid header: reopens cleanly.
        ScenarioJournal(path, meta={"m": 1}).close()

    def test_non_utf8_byte_is_one_torn_record(self, tmp_path):
        """One rotten byte (0xff is never UTF-8) in the last record:
        the journal still opens, and verify counts the same damage."""
        path = tmp_path / "j.jsonl"
        journal = ScenarioJournal(path, meta={})
        for unit in tiny_units(2):
            journal.append(cache_key(*unit), run_scenario(*unit))
        journal.close()
        raw = bytearray(path.read_bytes())
        raw[-20] = 0xFF  # inside the last record's base64 payload
        path.write_bytes(bytes(raw))

        replayed = ScenarioJournal(path, meta={})
        assert (replayed.replayed, replayed.torn) == (1, 1)
        replayed.close()
        report = verify_journal(path)
        assert (report.ok, len(report.torn)) == (1, 1)
        assert report.torn_tail

    def test_two_writers_keep_both_records(self, tmp_path):
        """Writers sharing one journal (two campaigns on one cache
        directory) append; neither overwrites the other's record."""
        path = tmp_path / "j.jsonl"
        (a, b) = tiny_units(2)
        first = ScenarioJournal(path, meta={})
        second = ScenarioJournal(path, meta={})
        first.append(cache_key(*a), run_scenario(*a))
        second.append(cache_key(*b), run_scenario(*b))
        first.close()
        second.close()
        replayed = ScenarioJournal(path, meta={})
        assert replayed.replayed == 2
        assert replayed.get(cache_key(*a)) is not None
        assert replayed.get(cache_key(*b)) is not None
        replayed.close()
        assert verify_journal(path).clean

    def test_journal_created_between_read_and_create(self, tmp_path, monkeypatch):
        """Another writer creates the journal and appends to it after
        this writer found the file missing: this writer joins that
        journal instead of replacing it."""
        path = tmp_path / "j.jsonl"
        (a, b) = tiny_units(2)
        real_create = ScenarioJournal._create
        raced = []

        def racing_create(journal, replace):
            if not raced:
                raced.append(True)
                other = ScenarioJournal(path, meta={})
                other.append(cache_key(*a), run_scenario(*a))
                other.close()
            return real_create(journal, replace)

        monkeypatch.setattr(ScenarioJournal, "_create", racing_create)
        journal = ScenarioJournal(path, meta={})
        assert raced and journal.get(cache_key(*a)) is not None
        journal.append(cache_key(*b), run_scenario(*b))
        journal.close()
        monkeypatch.undo()
        replayed = ScenarioJournal(path, meta={})
        assert (replayed.replayed, replayed.torn) == (2, 0)
        replayed.close()

    def test_short_write_raises(self, tmp_path, monkeypatch):
        """A write that lands only part of a record (disk full) is an
        error, not a journaled result."""
        key, result = self._result()
        journal = ScenarioJournal(tmp_path / "j.jsonl", meta={})
        monkeypatch.setattr(checkpoint_module.os, "write", lambda fd, data: len(data) - 1)
        with pytest.raises(OSError, match="short write"):
            journal.append(key, result)
        monkeypatch.undo()
        assert journal.get(key) is None and journal.appended == 0
        journal.close()

    def test_record_that_does_not_load_is_a_miss(self, tmp_path):
        """A record whose CRC holds but whose payload is no result passes
        replay; get() then counts it torn and serves a miss."""
        path = tmp_path / "j.jsonl"
        ScenarioJournal(path, meta={}).close()
        blob = pickle.dumps({"not": "a result"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "type": "result", "key": "k", "crc": zlib.crc32(blob),
                "payload": base64.b64encode(blob).decode("ascii"),
            }) + "\n")
        journal = ScenarioJournal(path, meta={})
        assert (len(journal), journal.torn) == (1, 0)
        assert journal.get("k") is None
        assert (len(journal), journal.torn) == (0, 1)
        journal.close()

    def test_refresh_reads_only_complete_records(self, tmp_path):
        """refresh() learns what other writers appended, skipping a
        record that is still being written until its newline lands."""
        key, result = self._result()
        path = tmp_path / "j.jsonl"
        reader = ScenarioJournal(path, meta={})
        writer = ScenarioJournal(path, meta={})
        writer.append(key, result)
        writer.close()
        line = path.read_bytes().splitlines(keepends=True)[1]
        path.write_bytes(path.read_bytes()[: -len(line)] + line[:-1])
        assert reader.refresh() == 0 and reader.get(key) is None
        with open(path, "ab") as fh:
            fh.write(b"\n")
        assert reader.refresh() == 1
        assert fingerprint(reader.get(key)) == fingerprint(result)
        assert (reader.torn, reader.refresh()) == (0, 0)
        reader.close()

    def test_hand_built_record_replays(self, tmp_path):
        """Pins the on-disk format: a record written without the journal
        (sorted-key compact JSON, CRC-32 of the pickle, base64 payload)
        replays into the original result."""
        key, result = self._result()
        path = tmp_path / "j.jsonl"
        ScenarioJournal(path, meta={}).close()
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        record = {
            "type": "result",
            "key": key,
            "crc": zlib.crc32(blob) & 0xFFFFFFFF,
            "payload": base64.b64encode(blob).decode("ascii"),
        }
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        replayed = ScenarioJournal(path, meta={})
        assert (replayed.replayed, replayed.torn) == (1, 0)
        assert fingerprint(replayed.get(key)) == fingerprint(result)
        # ... and the journal writes that same line itself.
        path.unlink()
        ScenarioJournal(path, meta={}).append(key, result)
        line = path.read_text().splitlines()[1]
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestCheckpointManager:
    def test_load_meta_roundtrip(self, tmp_path):
        meta = {"command": "campaign", "config": {"cycles": 150, "seed": 1}}
        CheckpointManager(tmp_path, meta=meta).close()
        assert CheckpointManager.load_meta(tmp_path) == meta

    def test_load_meta_missing_journal(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            CheckpointManager.load_meta(tmp_path)

    def test_write_state_contents(self, tmp_path):
        manager = CheckpointManager(tmp_path, meta={"command": "x", "config": {}})
        scenario, iteration = tiny_units(1)[0]
        failure = ScenarioFailure(
            scenario=scenario, iteration=iteration, error_type="ValueError",
            message="boom", attempts=2, timed_out=False, wall_seconds=0.1,
            traceback="Traceback (most recent call last):\n  boom\n",
        )
        manager.write_state("interrupted", pending=3, failures=[failure])
        manager.close()

        state = json.loads((tmp_path / "campaign.state.json").read_text())
        assert state["status"] == "interrupted"
        assert state["pending"] == 3
        assert state["done"] == 0
        assert state["meta"] == {"command": "x", "config": {}}
        (entry,) = state["failed"]
        assert entry["error_type"] == "ValueError"
        assert "Traceback" in entry["traceback"]
        # Typed-kind fields always ride along (derived "crash" here).
        assert entry["kind"] == "crash"
        assert entry["quarantined"] is False
        assert entry["budget"] is None

    def test_write_state_carries_budget_verdicts(self, tmp_path):
        manager = CheckpointManager(tmp_path, meta={"command": "x", "config": {}})
        scenario, iteration = tiny_units(1)[0]
        budget = {
            "predicted": {"work": 1.0, "cpu_seconds": 5.0, "rss_bytes": 1},
            "budget": {"wall_seconds": 3.0, "cpu_seconds": 1.0, "rss_bytes": 1},
            "actual_wall_seconds": 2.5,
        }
        failure = ScenarioFailure(
            scenario=scenario, iteration=iteration, error_type="WorkerDied",
            message="budget", attempts=2, timed_out=False, wall_seconds=2.5,
            kind="cpu", quarantined=True, budget=budget,
        )
        manager.write_state("budget-exceeded", pending=1, failures=[failure])
        manager.close()

        state = json.loads((tmp_path / "campaign.state.json").read_text())
        assert state["status"] == "budget-exceeded"
        (entry,) = state["failed"]
        assert entry["kind"] == "cpu"
        assert entry["quarantined"] is True
        assert entry["budget"] == budget


# ----------------------------------------------------------------------
# Executor integration: journal hits, resume, drain
# ----------------------------------------------------------------------
class TestExecutorCheckpoint:
    def test_results_journaled_and_resumed(self, tmp_path):
        units = tiny_units(3)
        first = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        baseline = first.map(units)
        first.checkpoint.close()
        assert first.stats.journal_hits == 0

        second = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        resumed = second.map(units)
        second.checkpoint.close()
        assert second.stats.journal_hits == 3
        assert [fingerprint(r) for r in resumed] == [
            fingerprint(r) for r in baseline
        ]

    def test_partial_journal_runs_only_missing(self, tmp_path):
        units = tiny_units(3)
        seed = CheckpointManager(tmp_path, meta={"m": 1})
        seed.record(cache_key(*units[0]), run_scenario(*units[0]))
        seed.close()

        executor = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        results = executor.map(units)
        executor.checkpoint.close()
        assert executor.stats.journal_hits == 1
        assert [fingerprint(r) for r in results] == [
            fingerprint(run_scenario(s, i)) for s, i in units
        ]

    def test_drain_raises_campaign_interrupted(self, tmp_path):
        units = tiny_units(4)
        executor = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        # Drain after the first completed unit reports progress.
        executor.progress = lambda line: executor.request_drain()
        with pytest.raises(CampaignInterrupted) as info:
            executor.map(units)
        executor.checkpoint.close()
        assert info.value.pending == 3
        assert executor.checkpoint.completed() == 1

        # Resuming completes the remainder, identically.
        resumed = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        results = resumed.map(units)
        resumed.checkpoint.close()
        assert resumed.stats.journal_hits == 1
        assert [fingerprint(r) for r in results] == [
            fingerprint(run_scenario(s, i)) for s, i in units
        ]

    def test_map_robust_journal_resume(self, tmp_path):
        units = tiny_units(2)
        first = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 2})
        )
        baseline = first.map_robust(units)
        first.checkpoint.close()

        second = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 2})
        )
        resumed = second.map_robust(units)
        second.checkpoint.close()
        assert second.stats.journal_hits == 2
        assert [fingerprint(r) for r in resumed] == [
            fingerprint(r) for r in baseline
        ]

    def test_make_executor_checkpoint_forces_executor(self, tmp_path):
        assert make_executor(1) is None
        manager = CheckpointManager(tmp_path, meta={})
        executor = make_executor(1, checkpoint=manager)
        assert isinstance(executor, Executor)
        assert executor.checkpoint is manager
        manager.close()


# ----------------------------------------------------------------------
# Failure records
# ----------------------------------------------------------------------
def _crashing_worker(unit):
    raise ValueError("synthetic crash for checkpoint tests")


class TestFailureRecords:
    def test_traceback_survives_process_boundary(self):
        units = tiny_units(1)
        executor = Executor(max_workers=2, worker=_crashing_worker)
        (outcome,) = executor.map_robust(units)
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.error_type == "ValueError"
        assert outcome.traceback is not None
        assert "synthetic crash for checkpoint tests" in outcome.traceback
        assert "Traceback" in outcome.traceback
        assert executor.failure_records == [outcome]


# ----------------------------------------------------------------------
# Cache verify
# ----------------------------------------------------------------------
def _cache_journal(root):
    """The one journal a result-cache directory holds."""
    (path,) = root.glob("*.jsonl")
    return path


class TestCacheVerify:
    def _populated(self, tmp_path):
        Executor(max_workers=1, cache=tmp_path).map(tiny_units(1))
        return _cache_journal(tmp_path)

    def test_clean_cache(self, tmp_path):
        report = verify_journal(self._populated(tmp_path))
        assert report.total == report.ok == 1
        assert report.clean
        assert "1/1 records valid" in report.summary()

    def test_truncated_entry_reported(self, tmp_path):
        path = self._populated(tmp_path)
        path.write_bytes(path.read_bytes()[:-40])
        report = verify_journal(path)
        assert report.ok == 0
        assert len(report.torn) == 1
        assert not report.clean

    def test_wrong_type_and_orphan_tmp(self, tmp_path):
        path = self._populated(tmp_path)
        blob = pickle.dumps({"not": "a result"})
        record = {"type": "result", "key": "deadbeef",
                  "crc": zlib.crc32(blob) & 0xFFFFFFFF,
                  "payload": base64.b64encode(blob).decode("ascii")}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        # Leftovers of a dead writer and pre-journal cache entries are
        # not journals: the scan ignores them.
        (tmp_path / "leftover.tmp").write_bytes(b"partial")
        (tmp_path / "deadbeef.pkl").write_bytes(b"old cache entry")
        report = verify_journal(path)
        assert report.ok == 1
        assert report.torn == ["line 3: payload is a dict, not a ScenarioResult"]
        assert _cache_journal(tmp_path) == path

    def test_cli_exit_codes(self, tmp_path):
        from repro.cli import main

        path = self._populated(tmp_path)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        raw = bytearray(path.read_bytes())
        raw[-20] ^= 0x01  # one flipped bit in the payload
        path.write_bytes(bytes(raw))
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        # A directory with no journal at all is an unusable argument.
        assert main(["cache", "verify", "--cache-dir", str(tmp_path / "none")]) == 2

    def test_bumped_schema_is_a_miss_not_an_error(self, tmp_path, monkeypatch):
        units = tiny_units(1)
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_module, "CACHE_SCHEMA_VERSION", 99)
            Executor(max_workers=1, cache=tmp_path).map(units)
        executor = Executor(max_workers=1, cache=tmp_path)
        executor.map(units)
        assert executor.stats.cache_hits == 0
        assert executor.stats.cache_corrupt == 0
        # The new version's journal sits beside the old one.
        assert len(list(tmp_path.glob("*.jsonl"))) == 2


# ----------------------------------------------------------------------
# Journal verify (cache verify --checkpoint-dir)
# ----------------------------------------------------------------------
class TestVerifyJournal:
    def _journal(self, tmp_path, records=2):
        journal = ScenarioJournal(tmp_path / "scenario.journal.jsonl", meta={"m": 1})
        for unit in tiny_units(records):
            journal.append(cache_key(*unit), run_scenario(*unit))
        journal.close()
        return journal.path

    def test_clean_journal(self, tmp_path):
        path = self._journal(tmp_path)
        report = verify_journal(path)
        assert report.header_ok
        assert (report.total, report.ok) == (2, 2)
        assert report.torn == []
        assert report.clean
        assert "2/2 records valid" in report.summary()

    def test_directory_resolves_to_journal(self, tmp_path):
        self._journal(tmp_path)
        assert verify_journal(tmp_path).clean

    def test_missing_journal_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no scenario journal"):
            verify_journal(tmp_path)

    def test_torn_tail_diagnosed(self, tmp_path):
        path = self._journal(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])
        report = verify_journal(path)
        assert report.ok == 1
        assert len(report.torn) == 1
        assert report.torn_tail
        assert not report.clean
        assert "torn tail" in report.summary()

    def test_crc_mismatch_diagnosed(self, tmp_path):
        path = self._journal(tmp_path, records=1)
        header, record_line = path.read_text().splitlines()
        record = json.loads(record_line)
        blob = base64.b64decode(record["payload"])
        record["payload"] = base64.b64encode(
            bytes([blob[0] ^ 0xFF]) + blob[1:]
        ).decode("ascii")
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        report = verify_journal(path)
        assert report.ok == 0
        assert "CRC mismatch" in report.torn[0]
        assert not report.torn_tail or len(report.torn) == 1

    def test_mid_file_damage_is_not_a_torn_tail(self, tmp_path):
        path = self._journal(tmp_path, records=3)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-30]  # damage a middle record
        path.write_text("\n".join(lines) + "\n")
        report = verify_journal(path)
        assert len(report.torn) == 1
        assert not report.torn_tail

    def test_bad_header_reported(self, tmp_path):
        path = tmp_path / "scenario.journal.jsonl"
        path.write_text("not json\n")
        report = verify_journal(path)
        assert not report.header_ok
        assert not report.clean
        assert "unreadable header" in report.summary()

    def test_cli_checkpoint_dir_exit_codes(self, tmp_path):
        from repro.cli import main

        self._journal(tmp_path)
        assert main(["cache", "verify", "--checkpoint-dir", str(tmp_path)]) == 0
        journal = tmp_path / "scenario.journal.jsonl"
        journal.write_bytes(journal.read_bytes()[:-40])
        assert main(["cache", "verify", "--checkpoint-dir", str(tmp_path)]) == 1

    def test_cli_requires_some_directory(self):
        from repro.cli import main

        assert main(["cache", "verify"]) == 2

    def test_cli_both_directories_combined(self, tmp_path):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        unit = tiny_units(1)[0]
        Executor(max_workers=1, cache=cache_dir).map([unit])
        journal = ScenarioJournal(
            ckpt_dir / "scenario.journal.jsonl", meta={"m": 1}
        )
        journal.append(cache_key(*unit), run_scenario(*unit))
        journal.close()
        args = ["cache", "verify", "--cache-dir", str(cache_dir),
                "--checkpoint-dir", str(ckpt_dir)]
        assert main(args) == 0
        # Rot in either directory fails the combined scan.
        cached = _cache_journal(cache_dir)
        cached.write_bytes(cached.read_bytes()[:-40])
        assert main(args) == 1


# ----------------------------------------------------------------------
# Bounded tracebacks
# ----------------------------------------------------------------------
def _fake_traceback(frames):
    lines = ["Traceback (most recent call last):"]
    for n in range(frames):
        lines.append(f'  File "mod{n}.py", line {n}, in fn{n}')
        lines.append(f"    call_{n}()")
    lines.append("ValueError: boom")
    return "\n".join(lines) + "\n"


class TestBoundTraceback:
    def test_short_traceback_untouched(self):
        text = _fake_traceback(5)
        assert bound_traceback(text) == text

    def test_none_passthrough(self):
        assert bound_traceback(None) is None

    def test_deep_traceback_keeps_most_recent_frames(self):
        text = _fake_traceback(100)
        bounded = bound_traceback(text, max_frames=30)
        assert "70 frame(s) elided" in bounded
        assert bounded.startswith("Traceback (most recent call last):")
        assert bounded.rstrip().endswith("ValueError: boom")
        # The frames nearest the raise survive; the oldest do not.
        assert "mod99.py" in bounded
        assert "mod0.py" not in bounded

    def test_byte_budget_enforced(self):
        huge = "Traceback (most recent call last):\n" + (
            '  File "a.py", line 1, in f\n    ' + "x" * 4000 + "\n"
        ) * 10
        bounded = bound_traceback(huge, max_frames=30, max_bytes=8192)
        assert len(bounded.encode("utf-8")) <= 8192 + 64  # + marker slack
        assert "truncated" in bounded

    def test_failure_records_bounded_in_state_file(self, tmp_path):
        manager = CheckpointManager(tmp_path, meta={"command": "x", "config": {}})
        scenario, iteration = tiny_units(1)[0]
        failure = ScenarioFailure(
            scenario=scenario, iteration=iteration, error_type="ValueError",
            message="boom", attempts=1, timed_out=False, wall_seconds=0.1,
            traceback=_fake_traceback(500),
        )
        manager.write_state("interrupted", pending=0, failures=[failure])
        manager.close()
        state = json.loads((tmp_path / "campaign.state.json").read_text())
        (entry,) = state["failed"]
        assert len(entry["traceback"].encode("utf-8")) <= TRACEBACK_MAX_BYTES + 64
        assert "elided" in entry["traceback"]
