"""Crash-safe campaign state: scenario journal, atomic writes, shutdown.

Long campaigns die — OOM kills, Ctrl-C, batch-queue preemption — and
before this module a crash lost every finished scenario not yet folded
into the final JSON.  Three cooperating pieces make campaigns durable:

* :func:`atomic_write_json` / :func:`atomic_write_text` — the only
  sanctioned way to write an artifact: temp file in the destination
  directory, flush + ``fsync``, then ``os.replace``.  A crash at any
  instant leaves either the old file or the new file, never a
  truncated hybrid.
* :class:`ScenarioJournal` — a write-ahead, append-only JSONL log.
  One fsync'd record per completed
  :class:`~repro.experiments.runner.ScenarioResult`, keyed by
  :func:`cache_key`, with a per-record CRC-32 (:func:`encode_payload`,
  the codec the distributed wire protocol uses too).  The first line
  is a header carrying the cache schema version, the code version and
  a digest of the campaign configuration, so a journal can never
  silently feed a *different* campaign.  Replay skips and counts torn
  or CRC-failed records (a ``SIGKILL`` mid-append tears at most the
  tail line) instead of aborting.  The same journal, named by
  ``config_digest({})``, is the cross-campaign result cache behind
  ``--cache-dir``.
* :class:`CheckpointManager` — owns one journal plus the
  ``campaign.state.json`` summary (done/pending/failed counts and
  per-failure tracebacks), and is what
  :class:`~repro.experiments.parallel.Executor` consults before
  dispatching a unit and notifies after finishing one.

Resume contract: replayed results are the pickled originals, so a
campaign resumed with ``--resume <dir>`` produces output **byte
identical** to an uninterrupted run — the same bar PR 1 set for
serial vs parallel execution (``tests/test_kill_resume.py``).

Graceful shutdown: :func:`graceful_shutdown` installs SIGINT/SIGTERM
handlers that *drain* — stop dispatching new units, let in-flight
workers finish (still bounded by the per-unit timeout), flush the
journal — and exit with :data:`EXIT_INTERRUPTED`.  A second signal
hard-cancels.  It is also the one writer of ``campaign.state.json``:
whatever the command, leaving the session records how it ended.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import pickle
import signal
import tempfile
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.version import __version__
from repro.telemetry.log import get_logger
from repro.experiments.config import ScenarioConfig
from repro.experiments.governor import BudgetExceeded
from repro.experiments.runner import ScenarioResult

log = get_logger("checkpoint")

PathLike = Union[str, Path]

#: Journal file-format version (bump on incompatible layout changes).
JOURNAL_SCHEMA_VERSION = 1

#: Exit code of a campaign that drained cleanly after SIGINT/SIGTERM:
#: the journal is flushed and the run is resumable (EX_TEMPFAIL — "try
#: again later").  Distinct from 130 (hard cancel on a second signal).
EXIT_INTERRUPTED = 75

#: Exit code after a second signal forced a hard cancel (128 + SIGINT).
EXIT_HARD_CANCEL = 130


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot serve the requested campaign."""


class CampaignInterrupted(RuntimeError):
    """Raised by a draining executor once in-flight units have finished.

    ``pending`` counts the units that were *not* dispatched; everything
    that completed before the drain is already journaled, so resuming
    re-runs only the pending remainder.
    """

    def __init__(self, pending: int, message: str = "") -> None:
        self.pending = pending
        super().__init__(
            message or f"drained with {pending} scenario(s) not dispatched"
        )


# ----------------------------------------------------------------------
# Atomic artifact writes
# ----------------------------------------------------------------------
def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Durably replace ``path`` with ``text`` (tmp + fsync + rename).

    The temp file lives in the destination directory so the final
    ``os.replace`` never crosses a filesystem boundary; a crash at any
    point leaves the previous file contents intact.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding, newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


def atomic_write_json(
    path: PathLike, blob: Any, indent: Optional[int] = 2, sort_keys: bool = True
) -> None:
    """Durably replace ``path`` with ``blob`` rendered as JSON.

    Byte-compatible with the historical ``json.dump(..., indent=2,
    sort_keys=True)`` + trailing newline format, so adopting it does
    not move any golden file.
    """
    atomic_write_text(path, json.dumps(blob, indent=indent, sort_keys=sort_keys) + "\n")


# ----------------------------------------------------------------------
# Scenario key and record codec
# ----------------------------------------------------------------------
#: Bump when a change to the simulator alters results for an unchanged
#: ScenarioConfig (invalidates every cached result).
#: v2: ScenarioConfig gained fault-injection fields (faults,
#: validate_every) and the Down_Up heartbeat changed engine state.
#: v3: ScenarioConfig gained the telemetry field, ScenarioResult gained
#: a telemetry summary, and SimStats percentiles moved to QuantileSketch.
#: v4: most-degraded tie-break unified to the lowest VC index and the
#: runner routed through Network.run (interval NBTI accounting +
#: quiescence fast-forward); results for tied-Vth scenarios changed.
CACHE_SCHEMA_VERSION = 4


def cache_key(scenario: ScenarioConfig, iteration: int) -> str:
    """Stable content hash of everything a scenario result depends on.

    Covers every ``ScenarioConfig`` field, the traffic iteration, the
    cache schema version and the package version — so a cache survives
    process restarts but never serves results across code changes that
    declare themselves (schema bump / release).
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "version": __version__,
        "iteration": iteration,
        "scenario": dataclasses.asdict(scenario),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CorruptRecord(RuntimeError):
    """A journal record or wire payload failed its JSON, base64, CRC or
    unpickle check; the message says which."""


def encode_payload(obj: Any) -> Tuple[str, int]:
    """``(base64 pickle, crc32)`` of a simulation object: the payload of
    a journal record and of a wire message alike."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(blob).decode("ascii"), zlib.crc32(blob) & 0xFFFFFFFF


def _checked_blob(payload: str, crc: int) -> bytes:
    """The pickle bytes of a payload that passes its base64 and CRC checks."""
    try:
        blob = base64.b64decode(payload.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError, AttributeError) as exc:
        raise CorruptRecord(f"payload is not valid base64: {exc}") from exc
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise CorruptRecord("payload CRC mismatch")
    return blob


def _unpickle(blob: bytes) -> Any:
    try:
        return pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - arbitrary bytes fail arbitrarily
        raise CorruptRecord(f"payload does not unpickle: {exc}") from exc


def decode_payload(payload: str, crc: int) -> Any:
    """Inverse of :func:`encode_payload`; :class:`CorruptRecord` on rot."""
    return _unpickle(_checked_blob(payload, crc))


def check_record(line: bytes) -> Tuple[str, bytes]:
    """``(key, pickle bytes)`` of one journal result line whose payload
    passes its CRC, or :class:`CorruptRecord` naming why it does not."""
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError included
        raise CorruptRecord("not valid JSON (torn write)") from None
    if not isinstance(record, dict) or record.get("type") != "result":
        kind = record.get("type") if isinstance(record, dict) else None
        raise CorruptRecord(f"not a result record (type={kind!r})")
    key, crc, payload = record.get("key"), record.get("crc"), record.get("payload")
    if not isinstance(key, str) or not isinstance(crc, int) or not isinstance(payload, str):
        raise CorruptRecord("malformed record fields")
    return key, _checked_blob(payload, crc)


def decode_record(line: bytes) -> Tuple[str, ScenarioResult]:
    """``(key, result)`` of one journal result line, or
    :class:`CorruptRecord` naming why the line is not one."""
    key, blob = check_record(line)
    result = _unpickle(blob)
    if not isinstance(result, ScenarioResult):
        raise CorruptRecord(f"payload is a {type(result).__name__}, not a ScenarioResult")
    return key, result


def _dump_record(record: Dict[str, Any]) -> bytes:
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _parse_header(line: bytes) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """``(header, None)`` for a header line, else ``(None, reason)``."""
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError:
        return None, "first line is not valid JSON"
    if not isinstance(header, dict) or header.get("type") != "header":
        return None, "first line is not a header record"
    return header, None


# ----------------------------------------------------------------------
# Scenario journal
# ----------------------------------------------------------------------
def config_digest(meta: Dict[str, Any]) -> str:
    """Stable digest of a campaign description + schema/code versions.

    Two runs share a journal only when this digest matches: same
    campaign parameters, same cache schema, same package version —
    the exact conditions under which a scenario hash means the same
    simulation.
    """
    payload = {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "code_version": __version__,
        "journal_schema": JOURNAL_SCHEMA_VERSION,
        "meta": meta,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ScenarioJournal:
    """Append-only write-ahead log of completed scenario results.

    Line 1 is a header record; every further line is one result record
    ``{"type": "result", "key": <scenario-hash>, "crc": <crc32>,
    "payload": <base64 pickle>}`` written with one ``O_APPEND`` write +
    ``fsync`` before the writer moves on — the *write-ahead* property: a
    result is durable before the campaign acts on it.  Several writers
    may share one journal (two campaigns on one ``--cache-dir``): each
    record lands whole at the end of the file.

    Replay checks every record's CRC and indexes where it lies in the
    file; :meth:`get` unpickles a result when it is asked for, so an open
    journal holds keys, not results.  Replay tolerates torn tails: any
    line that fails :func:`check_record` is counted in :attr:`torn` and
    skipped, never fatal.  A mismatched *header* is fatal
    (:class:`CheckpointError`) — silently mixing results from a
    different campaign or code version would be corruption, not
    robustness.
    """

    FILENAME = "scenario.journal.jsonl"

    def __init__(self, path: PathLike, meta: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.meta = dict(meta or {})
        self.digest = config_digest(self.meta)
        #: Scenario hash -> (offset, length) of its record line.
        self._index: Dict[str, Tuple[int, int]] = {}
        #: Distinct valid records recovered by replay at open time.
        self.replayed = 0
        #: Torn/CRC-failed/undecodable records skipped by replay.
        self.torn = 0
        #: Records appended by this process.
        self.appended = 0
        #: Bytes of the file already indexed (see :meth:`refresh`).
        self._offset = 0
        self._fd: Optional[int] = self._open()

    # -- opening / replay ---------------------------------------------
    def _header_record(self) -> Dict[str, Any]:
        return {
            "type": "header",
            "journal_schema": JOURNAL_SCHEMA_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "code_version": __version__,
            "config_digest": self.digest,
            "meta": self.meta,
        }

    def _open(self) -> int:
        """Replay the log, then open it for appending (creating it first
        when it is missing, empty or has an unreadable header)."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            self._create(replace=False)
            return self._open()
        with fh:
            first = fh.readline()
            header, _ = _parse_header(first)
            if header is None:
                if first:
                    log.warning(
                        "journal %s has an unreadable header; starting it fresh",
                        self.path,
                    )
                self._create(replace=True)
                return self._open()
            self._check_header(header)
            self._offset = len(first)
            self.replayed = self._scan(fh, whole=True)
            fh.seek(self._offset - 1)
            missing_newline = fh.read(1) != b"\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        if missing_newline:
            # A SIGKILL mid-append can leave the tail line without its
            # newline; terminate it so the next append starts a fresh
            # record instead of garbling itself onto the tear.
            os.write(fd, b"\n")
            os.fsync(fd)
        return fd

    def _create(self, replace: bool) -> None:
        """Publish a header-only journal at :attr:`path` in one step, so
        no reader ever sees it without its header.

        A missing file is created with ``os.link``, which fails when
        another writer created it first; :meth:`_open` then replays that
        writer's journal instead.  ``replace`` (the file exists but is
        empty or has an unreadable header) swaps it out with
        ``os.replace``; two writers that both find such a file may each
        replace it, and the records the first appends before the second
        replaces it are lost.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_dump_record(self._header_record()))
                fh.flush()
                os.fsync(fh.fileno())
            if replace:
                os.replace(tmp, self.path)
            else:
                with contextlib.suppress(FileExistsError):
                    os.link(tmp, self.path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        _fsync_directory(self.path.parent)

    def _check_header(self, record: Dict[str, Any]) -> None:
        """Refuse to serve a journal written for a different campaign."""
        if record.get("config_digest") == self.digest:
            return
        details = []
        if record.get("journal_schema") != JOURNAL_SCHEMA_VERSION:
            details.append(
                f"journal schema {record.get('journal_schema')!r} != "
                f"{JOURNAL_SCHEMA_VERSION}"
            )
        if record.get("cache_schema") != CACHE_SCHEMA_VERSION:
            details.append(
                f"cache schema {record.get('cache_schema')!r} != "
                f"{CACHE_SCHEMA_VERSION}"
            )
        if record.get("code_version") != __version__:
            details.append(
                f"code version {record.get('code_version')!r} != {__version__!r}"
            )
        if record.get("meta") != self.meta:
            details.append("campaign configuration differs")
        raise CheckpointError(
            f"journal {self.path} belongs to a different campaign "
            f"({'; '.join(details) or 'config digest mismatch'}); "
            "use a fresh --checkpoint-dir or resume with the original "
            "configuration"
        )

    def _scan(self, fh, whole: bool) -> int:
        """Index the valid records from ``fh``'s position (:attr:`_offset`)
        on, counting bad lines in :attr:`torn`; returns how many new keys
        it indexed.  Unless ``whole``, a last line without its newline is
        left for later: another writer may still be writing it.
        """
        indexed = 0
        for line in fh:
            if not whole and not line.endswith(b"\n"):
                break
            start, self._offset = self._offset, self._offset + len(line)
            if not line.strip():
                continue
            try:
                key, _ = check_record(line)
            except CorruptRecord:
                self.torn += 1
                continue
            if key not in self._index:
                self._index[key] = (start, len(line))
                indexed += 1
        return indexed

    def refresh(self) -> int:
        """Index the records other writers appended since this journal
        last read the file; returns how many new keys it learned."""
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            return self._scan(fh, whole=False)

    # -- appending -----------------------------------------------------
    def append(self, key: str, result: ScenarioResult) -> None:
        """Durably journal one completed result (idempotent per key)."""
        if key in self._index:
            return
        payload, crc = encode_payload(result)
        data = _dump_record({"type": "result", "key": key, "crc": crc, "payload": payload})
        # One write per record: with O_APPEND it lands whole at the end
        # of the file even when another process appends concurrently.
        # A short write (disk full) is not retried, since a second write
        # could interleave with another writer's record.
        if os.write(self._fd, data) != len(data):
            raise OSError(errno.EIO, f"short write to journal {self.path}")
        os.fsync(self._fd)
        start = os.lseek(self._fd, 0, os.SEEK_CUR) - len(data)
        self._index[key] = (start, len(data))
        if start == self._offset:
            self._offset += len(data)  # no other writer in between
        self.appended += 1

    def get(self, key: str) -> Optional[ScenarioResult]:
        """The journaled result for ``key``, unpickled from the file, or
        ``None``; a record that passed its CRC but does not load is
        counted in :attr:`torn` and becomes a miss."""
        where = self._index.get(key)
        if where is None:
            return None
        try:
            with open(self.path, "rb") as fh:
                fh.seek(where[0])
                found, result = decode_record(fh.read(where[1]))
        except (OSError, CorruptRecord):
            found = None
        if found != key:
            del self._index[key]
            self.torn += 1
            return None
        return result

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __len__(self) -> int:
        return len(self._index)


@dataclasses.dataclass
class JournalVerifyReport:
    """Outcome of :func:`verify_journal` (``cache verify --checkpoint-dir``).

    ``torn`` carries one ``"line N: reason"`` entry per unreadable
    record; ``torn_tail`` is true when the damage is confined to the
    final line (the signature of a SIGKILL mid-append — recoverable,
    but still rot worth knowing about before a week-long resume).
    """

    path: Path
    header_ok: bool
    header_error: Optional[str]
    total: int
    ok: int
    torn: List[str]
    missing_final_newline: bool

    @property
    def torn_tail(self) -> bool:
        if not self.torn:
            return self.missing_final_newline
        last_line = 1 + self.total  # header + result lines
        return len(self.torn) == 1 and self.torn[0].startswith(f"line {last_line}:")

    @property
    def clean(self) -> bool:
        return self.header_ok and not self.torn and not self.missing_final_newline

    def summary(self) -> str:
        if not self.header_ok:
            return f"{self.path}: unreadable header ({self.header_error})"
        line = f"{self.path}: {self.ok}/{self.total} records valid"
        if self.torn:
            kind = "torn tail" if self.torn_tail else f"{len(self.torn)} torn record(s)"
            line += f", {kind}"
        if self.missing_final_newline:
            line += ", missing final newline"
        return line


def verify_journal(path: PathLike) -> JournalVerifyReport:
    """Scan one scenario journal: header shape + per-record CRC.

    Structural verification only — the header digest is checked for
    *presence and shape*, not recomputed against the current code
    version (an old journal is valid history, not rot; resume-time
    compatibility gating is :class:`ScenarioJournal`'s job).  Exit-1
    rot, by contrast, is anything replay would silently skip: torn
    tails, CRC failures, undecodable records.

    ``path`` may be the journal file itself or a checkpoint directory
    (resolved via :attr:`ScenarioJournal.FILENAME`).
    """
    path = Path(path)
    if path.is_dir():
        path = path / ScenarioJournal.FILENAME
    if not path.exists():
        raise CheckpointError(f"no scenario journal at {path}")
    raw = path.read_bytes()
    lines, missing_newline = raw.splitlines(), bool(raw) and not raw.endswith(b"\n")
    if not lines:
        return JournalVerifyReport(
            path=path, header_ok=False, header_error="empty file",
            total=0, ok=0, torn=[], missing_final_newline=False,
        )
    header, header_error = _parse_header(lines[0])
    if header is not None:
        digest = header.get("config_digest")
        if not isinstance(digest, str) or len(digest) != 64:
            header_error = "header carries no config digest"
        elif not isinstance(header.get("journal_schema"), int):
            header_error = "header carries no journal schema"
    total = ok = 0
    torn: List[str] = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        total += 1
        try:
            decode_record(line)
        except CorruptRecord as exc:
            torn.append(f"line {number}: {exc}")
        else:
            ok += 1
    return JournalVerifyReport(
        path=path, header_ok=header_error is None, header_error=header_error,
        total=total, ok=ok, torn=torn,
        missing_final_newline=missing_newline,
    )


#: Bounds applied to worker tracebacks persisted in failure records, so
#: a crash-looping worker cannot balloon ``campaign.state.json``.
TRACEBACK_MAX_FRAMES = 30
TRACEBACK_MAX_BYTES = 8192


def bound_traceback(
    text: Optional[str],
    max_frames: int = TRACEBACK_MAX_FRAMES,
    max_bytes: int = TRACEBACK_MAX_BYTES,
) -> Optional[str]:
    """Clamp a formatted traceback to its most recent frames and a
    byte budget (the frames nearest the raise are the diagnostic ones).
    """
    if text is None:
        return None
    lines = text.splitlines()
    frame_starts = [
        index for index, line in enumerate(lines)
        if line.lstrip().startswith("File ")
    ]
    if len(frame_starts) > max_frames:
        keep_from = frame_starts[len(frame_starts) - max_frames]
        head = lines[:1] if lines and not lines[0].lstrip().startswith("File ") else []
        elided = len(frame_starts) - max_frames
        lines = head + [f"... {elided} frame(s) elided ..."] + lines[keep_from:]
    clamped = "\n".join(lines)
    if text.endswith("\n"):
        clamped += "\n"
    encoded = clamped.encode("utf-8")
    if len(encoded) > max_bytes:
        marker = "... truncated ...\n"
        budget = max_bytes - len(marker.encode("utf-8"))
        tail = encoded[-budget:].decode("utf-8", errors="ignore")
        newline = tail.find("\n")
        if 0 <= newline < len(tail) - 1:
            tail = tail[newline + 1:]
        clamped = marker + tail
    return clamped


# ----------------------------------------------------------------------
# Checkpoint manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """One campaign's durable state: journal + ``campaign.state.json``.

    The manager is what gets threaded through the harness:
    :class:`~repro.experiments.parallel.Executor` calls :meth:`lookup`
    before dispatching a unit and :meth:`record` the moment one
    completes; :func:`graceful_shutdown` calls :meth:`write_state` when
    the campaign ends, however it ends.  ``meta`` describes the campaign
    (command + config); its digest gates resume compatibility (see
    :class:`ScenarioJournal`).
    """

    STATE_FILENAME = "campaign.state.json"

    def __init__(self, directory: PathLike, meta: Optional[Dict[str, Any]] = None) -> None:
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise CheckpointError(
                f"checkpoint path exists and is not a directory: {self.directory}"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.meta = dict(meta or {})
        self.journal = ScenarioJournal(
            self.directory / ScenarioJournal.FILENAME, meta=self.meta
        )
        if self.journal.replayed or self.journal.torn:
            log.info(
                "journal replay: %d result(s) recovered, %d torn record(s) skipped",
                self.journal.replayed, self.journal.torn,
            )

    # -- passthrough hot path ------------------------------------------
    @property
    def digest(self) -> str:
        return self.journal.digest

    @property
    def state_path(self) -> Path:
        return self.directory / self.STATE_FILENAME

    def lookup(self, key: str) -> Optional[ScenarioResult]:
        """The journaled result for a scenario hash, or ``None``."""
        return self.journal.get(key)

    def record(self, key: str, result: ScenarioResult) -> None:
        """Durably journal one completed result before it is consumed."""
        self.journal.append(key, result)

    def counters(self) -> Dict[str, int]:
        return {
            "replayed": self.journal.replayed,
            "torn": self.journal.torn,
            "appended": self.journal.appended,
        }

    def completed(self) -> int:
        return len(self.journal)

    # -- state summary -------------------------------------------------
    def write_state(
        self, status: str, pending: int = 0, failures: Iterable[object] = ()
    ) -> None:
        """Atomically publish the done/pending/failed summary.

        ``failures`` accepts
        :class:`~repro.experiments.parallel.ScenarioFailure` records
        (duck-typed), whose full tracebacks survive into the file so a
        dead campaign can be diagnosed without re-running it.
        """
        blob = {
            "status": status,
            "done": self.completed(),
            "pending": int(pending),
            "failed": [_failure_to_dict(failure) for failure in failures],
            "journal": self.counters(),
            "config_digest": self.digest,
            "code_version": __version__,
            "meta": self.meta,
        }
        atomic_write_json(self.state_path, blob)

    def close(self) -> None:
        self.journal.close()

    # -- resume helpers ------------------------------------------------
    @classmethod
    def load_meta(cls, directory: PathLike) -> Dict[str, Any]:
        """The campaign description stored in a checkpoint directory.

        Lets ``--resume <dir>`` re-derive the original configuration
        instead of trusting the user to retype every flag.
        """
        path = Path(directory) / ScenarioJournal.FILENAME
        try:
            with open(path, "rb") as fh:
                header, error = _parse_header(fh.readline())
        except FileNotFoundError:
            raise CheckpointError(
                f"no scenario journal in {directory}; nothing to resume"
            ) from None
        except OSError as exc:
            raise CheckpointError(
                f"cannot read journal header in {directory}: {exc}"
            ) from exc
        if header is None:
            raise CheckpointError(f"{path} is not a scenario journal ({error})")
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path} header carries no campaign meta")
        return meta


def _failure_to_dict(failure: object) -> Dict[str, Any]:
    scenario = getattr(failure, "scenario", None)
    return {
        "label": getattr(scenario, "label", str(scenario)),
        "policy": getattr(scenario, "policy", None),
        "iteration": getattr(failure, "iteration", None),
        "error_type": getattr(failure, "error_type", None),
        "message": getattr(failure, "message", str(failure)),
        "attempts": getattr(failure, "attempts", None),
        "timed_out": getattr(failure, "timed_out", None),
        # Typed failure kind (timeout/cpu/oom/crash) and governor
        # verdicts, so resource-budget casualties are distinguishable
        # from plain crashes without reading tracebacks.
        "kind": getattr(failure, "kind", None),
        "quarantined": bool(getattr(failure, "quarantined", False)),
        "budget": getattr(failure, "budget", None),
        # Bounded: a crash-looping worker must not balloon the state file.
        "traceback": bound_traceback(getattr(failure, "traceback", None)),
    }


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
@contextlib.contextmanager
def graceful_shutdown(
    executor, notify: Optional[Callable[[str], None]] = None
) -> Iterator[None]:
    """The campaign session: drain on signal, state file on exit.

    First SIGINT/SIGTERM: ``executor.request_drain()`` — no new units
    are dispatched, in-flight workers finish (bounded by the per-unit
    timeout), the journal is flushed, and the campaign raises
    :class:`CampaignInterrupted` for the caller to exit with
    :data:`EXIT_INTERRUPTED`.  A second signal raises
    ``KeyboardInterrupt`` immediately (hard cancel).  Handlers are only
    installed in the main thread.

    When ``executor.checkpoint`` is set, leaving the session writes its
    ``campaign.state.json`` with ``executor.failure_records``: status
    ``complete`` on success, ``interrupted`` on
    :class:`CampaignInterrupted` and ``budget-exceeded`` on
    :class:`~repro.experiments.governor.BudgetExceeded` (both
    re-raised).  Any other exception leaves the file as it was.
    """
    seen = {"count": 0}

    def _handler(signum, frame):  # noqa: ARG001 - signal handler signature
        seen["count"] += 1
        name = signal.Signals(signum).name
        if seen["count"] == 1:
            executor.request_drain()
            if notify is not None:
                notify(
                    f"received {name}: draining — in-flight scenarios finish "
                    "and the journal is flushed; signal again to hard-cancel"
                )
        else:
            raise KeyboardInterrupt(f"hard cancel ({name} x{seen['count']})")

    def _write_state(status: str, pending: int = 0) -> None:
        if executor.checkpoint is not None:
            executor.checkpoint.write_state(
                status, pending=pending, failures=executor.failure_records
            )

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):  # non-main thread / unsupported platform
            pass
    try:
        yield
    except CampaignInterrupted as exc:
        _write_state("interrupted", exc.pending)
        raise
    except BudgetExceeded as exc:
        # Every other scenario completed and is journaled; the state
        # file names the offenders (typed kind + predicted vs actual
        # cost) so users can re-run with a larger --budget-*.
        _write_state("budget-exceeded", len(exc.failures))
        raise
    else:
        _write_state("complete")
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
