"""Parallel scenario execution: executor, result cache, progress.

Every paper artifact is a pile of independent ``run_scenario`` calls —
the comparison protocol (identical traffic/PV per policy) is enforced
purely by seed derivation (:func:`repro.nbti.process_variation.scenario_seed`),
never by shared state, which makes the sweep embarrassingly parallel.
This module exploits that:

* :class:`Executor` maps ``(ScenarioConfig, iteration)`` work units to
  :class:`~repro.experiments.runner.ScenarioResult` objects through one
  dispatch loop fed by one of three worker sources — in-process calls,
  killable ``multiprocessing.Process`` workers, or leased remote
  workers — with results bit-identical whichever source ran them
  (determinism is a property of the work units, not of scheduling;
  verified by ``tests/test_parallel.py``).
* ``cache`` is a directory holding a
  :class:`~repro.experiments.checkpoint.ScenarioJournal` keyed by
  :func:`~repro.experiments.checkpoint.cache_key` (a stable hash of the
  scenario parameters, the iteration and a schema/code version), so
  repeated campaigns and benchmarks skip already-computed scenarios.
* :class:`ExecutorStats` accumulates per-scenario timing (scenarios
  completed, wall seconds, serial-time estimate and the implied
  speedup) so long campaign runs are observable.

Every unit gets the executor's per-attempt ``timeout``, bounded
``retries`` with exponential backoff, and a structured
:class:`ScenarioFailure` record once its attempts are exhausted:
:meth:`Executor.map_robust` returns the record in the unit's slot, and
:meth:`Executor.map` raises after every other unit has settled.  Units
that do not pickle, or that meet a host where processes cannot be
spawned, run in-process instead (hangs then cannot be interrupted).
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import pickle
import queue as queue_module
import random
import signal
import threading
import time
import traceback as traceback_module
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.log import current_log_level, setup_worker_logging
from repro.telemetry.metrics import MetricsRegistry
from repro.experiments.checkpoint import (  # noqa: F401 - CACHE_SCHEMA_VERSION re-exported
    CACHE_SCHEMA_VERSION,
    CampaignInterrupted,
    CheckpointManager,
    ScenarioJournal,
    cache_key,
    config_digest,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.governor import (
    BUDGET_KINDS,
    BudgetExceeded,
    GovernorSpec,
    ResourceBudget,
    ScenarioGovernor,
    classify_failure_kind,
)
from repro.experiments.runner import ScenarioResult, run_scenario

#: One unit of simulation work: a fully-specified scenario + traffic
#: iteration.  Everything the result depends on is in these two values.
WorkUnit = Tuple[ScenarioConfig, int]

def _execute_unit(unit: WorkUnit) -> ScenarioResult:
    """Top-level worker entry point (must be picklable by name)."""
    scenario, iteration = unit
    return run_scenario(scenario, iteration)


class RetryBackoff:
    """Exponential backoff with deterministic seeded jitter.

    ``delay(k)`` for retry ``k`` (1-based) is
    ``base * 2**(k-1) * (1 + jitter * u)`` with ``u`` drawn from a
    private ``random.Random(seed)`` stream — so retries desynchronize
    (no thundering herd against a recovering worker pool) while the
    whole delay sequence stays reproducible under a fixed seed.
    ``jitter=0`` recovers the pure exponential schedule.
    """

    def __init__(
        self, base: float, jitter: float = 0.5, seed: Optional[int] = None
    ) -> None:
        if base < 0:
            raise ValueError(f"backoff base must be >= 0, got {base}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.base = base
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), in seconds."""
        value = self.base * (2 ** (max(attempt, 1) - 1))
        if self.jitter > 0 and value > 0:
            value *= 1.0 + self.jitter * self._rng.random()
        return value


def _error_outcome(exc: BaseException) -> tuple:
    """The ``("error", ...)`` outcome of a failed attempt.

    Carries a pickled-and-rebuilt copy of the exception (``None`` if it
    does not survive that, as a child's outcome must): a copy holds no
    frames, so failure records do not keep a dead scenario's locals.
    """
    try:
        copy: Optional[BaseException] = pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - e.g. exceptions with required kwargs
        copy = None
    return ("error", type(exc).__name__, str(exc), traceback_module.format_exc(), copy)


def _robust_child(
    worker: Callable,
    conn,
    log_level: Optional[int] = None,
    budget: Optional[ResourceBudget] = None,
    parent_end=None,
) -> None:
    """Entry point of one killable worker process: runs each unit the
    parent sends and answers with its outcome, until it gets ``None``.

    ``parent_end`` is the parent's side of the pipe, closed here so a
    forked child sees end-of-file, and exits, if the parent dies.
    """
    if parent_end is not None:
        parent_end.close()
    # SIGINT is the parent's: a Ctrl-C hits the whole process group, and
    # a graceful drain lets in-flight units finish.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    setup_worker_logging(log_level)
    try:
        for unit in iter(conn.recv, None):
            try:
                if budget is not None:
                    # Kernel-enforced CPU/address-space fences (a governed
                    # process runs one attempt): a runaway scenario dies by
                    # SIGXCPU/MemoryError instead of starving its siblings;
                    # the parent's deadline covers wall time.
                    budget.install()
                conn.send(("ok", worker(unit)))
            except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
                conn.send(_error_outcome(exc))
    except (EOFError, OSError):
        pass  # the parent is gone
    finally:
        conn.close()


class _RemoteTraceback(Exception):
    """The failed attempt's formatted traceback, chained as the
    ``__cause__`` of the exception :meth:`Executor.map` re-raises (as
    :mod:`concurrent.futures` does), so the error output still shows
    where the unit failed, in whichever process ran it."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


@dataclasses.dataclass
class ScenarioFailure:
    """One work unit that exhausted its attempts (crash or timeout).

    Takes the failed unit's slot in :meth:`Executor.map_robust` output,
    so downstream consumers see exactly which scenario broke and why
    without the campaign aborting.
    """

    scenario: ScenarioConfig
    iteration: int
    error_type: str
    message: str
    attempts: int
    timed_out: bool
    wall_seconds: float
    #: Full formatted traceback from the worker (``None`` for timeouts
    #: and worker deaths, where no Python frame survives).
    traceback: Optional[str] = None
    #: Typed failure kind: ``timeout``/``cpu``/``oom``/``crash``
    #: (see :func:`repro.experiments.governor.classify_failure_kind`).
    #: Derived from ``error_type``/``timed_out`` when not given.
    kind: str = "crash"
    #: Whether the governor quarantined this unit (budget busted on
    #: enough distinct attempts that retrying stopped).
    quarantined: bool = False
    #: Governor cost report (predicted vs budget vs actual) for budget
    #: breaches; ``None`` for ungoverned or plain-crash failures.
    budget: Optional[Dict[str, object]] = None
    #: A frame-free copy of the exception the last attempt raised, when
    #: it survives pickling (what :meth:`Executor.map` re-raises); never
    #: persisted.
    exception: Optional[BaseException] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind == "crash":
            self.kind = classify_failure_kind(self.error_type, timed_out=self.timed_out)

    def __str__(self) -> str:
        kind = self.error_type if self.kind == "crash" else self.kind
        line = (
            f"{self.scenario.label} policy={self.scenario.policy} "
            f"iter={self.iteration}: {kind} after {self.attempts} attempt(s): "
            f"{self.message}"
        )
        if self.quarantined:
            line += " [quarantined]"
        return line


@dataclasses.dataclass
class ExecutorStats:
    """Accumulated execution accounting across ``Executor.map`` calls."""

    units_total: int = 0
    units_completed: int = 0
    cache_hits: int = 0
    fallbacks: int = 0
    wall_seconds: float = 0.0
    #: Sum of per-unit build+sim time — what a serial run would cost.
    serial_seconds: float = 0.0
    #: Units that exhausted their attempts, individual retry launches,
    #: per-attempt timeouts fired.
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    #: Torn records skipped when the cache journal was opened (its
    #: ``torn`` count), so one summary line covers everything.
    cache_corrupt: int = 0
    #: Units served from the write-ahead scenario journal (resume hits).
    journal_hits: int = 0

    @property
    def speedup_estimate(self) -> float:
        """Serial-time estimate divided by actual wall time."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.wall_seconds

    def summary(self) -> str:
        line = (
            f"{self.units_completed}/{self.units_total} scenarios "
            f"({self.cache_hits} cached) in {self.wall_seconds:.1f}s wall; "
            f"serial estimate {self.serial_seconds:.1f}s "
            f"(~{self.speedup_estimate:.1f}x)"
        )
        if self.journal_hits:
            line += f"; {self.journal_hits} resumed from journal"
        if self.failures or self.timeouts or self.retries:
            line += (
                f"; {self.failures} failed"
                f" ({self.timeouts} timeouts, {self.retries} retries)"
            )
        if self.cache_corrupt:
            line += f"; {self.cache_corrupt} corrupt cache entries"
        return line


class Executor:
    """Maps work units to scenario results through one dispatch loop.

    Where an attempt runs follows from the settings: on leased remote
    workers when ``distributed`` is set; otherwise in a killable worker
    process (at most ``max_workers`` live) when ``max_workers > 1``, a
    ``timeout`` or a ``governor`` needs one; otherwise in-process.  A
    worker process that returned a result takes the next unit; one that
    failed, hung or died is replaced, and under a governor every attempt
    gets a fresh process.

    Parameters
    ----------
    max_workers:
        Concurrent worker processes.  ``None``/``0`` auto-detects
        (``os.cpu_count``); ``1`` runs units in-process unless a
        ``timeout`` or ``governor`` needs killable processes.
    cache:
        Optional result-cache directory.  It holds one
        :class:`~repro.experiments.checkpoint.ScenarioJournal` per code
        version, named by ``config_digest({})``, so a version bump
        starts a new file and older entries are misses.  Hits skip
        simulation entirely; fresh results are appended.
    progress:
        Optional callable receiving one human-readable line per
        completed scenario (``[3/12] 4core-inj0.10 policy=... 0.42s``).
    timeout:
        Per-attempt wall-clock limit in seconds.  A hung attempt is
        terminated (its process killed) and counted; ``None`` disables
        the limit.
    retries:
        Extra attempts after a crash or timeout (total attempts =
        ``retries + 1``).
    retry_backoff, retry_jitter, retry_seed:
        Retry ``k`` waits ``retry_backoff * 2**(k-1)`` seconds stretched
        by up to the ``retry_jitter`` fraction (``0`` disables; default
        ``0.5``), drawn from a stream seeded by ``retry_seed`` (``None``
        randomizes per executor); see :class:`RetryBackoff`.
    worker:
        The unit-executing callable (picklable by name); tests
        substitute hanging/crashing workers.
    profile:
        Collect per-scenario timing distributions (build / sim / wall
        seconds) into :attr:`metrics`; the summary line then reports
        sim-time percentiles across the campaign.
    log_level:
        Logging level to install in worker processes (defaults to the
        effective level of the ``repro`` logger at construction, so
        ``-v``/``-q`` verbosity propagates into worker processes).
    checkpoint:
        Optional :class:`~repro.experiments.checkpoint.CheckpointManager`.
        Every completed unit is journaled (write-ahead, fsync'd) the
        moment it finishes, and units already in the journal are served
        from it without re-running — the resume path.
    distributed:
        Optional
        :class:`~repro.experiments.distributed.protocol.DistributedSpec`:
        an embedded coordinator leases pending units to ``repro-noc
        worker`` processes over HTTP (:mod:`repro.experiments.distributed`)
        and commits results through ``checkpoint`` as they arrive, so
        worker crashes, partitions and coordinator kills compose with
        ``--resume``.  Call :meth:`close` when done.
    governor:
        Optional :class:`~repro.experiments.governor.ScenarioGovernor`
        (or a :class:`~repro.experiments.governor.GovernorSpec`, which
        constructs one).  Every attempt then runs in a fresh killable
        process under a per-scenario
        :class:`~repro.experiments.governor.ResourceBudget` (wall
        deadline in the parent, ``RLIMIT_CPU``/``RLIMIT_AS`` in the
        child); budget breaches become typed failures and repeat
        offenders are quarantined instead of retried.  :meth:`map` then
        raises :class:`~repro.experiments.governor.BudgetExceeded`
        *after* all other units completed (and were journaled), so
        ``--resume`` re-runs only the offenders.

    Results are returned in work-unit order regardless of completion
    order, and are bit-identical whichever source ran them: a unit's
    outcome is a pure function of ``(ScenarioConfig, iteration)``.

    Graceful shutdown: :meth:`request_drain` (wired to SIGINT/SIGTERM
    by :func:`~repro.experiments.checkpoint.graceful_shutdown`) stops
    new dispatches; in-flight units finish and are journaled, then the
    map call raises
    :class:`~repro.experiments.checkpoint.CampaignInterrupted`.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[Union[str, Path]] = None,
        progress: Optional[Callable[[str], None]] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.25,
        worker: Callable[[WorkUnit], ScenarioResult] = _execute_unit,
        profile: bool = False,
        log_level: Optional[int] = None,
        checkpoint: Optional[CheckpointManager] = None,
        retry_jitter: float = 0.5,
        retry_seed: Optional[int] = None,
        distributed=None,
        governor: Optional[Union[ScenarioGovernor, GovernorSpec]] = None,
    ) -> None:
        if max_workers is None or max_workers == 0:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1 (or 0/None for auto), got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.max_workers = max_workers
        self.progress = progress
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.worker = worker
        self.stats = ExecutorStats()
        #: Campaign-level timing distributions; ``None`` unless profiling.
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if profile else None
        )
        self.log_level = log_level if log_level is not None else current_log_level()
        self.checkpoint = checkpoint
        if governor is not None and not isinstance(governor, ScenarioGovernor):
            governor = ScenarioGovernor(governor)
        self.governor = governor
        self._backoff = RetryBackoff(retry_backoff, retry_jitter, retry_seed)
        self.distributed = distributed
        self._server = None
        self._distributed_summary: Optional[str] = None
        self._commit_lock = threading.Lock()
        #: Every ScenarioFailure produced by map/map_robust, campaign-wide
        #: (what campaign.state.json surfaces as the failed-unit list).
        self.failure_records: List[ScenarioFailure] = []
        self._drain = threading.Event()
        self.cache: Optional[ScenarioJournal] = None
        if cache is not None:
            self.cache = ScenarioJournal(Path(cache) / f"{config_digest({})}.jsonl")
        if checkpoint is not None and self.metrics is not None:
            self.metrics.inc("checkpoint.journal_replayed", checkpoint.journal.replayed)
            self.metrics.inc("checkpoint.journal_torn", checkpoint.journal.torn)

    def request_drain(self) -> None:
        """Stop dispatching new units; in-flight ones finish and are
        journaled, then the running map raises ``CampaignInterrupted``."""
        self._drain.set()

    # -- public API ----------------------------------------------------
    def map(self, units: Sequence[WorkUnit]) -> List[ScenarioResult]:
        """Execute every unit and return results in input order.

        Runs :meth:`map_robust`, then raises if any unit failed — only
        after every other unit completed and was journaled, so a resume
        re-runs just the failures.  Under a governor the raise is
        :class:`~repro.experiments.governor.BudgetExceeded`; otherwise
        it is the first failed unit's own exception, chained to the
        worker-side traceback, or a ``RuntimeError`` naming the failure
        when that exception did not survive the trip back.
        """
        outcome = self.map_robust(units)
        failures = [r for r in outcome if isinstance(r, ScenarioFailure)]
        if not failures:
            return outcome  # type: ignore[return-value]  # no failures
        if self.governor is not None:
            raise BudgetExceeded(failures)
        failure = failures[0]
        if failure.exception is None:
            raise RuntimeError(str(failure))
        raise failure.exception from _RemoteTraceback(failure.traceback)

    def map_robust(
        self, units: Sequence[WorkUnit]
    ) -> List[Union[ScenarioResult, ScenarioFailure]]:
        """Execute every unit, surviving crashes and hangs.

        Each unit gets the executor's ``timeout``/``retries`` budget; a
        unit that exhausts its attempts yields a :class:`ScenarioFailure`
        in its slot instead of aborting the campaign.
        """
        units = list(units)
        started = time.perf_counter()
        self.stats.units_total += len(units)
        results: List[Optional[Union[ScenarioResult, ScenarioFailure]]] = [None] * len(units)
        if self.cache is not None:
            # Serve what concurrent campaigns on this cache stored since.
            self.cache.refresh()
            if self.cache.torn and not self.stats.cache_corrupt:
                self._report_line(
                    f"warning: {self.cache.torn} corrupt result-cache "
                    f"entries under {self.cache.path.parent} were treated as misses"
                )
            self.stats.cache_corrupt = self.cache.torn

        pending: List[int] = []
        for index, unit in enumerate(units):
            known = self._lookup(unit)
            if known is not None:
                results[index] = known
                self._report(index, unit, known, cached=True)
            else:
                pending.append(index)

        if pending:
            if self.distributed is not None:
                self._map_distributed(units, pending, results)
            else:
                self._map_local(units, pending, results)

        self.stats.units_completed += len(units)
        self.stats.wall_seconds += time.perf_counter() - started
        return results  # type: ignore[return-value]  # every slot is filled

    def summary(self) -> str:
        """One-line accounting over everything this executor ran."""
        line = self.stats.summary()
        distributed = (
            self._server.summary() if self._server is not None
            else self._distributed_summary
        )
        if distributed is not None:
            line += f"; {distributed}"
        if self.governor is not None:
            governor = self.governor.summary()
            if governor is not None:
                line += f"; {governor}"
        if self.metrics is not None:
            sim = self.metrics.histograms.get("scenario.sim_seconds")
            if sim is not None and sim.count:
                line += (
                    f"; sim p50/p95/p99 = "
                    f"{sim.p50:.2f}/{sim.p95:.2f}/{sim.p99:.2f}s"
                )
        return line

    # -- lookups -------------------------------------------------------
    def _lookup(self, unit: WorkUnit) -> Optional[ScenarioResult]:
        """Serve a unit from the journal (resume) or the result cache."""
        if self.checkpoint is None and self.cache is None:
            return None
        key = cache_key(*unit)
        if self.checkpoint is not None:
            hit = self.checkpoint.lookup(key)
            if hit is not None:
                self.stats.journal_hits += 1
                return hit
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit
        return None

    # -- local scheduler -----------------------------------------------
    def _map_local(
        self,
        units: Sequence[WorkUnit],
        pending: Sequence[int],
        results: List[Optional[Union[ScenarioResult, ScenarioFailure]]],
    ) -> None:
        """Run pending units in-process or in killable worker processes.

        A launch either hands the attempt to a worker process (at most
        ``max_workers`` live) or runs it synchronously; every outcome
        goes through one settle path, so retries, backoff, quarantine
        and drain behave alike for both.  The loop waits on result
        pipes, per-attempt deadlines and retry backoff delays.
        """
        ctx = multiprocessing.get_context()
        # Units that run in-process: all of them unless a worker count,
        # a timeout or a governor needs killable processes; then only
        # those that do not pickle (and, after a failed spawn, the rest).
        inline = set(pending)
        if self.max_workers > 1 or self.timeout is not None or self.governor is not None:
            inline = set()
            for i in pending:
                try:
                    pickle.dumps(units[i])
                except (pickle.PicklingError, AttributeError, TypeError):
                    inline.add(i)
            if inline:
                self.stats.fallbacks += 1
                self._report_line("work units not picklable; running them in-process")
        # (unit index, attempt number, earliest monotonic start time);
        # in-process units first, so they run before any launch.
        queue: List[Tuple[int, int, float]] = [
            (i, 1, 0.0) for i in sorted(pending, key=lambda i: i not in inline)
        ]
        # pipe end -> (unit index, attempt, process, deadline or None)
        running: Dict[object, tuple] = {}
        unit_started = {i: time.perf_counter() for i in pending}
        # Per-unit resource budget and effective wall limit (the tighter
        # of the budget's wall cap and the executor timeout).  Without a
        # governor these degrade to (None, self.timeout).
        budgets: Dict[int, Optional[ResourceBudget]] = {
            i: None if self.governor is None else self.governor.budget_for(units[i][0])
            for i in pending
        }
        wall_limits: Dict[int, Optional[float]] = {
            i: self.timeout if budgets[i] is None else budgets[i].deadline(self.timeout)
            for i in pending
        }

        # Worker processes that finished a unit cleanly wait here for the
        # next, so only a slot's first unit pays for process start-up.
        # Governed attempts get a fresh process each: rlimits are per
        # process, and RLIMIT_CPU counts every unit it ever ran.
        idle: List[tuple] = []  # (pipe end, process)
        reuse = self.governor is None

        def spawn(index: int) -> Optional[tuple]:
            """A worker process for ``index``; ``None`` if none can start."""
            while idle:
                conn, proc = idle.pop()
                if proc.is_alive():
                    return conn, proc
                retire(conn, proc)
            ends: tuple = ()
            try:
                ends = ctx.Pipe()
                proc = ctx.Process(
                    target=_robust_child,
                    args=(
                        self.worker, ends[1], self.log_level, budgets[index], ends[0],
                    ),
                    daemon=True,
                )
                proc.start()
            except (OSError, ImportError):
                # No subprocesses at all (sandbox): the remaining units
                # run in-process — crashes still become failure records,
                # but hangs cannot be interrupted.
                for end in ends:
                    end.close()
                inline.update(pending)
                self.stats.fallbacks += 1
                self._report_line(
                    "process spawning unavailable; running the remaining "
                    "units in-process (timeouts not enforceable)"
                )
                return None
            ends[1].close()
            return ends[0], proc

        def retire(conn, proc, kill: bool = False) -> None:
            if kill:
                proc.terminate()
            else:
                with contextlib.suppress(OSError):  # already dead
                    conn.send(None)
            proc.join()
            conn.close()

        def launch(index: int, attempt: int) -> None:
            worker = None if index in inline else spawn(index)
            if worker is not None:
                conn, proc = worker
                try:
                    conn.send(units[index])
                except OSError:
                    pass  # died since: reaped below as a dead worker
                limit = wall_limits[index]
                deadline = None if limit is None else time.monotonic() + limit
                running[conn] = (index, attempt, proc, deadline)
                return
            try:
                outcome = ("ok", self.worker(units[index]))
            except Exception as exc:  # noqa: BLE001 - becomes a record
                outcome = _error_outcome(exc)
            settle(index, attempt, outcome)

        def settle(index: int, attempt: int, outcome: tuple,
                   timed_out: bool = False,
                   exitcode: Optional[int] = None) -> None:
            """Fold one attempt's outcome in: finish, retry or fail."""
            if outcome[0] == "ok":
                self._finish(index, units[index], outcome[1], results)
                return
            _, error_type, message, traceback, exception = outcome
            kind = classify_failure_kind(error_type, timed_out=timed_out, exitcode=exitcode)
            quarantined, budget_info = self._note_breach(
                units[index], kind, time.perf_counter() - unit_started[index]
            )
            # A quarantined unit stops retrying immediately: the budget
            # verdict is final, remaining attempts would just burn the
            # same budget again.
            if not quarantined and attempt <= self.retries:
                self.stats.retries += 1
                backoff = self._backoff.delay(attempt)
                queue.append((index, attempt + 1, time.monotonic() + backoff))
                return
            self._fail(
                index,
                ScenarioFailure(
                    scenario=units[index][0],
                    iteration=units[index][1],
                    error_type=error_type,
                    message=message,
                    attempts=attempt,
                    timed_out=timed_out,
                    wall_seconds=time.perf_counter() - unit_started[index],
                    traceback=traceback,
                    kind=kind,
                    quarantined=quarantined,
                    budget=budget_info,
                    exception=exception,
                ),
                results,
            )

        def reap(conn, timed_out: bool) -> None:
            index, attempt, proc, _ = running.pop(conn)
            outcome = None
            if not timed_out:
                try:
                    if conn.poll():
                        outcome = conn.recv()
                except (EOFError, OSError):
                    outcome = None
            if reuse and outcome is not None and outcome[0] == "ok":
                idle.append((conn, proc))
            else:
                # Timed out, died, or failed: a process in an unknown
                # state is not handed another unit.
                retire(conn, proc, kill=timed_out)
            if timed_out:
                self.stats.timeouts += 1
                outcome = ("error", "Timeout", f"attempt exceeded {wall_limits[index]}s",
                           None, None)
            elif outcome is None:
                # No result made it up the pipe: the kernel killed the
                # worker.  The exit signal tells us why — SIGXCPU is
                # the CPU budget, SIGKILL is the OOM killer's (and the
                # RLIMIT_CPU hard cap's) signature.
                outcome = ("error", "WorkerDied", f"worker exited with code {proc.exitcode}",
                           None, None)
            settle(index, attempt, outcome, timed_out=timed_out, exitcode=proc.exitcode)

        try:
            # Draining stops new launches; the loop then only reaps what
            # is already in flight (still bounded by per-attempt
            # deadlines) and leaves the queue for the resume run.
            while running or (queue and not self._drain.is_set()):
                now = time.monotonic()
                # Launch every due queued attempt while slots are free.
                while len(running) < self.max_workers and not self._drain.is_set():
                    due = next(
                        (k for k, item in enumerate(queue) if item[2] <= now), None
                    )
                    if due is None:
                        break
                    index, attempt, _ = queue.pop(due)
                    launch(index, attempt)

                # Sleep until the next event could possibly happen.  A
                # queued attempt is one only while a slot is free to
                # launch it; counting it otherwise (it is already due)
                # would make the wait below return at once and spin.
                horizons = [t[3] for t in running.values() if t[3] is not None]
                if len(running) < self.max_workers and not self._drain.is_set():
                    horizons.extend(item[2] for item in queue)
                wait_for = (
                    None if not horizons
                    else max(0.0, min(horizons) - time.monotonic())
                )
                if running:
                    ready = connection_wait(list(running), timeout=wait_for)
                    now = time.monotonic()
                    for conn in ready:
                        reap(conn, timed_out=False)
                    for conn in [
                        c for c, t in running.items() if t[3] is not None and now >= t[3]
                    ]:
                        reap(conn, timed_out=True)
                elif wait_for:
                    time.sleep(wait_for)
            if self._drain.is_set() and queue:
                raise CampaignInterrupted(len(queue))
        finally:
            for conn, (_, _, proc, _) in running.items():
                retire(conn, proc, kill=True)
            for conn, proc in idle:
                retire(conn, proc)

    # -- distributed backend -------------------------------------------
    def _ensure_server(self):
        """Start (once) the embedded coordinator for this executor."""
        if self._server is None:
            # Imported lazily: distributed/ depends on this module.
            from repro.experiments.distributed.coordinator import CoordinatorServer

            self._server = CoordinatorServer(
                self.distributed, commit=self._commit_remote
            )
            self._server.start()
            host, port = self._server.address
            self._report_line(
                f"distributed coordinator serving on {host}:{port} "
                f"({self.distributed.local_workers} local worker(s))"
            )
        return self._server

    def distributed_address(self) -> Tuple[str, int]:
        """``(host, port)`` of the embedded coordinator (starting it)."""
        if self.distributed is None:
            raise RuntimeError("executor has no distributed backend configured")
        return self._ensure_server().address

    def _commit_remote(self, key: str, result: ScenarioResult) -> None:
        """Durably journal a remote completion before it is acked.

        Runs on coordinator handler threads; the lock serializes journal
        appends (the write-ahead property then extends across hosts: a
        worker's completion is acked only once it is fsync'd here).
        """
        with self._commit_lock:
            if self.checkpoint is not None:
                self.checkpoint.record(key, result)
                if self.metrics is not None:
                    self.metrics.inc("checkpoint.journal_appends")

    def _map_distributed(
        self,
        units: Sequence[WorkUnit],
        pending: Sequence[int],
        results: List[Optional[Union[ScenarioResult, ScenarioFailure]]],
    ) -> None:
        """Serve pending units to remote workers via the lease coordinator.

        Completions and poison verdicts arrive on the server's event
        queue (producer: HTTP handler threads / expiry scans) and are
        folded into ``results`` here on the calling thread, so journal,
        cache and stats bookkeeping stay single-threaded.  A drain
        request stops new lease grants; in-flight leases either complete
        (and are committed) or expire, bounded by the lease timeout.
        """
        from repro.experiments.distributed.coordinator import POISON_ERROR_TYPE

        server = self._ensure_server()
        key_indices: Dict[str, List[int]] = {}
        batch = []
        submitted = time.perf_counter()
        for index in pending:
            key = cache_key(*units[index])
            slots = key_indices.setdefault(key, [])
            if not slots:
                batch.append((key, units[index]))
            slots.append(index)
        server.submit(batch)
        outstanding = set(key_indices)

        while outstanding:
            if self._drain.is_set():
                server.drain()
            server.expire_leases()
            try:
                kind, key, payload = server.events.get(
                    timeout=self.distributed.poll_interval
                )
            except queue_module.Empty:
                if (
                    self._drain.is_set()
                    and server.table.active_leases() == 0
                    and server.events.empty()
                ):
                    break
                continue
            if key not in outstanding:
                continue  # stale event for an already-settled key
            outstanding.discard(key)
            for index in key_indices[key]:
                if kind == "result":
                    self._finish(index, units[index], payload, results)
                else:
                    error_type = payload.get("error_type") or POISON_ERROR_TYPE
                    failure = ScenarioFailure(
                        scenario=units[index][0],
                        iteration=units[index][1],
                        error_type=error_type,
                        message=payload.get("message", "poisoned scenario"),
                        attempts=int(payload.get("attempts") or 0),
                        timed_out=False,
                        wall_seconds=time.perf_counter() - submitted,
                        traceback=payload.get("traceback"),
                        kind=(
                            payload.get("kind")
                            or classify_failure_kind(error_type)
                        ),
                        quarantined=kind == "poisoned",
                    )
                    self._fail(index, failure, results)
        if outstanding:
            raise CampaignInterrupted(len(outstanding))

    def close(self) -> None:
        """Stop the embedded coordinator and its local workers, and close
        the cache journal (safe to call repeatedly)."""
        if self._server is not None:
            self._distributed_summary = self._server.summary()
            self._server.close()
            self._server = None
        if self.cache is not None:
            self.cache.close()

    def _note_breach(
        self, unit: WorkUnit, kind: str, elapsed: float
    ) -> Tuple[bool, Optional[Dict[str, object]]]:
        """Record one budget breach with the governor (if any).

        Returns ``(quarantined, budget_info)``; ``(False, None)`` when
        ungoverned or when ``kind`` is not a budget kind — so callers
        can consult it unconditionally on every failed attempt.
        """
        if self.governor is None or kind not in BUDGET_KINDS:
            return False, None
        scenario, iteration = unit
        quarantined = self.governor.record_breach(
            cache_key(scenario, iteration), scenario, iteration, kind, elapsed
        )
        if self.metrics is not None:
            self.metrics.inc(f"governor.breach_{kind}")
            if quarantined:
                self.metrics.inc("governor.quarantined")
        return quarantined, self.governor.budget_info(scenario, elapsed)

    def _fail(
        self,
        index: int,
        failure: ScenarioFailure,
        results: List[Optional[Union[ScenarioResult, ScenarioFailure]]],
    ) -> None:
        results[index] = failure
        self.stats.failures += 1
        self.failure_records.append(failure)
        if self.progress is not None:
            self._report_line(f"[{index + 1}/{self.stats.units_total}] FAILED {failure}")

    # -- bookkeeping ---------------------------------------------------
    def _finish(
        self,
        index: int,
        unit: WorkUnit,
        result: ScenarioResult,
        results: List[Optional[ScenarioResult]],
    ) -> None:
        results[index] = result
        self.stats.serial_seconds += result.wall_seconds
        if self.metrics is not None:
            self.metrics.observe("scenario.build_seconds", result.build_seconds)
            self.metrics.observe("scenario.sim_seconds", result.sim_seconds)
            self.metrics.observe("scenario.wall_seconds", result.wall_seconds)
        if self.cache is not None:
            self.cache.append(cache_key(*unit), result)
        if self.checkpoint is not None:
            # Write-ahead: the result is durable (fsync'd journal
            # record) before the campaign consumes it.
            self.checkpoint.record(cache_key(*unit), result)
            if self.metrics is not None:
                self.metrics.inc("checkpoint.journal_appends")
        self._report(index, unit, result, cached=False)

    def _report(self, index: int, unit: WorkUnit, result: ScenarioResult, cached: bool) -> None:
        if self.progress is None:
            return
        scenario, iteration = unit
        timing = "cache" if cached else f"{result.sim_seconds:.2f}s"
        self._report_line(
            f"[{index + 1}/{self.stats.units_total}] {scenario.label} "
            f"policy={scenario.policy} iter={iteration} {timing}"
        )

    def _report_line(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)


def make_executor(
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[str], None]] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    profile: bool = False,
    checkpoint: Optional[CheckpointManager] = None,
    distributed=None,
    governor: Optional[Union[ScenarioGovernor, GovernorSpec]] = None,
) -> Optional[Executor]:
    """CLI helper: build an :class:`Executor` only when one is wanted.

    ``jobs=1`` with no cache and no robustness/profiling/checkpoint/
    distributed/governor knobs keeps the historical in-function serial
    path (returns ``None``); ``jobs=0`` auto-detects worker count.
    """
    if (
        (jobs == 1 or jobs is None)
        and cache_dir is None
        and timeout is None
        and retries == 0
        and not profile
        and checkpoint is None
        and distributed is None
        and governor is None
    ):
        return None
    return Executor(
        max_workers=jobs, cache=cache_dir, progress=progress,
        timeout=timeout, retries=retries, profile=profile,
        checkpoint=checkpoint, distributed=distributed, governor=governor,
    )


def execute_units(
    units: Sequence[WorkUnit], executor: Optional[Executor] = None
) -> List[ScenarioResult]:
    """Run units through ``executor``, or serially in-process when ``None``."""
    if executor is None:
        return [run_scenario(scenario, iteration) for scenario, iteration in units]
    return executor.map(units)
