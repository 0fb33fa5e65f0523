"""Telemetry opt-in configuration.

A :class:`TelemetryConfig` rides on
:class:`~repro.experiments.config.ScenarioConfig` (its ``telemetry``
field, ``None`` = off): one flag turns any existing run into a traced
run.  It is a frozen, hashable, ``dataclasses.asdict``-friendly value
object so scenario cache keys and worker-process pickling keep working
unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

#: Trace file formats the runner can emit (see repro.telemetry.sinks).
VALID_FORMATS: Tuple[str, ...] = ("chrome", "jsonl", "csv")


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """What to observe and where to write it.

    Attributes
    ----------
    trace_dir:
        Directory receiving per-run trace files (created on demand).
        ``None`` keeps the trace in-process only: probes still count
        events and metrics still accumulate, but nothing hits disk.
    formats:
        Subset of :data:`VALID_FORMATS`; ignored when ``trace_dir`` is
        ``None``.  ``chrome`` files open in Perfetto / chrome://tracing.
    metrics:
        Collect a :class:`~repro.telemetry.metrics.MetricsRegistry`
        (simulation counters, latency histogram, phase timings).
    buffers, sensors, policies, ports, faults:
        Per-subsystem probe toggles (all on by default); disabling a
        subsystem skips its instrumentation entirely.
    max_buffered_events:
        Tracer auto-flush threshold (memory bound for long runs).
    """

    trace_dir: Optional[str] = None
    formats: Tuple[str, ...] = ("chrome", "jsonl")
    metrics: bool = True
    buffers: bool = True
    sensors: bool = True
    policies: bool = True
    ports: bool = True
    faults: bool = True
    max_buffered_events: int = 65536

    def __post_init__(self) -> None:
        if not isinstance(self.formats, tuple):
            object.__setattr__(self, "formats", tuple(self.formats))
        unknown = set(self.formats) - set(VALID_FORMATS)
        if unknown:
            raise ValueError(
                f"unknown trace formats {sorted(unknown)}; valid: {VALID_FORMATS}"
            )
        if self.max_buffered_events < 1:
            raise ValueError(
                f"max_buffered_events must be >= 1, got {self.max_buffered_events}"
            )
