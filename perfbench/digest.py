"""Canonical output digests: what the correctness gate compares.

A :class:`~repro.experiments.runner.ScenarioResult` is rendered as
sorted-key JSON with every host-time field left out (``build_seconds``,
``sim_seconds`` and the telemetry ``phase.*`` wall-clock timings), so two
runs of the same scenario digest equally on any engine and any machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

#: ScenarioResult fields that hold host time, not simulation output.
HOST_TIME_FIELDS = ("build_seconds", "sim_seconds")


def _plain(value):
    """JSON-ready copy: dataclasses to dicts, tuple keys to strings."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {
            ".".join(map(str, key)) if isinstance(key, tuple) else str(key): _plain(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def canonical(result) -> dict:
    """The deterministic part of a ScenarioResult as plain JSON data."""
    blob = _plain(result)
    for name in HOST_TIME_FIELDS:
        del blob[name]
    telemetry = blob.get("telemetry")
    if telemetry is not None:
        telemetry["metrics"] = {
            kind: {k: v for k, v in entries.items() if not k.startswith("phase.")}
            for kind, entries in telemetry["metrics"].items()
        }
    return blob


def result_digest(result) -> str:
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
