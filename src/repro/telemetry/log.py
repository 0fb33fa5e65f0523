"""Logging for the ``repro`` package: one hierarchy, two channels.

* **Diagnostics** (progress lines, warnings, debug chatter) go through
  the ``repro`` logger hierarchy to *stderr* — ``get_logger("cli")``
  etc., gated by the CLI's ``-v``/``-q`` verbosity.
* **Artifacts** (tables, reports — the program's actual output) go
  through :func:`emit` to *stdout*, always, regardless of verbosity.
  ``repro-noc table3 > table.txt`` keeps working, and diagnostics never
  contaminate machine-readable output.

Handlers resolve ``sys.stdout``/``sys.stderr`` **at emit time** (not at
install time) so stream replacement — pytest's ``capsys``, ``2>``
redirection set up after import — is honoured.

Worker processes spawned by :mod:`repro.experiments.parallel` call
:func:`setup_worker_logging` with the parent's effective level, so
``-v`` verbosity propagates into worker processes.
"""

from __future__ import annotations

import logging
import sys
from typing import Callable, Optional

#: Root of the package's logger hierarchy.
ROOT_LOGGER_NAME = "repro"

#: Private logger carrying artifact output to stdout (never propagates).
_OUTPUT_LOGGER_NAME = "repro.output"


class _DynamicStreamHandler(logging.StreamHandler):
    """StreamHandler bound to a stream *getter*, not a stream object."""

    def __init__(self, stream_getter: Callable[[], object]) -> None:
        logging.Handler.__init__(self)
        self._stream_getter = stream_getter

    @property
    def stream(self):  # type: ignore[override]
        return self._stream_getter()

    @stream.setter
    def stream(self, value) -> None:
        # StreamHandler.setStream / __init__ assign here; the stream is
        # resolved dynamically, so assignments are deliberately ignored.
        pass


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + ".") or name == ROOT_LOGGER_NAME:
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def verbosity_to_level(verbosity: int) -> int:
    """Map a ``-v``/``-q`` count to a logging level.

    0 is the CLI default (INFO: progress lines show), positive counts
    add debug detail, negative counts quiet progressively.
    """
    if verbosity >= 1:
        return logging.DEBUG
    if verbosity == 0:
        return logging.INFO
    if verbosity == -1:
        return logging.WARNING
    return logging.ERROR


def _install_handler(logger: logging.Logger, stream_getter: Callable[[], object]) -> None:
    """Idempotently attach one dynamic-stream handler to ``logger``."""
    for handler in logger.handlers:
        if isinstance(handler, _DynamicStreamHandler):
            return
    handler = _DynamicStreamHandler(stream_getter)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)


def setup_cli_logging(verbosity: int = 0) -> int:
    """Configure diagnostics for a CLI invocation; returns the level.

    Safe to call repeatedly (tests invoke ``main`` many times in one
    process): the handler is installed once, the level just updates.
    """
    level = verbosity_to_level(verbosity)
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.setLevel(level)
    root.propagate = False
    _install_handler(root, lambda: sys.stderr)
    return level


def setup_worker_logging(level: Optional[int]) -> None:
    """Adopt the parent process's log level inside a worker process."""
    if level is None:
        return
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.setLevel(level)
    root.propagate = False
    _install_handler(root, lambda: sys.stderr)


def current_log_level() -> int:
    """Effective level of the ``repro`` hierarchy (for propagation)."""
    return logging.getLogger(ROOT_LOGGER_NAME).getEffectiveLevel()


def _output_logger() -> logging.Logger:
    logger = logging.getLogger(_OUTPUT_LOGGER_NAME)
    if not logger.handlers:
        logger.setLevel(logging.INFO)
        logger.propagate = False
        _install_handler(logger, lambda: sys.stdout)
    return logger


def emit(text: object = "") -> None:
    """Write one artifact line (table, report...) to stdout.

    Equivalent to a bare ``print`` — same bytes, same trailing newline —
    but routed through logging so every user-visible write shares one
    code path (the ``src/`` tree bans bare ``print`` calls in CI).
    """
    _output_logger().info("%s", text)
