"""Structured logging: one ``configure(verbosity)`` entry point.

Loggers live under the ``repro.*`` stdlib namespace and emit *events
with fields* rather than prose::

    log = get_logger("cli")
    log.info("model.trained", systems=25, rules=180)
    # -> level=info logger=repro.cli event=model.trained systems=25 rules=180

:func:`configure` installs a handler on the ``repro`` root logger with
either a ``key=value`` line formatter (default) or JSON lines
(``json_lines=True``), writing to stderr so stdout stays reserved for
reports and tables.  Verbosity maps ``--quiet``/``-v``/``-vv`` to
ERROR/WARNING/INFO/DEBUG.  Without :func:`configure`, records propagate
to whatever stdlib logging setup the host application has.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO, Optional

from repro.obs.telemetry import current
from repro.obs.tracing import current_context

ROOT_LOGGER_NAME = "repro"

#: Marker attribute so re-configuring replaces only our handler.
_HANDLER_FLAG = "_repro_obs_handler"

_LEVELS = {-1: logging.ERROR, 0: logging.WARNING, 1: logging.INFO, 2: logging.DEBUG}


def _quote(value: object) -> str:
    text = str(value)
    if text == "" or any(c in text for c in ' ="'):
        return json.dumps(text)
    return text


class KeyValueFormatter(logging.Formatter):
    """``level=info logger=repro.x event=... k=v ...`` lines."""

    def format(self, record: logging.LogRecord) -> str:
        parts = [
            f"level={record.levelname.lower()}",
            f"logger={record.name}",
            f"event={_quote(record.getMessage())}",
        ]
        for key, value in getattr(record, "fields", {}).items():
            parts.append(f"{key}={_quote(value)}")
        return " ".join(parts)


class JsonLinesFormatter(logging.Formatter):
    """One JSON object per record."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        payload.update(getattr(record, "fields", {}))
        return json.dumps(payload, default=str)


class StructuredLogger:
    """Thin event+fields facade over one stdlib logger.

    Records emitted inside an active span automatically carry
    ``trace_id``/``span_id`` fields (both formatters render plain
    fields, so the join works in key=value and JSON modes alike), and
    every record — printed or not — feeds the current telemetry's
    :class:`~repro.obs.flight.FlightRecorder`, which is how the black
    box sees DEBUG events the console suppressed.
    """

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    def _log(self, level: int, event: str, fields: dict) -> None:
        context = current_context()
        if context is not None:
            fields.setdefault("trace_id", context.trace_id)
            if context.span_id:
                fields.setdefault("span_id", context.span_id)
        recorder = current().flight
        if recorder is not None:
            recorder.record_log(level, self._logger.name, event, fields)
        if self._logger.isEnabledFor(level):
            self._logger.log(level, event, extra={"fields": fields})

    def debug(self, event: str, **fields: object) -> None:
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._log(logging.ERROR, event, fields)


def get_logger(name: str) -> StructuredLogger:
    """Structured logger under the ``repro.`` namespace."""
    qualified = name if name.startswith(ROOT_LOGGER_NAME) else f"{ROOT_LOGGER_NAME}.{name}"
    return StructuredLogger(logging.getLogger(qualified))


def verbosity_level(verbosity: int) -> int:
    """Map a ``-q``/``-v`` count to a stdlib logging level."""
    return _LEVELS[max(-1, min(2, verbosity))]


def configure(
    verbosity: int = 0,
    stream: Optional[IO[str]] = None,
    json_lines: bool = False,
) -> logging.Logger:
    """(Re)configure the ``repro`` logging tree; returns its root logger.

    ``verbosity``: -1 (quiet) → ERROR, 0 → WARNING, 1 → INFO, ≥2 → DEBUG.
    """
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_FLAG, False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLinesFormatter() if json_lines else KeyValueFormatter())
    setattr(handler, _HANDLER_FLAG, True)
    root.addHandler(handler)
    root.setLevel(verbosity_level(verbosity))
    root.propagate = False
    return root
