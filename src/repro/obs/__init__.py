"""repro.obs — the deterministic observability plane.

Sim-time tracing (:mod:`repro.obs.trace`), the metrics hub and its instruments
(:mod:`repro.obs.metrics`), Chrome-trace export (:mod:`repro.obs.export`)
and the ambient installation context (:mod:`repro.obs.context`).  See
DESIGN.md, "The observability plane".

This ``__init__`` is deliberately lazy (PEP 562): ``repro.net.network``
imports ``repro.obs.context`` at module scope, which executes this file —
eagerly importing the tracer here would drag the store plane (and numpy)
into every network import and recreate the import cycle the context
module exists to break.  ``observe`` is the one front-door helper worth
defining here, and it imports its machinery inside the function body.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.obs.context import Observation, current_observation, swap_observation

__all__ = [
    "MetricsHub",
    "Observation",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "current_observation",
    "load_trace",
    "observe",
    "render_chrome",
    "render_metrics",
    "render_text",
    "swap_observation",
]

_LAZY = {
    "MetricsHub": ("repro.obs.metrics", "MetricsHub"),
    "render_metrics": ("repro.obs.metrics", "render_metrics"),
    "SpanRecord": ("repro.obs.trace", "SpanRecord"),
    "Tracer": ("repro.obs.trace", "Tracer"),
    "load_trace": ("repro.obs.trace", "load_trace"),
    "chrome_trace": ("repro.obs.export", "chrome_trace"),
    "render_chrome": ("repro.obs.export", "render_chrome"),
    "render_text": ("repro.obs.export", "render_text"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


@contextmanager
def observe(
    trace: Optional[str] = None,
    trace_format: Optional[str] = None,
    metrics: bool = True,
    name: str = "run",
):
    """Install an observation for the extent of the ``with`` block.

    ``trace`` names a journal path (``.rcol`` infers the columnar format
    unless ``trace_format`` says otherwise); ``metrics=False`` installs a
    tracer-only observation.  The previous observation — usually ``None`` —
    is restored on exit, and the tracer's journal is closed even on error,
    so a crashed run still leaves a valid (torn-tail-repairable) trace.

    Yields the :class:`Observation`, whose ``tracer``/``metrics`` halves
    the caller reads afterwards (spans for export, the hub for a snapshot).
    """
    from repro.obs.metrics import MetricsHub
    from repro.obs.trace import Tracer

    tracer = Tracer()
    if trace is not None:
        tracer.begin_journal(trace, format=trace_format, name=name)
    observation = Observation(
        tracer=tracer, metrics=MetricsHub() if metrics else None
    )
    previous = swap_observation(observation)
    try:
        yield observation
    finally:
        swap_observation(previous)
        tracer.finish()
