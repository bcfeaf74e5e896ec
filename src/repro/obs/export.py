"""Serialization and aggregation of tracer reports.

A *report* is the plain dict returned by
:meth:`repro.obs.Tracer.report`.  This module renders reports to JSON
and CSV and merges per-instance reports into a total — the three
operations the ``python -m repro report`` command and the benchmark
harness need — plus the Prometheus text exposition format
(:func:`to_prometheus`) that backs the serving layer's ``/metrics``
endpoint.
"""

from __future__ import annotations

import io
import json
import re
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .tracer import Tracer

__all__ = [
    "as_report",
    "to_json",
    "to_csv",
    "csv_rows",
    "merged_report",
    "to_prometheus",
]

ReportLike = Union[Tracer, Dict[str, Any]]


def as_report(source: ReportLike) -> Dict[str, Any]:
    """Accept either a :class:`Tracer` or an already-built report dict."""
    if isinstance(source, Tracer):
        return source.report()
    return source


def to_json(source: ReportLike, indent: int = 2) -> str:
    """The report as a JSON document (sorted counters, stable order)."""
    return json.dumps(as_report(source), indent=indent)


def csv_rows(source: ReportLike) -> Iterator[Tuple[str, str, float, int]]:
    """Flatten a report into ``(kind, name, value, calls)`` rows.

    Counter rows use ``kind="counter"`` with ``calls=0``; span rows use
    ``kind="span"`` with the aggregated seconds as the value.
    """
    report = as_report(source)
    for name, value in report.get("counters", {}).items():
        yield ("counter", name, value, 0)
    for span in report.get("spans", []):
        yield ("span", span["name"], span["seconds"], span["calls"])


def to_csv(source: ReportLike) -> str:
    """The report as CSV text with a ``kind,name,value,calls`` header."""
    out = io.StringIO()
    out.write("kind,name,value,calls\n")
    for kind, name, value, calls in csv_rows(source):
        out.write(f"{kind},{name},{value:g},{calls}\n")
    return out.getvalue()


def merged_report(reports: Sequence[ReportLike]) -> Dict[str, Any]:
    """Sum counters and span statistics across reports.

    Events are not merged (they are per-run evidence, and concatenating
    them across instances would scramble their timelines); the result
    records how many reports went in instead.
    """
    counters: Dict[str, float] = {}
    spans: Dict[str, List[float]] = {}
    dropped = 0
    items = [as_report(r) for r in reports]
    for report in items:
        for name, value in report.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for span in report.get("spans", []):
            stat = spans.setdefault(span["name"], [0, 0.0])
            stat[0] += span["calls"]
            stat[1] += span["seconds"]
        dropped += report.get("dropped_events", 0)
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "spans": [
            {"name": name, "calls": int(calls), "seconds": round(seconds, 6)}
            for name, (calls, seconds) in sorted(spans.items())
        ],
        "events": [],
        "meta": {"merged_reports": len(items)},
        "dropped_events": dropped,
    }


_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(prefix: str, name: str) -> str:
    """Sanitize a dotted counter name into a Prometheus metric name."""
    flat = _METRIC_NAME_RE.sub("_", f"{prefix}_{name}")
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


def _format_value(value: float) -> str:
    """Render a metric value the way Prometheus expects (no exponent
    surprises for integral counters)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus(
    source: ReportLike,
    prefix: str = "repro",
    gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """Render a report in the Prometheus text exposition format (0.0.4).

    Counters become ``<prefix>_<name>_total`` counter families (dots
    and other non-identifier characters flattened to underscores), and
    every span path becomes one sample of the two shared families
    ``<prefix>_span_seconds_total`` / ``<prefix>_span_calls_total``,
    labelled ``{span="path"}``.  ``gauges`` adds point-in-time values
    (queue depths, in-flight work) under ``<prefix>_<name>``; a gauge
    name may carry its own ``{label="..."}`` suffix, which is kept
    verbatim while the ``# TYPE`` header uses the bare family name.
    """
    report = as_report(source)
    out = io.StringIO()
    for name in sorted(report.get("counters", {})):
        metric = _metric_name(prefix, name) + "_total"
        out.write(f"# TYPE {metric} counter\n")
        out.write(f"{metric} {_format_value(report['counters'][name])}\n")
    spans = sorted(report.get("spans", []), key=lambda s: s["name"])
    if spans:
        seconds_metric = f"{prefix}_span_seconds_total"
        calls_metric = f"{prefix}_span_calls_total"
        out.write(f"# TYPE {seconds_metric} counter\n")
        for span in spans:
            label = span["name"].replace("\\", "\\\\").replace('"', '\\"')
            out.write(
                f'{seconds_metric}{{span="{label}"}} '
                f"{_format_value(span['seconds'])}\n"
            )
        out.write(f"# TYPE {calls_metric} counter\n")
        for span in spans:
            label = span["name"].replace("\\", "\\\\").replace('"', '\\"')
            out.write(
                f'{calls_metric}{{span="{label}"}} '
                f"{_format_value(span['calls'])}\n"
            )
    seen_families = set()
    for name in sorted(gauges or {}):
        bare = name.split("{", 1)[0]
        family = _metric_name(prefix, bare)
        sample = family + name[len(bare):]
        if family not in seen_families:
            out.write(f"# TYPE {family} gauge\n")
            seen_families.add(family)
        out.write(f"{sample} {_format_value(gauges[name])}\n")
    return out.getvalue()
