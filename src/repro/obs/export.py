"""Telemetry exporters: Prometheus text, JSON artefacts, human tables.

Three audiences:

* machines scraping — :func:`prometheus_text` renders the registry in
  the Prometheus exposition format (metric names sanitised, labels
  preserved);
* files on disk — :func:`write_telemetry` drops a directory of
  ``metrics.json`` / ``metrics.prom`` / ``probes.json`` /
  ``spans.jsonl`` artefacts, and :func:`load_telemetry_dir` reads them
  back;
* humans — ``*_table`` builders return :class:`~repro.analysis.tables.
  Table` rows rendered by ``keddah report`` and ``keddah trace``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.tables import Table
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.probes import ProbeLog
from repro.obs.telemetry import Telemetry
from repro.obs.trace import MemorySink, Span, load_spans, span_children

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

METRICS_JSON = "metrics.json"
METRICS_PROM = "metrics.prom"
PROBES_JSON = "probes.json"
SPANS_JSONL = "spans.jsonl"


# -- Prometheus text format ----------------------------------------------------------


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _escape_label_value(value: str) -> str:
    """Label-value escaping per the Prometheus exposition format spec:
    backslash, double-quote and newline must be escaped inside the
    quoted value (everything else passes through verbatim)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """HELP-text escaping: backslash and newline only (no quotes)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()
                 ) -> str:
    items = list(labels.items()) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{_prom_name(key)}="{_escape_label_value(value)}"'
                    for key, value in items)
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry,
                    help_texts: Optional[Dict[str, str]] = None) -> str:
    """The registry in Prometheus exposition format (text, UTF-8).

    Every metric family gets a ``# HELP`` and ``# TYPE`` header —
    gauges included — and label values are escaped per the exposition
    spec.  ``help_texts`` (dotted metric name -> description) overrides
    the default help line.
    """
    lines: List[str] = []
    seen_types: set = set()
    for metric in registry.metrics():
        name = _prom_name(metric.name)
        if name not in seen_types:
            help_text = (help_texts or {}).get(
                metric.name, f"keddah metric {metric.name}")
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            seen_types.add(name)
        labels = dict(metric.labels)
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            bounds = [str(bound) for bound in metric.buckets] + ["+Inf"]
            for bound, count in zip(bounds, cumulative):
                lines.append(f"{name}_bucket"
                             f"{_prom_labels(labels, (('le', bound),))} {count}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {metric.sum}")
            lines.append(f"{name}_count{_prom_labels(labels)} {metric.count}")
        else:
            lines.append(f"{name}{_prom_labels(labels)} {metric.value}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- file artefacts ------------------------------------------------------------------


def write_telemetry(telemetry: Telemetry, directory: str | Path) -> List[Path]:
    """Write a telemetry directory; returns the paths written.

    ``spans.jsonl`` is written only when the sink kept the spans in
    memory; null-sink telemetry (disabled, or a spawn worker's) has
    none to write.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    paths = []

    metrics_path = root / METRICS_JSON
    metrics_path.write_text(
        json.dumps(telemetry.registry.snapshot(), indent=2, sort_keys=True)
        + "\n", encoding="utf-8")
    paths.append(metrics_path)

    prom_path = root / METRICS_PROM
    prom_path.write_text(prometheus_text(telemetry.registry),
                         encoding="utf-8")
    paths.append(prom_path)

    probes_path = root / PROBES_JSON
    probes_path.write_text(
        json.dumps(telemetry.probes.to_dict(), indent=2, sort_keys=True)
        + "\n", encoding="utf-8")
    paths.append(probes_path)

    if isinstance(telemetry.sink, MemorySink):
        spans_path = root / SPANS_JSONL
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in telemetry.sink.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        paths.append(spans_path)
    return paths


def load_telemetry_dir(directory: str | Path
                       ) -> Tuple[List[Dict[str, Any]], ProbeLog, List[Span]]:
    """Read back (metrics snapshot, probe log, spans) from a directory.

    Missing artefacts load as empty — a campaign telemetry directory
    has metrics but no span stream, and that is fine.  A damaged one
    (a torn ``probes.json``, a truncated ``spans.jsonl``) raises
    :class:`ValueError` naming the file.

    A *pipeline* root (``keddah pipeline --dir DIR``: it has a
    ``nodes/`` of per-stage dirs, or a ``pipeline.json`` spec) loads as
    one view: the run-level ``telemetry/`` as it is, and every
    ``nodes/<name>@<sig>/telemetry/`` with a ``node=<name>`` label on
    its metrics and a ``<name>/`` prefix on its probe series.
    """
    root = Path(directory)
    if not ((root / "nodes").is_dir() or (root / "pipeline.json").is_file()):
        return _load_one_dir(root)
    parts: List[Tuple[Optional[str], Path]] = [(None, root / "telemetry")]
    nodes_dir = root / "nodes"
    if nodes_dir.is_dir():
        parts.extend((node_dir.name.split("@", 1)[0], node_dir / "telemetry")
                     for node_dir in sorted(nodes_dir.iterdir()))
    metrics: List[Dict[str, Any]] = []
    probes = ProbeLog()
    spans: List[Span] = []
    for label, part in parts:
        if not part.is_dir():
            continue
        part_metrics, part_probes, part_spans = _load_one_dir(part)
        if label is None:
            metrics.extend(part_metrics)
        else:
            metrics.extend(dict(entry, labels=dict(entry.get("labels") or {},
                                                   node=label))
                           for entry in part_metrics)
        for name, series in part_probes.series.items():
            probes.series[name if label is None else f"{label}/{name}"] = series
        spans.extend(part_spans)
    return metrics, probes, spans


def _load_one_dir(root: Path
                  ) -> Tuple[List[Dict[str, Any]], ProbeLog, List[Span]]:
    return (_load_artefact(root / METRICS_JSON, _metrics_list, []),
            _load_artefact(root / PROBES_JSON,
                           lambda text: ProbeLog.from_dict(json.loads(text)),
                           ProbeLog()),
            _load_artefact(root / SPANS_JSONL,
                           lambda text: load_spans(text.splitlines()), []))


def _metrics_list(text: str) -> List[Dict[str, Any]]:
    loaded = json.loads(text)
    if not isinstance(loaded, list):
        raise ValueError(f"expected a JSON list, got {type(loaded).__name__}")
    return loaded


def _load_artefact(path: Path, parse: Callable[[str], Any],
                   missing: Any) -> Any:
    """Parse one artefact; ``missing`` if absent, ValueError if damaged."""
    if not path.is_file():
        return missing
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"damaged telemetry artefact {path} "
                         f"({type(exc).__name__}: {exc})") from exc


# -- human tables --------------------------------------------------------------------


def metrics_table(metrics: Iterable[Dict[str, Any]],
                  title: str = "telemetry metrics") -> Table:
    """Counters/gauges/histograms as one table (from a snapshot)."""
    table = Table(title=title, headers=["metric", "type", "value"])
    for entry in metrics:
        labels = entry.get("labels") or {}
        name = entry["name"]
        if labels:
            rendered = ",".join(f"{key}={value}"
                                for key, value in sorted(labels.items()))
            name = f"{name}{{{rendered}}}"
        if entry["type"] == "histogram":
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            value = f"n={entry['count']} mean={mean:.6g} sum={entry['sum']:.6g}"
        else:
            number = entry["value"]
            value = f"{number:.6g}" if isinstance(number, float) else number
        table.add_row(name, entry["type"], value)
    return table


def probes_table(probes: ProbeLog, title: str = "probe series") -> Table:
    """Per-series summary: samples, mean, peak and the peak's time."""
    table = Table(title=title,
                  headers=["series", "samples", "mean", "peak", "peak t (s)"])
    for name, series in sorted(probes.series.items()):
        table.add_row(name, len(series), round(series.mean, 4),
                      round(series.peak, 4), round(series.peak_time, 2))
    return table


def span_summary_table(spans: Sequence[Span],
                       title: str = "span summary") -> Table:
    """Per-kind span counts and simulated-time totals."""
    table = Table(title=title,
                  headers=["kind", "spans", "total sim s", "mean sim s"])
    by_kind: Dict[str, List[Span]] = {}
    for span in spans:
        by_kind.setdefault(span.kind, []).append(span)
    for kind, group in sorted(by_kind.items()):
        total = sum(span.duration for span in group)
        table.add_row(kind, len(group), round(total, 3),
                      round(total / len(group), 4))
    return table


def render_span_tree(spans: Sequence[Span], max_depth: Optional[int] = None,
                     max_children: int = 20,
                     kinds: Optional[Sequence[str]] = None) -> str:
    """Indented text rendering of the span tree.

    ``max_children`` truncates wide levels (a 100-fetch shuffle) with an
    elision marker; ``kinds`` filters which span kinds are printed
    (children of hidden spans are re-parented for display).
    """
    wanted = set(kinds) if kinds else None
    if wanted is not None:
        spans = _filtered_reparented(spans, wanted)
    children = span_children(spans)
    roots = children.get(None, [])
    known = {span.span_id for span in spans}
    for parent_id, group in children.items():
        if parent_id is not None and parent_id not in known:
            roots.extend(group)  # orphans (filtered files) become roots
    roots.sort(key=lambda span: (span.start, span.span_id))
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        end = f"{span.end:.3f}" if span.end is not None else "?"
        lines.append(f"{'  ' * depth}{span.kind}:{span.name} "
                     f"[{span.start:.3f} -> {end}]"
                     + (f" {span.attrs}" if span.attrs else ""))
        kids = children.get(span.span_id, [])
        for child in kids[:max_children]:
            walk(child, depth + 1)
        if len(kids) > max_children:
            lines.append(f"{'  ' * (depth + 1)}... "
                         f"({len(kids) - max_children} more)")

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def _filtered_reparented(spans: Sequence[Span],
                         wanted: set) -> List[Span]:
    """Keep only wanted kinds, re-linking children past hidden spans."""
    by_id = {span.span_id: span for span in spans}
    kept = []
    for span in spans:
        if span.kind not in wanted:
            continue
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None or parent.kind in wanted:
                break
            parent_id = parent.parent_id
        clone = Span(span.span_id, span.kind, span.name, span.start,
                     parent_id=parent_id, attrs=span.attrs)
        clone.end = span.end
        kept.append(clone)
    return kept
