"""Text rendering of experiment results in the paper's format, and the
across-seed statistics every reader of a campaign export shares.

:func:`label_stats` is the one reader of per-label values from an
export: ``report``'s tables (:func:`figure_table_markdown`), ``plot``'s
charts and the scenarios' claim checks all go through it, and
:func:`sweep_point` is the one parser of their sweep labels.
"""

from __future__ import annotations

import math
import re
import statistics
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


#: Figure 3's stacked-bar categories, in the paper's legend order.
CATEGORIES = ("data", "summary", "mapping", "query/reply")

#: Reads one value from a trial's ``result`` dict in an export, or
#: ``None`` to leave the trial out.
Reader = Callable[[Dict[str, object]], Optional[float]]

#: One label's (mean, 95% CI half-width) across seeds.
Stats = Tuple[float, float]


#: Two-sided 95% Student-t critical values by degrees of freedom (CRC
#: table); beyond the table the normal approximation 1.96 is used. Kept
#: inline so confidence intervals need no scipy dependency.
# fmt: off
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}
# fmt: on


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value for ``df`` degrees of freedom.

    Between table rows the value for the largest tabulated df **at or
    below** the requested one is used — rounding df down keeps the
    interval conservative (slightly wide), never anti-conservative.
    """
    if df < 1:
        return 0.0
    if df in _T95:
        return _T95[df]
    floor = max(entry for entry in _T95 if entry <= df)
    return _T95[floor]


def sample_stats(values: Sequence[float]) -> Tuple[float, float, float]:
    """(mean, sample stdev, 95% CI half-width) of ``values``.

    One sample has no spread estimate: stdev and CI are 0 (the figure
    tables then show a bare mean, as the single-seed campaigns always
    did).
    """
    n = len(values)
    mean = statistics.fmean(values)
    if n < 2:
        return mean, 0.0, 0.0
    sd = statistics.stdev(values)
    return mean, sd, t_critical_95(n - 1) * sd / math.sqrt(n)


def label_stats(doc: Dict[str, object], read: Reader) -> Dict[str, Stats]:
    """``{label: (mean, 95% CI half-width)}`` of ``read(result)`` across
    the seeds of each trial label in export ``doc``, in first-seen
    order. Trials for which ``read`` returns ``None`` are left out, so a
    value no trial carries yields an empty dict."""
    values: Dict[str, List[float]] = {}
    for trial in doc.get("trials") or []:
        value = read(trial.get("result") or {})
        if value is not None:
            values.setdefault(str(trial.get("label")), []).append(float(value))
    stats: Dict[str, Stats] = {}
    for label, samples in values.items():
        mean, _sd, ci95 = sample_stats(samples)
        stats[label] = (mean, ci95)
    return stats


def result_reader(*path: str) -> Reader:
    """A :data:`Reader` of ``result[path[0]][path[1]]...`` (``None``
    where the trial has no such value, e.g. an analytical trial's
    metrics)."""

    def read(result: Dict[str, object]) -> Optional[float]:
        value: object = result
        for key in path:
            if not isinstance(value, dict):
                return None
            value = value.get(key)
        return value

    return read


def metric_reader(*path: str) -> Reader:
    """A :data:`Reader` of ``result["metrics"][path[0]]...``."""
    return result_reader("metrics", *path)


#: Every trial's total message count, the paper's cost metric.
TOTAL = result_reader("total_messages")


def replies_owed(result: Dict[str, object]) -> Optional[float]:
    """``query_reply_rate`` of a trial whose queries targeted nodes.
    ``None`` where they targeted none (BASE answers from the root), so
    the table prints "—" rather than a rate of 0 for replies never
    owed."""
    if not result.get("mean_nodes_targeted"):
        return None
    return result.get("query_reply_rate")


def owners_reassigned(result: Dict[str, object]) -> Optional[float]:
    """The planner's ``owners_reassigned``: 0 where a planner ran but
    never moved an owner (the counter records no 0), ``None`` where no
    planner ran (LOCAL, BASE)."""
    planner = (result.get("metrics") or {}).get("planner")
    if not planner:
        return None
    return planner.get("owners_reassigned", 0)


def breakdown_stats(doc: Dict[str, object]) -> Dict[str, Dict[str, Stats]]:
    """``{category: label_stats}`` of each Figure-3 category."""
    return {
        cat: label_stats(doc, result_reader("breakdown", cat)) for cat in CATEGORIES
    }


#: A sweep label: ``<param>=<x>/<series...>`` (e.g. ``n=64/scoop``).
_SWEEP_LABEL = re.compile(r"^([^=/]+)=([^/]+)/(.+)$")


def sweep_point(label: str) -> Optional[Tuple[str, str, str]]:
    """``(param, x, series)`` of a sweep label (``n=64/scoop`` is
    ``("n", "64", "scoop")``), or ``None`` for any other label."""
    match = _SWEEP_LABEL.match(label)
    return match.groups() if match else None


def plus_minus(mean: float, ci95: float) -> str:
    """``mean ± ci`` rendering; a bare mean when there is no spread
    estimate (single seed)."""
    if ci95 > 0:
        return f"{mean:.0f} ± {ci95:.0f}"
    return f"{mean:.0f}"


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """GitHub-flavored markdown table."""
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def figure_table_markdown(doc: Dict[str, object]) -> str:
    """The campaign's report in markdown, from an export document
    (:func:`repro.experiments.export.load_campaign_export`): per label,
    the across-seed total and per-category means with 95% confidence
    half-widths, then the outcome, root-load and serving tables of the
    simulated trials and the simulator's throughput."""
    seeds = Counter(str(trial.get("label")) for trial in doc.get("trials") or [])
    categories = breakdown_stats(doc)
    rows = [
        [
            label,
            seeds[label],
            plus_minus(*total),
            *(
                plus_minus(*stats[label]) if label in stats else "—"
                for stats in categories.values()
            ),
        ]
        for label, total in label_stats(doc, TOTAL).items()
    ]
    title = (
        f"**Campaign `{doc.get('name', '?')}`** — seeds {doc.get('seeds', [])}, "
        f"generated {doc.get('generated_at', '?')} "
        f"(mean ± 95% CI across seeds)"
    )
    headers = ["trial", "seeds", "total (messages)", *CATEGORIES]
    parts = [title, markdown_table(headers, rows)]
    for heading, columns in _METRIC_TABLES:
        parts.append(_metric_table(doc, heading, columns))
    parts.append(_throughput_line(doc))
    return "\n\n".join(part for part in parts if part)


#: One column of a metric table: (header, reader, number format).
Column = Tuple[str, Reader, str]

#: The per-label metric tables ``report`` prints under the figure
#: table: (heading, columns). Each covers the simulated trials only.
_METRIC_TABLES: Tuple[Tuple[str, Tuple[Column, ...]], ...] = (
    (
        "Outcomes (mean across seeds):",
        (
            ("stored", result_reader("storage_success_rate"), ".2f"),
            ("at owner", result_reader("owner_hit_rate"), ".2f"),
            ("replies", replies_owed, ".2f"),
            ("completeness", metric_reader("survival", "completeness"), ".2f"),
            ("recall", metric_reader("oracle", "recall_weighted"), ".2f"),
            ("reassigned", owners_reassigned, ".0f"),
        ),
    ),
    (
        "Root load (node 0, mean across seeds):",
        (
            ("root sent", result_reader("root_sent"), ".0f"),
            ("root received", result_reader("root_received"), ".0f"),
            ("root J", result_reader("root_energy_j"), ".2f"),
            ("root rx J", metric_reader("root_energy_j", "radio_rx"), ".2f"),
            ("mean node J", result_reader("mean_node_energy_j"), ".2f"),
            ("load skew", metric_reader("load_skew"), ".2f"),
        ),
    ),
    (
        "Serving scorecard (simulated-time latencies, mean across seeds):",
        (
            ("qps offered", metric_reader("service", "qps_offered"), ".3f"),
            ("qps served", metric_reader("service", "qps_served"), ".3f"),
            ("p50 (s)", metric_reader("service", "latency_p50_s"), ".2f"),
            ("p95 (s)", metric_reader("service", "latency_p95_s"), ".2f"),
            ("p99 (s)", metric_reader("service", "latency_p99_s"), ".2f"),
            ("hit rate", metric_reader("service", "cache_hit_rate"), ".2f"),
            ("shed rate", metric_reader("service", "shed_rate"), ".2f"),
        ),
    ),
)


def _metric_table(
    doc: Dict[str, object], heading: str, columns: Sequence[Column]
) -> str:
    """One markdown table of per-label means over the simulated trials
    (analytical ones have no simulator to measure): a row per label the
    first column reads, "—" where no trial of the label carries a value,
    and an empty string when the first column reads nothing (the serving
    table of a batch campaign)."""
    simulated = {
        "trials": [
            trial
            for trial in doc.get("trials") or []
            if not (trial.get("result") or {}).get("analytical")
        ]
    }
    stats = [(fmt, label_stats(simulated, read)) for _head, read, fmt in columns]
    labels = stats[0][1]
    if not labels:
        return ""
    rows = [
        [
            label,
            *(
                format(values[label][0], fmt) if label in values else "—"
                for fmt, values in stats
            ),
        ]
        for label in labels
    ]
    headers = ["trial", *(head for head, _read, _fmt in columns)]
    return heading + "\n\n" + markdown_table(headers, rows)


def _throughput_line(doc: Dict[str, object]) -> str:
    """Simulator throughput footer: kernel events executed and events/sec
    across the campaign's simulated trials (from ``TrialMetrics.timing``;
    analytical trials carry no simulator and are skipped)."""
    events = 0.0
    rates: List[float] = []
    for trial in doc.get("trials", []):
        metrics = (trial.get("result") or {}).get("metrics") or {}
        timing = metrics.get("timing") or {}
        if "events_processed" in timing:
            events += timing["events_processed"]
            rate = timing.get("events_per_sec", 0.0)
            if rate > 0:
                rates.append(rate)
    if events <= 0:
        return ""
    line = f"Simulator throughput: {events:,.0f} kernel events"
    if rates:
        line += f", mean {sum(rates) / len(rates):,.0f} events/sec per trial"
    return line
