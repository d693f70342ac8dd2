"""Text rendering of experiment results in the paper's format, and the
across-seed statistics every reader of a campaign export shares.

The benchmarks print these tables so a run of ``pytest benchmarks/``
regenerates the same rows/series the paper's figures report.
:func:`label_stats` is the one reader of per-label values from an
export: ``report``'s tables, ``plot``'s charts and the scenarios' claim
checks all go through it.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentResult

#: Figure 3's stacked-bar categories, in the paper's legend order.
CATEGORIES = ("data", "summary", "mapping", "query/reply")

#: Reads one value from a trial's ``result`` dict in an export, or
#: ``None`` to leave the trial out.
Reader = Callable[[Dict[str, object]], Optional[float]]


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




def label_stats(doc: Dict[str, object], read: Reader) -> Dict[str, Tuple[float, float]]:
    """``{label: (mean, 95% CI half-width)}`` of ``read(result)`` across
    the seeds of each trial label in export ``doc``, in first-seen
    order. Trials for which ``read`` returns ``None`` are left out, so a
    value no trial carries yields an empty dict."""
    values: Dict[str, List[float]] = {}
    for trial in doc.get("trials") or []:
        value = read(trial.get("result") or {})
        if value is not None:
            values.setdefault(str(trial.get("label")), []).append(float(value))
    stats: Dict[str, Tuple[float, float]] = {}
    for label, samples in values.items():
        mean, _sd, ci95 = sample_stats(samples)
        stats[label] = (mean, ci95)
    return stats


def metric_reader(group: str, key: str) -> Reader:
    """A :data:`Reader` of ``result["metrics"][group][key]`` (``None``
    where the trial has no such metric, e.g. an analytical trial)."""
    return lambda result: ((result.get("metrics") or {}).get(group) or {}).get(key)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Align a list of rows under headers, monospace-table style."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def breakdown_row(result: ExperimentResult) -> List[object]:
    """One stacked-bar row: policy/workload plus per-category counts."""
    label = f"{result.policy}/{result.workload}"
    cells: List[object] = [label]
    for category in CATEGORIES:
        cells.append(int(result.breakdown.get(category, 0)))
    cells.append(int(result.total_messages))
    return cells


def breakdown_table(results: Sequence[ExperimentResult], title: str) -> str:
    headers = ["system/source", *CATEGORIES, "total"]
    return format_table(headers, [breakdown_row(r) for r in results], title=title)


def series_table(
    x_label: str,
    series: Dict[str, List[float]],
    x_values: Sequence[object],
    title: str,
) -> str:
    """A figure-4/5 style table: one row per x value, one column per policy."""
    headers = [x_label] + [f"{name} (messages)" for name in series]
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [int(series[name][i]) for name in series])
    return format_table(headers, rows, title=title)


def campaign_table(aggregates, title: str) -> str:
    """Per-label campaign summary: seeds, mean/sd/95% CI total, category
    means.

    ``aggregates`` is the output of
    :meth:`repro.experiments.campaign.CampaignResult.aggregates`.
    """
    headers = [
        "trial",
        "seeds",
        "total (mean)",
        "total (sd)",
        "total (ci95)",
        *CATEGORIES,
    ]
    rows = []
    for agg in aggregates:
        rows.append(
            [
                agg.label,
                agg.n,
                f"{agg.mean_total:.0f}",
                f"{agg.stdev_total:.1f}",
                f"{agg.ci95_total:.1f}",
                *[f"{agg.mean_breakdown.get(c, 0.0):.0f}" for c in CATEGORIES],
            ]
        )
    return format_table(headers, rows, title=title)


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
    """The campaign's figure table in markdown, from an export document
    (:func:`repro.experiments.export.load_campaign_export`): per label,
    the across-seed total and per-category means with 95% confidence
    half-widths."""
    labels: List[Dict[str, object]] = doc.get("labels", [])
    categories: List[str] = [c for c in CATEGORIES]
    extra = sorted(
        {
            cat
            for entry in labels
            for cat in entry.get("breakdown", {})
            if cat not in CATEGORIES
        }
    )
    categories += extra
    headers = ["trial", "seeds", "total (messages)", *categories]
    rows = []
    for entry in labels:
        total = entry.get("total", {})
        breakdown = entry.get("breakdown", {})
        row: List[object] = [
            entry.get("label", ""),
            entry.get("n", 0),
            plus_minus(total.get("mean", 0.0), total.get("ci95", 0.0)),
        ]
        for cat in categories:
            stats = breakdown.get(cat)
            row.append(
                plus_minus(stats["mean"], stats.get("ci95", 0.0)) if stats else "—"
            )
        rows.append(row)
    title = (
        f"**Campaign `{doc.get('name', '?')}`** — seeds {doc.get('seeds', [])}, "
        f"generated {doc.get('generated_at', '?')} "
        f"(mean ± 95% CI across seeds)"
    )
    table = title + "\n\n" + markdown_table(headers, rows)
    service = _service_table(doc)
    if service:
        table += "\n\n" + service
    throughput = _throughput_line(doc)
    if throughput:
        table += "\n\n" + throughput
    return table


#: The serving scorecard's columns: (header, ``metrics.service`` key,
#: number format).
_SERVICE_COLUMNS: Tuple[Tuple[str, str, str], ...] = (
    ("qps offered", "qps_offered", ".3f"),
    ("qps served", "qps_served", ".3f"),
    ("p50 (s)", "latency_p50_s", ".2f"),
    ("p95 (s)", "latency_p95_s", ".2f"),
    ("p99 (s)", "latency_p99_s", ".2f"),
    ("hit rate", "cache_hit_rate", ".2f"),
    ("shed rate", "shed_rate", ".2f"),
)


def _service_table(doc: Dict[str, object]) -> str:
    """Serving scorecard table for query-service campaigns (E16): per
    label, the across-seed mean offered/served rates, latency
    percentiles, cache hit rate and shed rate (from
    ``TrialMetrics.service``; empty string for non-serving campaigns)."""
    columns = [
        (fmt, label_stats(doc, metric_reader("service", key)))
        for _head, key, fmt in _SERVICE_COLUMNS
    ]
    labels = columns[0][1]
    if not labels:
        return ""
    headers = ["trial", *(head for head, _key, _fmt in _SERVICE_COLUMNS)]
    rows = [
        [label, *(format(stats[label][0], fmt) for fmt, stats in columns)]
        for label in labels
    ]
    return (
        "Serving scorecard (simulated-time latencies, mean across seeds):\n\n"
        + markdown_table(headers, rows)
    )


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


def rates_table(result: ExperimentResult, title: str) -> str:
    headers = ["metric", "measured", "paper"]
    rows = [
        ["data stored successfully", f"{result.storage_success_rate:.0%}", "~93%"],
        ["stored at mapped owner", f"{result.owner_hit_rate:.0%}", "~85%"],
        ["query results retrieved", f"{result.query_reply_rate:.0%}", "~78%"],
    ]
    return format_table(headers, rows, title=title)
