"""Text rendering of experiment results in the paper's format.

The benchmarks print these tables so a run of ``pytest benchmarks/``
regenerates the same rows/series the paper's figures report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.experiments.runner import ExperimentResult

#: Figure 3's stacked-bar categories, in the paper's legend order.
CATEGORIES = ("data", "summary", "mapping", "query/reply")


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


def _service_table(doc: Dict[str, object]) -> str:
    """Serving scorecard table for query-service campaigns (E16): per
    label, the across-seed mean offered/served rates, latency
    percentiles, cache hit rate and shed rate (from
    ``TrialMetrics.service``; empty string for non-serving campaigns)."""
    by_label: Dict[str, List[Dict[str, float]]] = {}
    for trial in doc.get("trials", []):
        metrics = (trial.get("result") or {}).get("metrics") or {}
        service = metrics.get("service") or {}
        if service:
            by_label.setdefault(str(trial.get("label")), []).append(service)
    if not by_label:
        return ""
    ordered = [
        str(entry.get("label"))
        for entry in doc.get("labels", [])
        if str(entry.get("label")) in by_label
    ] or sorted(by_label)

    def mean_of(snaps: List[Dict[str, float]], key: str) -> float:
        values = [float(s.get(key, 0.0)) for s in snaps]
        return sum(values) / len(values) if values else 0.0

    headers = [
        "trial",
        "qps offered",
        "qps served",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "hit rate",
        "shed rate",
    ]
    rows = []
    for label in ordered:
        snaps = by_label[label]
        rows.append(
            [
                label,
                f"{mean_of(snaps, 'qps_offered'):.3f}",
                f"{mean_of(snaps, 'qps_served'):.3f}",
                f"{mean_of(snaps, 'latency_p50_s'):.2f}",
                f"{mean_of(snaps, 'latency_p95_s'):.2f}",
                f"{mean_of(snaps, 'latency_p99_s'):.2f}",
                f"{mean_of(snaps, 'cache_hit_rate'):.2f}",
                f"{mean_of(snaps, 'shed_rate'):.2f}",
            ]
        )
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
