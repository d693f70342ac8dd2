"""Campaign plots: Figure-3 stacked bars and Figure-4/5 series charts.

Renders chart images straight from a campaign's JSON export
(:mod:`repro.experiments.export`) — no re-simulation, so plotting an old
campaign is free. Two chart kinds cover the paper's figures:

* **breakdown** (Figure 3): one stacked bar per trial label, segments in
  the paper's category order, with a 95%-CI error bar on the total;
* **series** (Figures 4/5): for sweep scenarios whose labels look like
  ``qi=15/scoop/real`` — one line per policy over the swept x value,
  markers with 95%-CI error bars.

Sweep campaigns whose trials carry data-survival metrics (the E14 churn
grid) additionally get a **completeness** series chart: retrieval
completeness vs the swept parameter, aggregated across seeds from the
per-trial survival breakdowns.

The renderer is pure Python emitting SVG text, so it works everywhere
the simulator does.

Colors follow the entity, never the series' position in a particular
chart: every Figure-3 category and every policy has a fixed palette
slot, so the same policy wears the same hue in every chart. The palette
(a colorblind-validated categorical set) keeps adjacent-pair CVD
distance above the accessibility floor; the low-contrast slots are
relieved by direct value labels on the marks, and ``report`` renders the
same numbers as a table.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from repro.experiments.reporting import CATEGORIES, Reader, label_stats, metric_reader

# ----------------------------------------------------------------------
# Palette (light mode): fixed categorical slots, assigned per entity
# ----------------------------------------------------------------------

#: Categorical palette in validated order (adjacent-pair CVD ΔE ≥ 8).
PALETTE = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: Figure-3 message categories → fixed palette slots.
CATEGORY_COLORS: Dict[str, str] = {
    "data": PALETTE[0],
    "summary": PALETTE[1],
    "mapping": PALETTE[2],
    "query/reply": PALETTE[3],
}

#: Storage policies → fixed palette slots (stable across every chart;
#: plug-in policies get the remaining slots in first-seen order).
POLICY_COLORS: Dict[str, str] = {
    "scoop": PALETTE[0],
    "local": PALETTE[1],
    "base": PALETTE[2],
    "hash": PALETTE[3],
}

SURFACE = "#fcfcfb"
TEXT_PRIMARY = "#0b0b0b"
TEXT_SECONDARY = "#52514e"
GRID = "#e8e7e3"
FONT = "system-ui, 'Segoe UI', 'Helvetica Neue', sans-serif"

#: Matches sweep labels: ``<param>=<x>/<series...>`` (e.g. ``n=64/scoop``).
_SERIES_LABEL = re.compile(r"^(?P<param>[^=/]+)=(?P<x>[^/]+)/(?P<series>.+)$")


def _entity_color(name: str, table: Dict[str, str], fallback: Dict[str, str]) -> str:
    """The entity's fixed color; unknown entities claim unused slots in
    first-seen order (recorded in ``fallback`` so the assignment is
    stable for the rest of the process)."""
    if name in table:
        return table[name]
    if name not in fallback:
        used = set(table.values()) | set(fallback.values())
        free = [c for c in PALETTE if c not in used]
        fallback[name] = free[0] if free else PALETTE[-1]
    return fallback[name]


_extra_category_colors: Dict[str, str] = {}
_extra_policy_colors: Dict[str, str] = {}


def category_color(category: str) -> str:
    return _entity_color(category, CATEGORY_COLORS, _extra_category_colors)


def policy_color(policy: str) -> str:
    return _entity_color(policy, POLICY_COLORS, _extra_policy_colors)


# ----------------------------------------------------------------------
# Tiny SVG builder
# ----------------------------------------------------------------------


class _Svg:
    """Accumulates SVG elements; pure text, no dependencies."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>',
        ]

    def rect(self, x, y, w, h, fill, rx: float = 0.0) -> None:
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
            f'rx="{rx:g}" fill="{fill}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke, width: float = 1.0) -> None:
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}" stroke-width="{width:g}"/>'
        )

    def polyline(self, points: Sequence[Tuple[float, float]], stroke) -> None:
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )

    def circle(self, cx, cy, r, fill) -> None:
        self.parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r:g}" fill="{fill}" '
            f'stroke="{SURFACE}" stroke-width="2"/>'
        )

    def text(
        self,
        x,
        y,
        content,
        size: int = 12,
        fill: str = TEXT_PRIMARY,
        anchor: str = "start",
        rotate: float = 0.0,
        weight: str = "normal",
    ) -> None:
        transform = (
            f' transform="rotate({rotate:g} {x:.1f} {y:.1f})"' if rotate else ""
        )
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-family="{FONT}" '
            f'font-size="{size}" fill="{fill}" text-anchor="{anchor}" '
            f'font-weight="{weight}"{transform}>{escape(str(content))}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _nice_ticks(top: float, n: int = 5) -> List[float]:
    """~n ticks from 0 to just past ``top``, at 1/2/5 × 10^k steps."""
    if top <= 0:
        return [0.0, 1.0]
    raw = top / n
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * magnitude
        if step * n >= top:
            break
    return [i * step for i in range(int(math.ceil(top / step)) + 1)]


def _fmt(value: float) -> str:
    if value >= 10000:
        return f"{value / 1000:.0f}k"
    if value == int(value):
        return f"{int(value)}"
    return f"{value:g}"


def _legend(svg: _Svg, entries: List[Tuple[str, str]], x: float, y: float) -> None:
    """One legend row of (name, color) swatches starting at (x, y)."""
    for name, color in entries:
        svg.rect(x, y - 9, 12, 12, color, rx=3)
        svg.text(x + 17, y + 1, name, size=12, fill=TEXT_SECONDARY)
        x += 17 + 7 * len(str(name)) + 22


# ----------------------------------------------------------------------
# Chart 1 — Figure-3 stacked bars
# ----------------------------------------------------------------------


def breakdown_svg(doc: Dict[str, object]) -> str:
    """Figure-3-style stacked bars: one bar per trial label, segments in
    category order, a 95%-CI whisker on the total, and the total as a
    direct label above each bar."""
    labels: List[Dict[str, object]] = list(doc.get("labels") or [])
    if not labels:
        raise ValueError(f"export {doc.get('name')!r} has no label aggregates")
    extra = sorted(
        {
            cat
            for entry in labels
            for cat in entry.get("breakdown", {})
            if cat not in CATEGORIES
        }
    )
    categories = [*CATEGORIES, *extra]

    margin_l, margin_r, margin_t, margin_b = 64, 16, 64, 96
    plot_w = max(420, 56 * len(labels))
    plot_h = 300
    svg = _Svg(margin_l + plot_w + margin_r, margin_t + plot_h + margin_b)

    tops = [
        entry["total"]["mean"] + entry["total"].get("ci95", 0.0) for entry in labels
    ]
    ticks = _nice_ticks(max(tops) * 1.08)
    y_max = ticks[-1]

    def y_of(value: float) -> float:
        return margin_t + plot_h - (value / y_max) * plot_h

    svg.text(
        margin_l,
        24,
        f"Campaign {doc.get('name', '?')} — messages by type",
        size=14,
        weight="bold",
    )
    _legend(
        svg,
        [(c, category_color(c)) for c in categories],
        margin_l,
        44,
    )
    for tick in ticks:
        svg.line(margin_l, y_of(tick), margin_l + plot_w, y_of(tick), GRID)
        svg.text(
            margin_l - 8,
            y_of(tick) + 4,
            _fmt(tick),
            size=11,
            fill=TEXT_SECONDARY,
            anchor="end",
        )

    slot = plot_w / len(labels)
    bar_w = min(40.0, slot * 0.62)
    gap = 2.0  # surface gap between stacked segments
    for i, entry in enumerate(labels):
        x = margin_l + slot * i + (slot - bar_w) / 2
        breakdown: Dict[str, Dict[str, float]] = entry.get("breakdown", {})
        stacked = 0.0
        for cat in categories:
            mean = float(breakdown.get(cat, {}).get("mean", 0.0))
            if mean <= 0:
                continue
            y_lo, y_hi = y_of(stacked), y_of(stacked + mean)
            height = max(1.0, y_lo - y_hi - (gap if stacked else 0.0))
            y_top = y_lo - (0.0 if not stacked else gap) - height
            svg.rect(x, y_top, bar_w, height, category_color(cat), rx=2)
            stacked += mean
        total = entry["total"]
        mean, ci = float(total["mean"]), float(total.get("ci95", 0.0))
        if ci > 0:
            # Few-seed CIs can dwarf the mean; whiskers clamp to the
            # plot area rather than spilling past the axes.
            lo, hi = max(0.0, mean - ci), min(y_max, mean + ci)
            cx = x + bar_w / 2
            svg.line(cx, y_of(lo), cx, y_of(hi), TEXT_PRIMARY, 1.5)
            svg.line(cx - 4, y_of(lo), cx + 4, y_of(lo), TEXT_PRIMARY, 1.5)
            svg.line(cx - 4, y_of(hi), cx + 4, y_of(hi), TEXT_PRIMARY, 1.5)
        svg.text(
            x + bar_w / 2,
            y_of(min(y_max, mean + ci)) - 6,
            _fmt(mean),
            size=11,
            fill=TEXT_PRIMARY,
            anchor="middle",
        )
        svg.text(
            x + bar_w / 2,
            margin_t + plot_h + 16,
            entry.get("label", ""),
            size=11,
            fill=TEXT_SECONDARY,
            anchor="end",
            rotate=-30.0,
        )
    svg.line(
        margin_l,
        margin_t + plot_h,
        margin_l + plot_w,
        margin_t + plot_h,
        TEXT_SECONDARY,
    )
    return svg.render()


# ----------------------------------------------------------------------
# Chart 2 — Figure-4/5 series lines
# ----------------------------------------------------------------------


def parse_series(
    doc: Dict[str, object],
    stats: Optional[Dict[str, Tuple[float, float]]] = None,
) -> Optional[
    Tuple[str, Dict[str, List[Tuple[float, float, float]]], Dict[float, str]]
]:
    """Interpret a sweep campaign's labels as
    ``(param, {series: points}, x_names)``.

    Labels must all look like ``<param>=<x>/<series>`` with one shared
    param; points are ``(x, mean, ci95)`` sorted by x. Categorical
    sweeps (``topo=line/...``) chart x by first appearance, one shared
    index per raw value across all series, and ``x_names`` maps those
    indices back to the raw values for the axis (empty for numeric
    sweeps). Returns ``None`` when the labels don't form a sweep (e.g.
    ``fig3_middle``), in which case only the breakdown chart applies.
    ``stats`` (``{label: (mean, ci95)}``, as :func:`label_stats` returns)
    overrides the document's total-message aggregates, to chart another
    statistic, e.g. retrieval completeness, over the same sweep.
    """
    if stats is None:
        stats = {
            str(entry.get("label", "")): (
                float(entry.get("total", {}).get("mean", 0.0)),
                float(entry.get("total", {}).get("ci95", 0.0)),
            )
            for entry in doc.get("labels") or []
        }
    series: Dict[str, List[Tuple[float, float, float]]] = {}
    param: Optional[str] = None
    cat_index: Dict[str, int] = {}
    for label, (mean, ci95) in stats.items():
        match = _SERIES_LABEL.match(label)
        if match is None:
            return None
        if param is None:
            param = match.group("param")
        elif param != match.group("param"):
            return None
        raw = match.group("x")
        try:
            x = float(raw)
        except ValueError:
            x = float(cat_index.setdefault(raw, len(cat_index)))
        series.setdefault(match.group("series"), []).append((x, mean, ci95))
    if param is None or not series:
        return None
    for points in series.values():
        points.sort(key=lambda p: p[0])
    x_names = {float(i): raw for raw, i in cat_index.items()}
    return param, series, x_names


def series_svg(
    doc: Dict[str, object],
    stats: Optional[Dict[str, Tuple[float, float]]] = None,
    metric: str = "total messages",
) -> str:
    """Figure-4/5-style chart: ``metric`` vs the swept parameter, one
    line per policy with markers and 95%-CI whiskers. By default the
    campaign's total-message aggregates are charted; ``stats``
    substitutes another per-label statistic (see :func:`parse_series`)."""
    parsed = parse_series(doc, stats)
    if parsed is None:
        raise ValueError(
            f"export {doc.get('name')!r} is not a sweep campaign "
            "(labels are not 'param=x/series')"
        )
    param, series, x_names = parsed

    margin_l, margin_r, margin_t, margin_b = 64, 110, 64, 48
    plot_w, plot_h = 480, 300
    svg = _Svg(margin_l + plot_w + margin_r, margin_t + plot_h + margin_b)

    xs = sorted({x for pts in series.values() for x, _m, _c in pts})
    tops = [m + c for pts in series.values() for _x, m, c in pts]
    ticks = _nice_ticks(max(tops) * 1.08)
    y_max = ticks[-1]
    x_lo, x_hi = xs[0], xs[-1]
    span = (x_hi - x_lo) or 1.0

    def x_of(x: float) -> float:
        return margin_l + (x - x_lo) / span * plot_w

    def y_of(value: float) -> float:
        return margin_t + plot_h - (value / y_max) * plot_h

    svg.text(
        margin_l,
        24,
        f"Campaign {doc.get('name', '?')} — {metric} vs {param}",
        size=14,
        weight="bold",
    )
    names = sorted(series, key=lambda s: (s.split("/")[0] not in POLICY_COLORS, s))
    prefixes = [name.split("/")[0] for name in names]

    def color_for(name: str) -> str:
        # Color follows the entity: a series whose policy appears once in
        # this chart wears the policy's fixed hue; when one policy fields
        # several series (scaling's scoop/real vs scoop/random), each full
        # series name claims its own stable slot instead.
        prefix = name.split("/")[0]
        if prefixes.count(prefix) == 1 and prefix in POLICY_COLORS:
            return policy_color(prefix)
        return policy_color(name)

    _legend(svg, [(name, color_for(name)) for name in names], margin_l, 44)
    for tick in ticks:
        svg.line(margin_l, y_of(tick), margin_l + plot_w, y_of(tick), GRID)
        svg.text(
            margin_l - 8,
            y_of(tick) + 4,
            _fmt(tick),
            size=11,
            fill=TEXT_SECONDARY,
            anchor="end",
        )
    for x in xs:
        svg.text(
            x_of(x),
            margin_t + plot_h + 18,
            x_names.get(x, _fmt(x)),
            size=11,
            fill=TEXT_SECONDARY,
            anchor="middle",
        )
    svg.line(
        margin_l,
        margin_t + plot_h,
        margin_l + plot_w,
        margin_t + plot_h,
        TEXT_SECONDARY,
    )
    svg.text(
        margin_l + plot_w / 2,
        margin_t + plot_h + 38,
        param,
        size=12,
        fill=TEXT_SECONDARY,
        anchor="middle",
    )

    for name in names:
        color = color_for(name)
        points = series[name]
        svg.polyline([(x_of(x), y_of(m)) for x, m, _c in points], color)
        for x, m, ci in points:
            if ci > 0:
                lo, hi = max(0.0, m - ci), min(y_max, m + ci)
                svg.line(x_of(x), y_of(lo), x_of(x), y_of(hi), color, 1.5)
            svg.circle(x_of(x), y_of(m), 4, color)
        end_x, end_m, _ = points[-1]
        svg.text(x_of(end_x) + 10, y_of(end_m) + 4, name, size=12)
    return svg.render()


#: Per-trial metrics charted as series over a sweep when the trials
#: carry them: (file-stem suffix, reader, axis name). Retrieval
#: completeness comes from the E14 survival breakdowns, the rest from
#: the E16 serving scorecards.
METRIC_CHARTS: Tuple[Tuple[str, Reader, str], ...] = (
    (
        "completeness",
        metric_reader("survival", "completeness"),
        "retrieval completeness",
    ),
    ("latency", metric_reader("service", "latency_p95_s"), "p95 latency (simulated s)"),
    ("cache-hit", metric_reader("service", "cache_hit_rate"), "cache hit rate"),
    ("shed", metric_reader("service", "shed_rate"), "shed rate"),
)


# ----------------------------------------------------------------------
# Drivers: export document → image files
# ----------------------------------------------------------------------


def plot_campaign(
    doc: Dict[str, object], out_dir: Path, stem: Optional[str] = None
) -> List[Path]:
    """Render every chart that applies to ``doc`` as SVG; returns files
    written.

    Always renders the Figure-3 breakdown chart; sweep campaigns (labels
    like ``n=64/scoop``) additionally get the Figure-4/5 series chart,
    plus the retrieval-completeness series when the trials carry
    survival metrics (E14) and the latency/cache-hit/shed series when
    they carry serving scorecards (E16).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = stem if stem else str(doc.get("name", "campaign"))
    charts: List[Tuple[str, str]] = [("breakdown", breakdown_svg(doc))]
    if parse_series(doc) is not None:
        charts.append(("series", series_svg(doc)))
        for suffix, read, axis in METRIC_CHARTS:
            stats = label_stats(doc, read)
            if stats and parse_series(doc, stats) is not None:
                charts.append((suffix, series_svg(doc, stats, axis)))
    written: List[Path] = []
    for kind, svg_text in charts:
        path = out_dir / f"{base}-{kind}.svg"
        # SVG without an XML declaration is UTF-8 by definition; the
        # titles contain non-ASCII, so never trust the locale default.
        path.write_text(svg_text, encoding="utf-8")
        written.append(path)
    return written
