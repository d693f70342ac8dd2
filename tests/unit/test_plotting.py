"""Unit tests for the chart renderer, the ``plot``/``list`` CLI, and the
scenario registry's descriptions."""

import json
import re
import xml.etree.ElementTree as ET

import pytest

from repro.experiments import __main__ as cli
from repro.experiments.campaign import Campaign
from repro.experiments.export import EXPORT_KIND, EXPORT_SCHEMA_VERSION
from repro.experiments.plotting import (
    breakdown_svg,
    parse_series,
    plot_campaign,
    policy_color,
    series_svg,
)
from repro.experiments.reporting import label_stats, metric_reader
from repro.experiments.runner import SPEC_SCHEMA_VERSION
from repro.experiments.scenarios import (
    SCENARIOS,
    canonical_scenario_name,
    scenario_trials,
)


def trial(label, total, seed=1, breakdown=None, **metrics):
    """One export trial: its total, a Figure-3 breakdown (half data, half
    query/reply unless given) and any ``metrics`` groups."""
    breakdown = breakdown or {"data": total / 2, "query/reply": total / 2}
    result = {"total_messages": total, "breakdown": breakdown, "metrics": metrics}
    return {"label": label, "seed": seed, "from_cache": False, "result": result}


def seeds(label, mean, spread=0.0, **metrics):
    """Two seeds of ``label`` whose totals average to ``mean``."""
    return [
        trial(label, mean - spread, seed=1, **metrics),
        trial(label, mean + spread, seed=2, **metrics),
    ]


def make_doc(trials, name="smoke"):
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "kind": EXPORT_KIND,
        "name": name,
        "generated_at": "2026-07-30T00:00:00Z",
        "spec_schema": SPEC_SCHEMA_VERSION,
        "seeds": [1, 2],
        "execution": {"trials": len(trials), "executed": 0, "cached": len(trials)},
        "trials": trials,
    }


BAR_DOC = make_doc(
    [
        *seeds("scoop/real", 1200.0, spread=5.0),
        *seeds("local/real", 4100.0),
        *seeds("base/real", 6300.0, spread=700.0),  # CI dwarfing the mean
    ]
)

SWEEP_DOC = make_doc(
    [
        entry
        for n, mean in ((64, 1000.0), (128, 2000.0), (256, 3500.0))
        for policy, total in (("scoop", mean), ("local", mean * 3))
        for entry in seeds(f"n={n}/{policy}", total, spread=2.0)
    ],
    name="scaling_xl",
)

CATEGORICAL_DOC = make_doc(
    [
        trial(f"topo={kind}/scoop", 1000.0 + 10 * i)
        for i, kind in enumerate(("line", "grid", "testbed"))
    ],
    name="topology_profiles",
)

#: An E14-shaped export: sweep labels plus per-trial survival metrics.
CHURN_DOC = make_doc(
    [
        trial(
            f"churn={rate:g}/{policy}",
            1000.0,
            seed=seed,
            survival={"completeness": completeness - seed * 0.01},
        )
        for rate, completeness in ((0.0, 0.95), (0.3, 0.75))
        for policy in ("scoop", "local")
        for seed in (1, 2)
    ],
    name="node_churn",
)


def svg_root(text):
    return ET.fromstring(text)  # raises on malformed XML


class TestBreakdownChart:
    def test_renders_well_formed_svg(self):
        svg = breakdown_svg(BAR_DOC)
        root = svg_root(svg)
        assert root.tag.endswith("svg")
        assert "scoop/real" in svg and "local/real" in svg

    def test_marks_stay_inside_viewbox(self):
        svg = breakdown_svg(BAR_DOC)
        root = svg_root(svg)
        width = float(root.get("width"))
        height = float(root.get("height"))
        for el in root.iter():
            for attr in ("x", "x1", "x2", "cx"):
                if el.get(attr):
                    assert -1 <= float(el.get(attr)) <= width + 1, el.attrib
            for attr in ("y", "y1", "y2", "cy"):
                if el.get(attr):
                    assert -1 <= float(el.get(attr)) <= height + 1, el.attrib

    def test_empty_export_rejected(self):
        with pytest.raises(ValueError):
            breakdown_svg(make_doc([]))


class TestSeriesParsing:
    def test_numeric_sweep(self):
        param, series, x_names = parse_series(SWEEP_DOC)
        assert param == "n"
        assert set(series) == {"scoop", "local"}
        assert [x for x, _m, _c in series["scoop"]] == [64.0, 128.0, 256.0]
        assert x_names == {}

    def test_categorical_sweep_indexes_by_first_appearance(self):
        param, series, x_names = parse_series(CATEGORICAL_DOC)
        assert param == "topo"
        assert [x for x, _m, _c in series["scoop"]] == [0.0, 1.0, 2.0]
        assert x_names == {0.0: "line", 1.0: "grid", 2.0: "testbed"}

    def test_non_sweep_is_none(self):
        assert parse_series(BAR_DOC) is None

    def test_mixed_params_are_not_a_sweep(self):
        doc = make_doc([trial("n=64/scoop", 10.0), trial("qi=5/scoop", 20.0)])
        assert parse_series(doc) is None

    def test_reads_the_trials_across_seeds(self):
        _param, series, _x_names = parse_series(SWEEP_DOC)
        x, mean, ci95 = series["local"][0]
        assert (x, mean) == (64.0, 3000.0)
        assert ci95 == pytest.approx(12.706 * 2.0)  # sd 2*sqrt(2), n 2


class TestSeriesChart:
    def test_one_line_per_policy_with_whiskers(self):
        svg = series_svg(SWEEP_DOC)
        svg_root(svg)
        assert svg.count("<polyline") == 2
        # every point carries a marker
        assert svg.count("<circle") == 6
        assert "total messages vs n" in svg

    def test_policy_colors_are_entity_stable(self):
        assert policy_color("scoop") != policy_color("local")
        svg = series_svg(SWEEP_DOC)
        assert policy_color("scoop") in svg and policy_color("local") in svg

    def test_categorical_axis_names_values(self):
        svg = series_svg(CATEGORICAL_DOC)
        for kind in ("line", "grid", "testbed"):
            assert kind in svg

    def test_same_policy_series_get_distinct_colors(self):
        # E8-style labels: two scoop series differing only by workload
        # must not render as identically colored lines.
        doc = make_doc(
            [
                trial(f"n={n}/scoop/{workload}", mean)
                for n, mean in ((25, 900.0), (63, 1800.0))
                for workload, mean in (("real", mean), ("random", mean * 2))
            ],
            name="scaling",
        )
        svg = series_svg(doc)
        strokes = {
            m for m in re.findall(r'polyline[^>]*stroke="(#[0-9a-f]{6})"', svg)
        }
        assert len(strokes) == 2

    def test_non_sweep_rejected(self):
        with pytest.raises(ValueError):
            series_svg(BAR_DOC)


COMPLETENESS = metric_reader("survival", "completeness")


class TestCompletenessChart:
    def test_labels_aggregate_across_seeds(self):
        stats = label_stats(CHURN_DOC, COMPLETENESS)
        # Mean of the two seeds (0.95 - 0.01, 0.95 - 0.02) = 0.935.
        assert stats["churn=0/scoop"][0] == pytest.approx(0.935)
        assert stats["churn=0.3/local"][0] == pytest.approx(0.735)
        assert stats["churn=0/scoop"][1] > 0

    def test_no_survival_data_is_empty(self):
        assert label_stats(SWEEP_DOC, COMPLETENESS) == {}

    def test_renders_series_chart_with_metric_title(self, tmp_path):
        plot_campaign(CHURN_DOC, tmp_path, stem="churn")
        svg = (tmp_path / "churn-completeness.svg").read_text()
        svg_root(svg)
        assert "retrieval completeness" in svg
        assert "churn" in svg


class TestPlotCampaign:
    def test_bar_doc_writes_breakdown_only(self, tmp_path):
        written = plot_campaign(BAR_DOC, tmp_path)
        assert [p.name for p in written] == ["smoke-breakdown.svg"]
        assert written[0].stat().st_size > 0
        svg_root(written[0].read_text())

    def test_sweep_doc_writes_both_charts(self, tmp_path):
        written = plot_campaign(SWEEP_DOC, tmp_path, stem="scaling_xl-20260730")
        assert [p.name for p in written] == [
            "scaling_xl-20260730-breakdown.svg",
            "scaling_xl-20260730-series.svg",
        ]
        for path in written:
            svg_root(path.read_text())

    def test_churn_doc_writes_completeness_chart_too(self, tmp_path):
        written = plot_campaign(CHURN_DOC, tmp_path, stem="node_churn-x")
        assert [p.name for p in written] == [
            "node_churn-x-breakdown.svg",
            "node_churn-x-series.svg",
            "node_churn-x-completeness.svg",
        ]
        for path in written:
            svg_root(path.read_text())


def write_export(tmp_path, doc):
    path = tmp_path / f"{doc['name']}-2026-07-30T000000Z.json"
    path.write_text(json.dumps(doc))
    return path


class TestPlotCLI:
    def test_plot_latest_export(self, tmp_path, capsys):
        write_export(tmp_path, SWEEP_DOC)
        code = cli.main(["plot", "--export-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "plots") in out
        images = sorted(p.name for p in (tmp_path / "plots").iterdir())
        assert images == [
            "scaling_xl-2026-07-30T000000Z-breakdown.svg",
            "scaling_xl-2026-07-30T000000Z-series.svg",
        ]

    def test_plot_explicit_file_and_out_dir(self, tmp_path, capsys):
        path = write_export(tmp_path, BAR_DOC)
        out_dir = tmp_path / "images"
        code = cli.main(["plot", str(path), "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / f"{path.stem}-breakdown.svg").is_file()

    def test_plot_without_exports_names_directory(self, tmp_path, capsys):
        code = cli.main(["plot", "smoke", "--export-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "--export" in err

    def test_plot_rejects_bad_format(self, tmp_path, capsys):
        """Charts are SVG only: ``--format`` is an unknown argument."""
        write_export(tmp_path, BAR_DOC)
        with pytest.raises(SystemExit) as exc:
            cli.main(["plot", "--export-dir", str(tmp_path), "--format", "svg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestReportAndRunErrors:
    def test_report_without_exports_names_directory(self, tmp_path, capsys):
        code = cli.main(["report", "smoke", "--export-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err

    def test_report_missing_file_is_a_clear_error(self, tmp_path, capsys):
        code = cli.main(["report", str(tmp_path / "nope.json")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_scenario_suggests_list(self, tmp_path, capsys):
        code = cli.main(["run", "figure99", "--no-cache"])
        assert code == 2
        assert "list" in capsys.readouterr().err
        code = cli.main(["report", "figure99", "--export-dir", str(tmp_path)])
        assert code == 2
        assert "list" in capsys.readouterr().err


class TestScenarioRegistry:
    def test_list_prints_descriptions(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name, scenario in SCENARIOS.items():
            assert name in out
            assert scenario.description in out

    def test_every_scenario_has_description_and_new_aliases(self):
        for name in ("topology_profiles", "loss_sweep", "scaling_xl"):
            assert SCENARIOS[name].description
        assert canonical_scenario_name("E13") == "scaling_xl"

    def test_campaign_from_alias_canonicalizes_its_name(self):
        # A campaign run as "E13" exports as "scaling_xl-<stamp>.json",
        # which is the glob `report E13`/`plot scaling_xl` both search.
        campaign = Campaign.from_scenario("E13", seeds=(1,), scale=0.05)
        assert campaign.name == "scaling_xl"
        grid = [label for label, _spec in scenario_trials("scaling_xl")]
        assert [t.label for t in campaign.trials] == grid
