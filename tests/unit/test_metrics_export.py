"""Tests for the structured metrics pipeline: TrialMetrics, confidence
intervals, the per-campaign JSON export, the report CLI, and code-salted
cache keys."""

import dataclasses
import json
import math
import sys
from typing import List

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments import __main__ as cli
from repro.experiments import salt
from repro.experiments.campaign import CampaignResult, Trial, TrialResult
from repro.experiments.export import (
    EXPORT_SCHEMA_VERSION,
    campaign_to_dict,
    export_campaign,
    latest_export,
    list_exports,
    load_campaign_export,
)
from repro.experiments.reporting import (
    figure_table_markdown,
    plus_minus,
    sample_stats,
    t_critical_95,
)
from repro.experiments.runner import (
    SPEC_SCHEMA_VERSION,
    ExperimentResult,
    ExperimentSpec,
    spec_key,
)
from repro.sim.metrics import TrialMetrics


def small_spec(policy="scoop", seed=1):
    config = ScoopConfig(
        n_nodes=14,
        domain=ValueDomain(0, 20),
        sample_interval=5.0,
        query_interval=10.0,
        summary_interval=20.0,
        remap_interval=40.0,
        stabilization=60.0,
        duration=120.0,
        beacon_interval=5.0,
        query_reply_window=8.0,
    )
    return ExperimentSpec(policy=policy, workload="gaussian", scoop=config, seed=seed)


def sample_metrics(wall_clock=0.25):
    return TrialMetrics(
        messages_sent={"data": 10, "summary": 4, "beacon": 7},
        messages_received={"data": 12, "summary": 5},
        energy_j={
            "radio_tx": 0.5,
            "radio_rx": 0.7,
            "flash_write": 1e-4,
            "flash_read": 1e-5,
        },
        root_energy_j={
            "radio_tx": 0.01,
            "radio_rx": 0.05,
            "flash_write": 0.0,
            "flash_read": 0.0,
        },
        node_load={"0": 30, "1": 12},
        load_skew=1.8,
        planner={"model_builds": 3, "dijkstra_runs": 40},
        sim_time_s=193.0,
        wall_clock_s=wall_clock,
    )


def fake_result(spec, total=100.0, metrics=None, **kw):
    return ExperimentResult(
        spec=spec,
        breakdown={"data": total / 2, "summary": total / 2},
        total_messages=total,
        metrics=metrics,
        **kw,
    )


def fake_campaign_result(name="smoke", totals=(100.0, 140.0)):
    trials = []
    for seed, total in enumerate(totals, start=1):
        spec = small_spec(seed=seed)
        trials.append(
            TrialResult(
                Trial(spec, label="scoop/gaussian"),
                fake_result(spec, total=total, metrics=sample_metrics()),
            )
        )
    return CampaignResult(name=name, trials=trials)


class TestTrialMetrics:
    def test_json_round_trip_is_identity(self):
        metrics = sample_metrics()
        clone = TrialMetrics.from_dict(json.loads(json.dumps(metrics.to_dict())))
        assert clone == metrics

    def test_from_dict_none_passthrough(self):
        assert TrialMetrics.from_dict(None) is None

    def test_result_round_trip_with_and_without_metrics(self):
        spec = small_spec()
        with_metrics = fake_result(spec, metrics=sample_metrics())
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(with_metrics.to_dict()))
        )
        assert clone == with_metrics
        assert isinstance(clone.metrics, TrialMetrics)
        without = fake_result(spec, analytical=True)
        clone = ExperimentResult.from_dict(json.loads(json.dumps(without.to_dict())))
        assert clone == without and clone.metrics is None

    def test_deterministic_dict_zeroes_wall_clock_only(self):
        spec = small_spec()
        a = fake_result(spec, metrics=sample_metrics(wall_clock=0.1))
        b = fake_result(spec, metrics=sample_metrics(wall_clock=9.9))
        assert a.to_dict() != b.to_dict()
        assert a.deterministic_dict() == b.deterministic_dict()
        # Results without metrics are unaffected.
        bare = fake_result(spec)
        assert bare.deterministic_dict() == bare.to_dict()


class TestConfidenceIntervals:
    def test_single_sample_has_no_spread(self):
        assert sample_stats([42.0]) == (42.0, 0.0, 0.0)

    def test_two_samples_match_hand_computation(self):
        mean, sd, ci = sample_stats([10.0, 14.0])
        assert mean == pytest.approx(12.0)
        assert sd == pytest.approx(math.sqrt(8.0))
        # df=1: t = 12.706; ci = t * sd / sqrt(2)
        assert ci == pytest.approx(12.706 * math.sqrt(8.0) / math.sqrt(2.0))

    def test_three_samples_use_df2(self):
        mean, sd, ci = sample_stats([1.0, 2.0, 3.0])
        assert (mean, sd) == (2.0, pytest.approx(1.0))
        assert ci == pytest.approx(4.303 / math.sqrt(3.0))

    def test_t_table_bounds(self):
        assert t_critical_95(0) == 0.0
        assert t_critical_95(1) == pytest.approx(12.706)
        # Between rows, df rounds DOWN (conservative: wider interval).
        assert t_critical_95(35) == pytest.approx(2.042)  # row for df=30
        assert t_critical_95(41) == pytest.approx(2.021)  # row for df=40
        assert t_critical_95(1000) == pytest.approx(1.980)  # row for df=120
        # Monotone non-increasing in df, and never below the normal 1.96.
        values = [t_critical_95(df) for df in range(1, 500)]
        assert values == sorted(values, reverse=True)
        assert min(values) >= 1.960


class TestCampaignExport:
    def test_document_shape(self):
        doc = campaign_to_dict(fake_campaign_result(), jobs=2, elapsed_s=1.5)
        assert doc["schema"] == EXPORT_SCHEMA_VERSION
        assert doc["kind"] == "repro-campaign"
        assert doc["name"] == "smoke"
        assert doc["seeds"] == [1, 2]
        assert doc["cache_salt"] == salt.cache_salt()
        assert doc["execution"]["trials"] == 2
        # Trials and provenance only: per-label statistics are read from
        # the trials, never stored next to them.
        assert "labels" not in doc
        for trial in doc["trials"]:
            assert set(trial) == {"label", "seed", "spec_key", "from_cache", "result"}
            assert trial["spec_key"] == spec_key(
                ExperimentSpec.from_dict(trial["result"]["spec"])
            )

    def test_export_write_load_round_trip(self, tmp_path):
        result = fake_campaign_result()
        path = export_campaign(campaign_to_dict(result), out_dir=tmp_path)
        assert path.parent == tmp_path and path.suffix == ".json"
        doc = load_campaign_export(path)
        # Every trial's result deserializes back to the exact original,
        # metrics included: the export is lossless.
        for trial_doc, tr in zip(doc["trials"], result.trials):
            clone = ExperimentResult.from_dict(trial_doc["result"])
            assert clone == tr.result
            assert clone.metrics == tr.result.metrics

    def test_same_second_exports_do_not_overwrite(self, tmp_path):
        from datetime import datetime, timezone

        stamp = datetime(2026, 7, 30, 12, 0, 0, tzinfo=timezone.utc)
        doc = campaign_to_dict(fake_campaign_result(), generated_at=stamp)
        first = export_campaign(doc, out_dir=tmp_path)
        second = export_campaign(doc, out_dir=tmp_path)
        assert first != second and first.exists() and second.exists()
        assert latest_export("smoke", root=tmp_path) == second
        assert list_exports("smoke", root=tmp_path) == [first, second]
        # The order must survive identical mtimes (coarse-granularity or
        # copied filesystems): the .2 disambiguator compares numerically,
        # not lexicographically (".2.json" < ".json" would invert it).
        import os

        stat = first.stat()
        os.utime(first, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        os.utime(second, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert list_exports("smoke", root=tmp_path) == [first, second]
        assert latest_export("smoke", root=tmp_path) == second
        third = export_campaign(doc, out_dir=tmp_path)
        assert latest_export("smoke", root=tmp_path) == third

    def test_load_rejects_foreign_and_stale_documents(self, tmp_path):
        not_export = tmp_path / "x.json"
        not_export.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a campaign export"):
            load_campaign_export(not_export)
        stale = tmp_path / "y.json"
        stale.write_text(
            json.dumps({"kind": "repro-campaign", "schema": EXPORT_SCHEMA_VERSION + 1})
        )
        with pytest.raises(ValueError, match="schema"):
            load_campaign_export(stale)
        # Schema 1 stored per-label aggregates next to the trials.
        schema1 = tmp_path / "z.json"
        doc = dict(campaign_to_dict(fake_campaign_result()), schema=1, labels=[])
        schema1.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="export schema 1"):
            load_campaign_export(schema1)
        # Trials of another spec schema do not rebuild into today's specs.
        spec7 = tmp_path / "w.json"
        doc = dict(campaign_to_dict(fake_campaign_result()), spec_schema=7)
        spec7.write_text(json.dumps(doc))
        expected = f"spec schema 7; this version reads {SPEC_SCHEMA_VERSION}"
        with pytest.raises(ValueError, match=expected):
            load_campaign_export(spec7)

    def test_latest_export_empty_dir(self, tmp_path):
        assert latest_export(root=tmp_path / "missing") is None

    def test_figure_table_markdown(self):
        doc = campaign_to_dict(fake_campaign_result(totals=(100.0, 140.0)))
        text = figure_table_markdown(doc)
        assert "scoop/gaussian" in text
        assert "±" in text
        assert text.count("|") >= 10  # a real markdown table
        assert "`smoke`" in text
        # Mean ± 95% CI of the two seeds' totals, and of each category.
        half = 12.706 * math.sqrt(800.0) / math.sqrt(2.0)
        assert f"| scoop/gaussian | 2 | {plus_minus(120.0, half)} |" in text

    def test_outcome_and_root_tables_leave_out_analytical_trials(self):
        scoop, hashed = small_spec(), small_spec(policy="hash")
        trials = [
            TrialResult(
                Trial(scoop),
                fake_result(
                    scoop,
                    metrics=sample_metrics(),
                    storage_success_rate=0.9,
                    root_sent=7,
                ),
            ),
            TrialResult(Trial(hashed), fake_result(hashed, analytical=True)),
        ]
        text = figure_table_markdown(campaign_to_dict(CampaignResult("x", trials)))
        # Both labels have a figure-table row ...
        assert "| scoop/gaussian | 1 | 100 |" in text
        assert "| hash/gaussian | 1 | 100 |" in text
        # ... but only the simulated one an outcome and a root-load row.
        outcomes = text.split("Outcomes")[1].split("Root load")[0]
        root = text.split("Root load")[1]
        assert "| scoop/gaussian | 0.90 |" in outcomes
        assert "| scoop/gaussian | 7 |" in root
        assert "1.80 |" in root  # load skew, from the trial's metrics
        assert "hash/gaussian" not in outcomes + root
        # A campaign of analytical trials alone has neither table.
        only_hash = CampaignResult("x", trials[1:])
        text = figure_table_markdown(campaign_to_dict(only_hash))
        assert "Outcomes" not in text and "Root load" not in text

    @staticmethod
    def outcome_row(text: str, label: str) -> List[str]:
        """The cells of ``label``'s row in the outcomes table."""
        outcomes = text.split("Outcomes")[1].split("Root load")[0]
        (line,) = [ln for ln in outcomes.splitlines() if ln.startswith(f"| {label} |")]
        return [cell.strip() for cell in line.strip("|").split("|")]

    def test_replies_are_blank_where_no_reply_was_owed(self):
        """BASE answers every query at the root: its 0.0 reply rate
        stands for no obligation, so the column reads "—", not 0.00."""
        base, scoop = small_spec(policy="base"), small_spec()
        trials = [
            TrialResult(
                Trial(base, label="base/real"),
                fake_result(base, metrics=sample_metrics(), query_reply_rate=0.0),
            ),
            TrialResult(
                Trial(scoop, label="scoop/real"),
                fake_result(
                    scoop,
                    metrics=sample_metrics(),
                    query_reply_rate=0.6,
                    mean_nodes_targeted=5.3,
                ),
            ),
        ]
        text = figure_table_markdown(campaign_to_dict(CampaignResult("x", trials)))
        assert self.outcome_row(text, "base/real")[3] == "—"
        assert self.outcome_row(text, "scoop/real")[3] == "0.60"

    def test_reassigned_is_zero_where_a_planner_ran(self):
        """A node_churn row: SCOOP's planner ran but moved no owner (the
        counter records no 0), so it reads 0; LOCAL ran no planner and
        reads "—"."""
        scoop, local = small_spec(), small_spec(policy="local")
        no_planner = dataclasses.replace(sample_metrics(), planner={})
        trials = [
            TrialResult(
                Trial(scoop, label="churn=0/scoop"),
                fake_result(scoop, metrics=sample_metrics()),
            ),
            TrialResult(
                Trial(local, label="churn=0/local"),
                fake_result(local, metrics=no_planner),
            ),
        ]
        text = figure_table_markdown(campaign_to_dict(CampaignResult("x", trials)))
        assert self.outcome_row(text, "churn=0/scoop")[6] == "0"
        assert self.outcome_row(text, "churn=0/local")[6] == "—"

    def test_plus_minus_single_seed_is_bare_mean(self):
        assert plus_minus(120.0, 0.0) == "120"
        assert plus_minus(120.0, 7.4) == "120 ± 7"


class TestCacheSalt:
    def test_env_override_beats_tree_hash(self, monkeypatch):
        monkeypatch.setenv(salt.SALT_ENV, "pinned")
        assert salt.cache_salt() == "pinned"
        monkeypatch.setenv(salt.SALT_ENV, "")
        assert salt.cache_salt() == ""
        monkeypatch.delenv(salt.SALT_ENV)
        assert salt.cache_salt() == salt._tree_hash_cached()

    def test_source_change_changes_hash(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        before = salt.source_tree_hash(tmp_path)
        (tmp_path / "mod.py").write_text("x = 2\n")
        after = salt.source_tree_hash(tmp_path)
        assert before != after
        # Restoring the content restores the hash (content, not mtime).
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert salt.source_tree_hash(tmp_path) == before

    def test_new_file_changes_hash(self, tmp_path):
        (tmp_path / "a.py").write_text("pass\n")
        before = salt.source_tree_hash(tmp_path)
        (tmp_path / "b.py").write_text("pass\n")
        assert salt.source_tree_hash(tmp_path) != before

    def test_missing_tree_degrades(self, tmp_path):
        assert salt.source_tree_hash(tmp_path / "nope") == "no-source-tree"

    def test_spec_key_mixes_in_salt(self, monkeypatch):
        spec = small_spec()
        monkeypatch.setenv(salt.SALT_ENV, "one")
        first = spec_key(spec)
        assert spec_key(dataclasses.replace(spec, seed=2)) != first
        monkeypatch.setenv(salt.SALT_ENV, "two")
        assert spec_key(spec) != first
        monkeypatch.setenv(salt.SALT_ENV, "one")
        assert spec_key(spec) == first

    def test_package_tree_hash_is_stable_in_process(self):
        assert salt.cache_salt() == salt.cache_salt()
        assert len(salt._tree_hash_cached()) == 64

    def test_default_salt_changes_with_the_interpreter(self, monkeypatch):
        # Builtin float sum() differs from Python 3.12 on, so a cache
        # written by one interpreter must not be replayed by another.
        monkeypatch.delenv(salt.SALT_ENV, raising=False)
        salt._tree_hash_cached.cache_clear()
        here = salt.cache_salt()
        monkeypatch.setattr(sys, "version_info", (3, 99, 0, "final", 0))
        salt._tree_hash_cached.cache_clear()
        try:
            assert salt.cache_salt() != here
        finally:
            salt._tree_hash_cached.cache_clear()


class TestCLIExportAndReport:
    def test_run_export_then_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_dir = tmp_path / "exports"
        assert (
            cli.main(
                ["run", "smoke", "--jobs", "2", "--seeds", "2",
                 "--export", "--export-dir", str(out_dir)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "export:" in out
        exports = list_exports("smoke", root=out_dir)
        assert len(exports) == 1
        doc = load_campaign_export(exports[0])
        assert doc["execution"]["executed"] == 6
        assert doc["seeds"] == [1, 2]
        # Every trial carries its metric breakdowns.
        simulated = [t for t in doc["trials"] if not t["result"]["analytical"]]
        assert simulated
        for trial in simulated:
            metrics = trial["result"]["metrics"]
            assert metrics["messages_sent"]
            assert metrics["energy_j"]["radio_tx"] > 0

        # Replay from cache, export again: the new document records zero
        # executions — the CI cache-replay assertion reads this field.
        assert (
            cli.main(
                ["run", "smoke", "--jobs", "2", "--seeds", "2",
                 "--export", "--export-dir", str(out_dir)]
            )
            == 0
        )
        capsys.readouterr()
        replay_doc = load_campaign_export(latest_export("smoke", root=out_dir))
        assert replay_doc["execution"]["executed"] == 0
        assert replay_doc["execution"]["cached"] == 6

        # The report subcommand renders the latest export.
        assert cli.main(["report", "smoke", "--export-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "scoop/gaussian" in out and "±" in out

    def test_run_prints_the_report_of_its_export(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_dir = str(tmp_path / "exports")
        run = ["run", "smoke", "--seeds", "2", "--export", "--export-dir", out_dir]
        assert cli.main(run) == 0
        printed = capsys.readouterr().out
        assert cli.main(["report", "smoke", "--export-dir", out_dir]) == 0
        reported = capsys.readouterr().out
        doc = load_campaign_export(latest_export("smoke", root=tmp_path / "exports"))
        table = figure_table_markdown(doc)
        assert "Outcomes" in table and "Root load" in table
        assert printed.startswith(table + "\n")
        assert reported.startswith(table + "\n")

    def test_report_accepts_explicit_path(self, tmp_path, capsys):
        doc = campaign_to_dict(fake_campaign_result())
        path = export_campaign(doc, out_dir=tmp_path)
        assert cli.main(["report", str(path)]) == 0
        assert "scoop/gaussian" in capsys.readouterr().out

    def test_report_without_exports_fails_cleanly(self, tmp_path, capsys):
        assert cli.main(["report", "--export-dir", str(tmp_path)]) == 2
        assert "no export" in capsys.readouterr().err