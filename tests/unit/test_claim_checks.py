"""Tests for the scenarios' registered claim checks.

Every check passes on a synthetic export shaped like its figure (only the
fields the checks read) and reports the claim that a doctored copy of
that export breaks, so no check can be vacuous. ``report`` prints the
failed claims and exits 1, or exits 2 when the export records no scale;
``run --export`` records the scale it ran at.
"""

import json
import math

import pytest

from repro.experiments import __main__ as cli
from repro.experiments.export import (
    EXPORT_KIND,
    EXPORT_SCHEMA_VERSION,
    latest_export,
    load_campaign_export,
)
from repro.experiments.runner import SPEC_SCHEMA_VERSION
from repro.experiments.scenarios import (
    SCENARIOS,
    check_export,
    register_scenario,
    scenario_trials,
)


def sweep_x(label):
    """The swept value of ``label`` (``n=64/scoop`` -> 64.0), else None."""
    head = label.partition("/")[0]
    try:
        return float(head.partition("=")[2].rstrip("s"))
    except ValueError:
        return None


def passing_total(name, policy, workload, x):
    """A trial's total messages, chosen so that every claim of ``name``'s
    check holds (``x`` is the trial's swept value)."""
    if name == "fig3_right":
        return {"equal": 110, "random": 300}.get(workload, 100)
    if name == "fig4_selectivity":
        return {"scoop": 100 + 400 * x, "local": 1000, "base": 800}[policy]
    if name == "fig5_query_interval":
        return 3000 / x if policy == "local" else 100
    if name == "scaling":
        return (10 if workload == "real" else 20) * x
    if name == "sample_interval":
        return 100 + {"unique": 0, "gaussian": 3000, "random": 6000}[workload] / x
    if name == "loss_sweep":
        return 100 + 100 * x if policy == "scoop" else 1000
    if name == "scaling_xl":
        return x if policy == "scoop" else 3 * x
    if name == "multi_attribute":
        return 100 * math.sqrt(x) if policy == "scoop" else 500 * x
    return {"scoop": 100, "local": 300}.get(policy, 400)


#: Per-policy root load and energy for E7: BASE's root is busiest, the
#: mean SCOOP node the thriftiest.
ROOT_RECEIVED = {"scoop": 100, "base": 1000, "local": 50}
ROOT_RX_J = {"scoop": 1.0, "base": 5.0, "local": 0.5}
NODE_J = {"scoop": 1.0, "base": 2.0, "local": 3.0}


def synthetic_result(name, label, spec, total=None):
    """A trial result holding the fields the checks read, shaped so that
    every claim of ``name``'s check holds."""
    if total is None:
        total = passing_total(name, spec.policy, spec.workload, sweep_x(label))
    total = int(round(total))
    summary, mapping, query = total // 5, total // 10, 3 * total // 20
    if spec.policy == "base":
        summary = mapping = query = 0
    if spec.policy == "local":
        summary = mapping = 0
        query = total // 2
    reply = query
    data = total - summary - mapping - query - reply
    k = len(spec.scoop.attributes)
    qps, churn = spec.service_qps, spec.churn_rate
    result = {
        "spec": spec.to_dict(),
        "total_messages": float(total),
        "breakdown": {
            "data": float(data),
            "summary": float(summary),
            "mapping": float(mapping),
            "query/reply": float(query + reply),
        },
        "storage_success_rate": 0.95,
        "owner_hit_rate": 0.9,
        "query_reply_rate": 0.9,
        "root_sent": 10,
        "root_received": ROOT_RECEIVED.get(spec.policy, 100),
        "mean_node_energy_j": NODE_J.get(spec.policy, 1.0),
        "analytical": spec.policy == "hash" and not spec.hash_simulated,
        "metrics": {
            "messages_sent": {
                "data": data,
                "summary": summary,
                "mapping": mapping,
                "query": query,
                "reply": reply,
                "beacon": 50,
            },
            "energy_j": {"radio_tx": 1.0, "flash_write": 0.001},
            "root_energy_j": {"radio_rx": ROOT_RX_J.get(spec.policy, 1.0)},
            "node_load": {"0": 10 + ROOT_RECEIVED.get(spec.policy, 100)},
            "load_skew": 1.5,
            "planner": {
                "model_builds": 2,
                "dijkstra_runs": 5,
                "owners_reassigned": 5 if churn > 0 else 0,
                **{f"a{a}.index_builds": 1 for a in range(k)},
            },
            "survival": {
                "completeness": 0.95 - 0.5 * churn,
                "nodes_failed": 10.0 if churn > 0 else 0.0,
            },
            "attributes": {f"a{a}": {"readings_produced": 10} for a in range(k)},
            "oracle": {"precision_violations": 0, "recall_weighted": 0.8},
            "service": {
                "requests_offered": 100,
                "latency_p95_s": 10 + 10 * qps,
                "latency_p99_s": 20 + 10 * qps,
                "shed_rate": 0.1 * qps,
                "cache_hit_rate": 0.3,
            },
        },
    }
    if result["analytical"]:
        result["metrics"] = None
    return result


def set_path(result, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        result = result[key]
    result[leaf] = value


def synthetic_export(name, scale=0.05, seeds=(1,), doctor=None):
    """An export of registered scenario ``name`` over its real grid.
    ``doctor`` maps a label to the changes its trials get: ``total``
    rebuilds the trial at that total; a dotted path sets one field."""
    doctor = doctor or {}
    trials = []
    for seed in seeds:
        for label, spec in scenario_trials(name, seed=seed):
            changes = dict(doctor.get(label, {}))
            result = synthetic_result(name, label, spec, changes.pop("total", None))
            for path, value in changes.items():
                set_path(result, path, value)
            trials.append({"label": label, "seed": seed, "result": result})
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "kind": EXPORT_KIND,
        "name": name,
        "generated_at": "2026-10-19T00:00:00Z",
        "spec_schema": SPEC_SCHEMA_VERSION,
        "seeds": list(seeds),
        "scale": scale,
        "execution": {"trials": len(trials), "executed": 0, "cached": len(trials)},
        "trials": trials,
    }


#: One doctored export per registered check (plus a few per-trial
#: invariants): (scenario, doctored labels, a claim it must report).
DOCTORED = [
    ("fig3_left", {"local/gaussian": {"total": 50}}, "SCOOP costs less than LOCAL"),
    (
        "fig3_left",
        {"base/gaussian": {"metrics.messages_sent.summary": 3}},
        "BASE sends no summary, mapping, query or reply messages",
    ),
    ("fig3_middle", {"scoop/real": {"total": 350}}, "SCOOP costs less than LOCAL"),
    (
        "fig3_middle",
        {"hash/real": {"analytical": False}},
        "HASH is evaluated analytically",
    ),
    ("fig3_right", {"scoop/random": {"total": 105}}, "RANDOM costs more than EQUAL"),
    (
        "fig4_selectivity",
        {"frac=0.05/scoop": {"total": 600}},
        "SCOOP's cost grows with the fraction of nodes queried",
    ),
    (
        "fig5_query_interval",
        {"qi=45/local/real": {"total": 400}},
        "LOCAL's cost falls by over half",
    ),
    (
        "loss_rates",
        {"scoop/real": {"owner_hit_rate": 0.5}},
        "over 60% are stored at their owner",
    ),
    (
        "root_skew",
        {"scoop/real": {"mean_node_energy_j": 5.0}},
        "the mean SCOOP node spends less energy than the mean LOCAL node",
    ),
    (
        "scaling",
        {"n=100/scoop/real": {"storage_success_rate": 0.7}},
        "REAL stores over 75% at the largest size",
    ),
    (
        "sample_interval",
        {"si=120/scoop/random": {"total": 1000}},
        "the best-to-worst data source gap shrinks",
    ),
    (
        "ablation_extensions",
        {"owner-set-2": {"storage_success_rate": 0.7}},
        "owner-set-2 stores over 80%",
    ),
    (
        "ablation_statistics",
        {"remap=480s": {"storage_success_rate": 0.7}},
        "remap=480s stores over 80%",
    ),
    (
        "topology_profiles",
        {"topo=grid/local": {"total": 50}},
        "SCOOP costs less than LOCAL on grid",
    ),
    (
        "loss_sweep",
        {"loss=0.3/scoop": {"storage_success_rate": 0.8}},
        "SCOOP stores over 85% at 0.3 extra loss",
    ),
    ("scaling_xl", {"n=192/local": {"total": 800}}, "LOCAL's cost grows at every"),
    (
        "node_churn",
        {"churn=0.45/local": {"metrics.survival.completeness": 0.94}},
        "LOCAL's completeness drops by over 0.05",
    ),
    (
        "node_churn",
        {"churn=0/scoop": {"metrics.survival.nodes_failed": 2.0}},
        "nodes fail exactly when the churn rate is above 0",
    ),
    (
        "multi_attribute",
        {"k=4/scoop": {"total": 400}},
        "SCOOP's cost at k=4 is under 3.6x its k=1 cost",
    ),
    (
        "query_service",
        {
            "qps=1.5/scoop": {"metrics.service.shed_rate": 0.0},
            "qps=1.5/local": {"metrics.service.shed_rate": 0.0},
        },
        "the top of the sweep sheds",
    ),
]


CHECKED = sorted(name for name, scenario in SCENARIOS.items() if scenario.check)


class TestRegisteredChecks:
    def test_every_experiment_id_has_a_check(self):
        assert CHECKED == sorted(n for n, s in SCENARIOS.items() if s.alias)
        assert SCENARIOS["smoke"].check is None
        assert len(CHECKED) == 17

    def test_an_aliased_scenario_without_a_check_is_rejected(self):
        with pytest.raises(ValueError, match="needs a check"):

            @register_scenario("unchecked_probe", alias="E99")
            def _probe(seed):
                """A scenario with an experiment id and no claims."""
                return []

        assert "unchecked_probe" not in SCENARIOS

    @pytest.mark.parametrize("name", CHECKED)
    def test_shaped_export_passes(self, name):
        assert check_export(synthetic_export(name)) == []
        assert check_export(synthetic_export(name, scale=1.0, seeds=(1, 2))) == []

    def test_every_check_has_a_doctored_export(self):
        assert sorted({name for name, _doctor, _claim in DOCTORED}) == CHECKED

    @pytest.mark.parametrize("name, doctor, claim", DOCTORED)
    def test_doctored_export_fails_its_claim(self, name, doctor, claim):
        failed = check_export(synthetic_export(name, doctor=doctor))
        assert any(claim in text for text in failed), failed

    def test_comparisons_read_means_across_seeds(self):
        # One seed's SCOOP total above LOCAL's is seed noise while the
        # two-seed mean stays below it; per-trial checks see every seed.
        doc = synthetic_export("fig3_middle", seeds=(1, 2))
        doc["trials"][0]["result"]["total_messages"] = 350.0
        assert check_export(doc) == []
        doc["trials"][0]["result"]["total_messages"] = 550.0
        assert any("SCOOP costs less than LOCAL" in t for t in check_export(doc))

    def test_labels_off_the_registered_grid_fail_alone(self):
        doc = synthetic_export("scaling_xl")
        doc["trials"] = doc["trials"][:-2]
        [claim] = check_export(doc)
        assert "registered grid" in claim

    def test_smoke_has_no_claims(self):
        assert check_export({"name": "smoke", "trials": []}) == []


class TestScaleKeyedBounds:
    def test_e15_recall_floor_rises_at_paper_scale(self):
        doctor = {
            label: {"metrics.oracle.recall_weighted": 0.55}
            for label, _spec in scenario_trials("multi_attribute")
            if label.endswith("/scoop")
        }
        assert check_export(synthetic_export("multi_attribute", doctor=doctor)) == []
        failed = check_export(
            synthetic_export("multi_attribute", scale=1.0, doctor=doctor)
        )
        assert any("oracle recall is at least 0.6" in text for text in failed)

    def test_e13_storage_floor_is_0_8_below_paper_scale(self):
        doctor = {"n=256/scoop": {"storage_success_rate": 0.78}}
        failed = check_export(synthetic_export("scaling_xl", doctor=doctor))
        assert any("SCOOP stores over 80%" in text for text in failed)
        paper = synthetic_export("scaling_xl", scale=1.0, doctor=doctor)
        assert check_export(paper) == []


def write_export(tmp_path, doc):
    path = tmp_path / f"{doc['name']}-2026-10-19T000000Z.json"
    path.write_text(json.dumps(doc))
    return path


class TestReportGates:
    def test_passing_export_exits_0(self, tmp_path, capsys):
        path = write_export(tmp_path, synthetic_export("fig3_middle"))
        assert cli.main(["report", str(path)]) == 0
        assert "every claim of the fig3_middle check holds" in capsys.readouterr().out

    def test_failed_claim_is_printed_and_exits_1(self, tmp_path, capsys):
        doc = synthetic_export("fig3_middle", doctor={"scoop/real": {"total": 350}})
        write_export(tmp_path, doc)
        assert cli.main(["report", "E2", "--export-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "claim failed: SCOOP costs less than LOCAL (350.0, 300.0)" in out

    def test_export_without_scale_exits_2(self, tmp_path, capsys):
        path = write_export(tmp_path, synthetic_export("scaling_xl", scale=None))
        assert cli.main(["report", str(path)]) == 2
        assert "records no scale" in capsys.readouterr().err


class TestExportRecordsScale:
    def test_scale_flag_and_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_dir = tmp_path / "exports"
        run = ["run", "smoke", "--export", "--export-dir", str(out_dir)]
        assert cli.main(run + ["--scale", "0.05"]) == 0
        assert load_campaign_export(latest_export("smoke", out_dir))["scale"] == 0.05
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.07")
        assert cli.main(run) == 0
        assert load_campaign_export(latest_export("smoke", out_dir))["scale"] == 0.07
        capsys.readouterr()
