"""Campaign engine tests: registry, spec serialization, cache, parallelism.

The determinism tests run real (down-scaled, 14-node) simulations; every
other test avoids the simulator entirely.
"""

import dataclasses
import json

import pytest

from typing import Tuple

from repro.core.basestation import Basestation
from repro.core.config import (
    ScoopConfig,
    ValueDomain,
    canonical_key,
    dataclass_from_dict,
    dataclass_to_dict,
)
from repro.experiments import __main__ as cli
from repro.experiments.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.registry import (
    is_registered,
    known_policies,
    plugin_policies,
    policy_factory,
    register_policy,
    unregister_policy,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    build_motes,
    is_analytical,
    spec_key,
)
from repro.experiments.scenarios import scenario_names, scenario_trials, smoke
from repro.sim.network import Network
from repro.sim.topology import perfect
from repro.workloads import make_workload
from repro.workloads.queries import QueryPlanConfig


def small_spec(policy="scoop", seed=1, **config_overrides):
    """A 14-node spec that simulates in a fraction of a second."""
    config = dict(
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
    config.update(config_overrides)
    return ExperimentSpec(
        policy=policy, workload="gaussian", scoop=ScoopConfig(**config), seed=seed
    )


def fake_result(spec, total=100.0, **kw):
    return ExperimentResult(
        spec=spec,
        breakdown={"data": total / 2, "summary": total / 2},
        total_messages=total,
        **kw,
    )


class TestRegistry:
    def test_paper_policies_registered(self):
        for name in ("scoop", "local", "base", "hash"):
            assert is_registered(name)
            assert name in known_policies()

    def test_register_round_trip(self):
        factory = policy_factory("scoop")
        register_policy("scoop-clone", factory)
        try:
            assert is_registered("scoop-clone")
            assert policy_factory("scoop-clone") is factory
            # A registered policy passes ExperimentSpec validation and
            # builds through the same runner pipeline as the built-ins.
            spec = ExperimentSpec(
                policy="scoop-clone",
                workload="gaussian",
                scoop=ScoopConfig(n_nodes=5, domain=ValueDomain(0, 20)),
            )
            net = Network(perfect(5), seed=1)
            workload = make_workload("gaussian", spec.scoop.domain, 5, seed=1)
            base, nodes = build_motes(spec, net, workload)
            assert isinstance(base, Basestation)
            assert len(nodes) == 4
        finally:
            unregister_policy("scoop-clone")
        assert not is_registered("scoop-clone")
        with pytest.raises(ValueError):
            ExperimentSpec(policy="scoop-clone")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_policy("scoop", policy_factory("scoop"))

    def test_unregister_unknown_rejected(self):
        with pytest.raises(KeyError):
            unregister_policy("never-registered")

    def test_unknown_policy_lists_registered(self):
        with pytest.raises(ValueError, match="scoop"):
            policy_factory("teleport")


class TestSpecSerialization:
    def _specs(self):
        return [
            ExperimentSpec(),
            small_spec(policy="hash", seed=9),
            dataclasses.replace(
                ExperimentSpec(policy="local", workload="real", seed=3),
                query_plan=QueryPlanConfig(kind="nodes", node_frac=0.4),
                topology_kind="geometric",
            ),
        ]

    def test_to_from_dict_is_identity(self):
        for spec in self._specs():
            clone = ExperimentSpec.from_dict(spec.to_dict())
            assert clone == spec
            # Tuple-typed config fields survive the list round trip.
            assert isinstance(clone.scoop.attributes, tuple)
            assert isinstance(clone.query_plan.width_frac, tuple)

    def test_to_dict_is_json_ready(self):
        for spec in self._specs():
            blob = json.dumps(spec.to_dict(), sort_keys=True)
            assert ExperimentSpec.from_dict(json.loads(blob)) == spec

    def test_spec_key_stability_and_sensitivity(self):
        spec = small_spec()
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert spec_key(spec) == spec_key(clone)
        assert spec_key(spec) != spec_key(dataclasses.replace(spec, seed=2))
        hash_spec = small_spec(policy="hash")
        simulated = dataclasses.replace(hash_spec, hash_simulated=True)
        assert spec_key(hash_spec) != spec_key(simulated)
        assert len(spec_key(spec)) == 64  # sha256 hex

    def test_canonical_key_is_order_insensitive(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})

    def test_workload_validated_like_policy(self):
        with pytest.raises(ValueError, match="workload"):
            ExperimentSpec(workload="typo")

    def test_generic_serializer_restores_future_tuple_fields(self):
        # The serializer discovers tuple-typed fields from type hints, so
        # fields added to any config dataclass later round-trip without
        # touching serialization code.
        @dataclasses.dataclass
        class Future:
            pair: Tuple[int, int] = (1, 2)
            name: str = "x"

        obj = Future(pair=(3, 4))
        data = json.loads(json.dumps(dataclass_to_dict(obj)))
        assert data["pair"] == [3, 4]
        assert dataclass_from_dict(Future, data) == obj

    def test_result_round_trip(self):
        result = fake_result(small_spec(), total=42.0, queries_issued=7)
        clone = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        key = spec_key(spec)
        assert cache.get(key) is None
        cache.put(key, fake_result(spec))
        assert cache.get(key).total_messages == 100.0
        assert key in cache

    def test_survives_across_cache_instances(self, tmp_path):
        spec = small_spec()
        key = spec_key(spec)
        ResultCache(tmp_path).put(key, fake_result(spec, total=7.0))
        fresh = ResultCache(tmp_path)
        hit = fresh.get(key)
        assert hit is not None and hit.total_messages == 7.0
        assert fresh.disk_entries() == 1

    def test_corrupt_and_stale_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "deadbeef.json").write_text("{not json")
        assert cache.get("deadbeef") is None
        stale = {"schema": CACHE_SCHEMA_VERSION + 1, "result": {}}
        (tmp_path / "stale.json").write_text(json.dumps(stale))
        assert cache.get("stale") is None

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", fake_result(small_spec()))
        cache.put("k2", fake_result(small_spec(seed=2)))
        # A writer killed between write_text and os.replace leaves a .tmp.
        (tmp_path / "k3.12345.tmp").write_text("{}")
        assert cache.clear() == 3
        assert cache.disk_entries() == 0
        assert not list(tmp_path.glob("*.tmp"))
        assert cache.get("k1") is None

    def test_unwritable_root_degrades_to_memory(self, tmp_path, monkeypatch):
        import pathlib

        cache = ResultCache(tmp_path / "sub")

        def deny(self, *a, **kw):
            raise PermissionError("read-only")

        monkeypatch.setattr(pathlib.Path, "mkdir", deny)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put("k", fake_result(small_spec()))
        # The result survives in memory; nothing landed on disk.
        assert cache.get("k").total_messages == 100.0
        monkeypatch.undo()
        assert cache.disk_entries() == 0

    def test_trial_executes_once_then_replays(self, tmp_path):
        cache = ResultCache(tmp_path)
        campaign = Campaign.from_specs("hash", [small_spec(policy="hash")])
        first = run_campaign(campaign, cache=cache)
        again = run_campaign(campaign, cache=cache)
        assert (first.executed, again.executed) == (1, 0)
        assert again.results == first.results
        # A fresh process-equivalent (new cache over the same dir) also hits.
        disk_hit = run_campaign(campaign, cache=ResultCache(tmp_path))
        assert disk_hit.executed == 0
        assert disk_hit.results == first.results


class TestCampaignExpansion:
    def test_scenarios_expand_with_labels(self):
        for name in scenario_names():
            trials = scenario_trials(name)
            assert trials, name
            for label, spec in trials:
                assert label and isinstance(spec, ExperimentSpec)

    def test_alias_expansion(self):
        assert scenario_trials("E2") == scenario_trials("fig3_middle")
        with pytest.raises(ValueError):
            scenario_trials("E99")

    def test_from_scenario_multi_seed(self):
        campaign = Campaign.from_scenario("smoke", seeds=(1, 2))
        assert len(campaign.trials) == 2 * len(smoke())
        assert {t.spec.seed for t in campaign.trials} == {1, 2}
        # Same labels in both seed replicas.
        labels = [t.label for t in campaign.trials]
        assert labels[: len(smoke())] == labels[len(smoke()):]

    def test_hash_trials_default_analytical(self):
        campaign = Campaign.from_scenario("fig3_middle")
        by_policy = {t.spec.policy: t for t in campaign.trials}
        assert is_analytical(by_policy["hash"].spec)
        assert not is_analytical(by_policy["scoop"].spec)

    def test_scale_override(self):
        small = Campaign.from_scenario("loss_rates", scale=0.1)
        full = Campaign.from_scenario("loss_rates", scale=1.0)
        assert (
            small.trials[0].spec.scoop.duration
            < full.trials[0].spec.scoop.duration == 2400.0
        )

    def test_explicit_scale_beats_repro_bench_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
        small = Campaign.from_scenario("loss_rates", scale=0.1)
        assert small.trials[0].spec.scoop.duration < 2400.0
        # The variable is restored after expansion.
        import os
        assert os.environ["REPRO_BENCH_SCALE"] == "1"


class TestCampaignExecution:
    """Real (down-scaled) simulations: the acceptance-criteria checks."""

    def _campaign(self):
        specs = [small_spec(policy=p, seed=s) for p in ("scoop", "local")
                 for s in (1, 2)]
        return Campaign.from_specs("determinism", specs)

    def test_serial_parallel_identical_and_cache_replays(self, tmp_path):
        serial = run_campaign(
            self._campaign(), jobs=1, cache=ResultCache(tmp_path / "a")
        )
        parallel = run_campaign(
            self._campaign(), jobs=4, cache=ResultCache(tmp_path / "b")
        )
        assert serial.executed == parallel.executed == 4
        for s, p in zip(serial.trials, parallel.trials):
            assert s.trial.key == p.trial.key
            # Every spec-determined field is bit-identical; wall-clock
            # timing (metrics.wall_clock_s) is the one execution-specific
            # field and is excluded by deterministic_dict().
            assert s.result.deterministic_dict() == p.result.deterministic_dict()
            assert s.result.metrics.wall_clock_s > 0
            assert p.result.metrics.wall_clock_s > 0
            assert s.result.total_messages == p.result.total_messages
            assert s.result.breakdown == p.result.breakdown

        # A repeat over the serial run's disk cache executes nothing and
        # reproduces every result exactly — including the recorded timing,
        # so the full dicts match here.
        replay = run_campaign(
            self._campaign(), jobs=4, cache=ResultCache(tmp_path / "a")
        )
        assert replay.executed == 0 and replay.cached == 4
        for s, r in zip(serial.trials, replay.trials):
            assert r.from_cache
            assert r.result.to_dict() == s.result.to_dict()

    def test_failing_trial_preserves_completed_results(self, tmp_path):
        good = small_spec()
        # n=8 reliably yields an unconnected topology -> RuntimeError at
        # run time (spec validation passes).
        bad = small_spec(n_nodes=8)
        cache = ResultCache(tmp_path)
        with pytest.raises(RuntimeError):
            run_campaign(Campaign.from_specs("partial", [good, bad]), cache=cache)
        # The completed sibling was cached before the failure surfaced.
        assert cache.get(spec_key(good)) is not None
        replay = run_campaign(Campaign.from_specs("good", [good]), cache=cache)
        assert replay.executed == 0 and replay.cached == 1

    def test_duplicate_specs_simulate_once(self, tmp_path):
        spec = small_spec()
        campaign = Campaign.from_specs("dup", [spec, spec])
        out = run_campaign(campaign, cache=ResultCache(tmp_path))
        assert out.executed == 1 and out.cached == 1
        assert out.results[0].to_dict() == out.results[1].to_dict()

    def test_node_churn_grid_parallel_matches_serial(self, tmp_path):
        # E14 determinism: the failure schedule is derived from the spec
        # alone, so a churn campaign fanned out over a process pool is
        # bit-identical to a serial run. The registered grid is shrunk to
        # the 14-node fast profile (structure, labels, and churn rates of
        # the real E14 grid are preserved).
        trials = scenario_trials("node_churn")
        assert len(trials) > 2
        fast = dict(
            n_nodes=14,
            domain=ValueDomain(0, 20),
            sample_interval=5.0,
            query_interval=10.0,
            summary_interval=20.0,
            remap_interval=40.0,
            stabilization=60.0,
            duration=240.0,
            beacon_interval=5.0,
            query_reply_window=8.0,
            node_staleness_intervals=2.0,
        )
        shrunk = [
            (label, dataclasses.replace(spec, scoop=ScoopConfig(**fast)))
            for label, spec in trials
        ]
        campaign = Campaign.from_specs("node_churn_fast", shrunk)
        serial = run_campaign(campaign, jobs=1, cache=ResultCache(tmp_path / "a"))
        parallel = run_campaign(campaign, jobs=4, cache=ResultCache(tmp_path / "b"))
        assert serial.executed == parallel.executed == len(trials)
        churn_seen = False
        for s, p in zip(serial.trials, parallel.trials):
            assert s.result.deterministic_dict() == p.result.deterministic_dict()
            if s.trial.spec.churn_rate > 0:
                churn_seen = True
                assert s.result.metrics.survival["nodes_failed"] > 0
        assert churn_seen

    def test_plugin_policy_parallel_matches_serial(self, tmp_path):
        # A plug-in registered from a module-level factory must run under
        # a process pool too (workers re-register it via the initializer).
        register_policy("scoop-plugin", policy_factory("scoop"))
        try:
            assert "scoop-plugin" in plugin_policies()
            assert "scoop" not in plugin_policies()
            specs = [small_spec(policy="scoop-plugin", seed=s) for s in (1, 2)]
            campaign = Campaign.from_specs("plugin", specs)
            serial = run_campaign(campaign, jobs=1, cache=ResultCache(tmp_path / "s"))
            par = run_campaign(campaign, jobs=2, cache=ResultCache(tmp_path / "p"))
            assert [r.deterministic_dict() for r in serial.results] == [
                r.deterministic_dict() for r in par.results
            ]
        finally:
            unregister_policy("scoop-plugin")

    def test_refresh_and_no_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        campaign = Campaign.from_specs("one", [small_spec()])
        first = run_campaign(campaign, cache=cache)
        assert first.executed == 1
        refreshed = run_campaign(campaign, cache=cache, refresh=True)
        assert refreshed.executed == 1
        assert (
            refreshed.results[0].deterministic_dict()
            == first.results[0].deterministic_dict()
        )
        before = cache.disk_entries()
        uncached = run_campaign(campaign, use_cache=False)
        assert uncached.executed == 1
        assert cache.disk_entries() == before


class TestCLI:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "fig3_middle" in out

    def test_run_smoke_then_replay_from_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cli.main(["run", "smoke", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 executed, 0 cache hits" in out
        assert cli.main(["run", "smoke", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 3 cache hits" in out

    def test_run_unknown_scenario(self, capsys):
        assert cli.main(["run", "nope"]) == 2

    def test_clear_cache(self, tmp_path, capsys):
        ResultCache(tmp_path).put("k", fake_result(small_spec()))
        assert cli.main(["clear-cache", "--cache-dir", str(tmp_path)]) == 0
        assert ResultCache(tmp_path).disk_entries() == 0
