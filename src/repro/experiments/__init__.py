"""Experiment harness: campaign engine, policy registry, runner, scenarios.

``python -m repro.experiments run <scenario> --jobs N --seeds K`` runs a
named scenario as a parallel, cached, multi-seed campaign; see
``python -m repro.experiments list`` and DESIGN.md for the scenario index.
"""

from repro.experiments.cache import ResultCache, default_cache_root
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    Trial,
    TrialResult,
    run_campaign,
)
from repro.experiments.registry import (
    known_policies,
    policy_factory,
    register_policy,
    unregister_policy,
)
from repro.experiments.runner import (
    POLICIES,
    ExperimentResult,
    ExperimentSpec,
    build_motes,
    build_topology,
    is_analytical,
    run_experiment,
    run_hash_analytical,
    scale_spec,
    spec_key,
)
from repro.experiments.scenarios import (
    SCENARIO_ALIASES,
    SCENARIOS,
    scenario_names,
    scenario_trials,
)

__all__ = [
    "POLICIES",
    "SCENARIOS",
    "SCENARIO_ALIASES",
    "Campaign",
    "CampaignResult",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultCache",
    "Trial",
    "TrialResult",
    "build_motes",
    "build_topology",
    "default_cache_root",
    "is_analytical",
    "known_policies",
    "policy_factory",
    "register_policy",
    "run_campaign",
    "run_experiment",
    "run_hash_analytical",
    "scale_spec",
    "scenario_names",
    "scenario_trials",
    "spec_key",
    "unregister_policy",
]
