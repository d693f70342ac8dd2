"""Quickstart: run Scoop against the paper's baselines in one script.

Builds the paper's default experiment (62 sensors + basestation, REAL
correlated light workload, sample and query every 15 s) at a reduced
duration, runs SCOOP / LOCAL / BASE / HASH, and prints the Figure 3-style
message breakdown.

Usage:
    python examples/quickstart.py [--full]

``--full`` runs the paper's complete 40-minute experiment (slower).
"""

import sys

from repro import ExperimentSpec, ScoopConfig, ValueDomain, scale_spec
from repro.experiments.reporting import CATEGORIES, markdown_table
from repro.experiments.runner import build_topology, run_experiment, run_hash_analytical


def main() -> None:
    full = "--full" in sys.argv
    scale = 1.0 if full else 0.2

    config = ScoopConfig(domain=ValueDomain(0, 149))
    results = []
    topology = None
    for policy in ("scoop", "local", "base", "hash"):
        spec = scale_spec(
            ExperimentSpec(policy=policy, workload="real", scoop=config, seed=1),
            scale,
        )
        if topology is None:
            topology = build_topology(spec)
        if policy == "hash":
            # The paper evaluates HASH analytically (no any-to-any routing).
            result = run_hash_analytical(spec, topology=topology)
        else:
            print(f"running {policy} ...")
            result = run_experiment(spec, topology=topology)
        results.append(result)

    print("\nStorage policies on the REAL light trace\n")
    print(
        markdown_table(
            ["system/source", *CATEGORIES, "total"],
            [
                [f"{r.policy}/{r.workload}"]
                + [int(r.breakdown.get(c, 0)) for c in CATEGORIES]
                + [int(r.total_messages)]
                for r in results
            ],
        )
    )
    print()
    scoop = results[0]
    print(f"Scoop storage success: {scoop.storage_success_rate:.0%} (paper ~93%)")
    print(f"Scoop owner-hit rate : {scoop.owner_hit_rate:.0%} (paper ~85%)")
    print(f"Scoop query success  : {scoop.query_reply_rate:.0%} (paper ~78%)")
    ratio = results[2].total_messages / max(scoop.total_messages, 1)
    print(f"BASE / SCOOP message ratio: {ratio:.1f}x (paper: ~4x)")


if __name__ == "__main__":
    main()
