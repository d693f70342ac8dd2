"""E13 — past the paper: 64..256-node scaling under a widened bitmap.

The paper stops at 100 nodes and a 128-bit query bitmap. This grid doubles
the deployment capacity (``XL_NETWORK_CAPACITY`` = 256, so every query
carries a 32-byte bitmap) and scales SCOOP vs LOCAL to 256 nodes —
the index-maintenance-vs-scale question the related storage-index
literature asks, answered on Scoop's own substrate.
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import sweep


def test_scaling_xl(benchmark):
    out = run_scenario(benchmark, "scaling_xl")
    rows = []
    for n, cell in sweep(by_label(out)).items():
        scoop, local = cell["scoop"], cell["local"]
        rows.append(
            [
                n,
                int(scoop.total_messages),
                f"{scoop.storage_success_rate:.0%}",
                int(local.total_messages),
                f"{local.total_messages / scoop.total_messages:.1f}x",
            ]
        )
    emit(
        "scaling_xl",
        format_table(
            ["nodes", "SCOOP msgs", "SCOOP stored", "LOCAL msgs", "LOCAL/SCOOP"],
            rows,
            "E13: SCOOP vs LOCAL at 64..256 nodes (32-byte query bitmap)",
        ),
    )
    assert_claims(out)
