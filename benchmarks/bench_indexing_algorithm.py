"""E10 — Section 4: indexing-algorithm practicality (O(V·n²)).

Paper: "In our experiments ... V was at about 150 and n was 62. For the
size of sensor networks we are aiming for — a few hundred nodes — this
algorithm is very practical." This benchmark times index construction at
the paper's scale and at the "few hundred nodes" scale. Unlike the
campaign-backed experiment benchmarks it measures a pure in-process
computation, so it bypasses the result cache on purpose (see DESIGN.md,
E10).
"""

import random

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.core.cost_model import NetworkModel
from repro.core.histogram import Histogram
from repro.core.indexing import build_storage_index
from repro.core.messages import AttributeSummary, SummaryMessage
from repro.core.statistics import BasestationStatistics


def synthetic_statistics(n_nodes: int, domain: ValueDomain, seed: int = 7):
    """A fully populated statistics registry without running a network."""
    rng = random.Random(seed)
    config = ScoopConfig(
        n_nodes=n_nodes,
        domain=domain,
        max_network_size=max(128, n_nodes),
    )
    stats = BasestationStatistics(config)
    for node in range(1, n_nodes):
        center = rng.uniform(domain.lo, domain.hi)
        values = [
            domain.clamp(round(rng.gauss(center, 6.0))) for _ in range(30)
        ]
        summary = SummaryMessage(
            origin=node,
            readings_since_last=7,
            neighbors=tuple(
                (rng.randrange(n_nodes), rng.uniform(0.4, 0.95)) for _ in range(12)
            ),
            blocks=(
                AttributeSummary(
                    attr=0,
                    histogram=Histogram.from_values(values),
                    min_value=min(values),
                    max_value=max(values),
                    sum_values=sum(values),
                    last_sid=-1,
                ),
            ),
        )
        stats.ingest_summary(summary, now=float(node))
        stats.observe_packet_header(node, max(0, node - 1), now=float(node))
    for _ in range(40):
        lo = rng.randint(domain.lo, domain.hi - 5)
        stats.record_query((lo, lo + 5), now=rng.uniform(0, 600))
    return config, stats


@pytest.mark.parametrize("n_nodes", [63, 128])
def test_index_construction_speed(benchmark, n_nodes):
    domain = ValueDomain(0, 149)
    config, stats = synthetic_statistics(n_nodes, domain)
    model = NetworkModel.from_statistics(stats)

    result = benchmark(build_storage_index, 1, stats, model, config, 600.0)
    index = result.index
    assert index.domain == domain
    # Every value has an owner and ranges compact correctly.
    assert len(index.compact()) >= 1
    assert index.all_owners() <= set(range(n_nodes))
