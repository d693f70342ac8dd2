"""Workloads: the five data sources of the paper plus query generation."""

from typing import Optional

from repro.core.config import ValueDomain
from repro.workloads.base import Workload
from repro.workloads.multi import MultiAttributeWorkload
from repro.workloads.queries import QueryGenerator, QueryPlanConfig
from repro.workloads.real_trace import CorrelatedLightWorkload
from repro.workloads.synthetic import (
    EqualWorkload,
    GaussianWorkload,
    RandomWorkload,
    UniqueWorkload,
)

#: Workload names as used in the paper's figures.
WORKLOAD_NAMES = ("unique", "equal", "real", "gaussian", "random")


def make_workload(
    name: str, domain: ValueDomain, n_nodes: int, seed: int = 0, positions=None
) -> Workload:
    """Factory over the paper's workload names (Figure 3's data sources).

    ``positions`` (node coordinates from the topology) enable the REAL
    trace's geographic locality; the synthetic sources ignore them.
    """
    factories = {
        "unique": UniqueWorkload,
        "equal": EqualWorkload,
        "random": RandomWorkload,
        "gaussian": GaussianWorkload,
        "real": CorrelatedLightWorkload,
    }
    if name not in factories:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(factories)}"
        )
    return factories[name](domain, n_nodes, seed=seed, positions=positions)


__all__ = [
    "CorrelatedLightWorkload",
    "EqualWorkload",
    "GaussianWorkload",
    "MultiAttributeWorkload",
    "QueryGenerator",
    "QueryPlanConfig",
    "RandomWorkload",
    "UniqueWorkload",
    "WORKLOAD_NAMES",
    "Workload",
    "make_workload",
]
