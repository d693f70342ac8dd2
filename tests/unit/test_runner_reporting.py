"""Unit tests for the experiment runner, scenarios and the remaining
substrate plumbing (mote dispatch, network assembly)."""

import dataclasses

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments.runner import (
    POLICIES,
    ExperimentSpec,
    build_topology,
    scale_spec,
)
from repro.experiments import scenarios
from repro.sim.mote import Mote
from repro.sim.network import Network
from repro.sim.packets import Frame, FrameKind
from repro.sim.topology import perfect


class TestExperimentSpec:
    def test_defaults_are_paper_defaults(self):
        spec = ExperimentSpec()
        assert spec.policy == "scoop"
        assert spec.scoop.sample_interval == 15.0
        assert spec.scoop.n_nodes == 63
        assert spec.scoop.duration == 2400.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(policy="teleport")

    def test_scale_spec_shrinks_durations_only(self):
        spec = ExperimentSpec()
        scaled = scale_spec(spec, 0.25)
        assert scaled.scoop.duration == pytest.approx(600.0)
        assert scaled.scoop.sample_interval == 15.0  # rates untouched
        assert scaled.scoop.query_interval == 15.0

    def test_scale_spec_has_floors(self):
        scaled = scale_spec(ExperimentSpec(), 0.01)
        assert scaled.scoop.duration >= 300.0
        assert scaled.scoop.stabilization >= 240.0

    def test_scale_one_is_identity(self):
        spec = ExperimentSpec()
        assert scale_spec(spec, 1.0) is spec

    def test_build_topology_kinds(self):
        spec = ExperimentSpec(scoop=ScoopConfig(n_nodes=20, domain=ValueDomain(0, 100)))
        for kind in ("testbed", "geometric", "line", "grid"):
            topo = build_topology(dataclasses.replace(spec, topology_kind=kind))
            assert topo.n == 20
        # Unknown kinds are rejected at spec construction, before any
        # topology is built.
        with pytest.raises(ValueError):
            dataclasses.replace(spec, topology_kind="torus")

    def test_link_loss_degrades_topology(self):
        spec = ExperimentSpec(scoop=ScoopConfig(n_nodes=20, domain=ValueDomain(0, 100)))
        lossy = dataclasses.replace(spec, link_loss=0.4)
        base_topo, lossy_topo = build_topology(spec), build_topology(lossy)
        pairs = [
            (i, j)
            for i in range(20)
            for j in range(20)
            if i != j and base_topo.audible(i, j)
        ]
        assert pairs
        for i, j in pairs:
            assert lossy_topo.audible(i, j)
            assert lossy_topo.loss[i][j] == pytest.approx(
                1.0 - (1.0 - base_topo.loss[i][j]) * 0.6
            )
        with pytest.raises(ValueError):
            dataclasses.replace(spec, link_loss=1.0)


class TestScenarios:
    def test_fig3_left_series(self):
        specs = scenarios.fig3_left()
        labels = [(s.policy, s.workload) for s in specs]
        assert labels == [
            ("scoop", "unique"),
            ("scoop", "gaussian"),
            ("local", "gaussian"),
            ("base", "gaussian"),
        ]

    def test_fig3_middle_policies(self):
        assert [s.policy for s in scenarios.fig3_middle()] == [
            "scoop", "local", "hash", "base",
        ]

    def test_fig3_right_domains(self):
        specs = {s.workload: s for s in scenarios.fig3_right()}
        assert specs["real"].scoop.domain.size == 150
        assert specs["random"].scoop.domain.size == 101

    def test_fig4_uses_node_queries(self):
        for frac, trio in scenarios.fig4_selectivity(fractions=(0.5,)):
            for spec in trio:
                assert spec.query_plan.kind == "nodes"
                assert spec.query_plan.node_frac == frac

    def test_fig5_sets_interval(self):
        for interval, trio in scenarios.fig5_query_interval(intervals=(30.0,)):
            for spec in trio:
                assert spec.scoop.query_interval == 30.0

    def test_scaling_sets_sizes(self):
        for n, specs in scenarios.scaling(sizes=(25,)):
            for spec in specs:
                assert spec.scoop.n_nodes == 25

    def test_all_scenarios_produce_valid_policies(self):
        for spec in scenarios.fig3_middle() + scenarios.fig3_left():
            assert spec.policy in POLICIES


class TestMoteDispatch:
    def _network(self, n=3):
        net = Network(perfect(n), seed=1)
        motes = [Mote(i, net.sim, net.radio, is_root=(i == 0)) for i in range(n)]
        for mote in motes:
            net.add_mote(mote)
        return net, motes

    def test_unbooted_mote_ignores_frames(self):
        net, motes = self._network()
        motes[1].on_receive(
            Frame(src=0, dst=1, kind=FrameKind.DATA, payload=None, seqno=1)
        )
        assert not motes[1].linkest.knows(0)

    def test_duplicate_frames_dropped_once(self):
        net, motes = self._network()
        seen = []
        motes[1].handle_frame = seen.append
        motes[1].booted = True
        frame = Frame(src=0, dst=1, kind=FrameKind.DATA, payload=None, seqno=1)
        motes[1].on_receive(frame)
        motes[1].on_receive(frame)  # retransmission: same frame_id
        assert len(seen) == 1

    def test_seqnos_monotonic(self):
        net, motes = self._network()
        values = [motes[0].next_seqno() for _ in range(5)]
        assert values == sorted(values) and len(set(values)) == 5

    def test_duplicate_mote_id_rejected(self):
        net, motes = self._network()
        with pytest.raises(ValueError):
            net.add_mote(Mote(99, net.sim, net.radio))  # outside topology

    def test_beacons_feed_neighbor_parents(self):
        net, motes = self._network()
        net.boot_all(within=1.0)
        net.run(30.0)
        assert motes[0].tree.neighbor_parents  # root heard its neighbors
        assert net.tree_converged()

    def test_ttl_exhausted_frames_not_forwarded(self):
        net, motes = self._network()
        motes[1].booted = True
        outcome = []
        frame = Frame(
            src=0, dst=1, kind=FrameKind.SUMMARY, payload=None, seqno=1, ttl=0
        )
        motes[1].forward(frame, dst=2, done=outcome.append)
        assert outcome == [False]
