"""Factory-floor vibration monitoring — the paper's motivating scenario.

Section 1 of the paper: "Consider ... a sensornet deployed for monitoring a
factory floor that uses sensors on equipment to measure temperature or
vibrational energy"; Section 4 (Extensions): "each sensor might classify
its last few sensor readings according to their vibration level on a scale
of 1-20, and the mapping might tell the sensor where to store a particular
class of vibrations."

This example builds that deployment directly against the library's core
API (no experiment runner): machines produce vibration *classes* 1-20, most
run quietly (low classes), a few run hot, and one machine develops a fault
mid-run and jumps to high vibration classes. An operator periodically asks
"which machines showed class >= 15 recently?" and Scoop answers by
contacting only the nodes that own those classes.

Usage:
    python examples/factory_monitoring.py
"""

from repro.core.basestation import Basestation
from repro.core.config import ScoopConfig, ValueDomain
from repro.core.node import ScoopNode
from repro.core.query import Query
from repro.sim.network import Network
from repro.sim.topology import indoor_testbed
from repro.workloads.base import Workload


class VibrationClasses(Workload):
    """Machines classify vibration into 1-20; one machine degrades."""

    name = "vibration"

    def __init__(self, domain, n_nodes, seed=0, faulty_node=5, fault_time=900.0):
        super().__init__(domain, n_nodes, seed)
        self.faulty_node = faulty_node
        self.fault_time = fault_time

    def sample(self, node_id: int, now: float) -> int:
        rng = self._rng_for(node_id, round(now, 3))
        if node_id == self.faulty_node and now >= self.fault_time:
            return rng.randint(16, 20)  # bearing failure: violent vibration
        if node_id % 7 == 0:
            return rng.randint(8, 12)  # heavy machinery, moderate class
        return max(1, min(20, round(rng.gauss(4, 1.5))))  # quiet operation


def main() -> None:
    config = ScoopConfig(
        n_nodes=25,
        domain=ValueDomain(1, 20),
        sample_interval=10.0,
        query_interval=60.0,
        summary_interval=60.0,
        remap_interval=120.0,
        stabilization=120.0,
        duration=1500.0,
    )
    topology = indoor_testbed(config.n_nodes, seed=11)
    network = Network(topology, seed=11)
    workload = VibrationClasses(config.domain, config.n_nodes, seed=11)

    base = Basestation(
        network.sim,
        network.radio,
        config,
        tracker=network.tracker,
        energy=network.energy,
    )
    machines = [
        ScoopNode(
            i,
            network.sim,
            network.radio,
            config,
            source=workload.sample_attr,
            tracker=network.tracker,
            energy=network.energy,
        )
        for i in config.sensor_ids
    ]
    network.add_mote(base)
    for machine in machines:
        network.add_mote(machine)

    print("booting 24 machine sensors + basestation, stabilizing tree ...")
    network.boot_all(within=config.beacon_interval)
    network.run(config.stabilization)
    for machine in machines:
        machine.start_sampling()
    base.start_scoop()

    def operator_check() -> None:
        if network.sim.now >= config.stabilization + config.duration:
            return
        query = Query(
            time_range=(network.sim.now - 300.0, network.sim.now),
            value_range=(15, 20),  # alarming vibration classes
        )
        result = base.issue_query(query)

        def report(q=query, r=result):
            hot = sorted({producer for _v, _t, producer in r.readings})
            window_end = q.time_range[1]
            if hot:
                print(
                    f"t={window_end:6.0f}s  ALERT: class>=15 vibration on "
                    f"machines {hot} ({len(r.readings)} readings, "
                    f"{len(r.nodes_targeted)} nodes contacted)"
                )
            else:
                print(
                    f"t={window_end:6.0f}s  all quiet "
                    f"({len(r.nodes_targeted)} nodes contacted)"
                )

        network.sim.schedule(config.query_reply_window + 0.5, report)
        network.sim.schedule(120.0, operator_check)

    network.sim.schedule(180.0, operator_check)
    network.run(config.stabilization + config.duration)

    print()
    faulty = workload.faulty_node
    print(
        f"(machine {faulty} developed its fault at t={workload.fault_time:.0f}s "
        "simulated)"
    )
    print(f"messages sent, total: {network.census.total_sent()}")
    print(f"message breakdown   : {network.census.breakdown()}")
    print(f"storage success     : {network.tracker.storage_success_rate():.0%}")
    print(
        "note: the operator repeatedly queries the alarm classes, so the "
        "index pulls them toward the basestation (property P2) — alerts are "
        "then answered from the base's own flash at zero radio cost:"
    )
    index = base.index_for(0)
    if index is not None:
        for entry in index.compact():
            print(f"  classes {entry.lo:>2}-{entry.hi:<2} -> node {entry.owners[0]}")


if __name__ == "__main__":
    main()
