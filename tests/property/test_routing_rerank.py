"""An incremental parent re-rank equals a full one.

On each beacon, ``RoutingTree`` merges only the neighbors whose cost may
have changed since the last one into its cached best candidate. This
property drives two trees, each with its own link estimator, through the
same hears (with sequence gaps), beacons (tied costs, loops, cycle-sized
costs), candidate and silence timeouts, table evictions and cold
reboots. One tree is forced to sweep every candidate on every beacon;
after each step both must agree on everything the tree exposes.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator
from repro.sim.linkest import LinkEstimator
from repro.sim.routing_tree import BeaconPayload, RoutingTree

NODE = 9
NEIGHBORS = tuple(range(1, 7))
#: a candidate times out after 4 s, a link-table entry after 6 s
BEACON_INTERVAL = 1.0
PARENT_TIMEOUT_BEACONS = 4.0
SILENCE_TIMEOUT = 6.0

#: sequence-number gaps: mostly none, so that link ETXs (and costs) tie
gaps = st.sampled_from([0, 0, 0, 1, 3])
hear = st.tuples(st.just("hear"), st.sampled_from(NEIGHBORS), gaps)
beacon = st.tuples(
    st.just("beacon"),
    st.sampled_from(NEIGHBORS),
    # Few distinct costs, so ties are common; above MAX_PATH_ETX the
    # candidate is dropped, as when the sender names us as its parent.
    st.sampled_from([0.0, 1.0, 2.0] * 3 + [RoutingTree.MAX_PATH_ETX + 1.0]),
    st.sampled_from([0] * 6 + [NODE]),
    # A mote's estimator hears every beacon first; None skips the hear.
    st.one_of(gaps, st.none()),
)
wait = st.tuples(st.just("wait"), st.sampled_from([0.25, 0.25, 1.0, 1.0, 4.5, 7.0]))
reboot = st.just(("reboot",))
# Mostly hears and beacons, since timeouts and reboots clear the state
# whose re-ranking is under test; long runs (about 60 steps) let that
# state build up.
steps = st.lists(
    st.one_of([hear] * 8 + [beacon] * 8 + [wait] * 3 + [reboot]),
    min_size=30,
    max_size=120,
)


def make_twin(sim, cap):
    est = LinkEstimator(max_neighbors=cap, silence_timeout=SILENCE_TIMEOUT)
    tree = RoutingTree(
        NODE,
        sim,
        est,
        beacon_interval=BEACON_INTERVAL,
        parent_timeout_beacons=PARENT_TIMEOUT_BEACONS,
    )
    return est, tree


def observed(tree):
    """What the tree exposes, plus its best candidate, which decides the
    next parent switch."""
    return (
        tree.parent,
        tree.path_etx,
        tree.parent_changes,
        list(tree._candidates),
        tree._best,
    )


@settings(max_examples=60, deadline=None)
@given(cap=st.integers(3, 4), steps=steps)
# The parent's cost rises and an unchanged candidate is now cheaper: only
# a full sweep finds it.
@example(
    cap=4,
    steps=[("beacon", 1, 0.0, 0, 0), ("beacon", 2, 1.0, 0, 0), ("beacon", 1, 2.0, 0, 0)],
)
# Two unreachable candidates become reachable with equal costs; the older
# one (4, iterated after 2 by the set) must win the tie.
@example(
    cap=4,
    steps=[
        ("beacon", 4, 1.0, 0, None),
        ("beacon", 2, 1.0, 0, None),
        ("hear", 2, 0),
        ("hear", 4, 0),
        ("beacon", 5, RoutingTree.MAX_PATH_ETX + 1.0, 0, None),
    ],
)
def test_incremental_rerank_equals_full_sweep(cap, steps):
    sim = Simulator()
    twins = [make_twin(sim, cap) for _ in range(2)]
    incremental, full = (tree for _est, tree in twins)
    seqnos = dict.fromkeys(NEIGHBORS, 0)
    for step in steps:
        kind = step[0]
        if kind == "hear":
            _, nbr, gap = step
            seqnos[nbr] += 1 + gap
            for est, _tree in twins:
                est.hear(nbr, seqnos[nbr], sim.now)
        elif kind == "beacon":
            _, sender, cost, parent, gap = step
            if gap is not None:
                seqnos[sender] += 1 + gap
            full._heard_floor = -math.inf  # the next evaluation sweeps
            for est, tree in twins:
                if gap is not None:
                    est.hear(sender, seqnos[sender], sim.now)
                tree.on_beacon(sender, BeaconPayload(path_etx=cost, parent=parent))
        elif kind == "wait":
            sim.run(sim.now + step[1])
        else:  # a cold reboot, as Mote.revive does it
            for est, tree in twins:
                est.reset()
                tree.reset()
        assert observed(incremental) == observed(full)
