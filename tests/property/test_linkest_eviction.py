"""The link table evicts what a scan for the worst record would.

``LinkEstimator`` keeps the records below quality 1.0 apart so that an
insert into a full table needs no scan. This property drives it and a
plain reference, a dict table that evicts ``min(table.values(),
key=quality)``, through the same hears (with sequence gaps), silences
past the timeout, expiries and resets. After each step both must hold
the same records in the same order, with the same estimates, and report
the same changed neighbors.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.linkest import LinkEstimator

NEIGHBORS = tuple(range(1, 8))
SILENCE_TIMEOUT = 6.0
DECAY = 0.98


class ReferenceTable:
    """The link table written as a scan: records are
    ``[last_seqno, received, missed, last_heard]``."""

    def __init__(self, cap):
        self.cap, self.table, self.changed = cap, {}, set()

    def hear(self, nbr, seqno, now):
        self.changed.add(nbr)
        if nbr not in self.table:
            self.expire(now)
            if len(self.table) >= self.cap:
                worst = min(self.table, key=lambda n: quality(self.table[n]))
                del self.table[worst]
                self.changed.add(worst)
            self.table[nbr] = [seqno, 1.0, 0.0, now]
            return
        last_seqno, received, missed, _ = self.table[nbr]
        missed = missed * DECAY + max(seqno - last_seqno - 1, 0)
        self.table[nbr] = [max(seqno, last_seqno), received * DECAY + 1.0, missed, now]

    def expire(self, now):
        table = self.table
        for nbr in [n for n, r in table.items() if now - r[3] > SILENCE_TIMEOUT]:
            del table[nbr]
            self.changed.add(nbr)

    def reset(self):
        self.changed.update(self.table)
        self.table.clear()


def quality(record):
    return record[1] / (record[1] + record[2])


def observed(est):
    return [
        (nbr, rec.quality, rec.etx, rec.last_seqno)
        for nbr, rec in est._table.items()
    ]


def expected(ref):
    qualities = [(nbr, quality(rec), rec[0]) for nbr, rec in ref.table.items()]
    return [(nbr, q, 1.0 / (q * q), seqno) for nbr, q, seqno in qualities]


#: sequence-number gaps: mostly none, so that most records sit at quality
#: 1.0 and tie there
gaps = st.sampled_from([0, 0, 0, 0, 1, 2])
hear = st.tuples(st.just("hear"), st.sampled_from(NEIGHBORS), gaps)
# Several neighbors heard with one gap, so that their estimates follow the
# same pattern and tie below 1.0 as well.
burst = st.tuples(
    st.just("burst"),
    st.lists(st.sampled_from(NEIGHBORS), min_size=2, unique=True),
    gaps,
)
wait = st.tuples(st.just("wait"), st.sampled_from([0.5, 0.5, 1.0, 7.0]))
expire = st.just(("expire",))
reset = st.just(("reset",))
steps = st.lists(
    st.one_of([hear] * 6 + [burst] * 3 + [wait] * 2 + [expire, reset]),
    min_size=20,
    max_size=100,
)


@settings(max_examples=150, deadline=None)
@given(cap=st.integers(3, 5), steps=steps)
# Every record at 1.0: the insert evicts the table's first record.
@example(
    cap=3,
    steps=[("burst", [1, 2, 3], 0), ("burst", [3, 2, 1], 0), ("hear", 4, 0)],
)
# 2 drops below 1.0 before 1 does, with the same estimate: the tie goes
# to 1, the first of the two in table order.
@example(
    cap=3,
    steps=[("burst", [1, 2, 3], 0), ("hear", 2, 1), ("hear", 1, 1), ("hear", 4, 0)],
)
def test_eviction_equals_a_scan_for_the_worst_record(cap, steps):
    est = LinkEstimator(
        max_neighbors=cap, silence_timeout=SILENCE_TIMEOUT, decay=DECAY
    )
    ref = ReferenceTable(cap)
    seqnos = dict.fromkeys(NEIGHBORS, 0)
    now = 0.0
    for step in steps:
        kind = step[0]
        if kind in ("hear", "burst"):
            _, heard, gap = step
            for nbr in heard if kind == "burst" else [heard]:
                seqnos[nbr] += 1 + gap
                est.hear(nbr, seqnos[nbr], now)
                ref.hear(nbr, seqnos[nbr], now)
        elif kind == "wait":
            now += step[1]
        elif kind == "expire":
            est.expire(now)
            ref.expire(now)
        else:  # a cold reboot
            est.reset()
            ref.reset()
        assert observed(est) == expected(ref)
        assert est.changed == ref.changed
        # What makes the scan unnecessary: the records kept apart are
        # exactly those below 1.0.
        below = {nbr for nbr, rec in est._table.items() if rec.quality < 1.0}
        assert set(est._below) == below
        est.changed.clear()
        ref.changed.clear()
