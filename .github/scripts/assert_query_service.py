"""CI gates for the E16 serving story.

Two modes:

* default — shape assertions on the full-scale campaign export.
* ``--serve REPORT [REPORT ...]`` — gate the *sharded socket* serving
  path: each REPORT is the JSON written by
  ``python -m repro.experiments serve query_service --loadtest FILE``
  (real worker processes, real TCP, concurrent clients). Checks per
  report: zero protocol errors, zero failed/malformed clients, every
  offered request answered or explicitly shed, and a per-shard metrics
  breakdown that actually covers the fleet (every shard served
  requests, a live worker pid, the tenant count adds up). Given several
  reports (e.g. ``--workers 1`` and ``--workers 2`` runs), their
  ``answers_digest`` values must be identical — the shard-determinism
  invariant over real sockets.
* ``--chaos REPORT [REPORT ...]`` (combinable with ``--serve``) — gate
  chaos runs (``--chaos-kill-worker``): the fault must actually have
  fired (a worker killed mid-load, ≥1 restart recorded in the shard
  scorecards) and the service must still have completed every offered
  request — zero failed clients, zero lost answers — with the tenant
  count still adding up over the shard scorecards. Chaos reports are
  *excluded* from the ``--serve`` digest-identity set: a mid-run kill
  legitimately perturbs shed timing.

Default-mode detail — the campaign export checks the serving story's
qualitative shape, per policy across the offered-load sweep:

* tail latency degrades with load — p95 and p99 are monotone
  non-decreasing (within a cross-seed slack) and strictly worse at the
  top of the sweep than at the bottom. p50 is deliberately NOT gated:
  at high load the cache serves most requests at ~zero latency, so the
  median *improves* while the tails collapse — gating it would encode
  the wrong shape.
* the shed rate only ever rises with load, and at least one overloaded
  cell actually sheds;
* the answer cache earns its keep (hit rate > 0 wherever enough
  requests arrived to repeat a bucket);
* the ground-truth oracle stays clean — serving answers from a cache
  must never fabricate a reading (zero precision violations).
"""

import argparse
import json
import sys

from repro.experiments.export import latest_export, load_campaign_export

#: Cross-seed slack on adjacent-load latency comparisons, in simulated
#: seconds (different loads coalesce different request mixes).
LATENCY_SLACK_S = 2.0
#: Slack on adjacent-load shed-rate comparisons.
SHED_SLACK = 0.02


def mean(values):
    return sum(values) / len(values)


def check_serve_report(path: str) -> dict:
    """Gate one socket-loadtest report; returns it for cross-report
    digest comparison."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    label = report.get("label", path)
    counts = report["counts"]
    stats = report["stats"]

    assert counts["failed"] == 0, (label, report["errors"])
    assert counts["malformed"] == 0, (label, counts)
    offered = report["clients"] * report["requests_per_client"]
    assert counts["ok"] + counts["shed"] == offered, (label, counts)
    assert counts["ok"] > 0, (label, counts)

    # The wire stayed clean: no framing violations, no close-outs.
    protocol = stats["protocol"]
    assert protocol["protocol_errors"] == 0, (label, protocol)
    assert protocol["requests"] >= offered, (label, protocol)

    # Per-shard metrics cover the fleet.
    shards = stats["shards"]
    expected_shards = min(report["workers"], len(report["tenants"]))
    assert len(shards) == expected_shards, (label, sorted(shards))
    tenants_placed = 0
    for name, shard in sorted(shards.items()):
        assert shard["requests_served"] > 0, (label, name, shard)
        assert shard["worker_pid"] > 0, (label, name, shard)
        tenants_placed += int(shard["tenants"])
    assert tenants_placed == len(report["tenants"]), (label, shards)

    print(
        f"{label}: workers={report['workers']} shards={len(shards)} "
        f"ok={counts['ok']} shed={counts['shed']} "
        f"qps={report['qps']:.1f} digest={report['answers_digest'][:12]}"
    )
    return report


def check_chaos_report(path: str) -> dict:
    """Gate one chaos-loadtest report: the kill fired, the supervisor
    recovered, and no answer was lost."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    label = report.get("label", path)
    counts = report["counts"]
    chaos = report.get("chaos", {})

    assert chaos.get("fired"), (label, chaos)
    assert chaos.get("killed"), (label, chaos)

    # Zero lost answers: every offered request was answered or shed;
    # no client gave up (the retry policy must have absorbed the kill).
    offered = report["clients"] * report["requests_per_client"]
    assert counts["failed"] == 0, (label, report["errors"])
    assert counts["malformed"] == 0, (label, counts)
    assert counts["ok"] + counts["shed"] == offered, (label, counts)

    # The supervisor recorded the recovery.
    shards = report["stats"]["shards"]
    restarts = sum(s.get("restarts", 0) for s in shards.values())
    replacements = sum(s.get("replacements", 0) for s in shards.values())
    assert restarts >= 1 or replacements >= 1, (label, shards)
    killed = shards.get(chaos["killed"], {})
    assert killed.get("last_exit", 0) != 0, (label, chaos["killed"], killed)
    # Each tenant is counted on one shard, even after a re-placement (a
    # retired shard reports none, so requests_served > 0 is not gated).
    tenants_placed = sum(int(s["tenants"]) for s in shards.values())
    assert tenants_placed == len(report["tenants"]), (label, shards)

    print(
        f"{label} (chaos): killed={chaos['killed']} "
        f"ok={counts['ok']} shed={counts['shed']} "
        f"retried={counts.get('retried', 0)} restarts={restarts:.0f}"
    )
    return report


def main_serve(paths, chaos_paths=()) -> int:
    reports = [check_serve_report(path) for path in paths]
    if reports:
        digests = {r["answers_digest"] for r in reports}
        assert len(digests) == 1, {
            r.get("label", i): r["answers_digest"]
            for i, r in enumerate(reports)
        }
        print(
            f"serve reports OK ({len(reports)} report(s), digests identical)"
        )
    for path in chaos_paths:
        check_chaos_report(path)
    if chaos_paths:
        print(f"chaos reports OK ({len(chaos_paths)} report(s))")
    return 0


def main() -> int:
    path = latest_export("query_service")
    assert path is not None, "no query_service export found"
    doc = load_campaign_export(path)

    by_policy = {}
    for trial in doc["trials"]:
        qps_part, policy = trial["label"].split("/")
        qps = float(qps_part.removeprefix("qps="))
        result = trial["result"]
        service = result["metrics"]["service"]
        assert service, trial["label"]
        oracle = result["metrics"]["oracle"]
        assert oracle.get("precision_violations", 0) == 0, (
            trial["label"],
            oracle,
        )
        assert service["requests_offered"] > 0, trial["label"]
        cell = by_policy.setdefault(policy, {}).setdefault(qps, [])
        cell.append(service)

    assert set(by_policy) == {"scoop", "local"}, sorted(by_policy)
    some_shed = False
    some_hits = False
    for policy, by_qps in by_policy.items():
        loads = sorted(by_qps)
        assert len(loads) >= 3, (policy, loads)
        for metric in ("latency_p95_s", "latency_p99_s"):
            series = [mean([s[metric] for s in by_qps[q]]) for q in loads]
            for a, b in zip(series, series[1:]):
                assert b >= a - LATENCY_SLACK_S, (policy, metric, series)
            assert series[-1] > series[0], (policy, metric, series)
        shed = [mean([s["shed_rate"] for s in by_qps[q]]) for q in loads]
        for a, b in zip(shed, shed[1:]):
            assert b >= a - SHED_SLACK, (policy, shed)
        some_shed = some_shed or shed[-1] > 0
        hits = [mean([s["cache_hit_rate"] for s in by_qps[q]]) for q in loads]
        some_hits = some_hits or any(rate > 0 for rate in hits)
        print(
            f"{policy}: p95={[round(v, 1) for v in [mean([s['latency_p95_s'] for s in by_qps[q]]) for q in loads]]} "
            f"shed={[round(v, 2) for v in shed]} "
            f"hit={[round(v, 2) for v in hits]}"
        )
    assert some_shed, "no cell sheds: the sweep never saturates the service"
    assert some_hits, "cache hit rate is 0 everywhere: the answer cache is dead"

    print("query_service shape OK")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--serve",
        nargs="+",
        metavar="REPORT",
        help="gate socket-loadtest JSON report(s) instead of the "
        "campaign export; several reports must agree on answers_digest",
    )
    parser.add_argument(
        "--chaos",
        nargs="+",
        metavar="REPORT",
        help="gate chaos-loadtest report(s) (--chaos-kill-worker runs): "
        "kill fired, >=1 restart recorded, zero lost answers; excluded "
        "from the --serve digest-identity comparison",
    )
    cli_args = parser.parse_args()
    if cli_args.serve or cli_args.chaos:
        sys.exit(main_serve(cli_args.serve or (), cli_args.chaos or ()))
    sys.exit(main())
