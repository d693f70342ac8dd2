"""CI gates for the E16 sharded socket serving path.

The batch sweep's shape is the ``query_service`` scenario's registered
check, which ``python -m repro.experiments report query_service`` runs
on the campaign export. This script gates the loadtest reports that
``python -m repro.experiments serve query_service --loadtest FILE``
writes (real worker processes, real TCP, concurrent clients):

* ``--serve REPORT [REPORT ...]`` — per report: zero protocol errors,
  zero failed/malformed clients, every offered request answered or
  explicitly shed, and a per-shard metrics breakdown that actually
  covers the fleet (every shard served requests, a live worker pid, the
  tenant count adds up). Given several reports (e.g. ``--workers 1`` and
  ``--workers 2`` runs), their ``answers_digest`` values must be
  identical — the shard-determinism invariant over real sockets.
* ``--chaos REPORT [REPORT ...]`` (combinable with ``--serve``) — gate
  chaos runs (``--chaos-kill-worker``): the fault must actually have
  fired (a worker killed mid-load, ≥1 restart recorded in the shard
  scorecards) and the service must still have completed every offered
  request — zero failed clients, zero lost answers — with the tenant
  count still adding up over the shard scorecards. Chaos reports are
  *excluded* from the ``--serve`` digest-identity set: a mid-run kill
  legitimately perturbs shed timing.
"""

import argparse
import json
import sys


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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--serve",
        nargs="+",
        metavar="REPORT",
        help="gate socket-loadtest JSON report(s); several reports must "
        "agree on answers_digest",
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
    if not (cli_args.serve or cli_args.chaos):
        parser.error("give --serve and/or --chaos reports")
    sys.exit(main_serve(cli_args.serve or (), cli_args.chaos or ()))
