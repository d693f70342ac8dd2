"""Canonical per-campaign JSON export: the plotting/CI interface.

One campaign run → one self-describing JSON document under
``benchmarks/results/campaigns/`` (``REPRO_EXPORT_DIR`` overrides),
containing

* every trial, losslessly: its label and seed, the full
  :class:`ExperimentResult` dict including its
  :class:`~repro.sim.metrics.TrialMetrics` breakdown (messages by type,
  energy by component, per-node load, planner counters, timing), the
  trial's cache key, and whether it was served from the cache;
* provenance — the code salt the keys were computed under, schema
  versions, seed list, scale, and execution statistics.

Nothing derived from the trials is stored: every per-label statistic is
read from them by :func:`repro.experiments.reporting.label_stats`, and
``python -m repro.experiments report`` renders the markdown tables from
the document without re-running anything.
"""

from __future__ import annotations

import json
import os
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.campaign import CampaignResult
from repro.experiments.runner import SPEC_SCHEMA_VERSION
from repro.experiments.salt import cache_salt

#: Version of the export document format (2: trials and provenance
#: only, no per-label aggregates).
EXPORT_SCHEMA_VERSION = 2

#: The ``kind`` tag every export document carries.
EXPORT_KIND = "repro-campaign"


def default_export_root() -> Path:
    """``$REPRO_EXPORT_DIR`` if set, else
    ``<repo>/benchmarks/results/campaigns`` (falling back to the current
    working directory outside a repo checkout, like the result cache)."""
    env = os.environ.get("REPRO_EXPORT_DIR")
    if env:
        return Path(env)
    repo = Path(__file__).resolve().parents[3]
    if (repo / "benchmarks").is_dir():
        return repo / "benchmarks" / "results" / "campaigns"
    return Path.cwd() / "benchmarks" / "results" / "campaigns"


def campaign_to_dict(
    result: CampaignResult,
    jobs: int = 1,
    elapsed_s: float = 0.0,
    scale: Optional[float] = None,
    generated_at: Optional[datetime] = None,
) -> Dict[str, object]:
    """The export document for one executed campaign, JSON-ready."""
    stamp = generated_at if generated_at is not None else datetime.now(timezone.utc)
    seeds = sorted({tr.trial.spec.seed for tr in result.trials})
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "kind": EXPORT_KIND,
        "name": result.name,
        "generated_at": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "spec_schema": SPEC_SCHEMA_VERSION,
        "cache_salt": cache_salt(),
        "seeds": seeds,
        "scale": scale,
        "execution": {
            "trials": len(result.trials),
            "executed": result.executed,
            "cached": result.cached,
            "jobs": jobs,
            "elapsed_s": elapsed_s,
        },
        "trials": [
            {
                "label": tr.trial.label,
                "seed": tr.trial.spec.seed,
                "spec_key": tr.trial.key,
                "from_cache": tr.from_cache,
                "result": tr.result.to_dict(),
            }
            for tr in result.trials
        ],
    }


def export_campaign(doc: Dict[str, object], out_dir: Optional[Path] = None) -> Path:
    """Write export document ``doc`` (:func:`campaign_to_dict`); returns
    the file written.

    Files are named ``<campaign>-<UTC timestamp>.json`` so a directory
    listing sorts chronologically per scenario; a second export within
    the same second gets a ``.2``, ``.3``, ... disambiguator instead of
    overwriting the first.
    """
    root = Path(out_dir) if out_dir is not None else default_export_root()
    root.mkdir(parents=True, exist_ok=True)
    stem = f"{doc['name']}-{str(doc['generated_at']).replace(':', '')}"
    path = root / f"{stem}.json"
    counter = 1
    while path.exists():
        counter += 1
        path = root / f"{stem}.{counter}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))
    return path


def load_campaign_export(path: Path) -> Dict[str, object]:
    """Read and validate one export document: its export schema, and the
    spec schema its trials were written under (a trial's spec of another
    schema does not rebuild into this version's classes)."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("kind") != EXPORT_KIND:
        raise ValueError(f"{path} is not a campaign export")
    if doc.get("schema") != EXPORT_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has export schema {doc.get('schema')!r}; "
            f"this version reads {EXPORT_SCHEMA_VERSION}"
        )
    if doc.get("spec_schema") != SPEC_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has spec schema {doc.get('spec_schema')!r}; "
            f"this version reads {SPEC_SCHEMA_VERSION}"
        )
    return doc


def _export_order(path: Path) -> Tuple[float, str, int]:
    """Oldest-first sort key: (mtime, base name, disambiguator sequence).

    Same-second exports carry ``.2``/``.3`` disambiguators that sort
    *before* their base name lexicographically ('2' < 'j'), so the
    sequence number is compared explicitly: ``x.json`` is sequence 1,
    ``x.2.json`` sequence 2, and so on.
    """
    match = re.match(r"^(?P<base>.+?)(?:\.(?P<seq>\d+))?\.json$", path.name)
    if match is None:
        return (path.stat().st_mtime, path.name, 1)
    seq = int(match.group("seq")) if match.group("seq") else 1
    return (path.stat().st_mtime, match.group("base"), seq)


def list_exports(
    scenario: Optional[str] = None, root: Optional[Path] = None
) -> List[Path]:
    """Export files on disk, oldest first; optionally one scenario's.

    Ordered by modification time, then by name with the same-second
    ``.N`` disambiguator compared numerically (see :func:`_export_order`).
    """
    base = Path(root) if root is not None else default_export_root()
    if not base.is_dir():
        return []
    pattern = f"{scenario}-*.json" if scenario else "*.json"
    return sorted(base.glob(pattern), key=_export_order)


def latest_export(
    scenario: Optional[str] = None, root: Optional[Path] = None
) -> Optional[Path]:
    """The most recent export (of ``scenario``, when given), or None."""
    found = list_exports(scenario, root)
    return found[-1] if found else None
