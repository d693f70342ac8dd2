"""Code salt for cache keys: a hash of the ``repro`` source tree and of the
interpreter's major.minor version.

The persistent result cache keys trials by their spec, which historically
ignored simulator *code* — after editing the simulator you had to remember
``clear-cache`` or keep reading stale results. :func:`cache_salt` closes
that hole: :func:`repro.experiments.runner.spec_key` hashes this salt into
every key, so editing any ``.py`` file under ``src/repro/`` changes every
key and the next run re-executes, while the old entries are simply
orphaned on disk (and swept by ``clear-cache``).

The interpreter version is mixed in because identical sources need not
compute identical floats everywhere: from Python 3.12, builtin ``sum()``
of floats uses compensated summation. A cache written under 3.11 is
therefore never replayed as a 3.12 result.

``REPRO_CACHE_SALT`` overrides the tree hash with a fixed string — useful
to keep a cache warm across code changes that are known not to affect
results (comment edits, reporting tweaks), or to pin keys in tests.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
from pathlib import Path
from typing import Optional

#: Environment variable that replaces the computed source-tree hash.
SALT_ENV = "REPRO_CACHE_SALT"


def package_root() -> Path:
    """The ``repro`` package directory whose sources are hashed."""
    return Path(__file__).resolve().parents[1]


def source_tree_hash(root: Optional[Path] = None) -> str:
    """SHA-256 over the relative path + content of every ``.py`` under
    ``root`` (default: the installed ``repro`` package), sorted so the
    digest is independent of directory-walk order.

    Byte content is hashed, not mtimes, so rebuilding or re-checking-out
    identical sources keeps the same salt. An unreadable or missing tree
    (zipimport, stripped install) degrades to a constant, i.e. salting
    is disabled rather than erroring.
    """
    base = Path(root) if root is not None else package_root()
    if not base.is_dir():
        return "no-source-tree"
    digest = hashlib.sha256()
    try:
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(base)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
    except OSError:
        return "no-source-tree"
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _tree_hash_cached() -> str:
    # One stat+read pass per process; sources do not change mid-run (and
    # if they did, a stale in-process salt is no worse than the pre-salt
    # behaviour).
    version = "python%d.%d" % sys.version_info[:2]
    return hashlib.sha256(f"{version}\x00{source_tree_hash()}".encode()).hexdigest()


def cache_salt() -> str:
    """The salt mixed into every spec key: ``$REPRO_CACHE_SALT`` if set
    (any fixed string, the empty string included, used verbatim), else
    the memoized SHA-256 of the interpreter's major.minor version and the
    source-tree hash."""
    env = os.environ.get(SALT_ENV)
    if env is not None:
        return env
    return _tree_hash_cached()
