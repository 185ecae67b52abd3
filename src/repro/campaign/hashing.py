"""Content hashing and seed derivation for campaign runs.

Two hashes carry the subsystem's determinism contract:

* :func:`derive_seed` maps ``(master_seed, point_key, replicate)`` to the
  scenario seed for one run, with the same SHA-256 discipline as
  :class:`~repro.sim.rng.RngRegistry` — adding a grid point or a
  replicate never perturbs the seeds of existing ones.
* :func:`config_digest` keys the on-disk result cache by the *full*
  serialized run config plus a code-version salt.  Unlike a
  hand-maintained tuple of "the fields that matter", a whole-config hash
  cannot silently miss a newly added field: two configs collide only if
  every serialized field is equal.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Union

#: Salt mixed into every cache digest.  Bump when simulator semantics
#: change in a way that invalidates previously cached metrics (a new
#: PHY model, a changed MAC default, ...) — the whole cache then reads
#: as cold instead of serving stale results.
CODE_VERSION = "repro.campaign/2"


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to its one canonical JSON form.

    Sorted keys and fixed separators make the encoding injective over
    JSON-representable values, so it is safe to hash and to compare
    byte-for-byte.  ``allow_nan=False`` keeps NaN/Infinity (whose JSON
    spellings are non-standard) out of reports and digests entirely.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def config_digest(config: Union[Mapping[str, Any], Any], salt: str = CODE_VERSION) -> str:
    """Hex digest keying the result cache for one fully-specified run.

    Accepts either an already-serialized config mapping or a
    :class:`~repro.scenario.config.ScenarioConfig` (serialized via
    :func:`~repro.campaign.spec.config_to_dict`).
    """
    if not isinstance(config, Mapping):
        from repro.campaign.spec import config_to_dict

        config = config_to_dict(config)
    payload = canonical_json({"config": config, "salt": salt})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def derive_seed(master_seed: int, point_key: str, replicate: int) -> int:
    """Deterministic per-run scenario seed.

    The derived seed depends only on the identifying triple, never on
    scheduling, worker count, or the presence of other grid points.
    """
    material = f"{master_seed}:{point_key}:r{replicate}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    # 63 bits keeps the seed a positive "small" int on every platform.
    return int.from_bytes(digest[:8], "big") >> 1
