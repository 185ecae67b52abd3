"""Deterministic parallel experiment campaigns.

A *campaign* is a declarative parameter sweep: a base
:class:`~repro.scenario.config.ScenarioConfig`, a set of override axes,
and a seed-replicate count.  The subsystem expands that spec into a grid
of fully-specified runs, executes them across a ``multiprocessing``
worker pool, and aggregates per-point metrics (mean / stdev / 95 % CI
over replicates) into a stable JSON report.

Determinism is the contract:

* every run's RNG seed derives from ``(master_seed, point_key,
  replicate)`` via SHA-256 — the same hashing discipline as
  :class:`~repro.sim.rng.RngRegistry` — so results are byte-identical
  regardless of worker count or completion order;
* results are cached on disk keyed by a content hash of the *full*
  serialized run config plus a code-version salt, making campaigns
  resumable after interruption and incremental after spec edits.

Quickstart::

    from repro.api import CampaignRunner, CampaignSpec, ScenarioConfig

    spec = CampaignSpec(
        name="pdr_vs_size",
        base=ScenarioConfig(duration_s=600.0),
        axes={"n_nodes": [9, 16, 25]},
        replicates=3,
        master_seed=42,
    )
    report = CampaignRunner(spec, cache_dir="out/cache", workers=4).run()

or from the shell::

    repro campaign run spec.json --workers 4 --resume --out report.json

See ``docs/CAMPAIGN.md`` for the spec file format and cache layout.
"""
