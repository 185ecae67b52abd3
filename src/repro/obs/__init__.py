"""Observability layer: packet flight recorder, span profiler, captures.

Built *on top of* the simulation's ground-truth trace — nothing here
perturbs a run.  See ``docs/OBSERVABILITY.md`` for the tour and the
``repro trace`` CLI for the operator interface.
"""
