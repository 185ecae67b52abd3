"""reprolint — AST-based determinism & resource-safety linter.

The repo's headline claims (EXPERIMENTS.md E1-E12, dashboard fidelity vs
ground truth) rest on simulation runs being bit-reproducible.  The
invariants that make them so — injected :class:`random.Random` streams
instead of the global RNG, sim-time instead of wall-clock inside
simulation-scoped packages, explicit flush/close on metrics stores — are
easy to break silently in review.  This package enforces them statically,
with a plain :mod:`ast` walk, no third-party dependencies.

Rules (see docs/STATIC_ANALYSIS.md for the full rationale):

======  ==================================================================
RL001   no wall-clock (``time.time``/``monotonic``/``perf_counter``/
        ``datetime.now``/``time.sleep``) in simulation-scoped packages
RL002   no module-level/global RNG (``random.random()``, unseeded
        ``random.Random()``, ``random.SystemRandom``)
RL003   no float ``==`` / ``!=`` comparisons in ``phy`` / ``sim``
RL004   no mutable default arguments
RL005   no ``print()`` in library code outside ``cli.py``/``dashboard.py``
RL006   metrics stores constructed in non-test code must be ``close()``d
        or used via a context manager
RL000   (meta) unparseable file, malformed suppression, or a suppression
        without a rationale
======  ==================================================================

A violating line can be suppressed — with a mandatory rationale — via::

    something_flagged()  # reprolint: allow[RL003] -- exact sentinel compare

Entry points: the ``repro lint`` command (:mod:`repro.lint.cli`)
and :func:`repro.lint.engine.run_lint` for programmatic use (the test suite's meta-test
runs it over the shipped tree).
"""
