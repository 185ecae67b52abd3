"""Built-in reprolint rules.

Importing this package registers every rule on the default registry
(see :func:`repro.lint.registry.default_registry`).  One module per
rule; each module's docstring carries the rule's rationale.
"""

from repro.lint.rules import (  # noqa: F401  - imported for registration
    bare_acquire,
    blocking_under_lock,
    facade,
    floatcmp,
    lifecycle,
    mutable_defaults,
    print_calls,
    rng,
    shared_state,
    thread_lifecycle,
    wallclock,
)
