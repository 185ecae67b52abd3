"""Deeper-than-one-pass analyses shared by reprolint rules.

The original rule set (RL001-RL007) is a family of independent
single-pass AST visitors: each rule walks the tree and pattern-matches
locally.  Concurrency properties cannot be checked that way — "is this
attribute always accessed under the same lock?" needs a *symbol table*
(every ``self._x`` read/write per method), a *lock context* for each
access (which ``with self._lock:`` scopes enclose it), and a notion of
*thread entry points* (which methods run on threads other than the
owner's).  This subpackage builds that model once per file:

* :mod:`repro.lint.analysis.model` — per-class symbol tables:
  :class:`ClassModel` / :class:`MethodModel` / :class:`Access`.
* :mod:`repro.lint.analysis.concurrency` — the builder that fills the
  model in (lock-context tracking, ``# guarded-by:`` annotations,
  thread-entry-point discovery) plus :func:`class_models`, the cached
  accessor every RL1xx rule goes through.

The model is *lexical* and per-file by design (reprolint never imports
the code it checks): a lock acquired by a caller in another function —
or another file — is invisible.  The ``# guarded-by:`` annotation is
the escape hatch for exactly that case; see docs/STATIC_ANALYSIS.md.
"""
