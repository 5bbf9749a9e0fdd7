"""Static and dynamic analysis of the disorder-handling engine.

Two complementary layers keep the engine honest about the invariants the
paper assumes but ordinary tests rarely pin down:

* :mod:`repro.analysis.lint` — **repro-lint**, an AST-based linter with
  engine-specific rules (no wall-clock time in simulated-time code,
  scalar/batched API parity, no exact float comparison of timestamps,
  stream-element immutability).  Run it as
  ``python -m repro.analysis.lint src/``.
* :mod:`repro.analysis.sanitizer` — **StreamSan**, ASan-style runtime
  checkers that wrap a pipeline's handler and operator and assert frontier
  monotonicity, release/buffer bookkeeping and window-retirement ordering
  while real workloads execute.
  Enable it with ``run_pipeline(..., sanitize=True)``.

See ``docs/ANALYSIS.md`` for the rule catalog and sanitizer flags.
"""

__all__ = [
    "lint",
    "sanitizer",
]
