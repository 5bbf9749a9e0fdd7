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

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = [
    "guard_operator",
    "lint",
    "sanitizer",
]


def guard_operator(operator: Any, kind: str, tracer: Tracer = NULL_TRACER) -> Any:
    """Put ``operator`` under the runtime sanitizer named by ``kind``.

    The one place a sanitizer name becomes a wrapper — ``"stream"``
    (StreamSan) or ``"numeric"`` (NumSan) — shared by
    ``run_pipeline(sanitize=...)`` and the per-shard runners.  An
    operator that sanitizes its own parts (it has ``configure_sanitizer``,
    like the sharded coordinator) is told the kind and returned unwrapped.

    Raises:
        ConfigurationError: unknown ``kind``.
    """
    if kind not in ("stream", "numeric"):
        raise ConfigurationError(
            f"unknown sanitizer {kind!r}; expected True, "
            '"stream" or "numeric"'
        )
    configure = getattr(operator, "configure_sanitizer", None)
    if configure is not None:
        configure(kind)
        return operator
    if kind == "stream":
        from repro.analysis.sanitizer import SanitizingOperator

        return SanitizingOperator(operator)
    from repro.analysis.numeric.numsan import NumSan

    return NumSan(tracer=tracer).guard_operator(operator)
