"""Speculative processing with retractions — the eager baseline.

Instead of holding results back until the stream is believed complete, the
speculative operator emits a window's aggregate the moment its end passes
the zero-slack frontier, and emits *revisions* whenever late elements change
the answer.  Initial latency is minimal; the cost is churn: downstream
consumers see each window up to ``1 + revisions`` times.

Quality is evaluated on the **final** value per window, latency on the
**initial** emission — the framing under which speculation looks best; the
evaluation also reports the revision volume, which is its real price.

Speculation is the window driver's per-window store plus one hook.  The
store already retains closed windows for a horizon, retains a phantom
record for a window nobody opened, and folds late values into the retained
accumulator; :class:`SpeculativeAggregateOperator` only listens for those
late updates and re-emits.

Numerics: revisions are computed by **re-adding** late values to the
retained accumulator and re-extracting — never by subtracting from an
emitted result, whose rounding error would never come back.  The
"did the value move enough to re-emit" decision runs through
:func:`~repro.engine.aggregate_op.relative_error`, whose numeric branch is
the shared :func:`repro.core.numeric.relative_drift` metric.
"""

from __future__ import annotations

from repro.engine.aggregate_op import (
    WindowAggregateOperator,
    _ClosedRecord,
    relative_error,
)
from repro.engine.aggregates import AggregateFunction
from repro.engine.handlers import DisorderHandler, NoBufferHandler
from repro.engine.operator import Operator, WindowResult
from repro.engine.windows import WindowAssigner, Window
from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import ArrivalTimeStamp, DurationS


class SpeculativeAggregateOperator(WindowAggregateOperator):
    """Eager emission with revisions on late arrivals.

    A naive-mode :class:`WindowAggregateOperator` whose feedback horizon is
    the revision horizon: a retained record's ``emitted_value`` is the last
    value sent downstream, so the error it retires with (and reports to the
    handler) is what the final revision still left uncorrected.
    """

    def __init__(
        self,
        assigner: WindowAssigner,
        aggregate: AggregateFunction,
        handler: DisorderHandler | None = None,
        revision_horizon: DurationS | None = None,
        revision_threshold: float = 0.0,
    ) -> None:
        """Args:
        assigner / aggregate: The query.
        handler: Frontier source; defaults to the zero-slack handler.
        revision_horizon: Event-time span for which closed windows remain
            revisable; defaults to 5x the window size.
        revision_threshold: Minimum relative change of the aggregate value
            required to emit a revision (0 emits on every late element).
        """
        if revision_horizon is not None and revision_horizon < 0:
            raise ConfigurationError(
                f"revision_horizon must be non-negative, got {revision_horizon}"
            )
        if revision_threshold < 0:
            raise ConfigurationError(
                f"revision_threshold must be non-negative, got {revision_threshold}"
            )
        super().__init__(
            assigner,
            aggregate,
            handler if handler is not None else NoBufferHandler(),
            feedback_horizon=revision_horizon,
            track_feedback=True,  # revisions update the retained records
        )
        self.revision_horizon = self._store.feedback_horizon
        self.revision_threshold = revision_threshold
        self.revisions_emitted = 0
        # Revisions of the current step, handed back ahead of its closes.
        self._revisions: list[WindowResult] = []
        self._store.on_late_update = self._revise

    def _revise(
        self, key: object, window: Window, record: _ClosedRecord, now: ArrivalTimeStamp
    ) -> None:
        """Re-emit a retained window whose value moved past the threshold."""
        value = self.aggregate.result(record.accumulator)
        if relative_error(record.emitted_value, value) <= self.revision_threshold:
            return
        record.emitted_value = value
        record.revision += 1
        self.revisions_emitted += 1
        self._revisions.append(
            WindowResult(
                key, window, value, record.emitted_count + record.late_updates,
                now, now - window.end, revision=record.revision,
            )
        )

    def _with_revisions(self, closes: list[WindowResult]) -> list[WindowResult]:
        revisions = self._revisions
        if not revisions:
            return closes
        self._revisions = []
        return revisions + closes

    def process(self, element: StreamElement) -> list[WindowResult]:
        return self._with_revisions(super().process(element))

    def process_many(self, elements: list[StreamElement]) -> list[WindowResult]:
        """The element loop: a revision goes ahead of the closes of its own
        element, an order the batched replay of the driver does not keep."""
        return Operator.process_many(self, elements)

    def finish(self) -> list[WindowResult]:
        return self._with_revisions(super().finish())


def final_values(results: list[WindowResult]) -> dict[tuple[object, Window], float]:
    """Collapse a revision stream to the last emitted value per window."""
    finals: dict[tuple[object, Window], float] = {}
    for result in results:
        finals[(result.key, result.window)] = result.value
    return finals


def initial_latencies(results: list[WindowResult]) -> list[float]:
    """Latency of each window's first (revision 0, frontier-closed) emission."""
    return [
        result.latency
        for result in results
        if result.revision == 0 and not result.flushed
    ]
