"""AQ-K-slack: the adaptive, quality-driven disorder handler.

This is the paper's contribution.  :class:`AQKSlackHandler` is a drop-in
:class:`~repro.engine.handlers.DisorderHandler` whose slack ``K`` is chosen
at runtime from a user requirement instead of being configured:

* **Quality-target mode** (:class:`~repro.core.spec.QualityTarget`): every
  adaptation round the handler

  1. inverts the aggregate's error model to the *allowed late fraction*
     ``p = late_fraction_for_error(theta)``,
  2. reads the slack that keeps all but ``p`` of elements on time off the
     live delay sample: ``K_est = delay_quantile(1 - p)``,
  3. passes ``K_est`` through the feedback controller, which scales it by
     the accumulated bias between *observed* window errors (reported by
     the aggregation operator via ``observe_error``) and the target.

* **Latency-budget mode** (:class:`~repro.core.spec.LatencyBudget`): the
  slack is the largest value that both stays within the budget and is
  useful — ``min(budget, delay_quantile(q_cap))`` — maximizing quality
  without ever exceeding the bound, and without wasting latency when the
  stream is nearly in order.

The frontier is kept monotone even while ``K`` shrinks and grows, so
downstream window lifecycles stay well-defined.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import overload

import numpy as np

from repro.core.controller import PIController, SlackController
from repro.core.estimators import ErrorModel, StreamContext, make_error_model
from repro.core.sampling import (
    DelaySample,
    RateTracker,
    SlidingDelaySample,
    ValueStatsTracker,
)
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregates import AggregateFunction
from repro.engine.handlers import SlackHandler
from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import DurationS


#: Arrivals a scalar driver may leave unfolded: a stream on which no round
#: is due (still warming up, arrival time standing still) folds here.
PENDING_FOLD_LIMIT = 1024

#: Floor on the allowed late fraction, so a very strict target does not
#: push the required delay quantile into the sample maximum.
MIN_LATE_FRACTION = 1e-4

#: In budget mode, the delay quantile beyond which more slack buys nothing.
BUDGET_QUANTILE_CAP = 0.999


@dataclass(frozen=True, slots=True)
class AdaptationRecord:
    """One adaptation round, for timelines and debugging."""

    arrival_time: float
    allowed_late_fraction: float
    k_estimate: float
    k_applied: float
    observed_error_ewma: float | None
    controller_gain: float | None


_FIELDS = tuple(field.name for field in fields(AdaptationRecord))
_COLUMNS = attrgetter(*_FIELDS)

#: How a column holds ``None``: a NaN with its sign bit set.  Every other
#: NaN is held as ``math.nan`` and read back as that object, so a record
#: read back equals the one logged, NaN fields included.
_NONE = -math.nan


def _cell(value: float | None) -> float:
    return _NONE if value is None else math.nan if math.isnan(value) else value


def _field(value: float) -> float | None:
    if not math.isnan(value):
        return value
    return math.nan if math.copysign(1.0, value) > 0 else None


class AdaptationLog(Sequence[AdaptationRecord]):
    """AQ-K's adaptation rounds as six float64 columns, read as a sequence of records.

    One ``array('d')`` per :class:`AdaptationRecord` field, so a round
    costs six floats; a record is built when read.  ``==`` holds against
    another log or a list of equal records.  ``arrival_time`` is
    strictly increasing (rounds fire at rising arrival times), so the
    round in force at an arrival instant is one ``bisect`` away.
    """

    __slots__ = _FIELDS
    arrival_time: array[float]  # the five others alike

    def __init__(self) -> None:
        for name in _FIELDS:
            setattr(self, name, array("d"))

    def add_round(self, *values: float | None) -> None:
        """Log one round: its six field values, in field order."""
        for column, value in zip(_COLUMNS(self), values, strict=True):
            column.append(_cell(value))

    def __len__(self) -> int:
        return len(self.arrival_time)

    @overload
    def __getitem__(self, index: int) -> AdaptationRecord: ...
    @overload
    def __getitem__(self, index: slice) -> list[AdaptationRecord]: ...
    def __getitem__(
        self, index: int | slice
    ) -> AdaptationRecord | list[AdaptationRecord]:
        if isinstance(index, slice):
            return [self[row] for row in range(*index.indices(len(self)))]
        return AdaptationRecord(*[_field(column[index]) for column in _COLUMNS(self)])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AdaptationLog):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented


class AQKSlackHandler(SlackHandler):
    """Adaptive quality-driven K-slack buffering: the K rule of a
    :class:`~repro.engine.handlers.SlackHandler` (which buffers and
    releases) chosen by the adaptation rounds below."""

    name = "aq-k-slack"

    def __init__(
        self,
        target: QualityTarget | LatencyBudget,
        aggregate: AggregateFunction | str | ErrorModel,
        window_size: DurationS | None = None,
        delay_sample: DelaySample | None = None,
        controller: SlackController | None = None,
        adapt_interval: DurationS = 1.0,
        warmup_elements: int = 50,
    ) -> None:
        """Args:
        target: The user requirement (quality target or latency budget).
        aggregate: The aggregate the downstream operator computes (or an
            error-model kind / instance) — selects the error model.
        window_size: Window length of the downstream query, used to
            estimate elements-per-window for the mean/rank models.
        delay_sample: Delay tracker; defaults to a sliding sample of the
            most recent 2000 delays.
        controller: Feedback controller; defaults to a
            :class:`~repro.core.controller.PIController` in quality mode.
        adapt_interval: Minimum arrival-time seconds between adaptations.
        warmup_elements: Elements observed before the first adaptation;
            until that round ``K`` stays at 0.
        """
        if adapt_interval <= 0:
            raise ConfigurationError(
                f"adapt_interval must be positive, got {adapt_interval}"
            )
        if warmup_elements < 0:
            raise ConfigurationError(
                f"warmup_elements must be non-negative, got {warmup_elements}"
            )

        self.target = target
        if isinstance(aggregate, ErrorModel):
            self.error_model = aggregate
        else:
            self.error_model = make_error_model(aggregate)
        self.window_size = window_size
        self.delay_sample = (
            delay_sample if delay_sample is not None else SlidingDelaySample()
        )
        # Quality mode reads feedback; budget rounds read the delay sample
        # alone, which window retirement never touches.
        self.takes_feedback = isinstance(target, QualityTarget)
        if controller is None and isinstance(target, QualityTarget):
            controller = PIController(target=target.threshold)
        self.controller = controller
        self.adapt_interval = adapt_interval
        self.warmup_elements = warmup_elements

        super().__init__()
        self.k = 0.0
        self.adaptations = AdaptationLog()
        self._value_stats = ValueStatsTracker()
        self._rate = RateTracker()
        self._last_adapt_arrival = float("-inf")
        self._elements_seen = 0
        # Arrivals counted by slack_for whose delay, value and event time
        # the samplers have not seen yet (only a round reads the samplers).
        self._pending: list[StreamElement] = []

    # ------------------------------------------------------------------ #
    # adaptation

    def _context(self) -> StreamContext:
        expected = math.nan
        if self.window_size is not None:
            expected = self._rate.expected_window_count(self.window_size)
        return StreamContext(
            dispersion=self._value_stats.dispersion,
            expected_window_count=expected,
        )

    def _adapt_quality(self, arrival_time: float, theta: float) -> None:
        context = self._context()
        p_allowed = self.error_model.late_fraction_for_error(theta, context)
        p_allowed = max(MIN_LATE_FRACTION, min(1.0, p_allowed))
        if p_allowed >= 1.0:
            k_estimate = 0.0
        else:
            k_estimate = self.delay_sample.quantile(1.0 - p_allowed)
        if self.controller is not None:
            k_applied = self.controller.adjust(k_estimate)
        else:
            k_applied = k_estimate
        # Clamp at 0; ``min`` keeps ``inf`` against a NaN, so a NaN K holds
        # everything back rather than releasing it.
        self.k = float(max(0.0, min(math.inf, k_applied)))
        state = self.controller.state() if self.controller is not None else {}
        self.adaptations.add_round(
            arrival_time, p_allowed, k_estimate, self.k,
            state.get("error_ewma"), state.get("gain"),
        )

    def _adapt_budget(self, arrival_time: float, budget: float) -> None:
        useful = self.delay_sample.quantile(BUDGET_QUANTILE_CAP)
        k_applied = min(budget, useful)
        self.k = float(max(0.0, min(math.inf, k_applied)))
        self.adaptations.add_round(arrival_time, math.nan, useful, self.k, None, None)

    def _run_adaptation(self, arrival_time: float) -> None:
        k_before = self.k
        if isinstance(self.target, QualityTarget):
            self._adapt_quality(arrival_time, self.target.threshold)
        else:
            self._adapt_budget(arrival_time, self.target.seconds)
        if self.tracer.enabled:
            record = self.adaptations[-1]
            state = self.controller.state() if self.controller is not None else {}
            self.tracer.emit(
                "adaptation",
                arrival_time,
                k_before=k_before,
                k_after=record.k_applied,
                k_estimate=record.k_estimate,
                allowed_late_fraction=record.allowed_late_fraction,
                error_ewma=record.observed_error_ewma,
                gain=record.controller_gain,
                residual=state.get("residual"),
                target=self.target.describe(),
            )

    # ------------------------------------------------------------------ #
    # the K rule

    def slack_for(self, element: StreamElement) -> DurationS:
        """Count one arrival, adapt if a round is due.

        Only a round reads the samplers, so the arrival waits in
        ``_pending`` and the samplers are folded when one fires (same
        condition as :meth:`_round_offsets`) or the list is full.
        :meth:`~repro.engine.handlers.SlackHandler.offer` releases the
        arrival under the returned slack.
        """
        arrival = element.arrival_time
        if arrival is None:
            raise ConfigurationError(
                "AQKSlackHandler requires elements with arrival timestamps"
            )
        self._elements_seen = seen = self._elements_seen + 1
        pending = self._pending
        pending.append(element)
        if (
            arrival - self._last_adapt_arrival >= self.adapt_interval
            and seen >= self.warmup_elements
        ):
            self._fold_pending()
            self._last_adapt_arrival = arrival
            self._run_adaptation(arrival)
        elif len(pending) >= PENDING_FOLD_LIMIT:
            self._fold_pending()
        return self.k

    def _fold_pending(self) -> None:
        """Fold the arrivals :meth:`slack_for` left pending into the samplers."""
        pending = self._pending
        n = len(pending)
        if not n:
            return
        event_times = np.fromiter((e.event_time for e in pending), dtype=float, count=n)
        arrivals = np.fromiter((e.arrival_time for e in pending), dtype=float, count=n)
        self._observe_segment(pending, event_times, arrivals - event_times, 0, n)
        pending.clear()

    def slacks_for(
        self, elements: list[StreamElement], event_times: "np.ndarray"
    ) -> "np.ndarray":
        """Batched :meth:`slack_for` with exact adaptation-round semantics.

        Where a round fires depends only on arrival times and the element
        counter, so the batch is split at those positions.  Within a
        segment no round can fire and the sampler updates are bulk-folded;
        the round at a segment's end sees exactly the sampler state (and
        produces exactly the slack) the scalar path would.  Elements
        before it get the old K, the element that fired it the new K.
        """
        n = len(elements)
        for element in elements:
            if element.arrival_time is None:
                raise ConfigurationError(
                    "AQKSlackHandler requires elements with arrival timestamps"
                )
        self._fold_pending()
        arrivals = np.fromiter(
            (element.arrival_time for element in elements), dtype=float, count=n
        )
        delays = arrivals - event_times
        arrivals_list = arrivals.tolist()
        slacks = np.full(n, self.k)
        position = 0
        for fired in self._round_offsets(arrivals_list, 0):
            self._observe_segment(elements, event_times, delays, position, fired + 1)
            self._last_adapt_arrival = arrivals_list[fired]
            self._run_adaptation(arrivals_list[fired])
            slacks[fired:] = self.k
            position = fired + 1
        if position < n:
            self._observe_segment(elements, event_times, delays, position, n)
        self._elements_seen += n
        return slacks

    def _round_offsets(
        self, arrivals: Iterable[float | None], start: int
    ) -> Iterator[int]:
        """Indices (counted from ``start``) at which offering ``arrivals``
        fires an adaptation round — the one loop that decides it.

        Side-effect free: it reads the element counter and the last round
        once, when the first index is asked for (``slacks_for`` adds its
        batch to the counter after the last one).  Ends at an element
        without an arrival time (offering it raises).
        """
        seen = self._elements_seen
        last_adapt = self._last_adapt_arrival
        warmup = self.warmup_elements
        interval = self.adapt_interval
        for index, arrival in enumerate(arrivals, start):
            if arrival is None:
                return
            seen += 1
            if seen >= warmup and arrival - last_adapt >= interval:
                last_adapt = arrival
                yield index

    def _observe_segment(
        self,
        elements: list[StreamElement],
        event_times: "np.ndarray",
        delays: "np.ndarray",
        lo: int,
        hi: int,
    ) -> None:
        """Fold one segment's delays/values/timestamps into the samplers
        (the values only when the error model reads their dispersion)."""
        self.delay_sample.observe_many(delays[lo:hi])
        if self.error_model.reads_dispersion:
            self._value_stats.observe_many(
                elements[index].value for index in range(lo, hi)
            )
        segment = event_times[lo:hi]
        self._rate.observe_many(float(segment.min()), float(segment.max()), hi - lo)

    def observe_error(self, error: float) -> None:
        if self.controller is not None:
            self.controller.observe_error(error)

    def next_adaptation_offset(
        self, elements: list[StreamElement], start: int, stop: int
    ) -> int | None:
        """First adaptation firing strictly after ``start`` (see base class).

        Only meaningful while the handler takes feedback: budget
        adaptations need no chunk split.
        """
        if not self.takes_feedback:
            return None
        arrivals = (elements[index].arrival_time for index in range(start, stop))
        for fired in self._round_offsets(arrivals, start):
            if fired > start:
                return fired
        return None

    def describe(self) -> str:
        return f"aq-k-slack({self.target.describe()}, {self.error_model.describe()})"
