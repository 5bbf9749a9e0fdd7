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
from dataclasses import dataclass

import numpy as np

from repro.core.controller import PIController, SlackController
from repro.core.estimators import ErrorModel, StreamContext, make_error_model
from repro.core.sampling import (
    DelaySample,
    RateTracker,
    SlidingDelaySample,
    ValueStatsTracker,
)
from repro.core.spec import BoundedQualityTarget, LatencyBudget, QualityTarget
from repro.engine.aggregates import AggregateFunction
from repro.engine.buffer import SortingBuffer
from repro.engine.handlers import (
    MIN_BULK_BATCH,
    Checkpoints,
    DisorderHandler,
    bulk_release,
)
from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import (
    DurationS,
    EventTimeFrontier,
    EventTimeStamp,
    MonotoneFrontier,
)


@dataclass(frozen=True)
class AdaptationRecord:
    """One adaptation round, for timelines and debugging."""

    arrival_time: float
    allowed_late_fraction: float
    k_estimate: float
    k_applied: float
    observed_error_ewma: float | None
    controller_gain: float | None


class AQKSlackHandler(DisorderHandler):
    """Adaptive quality-driven K-slack buffering."""

    name = "aq-k-slack"

    def __init__(
        self,
        target: QualityTarget | BoundedQualityTarget | LatencyBudget,
        aggregate: AggregateFunction | str | ErrorModel,
        window_size: DurationS | None = None,
        delay_sample: DelaySample | None = None,
        controller: SlackController | None = None,
        adapt_interval: DurationS = 1.0,
        warmup_elements: int = 50,
        k_min: DurationS = 0.0,
        k_max: DurationS = math.inf,
        min_late_fraction: float = 1e-4,
        budget_quantile_cap: float = 0.999,
        estimation_confidence: float = 0.0,
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
            until then ``K`` stays at ``k_min`` plus whatever the sample
            already supports at the 95th percentile (a safe cold start).
        k_min / k_max: Hard clamps on the applied slack.
        min_late_fraction: Floor on the allowed late fraction, preventing
            the required delay quantile from running into the sample max
            for very strict targets.
        budget_quantile_cap: In budget mode, the delay quantile beyond
            which extra slack is considered useless.
        estimation_confidence: z-score padding of the delay-quantile rank
            against sampling error (0 disables).  Positive values make the
            handler conservative while the delay sample is small.
        """
        if adapt_interval <= 0:
            raise ConfigurationError(
                f"adapt_interval must be positive, got {adapt_interval}"
            )
        if warmup_elements < 0:
            raise ConfigurationError(
                f"warmup_elements must be non-negative, got {warmup_elements}"
            )
        if not 0 <= k_min <= k_max:
            raise ConfigurationError(f"need 0 <= k_min <= k_max, got {k_min}, {k_max}")
        if not 0 < min_late_fraction <= 1:
            raise ConfigurationError(
                f"min_late_fraction must lie in (0,1], got {min_late_fraction}"
            )
        if not 0 < budget_quantile_cap <= 1:
            raise ConfigurationError(
                f"budget_quantile_cap must lie in (0,1], got {budget_quantile_cap}"
            )
        if estimation_confidence < 0:
            raise ConfigurationError(
                "estimation_confidence must be non-negative, got "
                f"{estimation_confidence}"
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
        if controller is None and isinstance(
            target, (QualityTarget, BoundedQualityTarget)
        ):
            controller = PIController(target=target.threshold)
        self.controller = controller
        self.adapt_interval = adapt_interval
        self.warmup_elements = warmup_elements
        self.k_min = k_min
        self.k_max = k_max
        self.min_late_fraction = min_late_fraction
        self.budget_quantile_cap = budget_quantile_cap
        self.estimation_confidence = estimation_confidence

        self.k = k_min
        self.adaptations: list[AdaptationRecord] = []
        self._value_stats = ValueStatsTracker()
        self._rate = RateTracker()
        self._clock = EventTimeFrontier()
        self._buffer = SortingBuffer()
        self._front = MonotoneFrontier()
        self._last_adapt_arrival = float("-inf")
        self._elements_seen = 0

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

    def _confident_quantile(self, q: float) -> float:
        """Quantile query padded for sampling uncertainty.

        With ``estimation_confidence`` z > 0 the rank is shifted up by z
        standard errors of the empirical quantile rank
        (``sqrt(q(1-q)/n)``), so a freshly-filled or small delay sample
        yields a conservatively larger slack; the padding vanishes as the
        sample grows.
        """
        z = self.estimation_confidence
        if z > 0:
            n = max(1, self.delay_sample.count)
            q = q + z * math.sqrt(q * (1.0 - q) / n)
            q = min(1.0, q)
        return self.delay_sample.quantile(q)

    def _adapt_quality(self, arrival_time: float, theta: float) -> None:
        context = self._context()
        p_allowed = self.error_model.late_fraction_for_error(theta, context)
        p_allowed = max(self.min_late_fraction, min(1.0, p_allowed))
        if p_allowed >= 1.0:
            k_estimate = 0.0
        else:
            k_estimate = self._confident_quantile(1.0 - p_allowed)
        if self.controller is not None:
            k_applied = self.controller.adjust(k_estimate)
        else:
            k_applied = k_estimate
        self.k = max(self.k_min, min(self.k_max, k_applied))
        state = self.controller.state() if self.controller is not None else {}
        self.adaptations.append(
            AdaptationRecord(
                arrival_time=arrival_time,
                allowed_late_fraction=p_allowed,
                k_estimate=k_estimate,
                k_applied=self.k,
                observed_error_ewma=state.get("error_ewma"),
                controller_gain=state.get("gain"),
            )
        )

    def _adapt_budget(self, arrival_time: float, budget: float) -> None:
        useful = self.delay_sample.quantile(self.budget_quantile_cap)
        k_applied = min(budget, useful)
        self.k = max(self.k_min, min(self.k_max, k_applied))
        self.adaptations.append(
            AdaptationRecord(
                arrival_time=arrival_time,
                allowed_late_fraction=math.nan,
                k_estimate=useful,
                k_applied=self.k,
                observed_error_ewma=None,
                controller_gain=None,
            )
        )

    def _maybe_adapt(self, arrival_time: float) -> None:
        if self._elements_seen < self.warmup_elements:
            return
        if arrival_time - self._last_adapt_arrival < self.adapt_interval:
            return
        self._last_adapt_arrival = arrival_time
        self._run_adaptation(arrival_time)

    def _run_adaptation(self, arrival_time: float) -> None:
        k_before = self.k
        if isinstance(self.target, QualityTarget):
            self._adapt_quality(arrival_time, self.target.threshold)
        elif isinstance(self.target, BoundedQualityTarget):
            self._adapt_quality(arrival_time, self.target.threshold)
            if self.k > self.target.budget_seconds:
                self.k = self.target.budget_seconds
                self.adaptations[-1] = AdaptationRecord(
                    arrival_time=self.adaptations[-1].arrival_time,
                    allowed_late_fraction=self.adaptations[-1].allowed_late_fraction,
                    k_estimate=self.adaptations[-1].k_estimate,
                    k_applied=self.k,
                    observed_error_ewma=self.adaptations[-1].observed_error_ewma,
                    controller_gain=self.adaptations[-1].controller_gain,
                )
        else:
            self._adapt_budget(arrival_time, self.target.seconds)
        if self.tracer.enabled:
            record = self.adaptations[-1]
            state = self.controller.state() if self.controller is not None else {}
            self.tracer.adaptation(
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
    # DisorderHandler protocol

    def offer(self, element: StreamElement) -> list[StreamElement]:
        if element.arrival_time is None:
            raise ConfigurationError(
                "AQKSlackHandler requires elements with arrival timestamps"
            )
        self._elements_seen += 1
        self.delay_sample.observe(element.delay)
        self._value_stats.observe(element.value)
        self._rate.observe(element.event_time)
        self._clock.observe(element.event_time)
        self._buffer.push(element)
        self._maybe_adapt(element.arrival_time)
        return self._buffer.release_until(
            self._front.advance(self._clock.value - self.k)
        )

    def observe_only(self, element: StreamElement) -> DurationS:
        """Feed the adaptation path without buffering; return current slack.

        Shared drivers (:class:`~repro.core.shared.SharedAQKBuffer`,
        :class:`~repro.engine.partial_tree.SharedSliceStore`) keep one copy
        of the stream and run their own release schedule, so this handler's
        private buffer and clock must stay untouched — but the advisor still
        has to see every element to estimate delays and adapt ``K``.  This
        is exactly the observation prefix of :meth:`offer` minus the
        buffer/clock updates; the caller applies the returned slack against
        its own shared clock.
        """
        if element.arrival_time is None:
            raise ConfigurationError(
                "AQKSlackHandler requires elements with arrival timestamps"
            )
        self._elements_seen += 1
        self.delay_sample.observe(element.delay)
        self._value_stats.observe(element.value)
        self._rate.observe(element.event_time)
        self._maybe_adapt(element.arrival_time)
        return self.k

    def offer_many(
        self, elements: list[StreamElement]
    ) -> tuple[list[StreamElement], Checkpoints]:
        """Batched offer with exact adaptation-round semantics.

        Adaptation firing positions depend only on arrival times and the
        element counter, so they are precomputed; the batch is then split at
        those positions.  Within a segment no adaptation can fire, so the
        sampler updates are bulk-folded and the buffer released once — the
        adaptation at a segment boundary sees exactly the sampler state (and
        produces exactly the slack) the scalar path would.  Elements before
        a boundary release under the old K, the boundary element under the
        new K, matching ``offer`` element-for-element.
        """
        if len(elements) < MIN_BULK_BATCH:
            return DisorderHandler.offer_many(self, elements)
        n = len(elements)
        for element in elements:
            if element.arrival_time is None:
                raise ConfigurationError(
                    "AQKSlackHandler requires elements with arrival timestamps"
                )
        event_times = np.fromiter(
            (element.event_time for element in elements), dtype=float, count=n
        )
        arrivals = np.fromiter(
            (element.arrival_time for element in elements), dtype=float, count=n
        )
        delays = arrivals - event_times
        clocks = np.maximum.accumulate(event_times)
        np.maximum(clocks, self._clock.value, out=clocks)

        arrivals_list = arrivals.tolist()
        boundaries: list[int] = []
        seen = self._elements_seen
        last_adapt = self._last_adapt_arrival
        warmup = self.warmup_elements
        interval = self.adapt_interval
        for index, arrival in enumerate(arrivals_list):
            seen += 1
            if seen >= warmup and arrival - last_adapt >= interval:
                last_adapt = arrival
                boundaries.append(index)

        released_all: list[StreamElement] = []
        checkpoints: Checkpoints = []
        position = 0
        for boundary in boundaries:
            self._observe_segment(elements, event_times, delays, position, boundary + 1)
            if boundary > position:
                self._release_segment(
                    elements, clocks, position, boundary, released_all, checkpoints
                )
            self._last_adapt_arrival = arrivals_list[boundary]
            self._run_adaptation(arrivals_list[boundary])
            self._release_segment(
                elements, clocks, boundary, boundary + 1, released_all, checkpoints
            )
            position = boundary + 1
        if position < n:
            self._observe_segment(elements, event_times, delays, position, n)
            self._release_segment(
                elements, clocks, position, n, released_all, checkpoints
            )
        self._clock.observe_many(float(clocks[-1]), n)
        return released_all, checkpoints

    def _observe_segment(
        self,
        elements: list[StreamElement],
        event_times: "np.ndarray",
        delays: "np.ndarray",
        lo: int,
        hi: int,
    ) -> None:
        """Fold one segment's delays/values/timestamps into the samplers."""
        self._elements_seen += hi - lo
        self.delay_sample.observe_many(delays[lo:hi])
        self._value_stats.observe_many(elements[index].value for index in range(lo, hi))
        segment = event_times[lo:hi]
        self._rate.observe_many(float(segment.min()), float(segment.max()), hi - lo)

    def _release_segment(
        self,
        elements: list[StreamElement],
        clocks: "np.ndarray",
        lo: int,
        hi: int,
        released_all: list[StreamElement],
        checkpoints: Checkpoints,
    ) -> None:
        """Push and release one constant-K segment through the buffer."""
        frontiers = clocks[lo:hi] - self.k
        np.maximum(frontiers, self._front.value, out=frontiers)
        self._front.advance(float(frontiers[-1]))
        released, offsets = bulk_release(self._buffer, elements[lo:hi], frontiers)
        base = len(released_all)
        released_all.extend(released)
        checkpoints.extend(
            (base + offset, frontier)
            for offset, frontier in zip(offsets, frontiers.tolist())
        )

    def flush(self) -> list[StreamElement]:
        return self._buffer.drain()

    @property
    def frontier(self) -> EventTimeStamp:
        return self._front.value

    @property
    def current_slack(self) -> DurationS:
        return self.k

    def buffered_count(self) -> int:
        return len(self._buffer)

    def max_buffered_count(self) -> int:
        return self._buffer.max_size

    def released_count(self) -> int:
        return self._buffer.released_total

    def observe_error(self, error: float) -> None:
        if self.controller is not None:
            self.controller.observe_error(error)

    def next_adaptation_offset(
        self, elements: list[StreamElement], start: int, stop: int
    ) -> int | None:
        """First adaptation firing strictly after ``start`` (see base class).

        Only meaningful in quality mode: budget adaptations read the delay
        sample alone, which window retirement never touches, so they need
        no chunk split.  Firing positions depend only on arrival times and
        the element counter, so they are simulated without side effects.
        """
        if self.controller is None or not isinstance(
            self.target, (QualityTarget, BoundedQualityTarget)
        ):
            return None
        seen = self._elements_seen
        last_adapt = self._last_adapt_arrival
        warmup = self.warmup_elements
        interval = self.adapt_interval
        for index in range(start, stop):
            arrival = elements[index].arrival_time
            if arrival is None:
                return None  # offer() will raise; no point splitting
            seen += 1
            if seen >= warmup and arrival - last_adapt >= interval:
                if index > start:
                    return index
                last_adapt = arrival
        return None

    def describe(self) -> str:
        return f"aq-k-slack({self.target.describe()}, {self.error_model.describe()})"
