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
from collections.abc import Iterable, Iterator
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
from repro.engine.handlers import SlackHandler
from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import DurationS


#: Arrivals a scalar driver may leave unfolded: a stream on which no round
#: is due (still warming up, arrival time standing still) folds here.
PENDING_FOLD_LIMIT = 1024


@dataclass(frozen=True)
class AdaptationRecord:
    """One adaptation round, for timelines and debugging."""

    arrival_time: float
    allowed_late_fraction: float
    k_estimate: float
    k_applied: float
    observed_error_ewma: float | None
    controller_gain: float | None


class AQKSlackHandler(SlackHandler):
    """Adaptive quality-driven K-slack buffering: the K rule of a
    :class:`~repro.engine.handlers.SlackHandler` (which buffers and
    releases) chosen by the adaptation rounds below."""

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

        super().__init__()
        self.k = k_min
        self.adaptations: list[AdaptationRecord] = []
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
    # the K rule

    def slack_for(self, element: StreamElement) -> DurationS:
        """Count one arrival, adapt if a round is due.

        Only a round reads the samplers, so the arrival waits in
        ``_pending`` and the samplers are folded when one fires (same
        condition as :meth:`_round_offsets`) or the list is full.  This is
        all a driver with its own buffer and clock needs
        (:class:`~repro.core.shared.SharedAQKBuffer`,
        :class:`~repro.engine.partial_tree.SharedSliceStore`): it applies
        the returned slack against its shared clock.
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
        """Fold one segment's delays/values/timestamps into the samplers."""
        self.delay_sample.observe_many(delays[lo:hi])
        self._value_stats.observe_many(elements[index].value for index in range(lo, hi))
        segment = event_times[lo:hi]
        self._rate.observe_many(float(segment.min()), float(segment.max()), hi - lo)

    def observe_error(self, error: float) -> None:
        if self.controller is not None:
            self.controller.observe_error(error)

    def next_adaptation_offset(
        self, elements: list[StreamElement], start: int, stop: int
    ) -> int | None:
        """First adaptation firing strictly after ``start`` (see base class).

        Only meaningful in quality mode: budget adaptations read the delay
        sample alone, which window retirement never touches, so they need
        no chunk split.
        """
        if self.controller is None or not isinstance(
            self.target, (QualityTarget, BoundedQualityTarget)
        ):
            return None
        arrivals = (elements[index].arrival_time for index in range(start, stop))
        for fired in self._round_offsets(arrivals, start):
            if fired > start:
                return fired
        return None

    def describe(self) -> str:
        return f"aq-k-slack({self.target.describe()}, {self.error_model.describe()})"
