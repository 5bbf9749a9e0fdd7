"""Quality-driven joins and patterns: the contribution beyond windows.

Window aggregates measure quality as value error; pair operators measure
it as **pair recall** — the fraction of true pairs actually emitted.  A
late element can only lose pairs whose partner was already pruned, so
recall loss is exactly the "late input mass" quantity the additive error
model describes, and the same estimate-then-correct loop applies:

* the *estimator* inverts ``recall loss <= theta`` to an allowed late
  fraction and reads the matching slack off the live delay sample;
* the *feedback* is the operator's own observed lost-pair fraction,
  measured against its shadow store and reported to the handler every
  ``feedback_every`` arrivals (:mod:`repro.engine.pairs`).

So a quality-driven pair operator is nothing more than the plain operator
under an :class:`~repro.core.aqk.AQKSlackHandler` with feedback on;
:class:`QualityDrivenIntervalJoin` and :class:`QualityDrivenSequencePattern`
are those two constructors.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import QualityTarget
from repro.engine.pairs import IntervalJoinOperator, SequencePatternOperator
from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import DurationS


def _recall_loop(
    threshold: float,
    feedback_every: int,
    shadow_horizon: DurationS | None,
    reach: DurationS,
    aqk_kwargs: dict[str, Any],
) -> tuple[AQKSlackHandler, DurationS]:
    """The adaptive handler and shadow horizon of a recall-targeted operator.

    The horizon defaults to ``max(60s, 20 * reach)``; it must cover the bulk
    of the delay tail: losses from elements later than ``slack + horizon``
    are invisible to feedback, and an undersized horizon makes the
    controller overconfident.
    """
    if feedback_every <= 0:
        raise ConfigurationError(
            f"feedback_every must be positive, got {feedback_every}"
        )
    if shadow_horizon is None:
        shadow_horizon = max(60.0, 20.0 * reach)
    handler = AQKSlackHandler(
        target=QualityTarget(threshold), aggregate="additive_mass", **aqk_kwargs
    )
    return handler, shadow_horizon


class QualityDrivenIntervalJoin(IntervalJoinOperator):
    """Interval join meeting a pair-recall target at adaptive latency.

    ``threshold`` bounds the tolerated *recall loss*: a threshold of 0.05
    asks for at least ~95% of true pairs to be emitted.
    """

    def __init__(
        self,
        bound: DurationS,
        side_selector: Callable[[StreamElement], str],
        threshold: float,
        feedback_every: int = 200,
        shadow_horizon: DurationS | None = None,
        **aqk_kwargs: Any,
    ) -> None:
        """Args:
        bound: Join predicate: ``|t_left - t_right| <= bound``.
        side_selector: Maps an element to ``"left"`` or ``"right"``.
        threshold: Tolerated fraction of pairs lost to lateness.
        feedback_every: Arrivals between feedback samples.
        shadow_horizon: Event-time retention of pruned elements for loss
            measurement; defaults to ``max(60s, 20 * bound)``.
        **aqk_kwargs: Forwarded to :class:`~repro.core.aqk.AQKSlackHandler`.
        """
        handler, shadow_horizon = _recall_loop(
            threshold, feedback_every, shadow_horizon, bound, aqk_kwargs
        )
        super().__init__(bound, handler, side_selector, shadow_horizon)
        self.feedback_every = feedback_every


class QualityDrivenSequencePattern(SequencePatternOperator):
    """A-then-B detection meeting a match-recall target at adaptive latency.

    ``threshold`` bounds the tolerated *recall loss*: 0.05 asks for at
    least ~95% of true matches to be detected.  The arguments past
    ``within`` are those of :class:`QualityDrivenIntervalJoin`.
    """

    def __init__(
        self,
        first_predicate: Callable[[StreamElement], bool],
        second_predicate: Callable[[StreamElement], bool],
        within: DurationS,
        threshold: float,
        feedback_every: int = 200,
        shadow_horizon: DurationS | None = None,
        **aqk_kwargs: Any,
    ) -> None:
        handler, shadow_horizon = _recall_loop(
            threshold, feedback_every, shadow_horizon, within, aqk_kwargs
        )
        super().__init__(
            first_predicate, second_predicate, within, handler, shadow_horizon
        )
        self.feedback_every = feedback_every
