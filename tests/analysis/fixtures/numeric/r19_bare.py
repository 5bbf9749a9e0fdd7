"""R19 fixture: a concrete aggregate over the real protocol base."""

from repro.engine.aggregates import AggregateFunction


class BareSum(AggregateFunction):
    """BUG: declares no __numeric__; the protocol base gives no default."""

    name = "bare_sum"

    def create(self):
        """Accumulator factory."""
        return [0.0]
