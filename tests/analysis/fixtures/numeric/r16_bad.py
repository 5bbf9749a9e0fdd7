"""R16 fixture: bare float folds inside aggregate entry points."""


class NaiveRunningSum(AggregateFunction):
    """BUG: compensated discipline, but every fold is a bare accumulation."""

    __numeric__ = "compensated"

    def create(self):
        """Accumulator: [total, count]."""
        return [0.0, 0]

    def add(self, acc, value):
        """One bare fold plus two exempt integer updates."""
        acc[0] += value  # R16: bare float fold
        acc[1] += 1  # exempt: integer constant
        self._calls += 1.0  # exempt: integral float literal
        return acc

    def add_many(self, acc, values):
        """Long-hand spelling of the same fold, plus an exempt len()."""
        acc[0] = acc[0] + python_sum(values)  # R16: long-hand fold
        acc[1] += len(values)  # exempt: len() cannot lose precision
        return acc

    def merge(self, left, right):
        """Merging two partials is a fold too."""
        left[0] += right[0]  # R16: bare merge fold
        left[1] += right[1]  # R16: subscript operand is not exempt
        return left


class WaivedRunningSum(AggregateFunction):
    """A waived fold is conceded, not flagged (the class declares reassoc)."""

    __numeric__ = "reassoc-tolerant"

    def add(self, acc, value):
        """The waiver concedes reassociation on this line."""
        acc[0] += value  # repro: numeric=reassoc - drift within the declared budget
        return acc


class ExactCounter(AggregateFunction):
    """Exact classes are exempt: they promise no float accumulation."""

    __numeric__ = "exact"

    def add(self, acc, value):
        """Folds weights, but the exact discipline routes around R16."""
        acc[0] += weight_of(value)  # not flagged: __numeric__ = "exact"
        return acc
