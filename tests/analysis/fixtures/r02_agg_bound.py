"""R02 fixture: folds bound in the class body (``add = staticmethod(f)``)."""

from abc import ABC, abstractmethod


class AggregateFunction(ABC):
    """Stub of the engine ABC so the fixture set is self-contained."""

    @abstractmethod
    def add(self, accumulator, value):
        """Scalar entry point."""

    def add_many(self, accumulator, values):
        """Generic loop over :meth:`add` (safe to inherit)."""
        for value in values:
            self.add(accumulator, value)


def fold_one(accumulator, value):
    """Scalar primitive."""
    accumulator[0] += value


def fold_all(accumulator, values):
    """Batched primitive, equivalent to looping :func:`fold_one`."""
    for value in values:
        accumulator[0] += value


def fold_twice(accumulator, value):
    """A different scalar primitive."""
    accumulator[0] += 2 * value


class BoundPair(AggregateFunction):
    """Both folds bound to primitives: no finding."""

    add = staticmethod(fold_one)
    add_many = staticmethod(fold_all)


class BoundBatchedOnly(AggregateFunction):
    """VIOLATION: binds the batched fold but not the scalar one."""

    add_many = staticmethod(fold_all)


class BoundScalarChild(BoundPair):
    """VIOLATION: rebinds the scalar fold, inherits BoundPair's batched one."""

    add = staticmethod(fold_twice)
