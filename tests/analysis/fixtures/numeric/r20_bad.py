"""R20 fixture: scalar add and batched add_many with split summation orders."""

import numpy as np

from repro.core.numeric import neumaier_add


class SplitOrderSum(AggregateFunction):
    """BUG: add folds in Python order, add_many reduces pairwise."""

    __numeric__ = "compensated"

    def add(self, acc, value):
        """Scalar path: compensated left-to-right fold."""
        return neumaier_add(acc, value)

    def add_many(self, acc, values):
        """Batched path: numpy pairwise summation — different bits."""
        return acc + np.sum(values)  # R20: np.sum vs Python-order add


class SplitOrderMoments(AggregateFunction):
    """BUG: method-call spelling of the same split."""

    __numeric__ = "reassoc-tolerant"

    def add(self, acc, value):
        """Scalar path appends and folds in arrival order."""
        acc.append(value)
        return acc

    def add_many(self, acc, values):
        """Batched path reduces through ndarray.sum()."""
        return ((values - acc) ** 2).sum()  # R20: ndarray reduction


class FullyBatched(AggregateFunction):
    """Both paths vectorized: no order split, nothing to flag."""

    __numeric__ = "reassoc-tolerant"

    def add(self, acc, value):
        """Scalar path is numpy too."""
        return np.add(acc, value)

    def add_many(self, acc, values):
        """Same pairwise order on both sides."""
        return acc + np.sum(values)


class WaivedBatch(AggregateFunction):
    """The batched shortcut is conceded with a waiver."""

    __numeric__ = "reassoc-tolerant"

    def add(self, acc, value):
        """Scalar fold."""
        return acc + value

    def add_many(self, acc, values):
        """Waived: the class declares reassoc-tolerant."""
        return acc + np.sum(values)  # repro: numeric=reassoc - pairwise ok
