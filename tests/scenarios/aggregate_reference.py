"""The dense 4,096-bin metric accumulator, as ``repro.scenarios.aggregate`` had it.

Before the histogram kept only its occupied bins and a chunk folded in one
matrix pass, :class:`MetricAccumulator` held ``np.zeros(BINS)`` per column,
added ``bincount(minlength=BINS)`` per batch and ran a ``cumsum`` per
quantile.  That class is moved here verbatim (only this docstring is new).
It is the oracle of the differential tests in
``tests/scenarios/test_aggregate_differential.py``: on finite values the
sparse accumulator must report the same count, min, max and quantiles under
any batching, and the same mean under the same batching.  Not shipped, never
imported by ``src/``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from repro.scenarios.aggregate import QUANTILES


class MetricAccumulator:
    """Constant-size streaming state for one numeric column.

    ``update`` takes a float64 array (any batching); ``quantile`` inverts the
    histogram.  All state is O(BINS), independent of how many values passed.
    """

    #: Histogram resolution: bins linear in the transformed domain.
    BINS = 4096
    #: Transformed domain half-width: log1p(|v|) <= 64 covers |v| < ~6e27.
    SPAN = 64.0

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._counts = np.zeros(self.BINS, dtype=np.int64)

    def update(self, values: Any) -> None:
        """Fold a batch of values in (list or array; empty batches are no-ops)."""
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size == 0:
            return
        self.count += int(array.size)
        self.total += float(array.sum())
        self.minimum = min(self.minimum, float(array.min()))
        self.maximum = max(self.maximum, float(array.max()))
        transformed = np.sign(array) * np.log1p(np.abs(array))
        width = (2.0 * self.SPAN) / self.BINS
        indices = np.clip(
            ((transformed + self.SPAN) / width).astype(np.int64), 0, self.BINS - 1
        )
        self._counts += np.bincount(indices, minlength=self.BINS)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile from the histogram (clamped to [min, max])."""
        if not self.count:
            return None
        target = min(max(int(math.ceil(q * self.count)), 1), self.count)
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, target))
        width = (2.0 * self.SPAN) / self.BINS
        center = -self.SPAN + (index + 0.5) * width
        value = math.copysign(math.expm1(abs(center)), center)
        return min(max(value, self.minimum), self.maximum)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }
        for label, q in QUANTILES:
            data[label] = self.quantile(q)
        return data
