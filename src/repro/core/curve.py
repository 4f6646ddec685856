"""Price-performance curves (paper Section 3.2, Figures 4, 5, 8).

A price-performance curve relates the monthly price of every relevant
SKU to its *score* -- one minus the throttling probability -- giving
the customer a personalized rank of cloud targets.  The paper enforces
monotonicity "so that customers cannot select SKUs that are more
expensive and less performant", and classifies curves into three
typical shapes (Section 5.1): *flat* (every SKU already satisfies the
workload), *simple* (a clean 0 %/100 % bifurcation) and *complex* (a
genuine ranking across many throttling levels).
"""

from __future__ import annotations

import enum
import itertools
import pickle
import zlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..catalog.models import (
    DeploymentType,
    HardwareGeneration,
    ResourceLimits,
    ServiceTier,
    SkuSpec,
)

__all__ = ["CurvePoint", "CurveShape", "PricePerformanceCurve"]

#: Scores within this tolerance of the extremes count as exactly 0/1
#: for shape classification.
_SHAPE_TOLERANCE = 0.005


class CurveShape(enum.Enum):
    """The three typical price-performance curve shapes (Section 5.1)."""

    FLAT = "flat"
    SIMPLE = "simple"
    COMPLEX = "complex"


class CurvePoint(NamedTuple):
    """One SKU's position on a price-performance curve.

    A named tuple rather than a dataclass: fleet-scale passes create
    hundreds of points per customer, and tuple construction is the
    cheapest immutable record Python offers.

    Attributes:
        sku: The cloud target.
        monthly_price: Monthly subscription cost (x axis).
        throttling_probability: Raw estimated ``P_n(SKU_i)``.
        score: Monotonicity-adjusted performance score ``1 - P``
            (y axis).  May exceed ``1 - throttling_probability`` when
            the running-max adjustment lifted a point dominated by a
            cheaper, better SKU.
    """

    sku: SkuSpec
    monthly_price: float
    throttling_probability: float
    score: float


@dataclass(frozen=True)
class PricePerformanceCurve:
    """A monotone price-performance ranking of candidate SKUs.

    Attributes:
        points: Curve points sorted by monthly price ascending; the
            ``score`` field is monotone non-decreasing.
        entity_id: The assessed workload's identifier.
    """

    points: tuple[CurvePoint, ...]
    entity_id: str = "unnamed"

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a price-performance curve needs at least one point")
        prices = [point.monthly_price for point in self.points]
        if any(b < a for a, b in zip(prices, prices[1:])):
            raise ValueError("curve points must be sorted by price ascending")
        scores = [point.score for point in self.points]
        if any(b < a - 1e-12 for a, b in zip(scores, scores[1:])):
            raise ValueError("curve scores must be monotone non-decreasing")

    @classmethod
    def from_probabilities(
        cls,
        skus: list[SkuSpec],
        probabilities: np.ndarray,
        entity_id: str = "unnamed",
    ) -> "PricePerformanceCurve":
        """Build a curve from raw throttling probabilities.

        SKUs are sorted by price and the score is made monotone with a
        running maximum of ``1 - P`` (the paper's monotonicity
        enforcement): a SKU can never be ranked below a cheaper SKU
        that throttles less.

        Args:
            skus: Candidate SKUs in any order.
            probabilities: ``P_n(SKU_i)`` aligned with ``skus``.
            entity_id: Workload identifier for reports.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (len(skus),):
            raise ValueError(
                f"expected {len(skus)} probabilities, got shape {probabilities.shape}"
            )
        if probabilities.size and (
            probabilities.min() < -1e-9 or probabilities.max() > 1.0 + 1e-9
        ):
            raise ValueError("throttling probabilities must lie in [0, 1]")
        prices = np.array([sku.monthly_price for sku in skus])
        vcores = np.array([sku.vcores for sku in skus])
        # Stable (price, vcores) ordering; lexsort keys are applied
        # last-key-primary and each pass is stable, so ties preserve
        # input order exactly like sorted() with a key tuple.
        order = np.lexsort((vcores, prices))
        raw = np.clip(probabilities[order], 0.0, 1.0)
        scores = np.maximum.accumulate(1.0 - raw)
        points = tuple(
            CurvePoint(
                sku=skus[index],
                monthly_price=float(prices[index]),
                throttling_probability=float(raw[rank]),
                score=float(scores[rank]),
            )
            for rank, index in enumerate(order)
        )
        return cls(points=points, entity_id=entity_id)

    @classmethod
    def from_price_ordered(
        cls,
        skus: Sequence[SkuSpec],
        monthly_prices: Sequence[float],
        probabilities: np.ndarray,
        entity_id: str = "unnamed",
    ) -> "PricePerformanceCurve":
        """Trusted fast constructor for already-price-ordered SKUs.

        The columnar fleet kernel's assembly path: the caller
        guarantees ``skus`` are sorted by (monthly price, vCores) --
        catalog order is -- and supplies the precomputed monthly
        prices, so the per-curve sort and per-point price property
        lookups of :meth:`from_probabilities` disappear.  Produces
        bit-identical curves to :meth:`from_probabilities` for such
        input (same clip, same running-max), and skips re-validating
        the ordering the caller established (``__post_init__``-less
        construction); misuse with unsorted SKUs is on the caller.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.size and (
            probabilities.min() < -1e-9 or probabilities.max() > 1.0 + 1e-9
        ):
            raise ValueError("throttling probabilities must lie in [0, 1]")
        raw = np.clip(probabilities, 0.0, 1.0)
        scores = np.maximum.accumulate(1.0 - raw)
        points = _points(skus, monthly_prices, raw.tolist(), scores.tolist())
        if not points:
            raise ValueError("a price-performance curve needs at least one point")
        curve = object.__new__(cls)
        object.__setattr__(curve, "points", points)
        object.__setattr__(curve, "entity_id", entity_id)
        return curve

    def __reduce__(self):
        """Pickle as columns: the SKU sequence as memoized bytes, then floats.

        Checkpoints and worker replies pickle hundreds of curve points
        per customer, and the default protocol calls back into Python
        for every point and every SKU.  Here each distinct SKU sequence
        is pickled once per process (as plain strings and floats) and
        restored once per process, and the float columns pickle in C.
        """
        skus, monthly_prices, probabilities, scores = zip(*self.points)
        return (
            _restore_curve,
            (
                self.entity_id,
                _sequence_rows(skus),
                monthly_prices,
                probabilities,
                scores,
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def scores(self) -> np.ndarray:
        return np.array([point.score for point in self.points])

    def prices(self) -> np.ndarray:
        return np.array([point.monthly_price for point in self.points])

    def point_for(self, sku_name: str) -> CurvePoint:
        """The curve point of a given SKU.

        Raises:
            KeyError: If the SKU is not on this curve.
        """
        for point in self.points:
            if point.sku.name == sku_name:
                return point
        raise KeyError(sku_name)

    def shape(self) -> CurveShape:
        """Classify into flat / simple / complex (paper Section 5.1)."""
        scores = self.scores()
        all_full = np.all(scores >= 1.0 - _SHAPE_TOLERANCE)
        if all_full:
            return CurveShape.FLAT
        at_extremes = np.all(
            (scores >= 1.0 - _SHAPE_TOLERANCE) | (scores <= _SHAPE_TOLERANCE)
        )
        if at_extremes and scores.max() >= 1.0 - _SHAPE_TOLERANCE:
            return CurveShape.SIMPLE
        return CurveShape.COMPLEX

    # ------------------------------------------------------------------
    # Selection helpers
    # ------------------------------------------------------------------
    def cheapest_full_performance(self) -> CurvePoint | None:
        """Cheapest point with (near-)zero throttling, or None."""
        for point in self.points:
            if point.score >= 1.0 - _SHAPE_TOLERANCE:
                return point
        return None

    def cheapest_at_least(self, score: float) -> CurvePoint | None:
        """Cheapest point whose score reaches ``score``, or None."""
        for point in self.points:
            if point.score >= score:
                return point
        return None

    def position_of(self, sku_name: str) -> int:
        """Rank of a SKU on the curve (0 = cheapest).

        Raises:
            KeyError: If the SKU is not on this curve.
        """
        for index, point in enumerate(self.points):
            if point.sku.name == sku_name:
                return index
        raise KeyError(sku_name)

    def render_ascii(self, width: int = 60, height: int = 12) -> str:
        """Plain-text rendering for the resource-use dashboard."""
        prices = self.prices()
        scores = self.scores()
        lo, hi = prices.min(), prices.max()
        span = hi - lo if hi > lo else 1.0
        grid = [[" "] * width for _ in range(height)]
        for price, score in zip(prices, scores):
            x = int((price - lo) / span * (width - 1))
            y = int((1.0 - score) * (height - 1))
            grid[y][x] = "o"
        lines = ["1.0 |" + "".join(grid[0])]
        lines += ["    |" + "".join(row) for row in grid[1:-1]]
        lines.append("0.0 |" + "".join(grid[-1]))
        lines.append("    +" + "-" * width)
        lines.append(f"     ${lo:,.0f}/mo{' ' * max(1, width - 20)}${hi:,.0f}/mo")
        return "\n".join(lines)


def _points(*columns: Sequence) -> tuple[CurvePoint, ...]:
    """Curve points from aligned (sku, price, probability, score) columns.

    ``tuple.__new__`` builds each named tuple without the Python-level
    constructor call, which dominates curve assembly at catalog size.
    """
    return tuple(map(tuple.__new__, itertools.repeat(CurvePoint), zip(*columns)))


#: The pickled SKU rows of every SKU sequence pickled inside a curve,
#: keyed by the SKUs' identities.  Curves over one catalog share a few
#: candidate sequences, so each is pickled once.  An entry holds its
#: SKUs, so no id in its key is reused while it lives.
_SEQUENCE_ROWS: dict[tuple[int, ...], tuple[tuple[SkuSpec, ...], bytes]] = {}

#: The SKUs each pickled sequence restores to, and the SKU each row
#: restores to: restored curves share them.
_SEQUENCES_BY_ROWS: dict[bytes, tuple[SkuSpec, ...]] = {}
_SKUS_BY_ROW: dict[tuple, SkuSpec] = {}

#: Sequences either sequence memo may hold before it starts over; a
#: process sees a few catalogs, so this only bounds memory.
_SEQUENCE_MEMO_LIMIT = 256


def _sequence_rows(skus: tuple[SkuSpec, ...]) -> bytes:
    """The SKUs as compressed, pickled strings and floats, memoized per sequence.

    Every checkpointed customer state embeds its curve's sequence, and
    compressing the rows once shrinks each state blob by about a half.
    """
    key = tuple(map(id, skus))
    entry = _SEQUENCE_ROWS.get(key)
    if entry is None:
        if len(_SEQUENCE_ROWS) >= _SEQUENCE_MEMO_LIMIT:
            _SEQUENCE_ROWS.clear()
        rows = [
            (
                sku.name,
                sku.deployment.value,
                sku.tier.value,
                sku.hardware.value,
                sku.price_per_hour,
                sku.limits.__getstate__(),
            )
            for sku in skus
        ]
        data = zlib.compress(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
        entry = _SEQUENCE_ROWS[key] = (skus, data)
    return entry[1]


def _sequence_from_rows(data: bytes) -> tuple[SkuSpec, ...]:
    skus = _SEQUENCES_BY_ROWS.get(data)
    if skus is None:
        if len(_SEQUENCES_BY_ROWS) >= _SEQUENCE_MEMO_LIMIT:
            _SEQUENCES_BY_ROWS.clear()
            _SKUS_BY_ROW.clear()
        rows = pickle.loads(zlib.decompress(data))
        skus = _SEQUENCES_BY_ROWS[data] = tuple(map(_sku_from_row, rows))
    return skus


def _sku_from_row(row: tuple) -> SkuSpec:
    sku = _SKUS_BY_ROW.get(row)
    if sku is None:
        name, deployment, tier, hardware, price_per_hour, limits_state = row
        limits = object.__new__(ResourceLimits)
        limits.__setstate__(limits_state)
        sku = object.__new__(SkuSpec)
        sku.__setstate__(
            (
                DeploymentType(deployment),
                ServiceTier(tier),
                HardwareGeneration(hardware),
                limits,
                price_per_hour,
                name,
            )
        )
        _SKUS_BY_ROW[row] = sku
    return sku


def _restore_curve(
    entity_id: str,
    sku_rows: bytes,
    monthly_prices: tuple[float, ...],
    probabilities: tuple[float, ...],
    scores: tuple[float, ...],
) -> PricePerformanceCurve:
    """Inverse of :meth:`PricePerformanceCurve.__reduce__` (no re-validation)."""
    points = _points(_sequence_from_rows(sku_rows), monthly_prices, probabilities, scores)
    curve = object.__new__(PricePerformanceCurve)
    object.__setattr__(curve, "points", points)
    object.__setattr__(curve, "entity_id", entity_id)
    return curve
