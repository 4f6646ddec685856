"""Unit tests for price-performance curves."""

import copyreg
import io
import pickle

import numpy as np
import pytest

from repro.core import CurvePoint, CurveShape, PricePerformanceCurve

from .conftest import make_sku


def curve_from(probs, vcores=(2, 4, 8, 16)):
    skus = [make_sku(v) for v in vcores]
    return PricePerformanceCurve.from_probabilities(skus, np.asarray(probs, dtype=float))


class TestConstruction:
    def test_sorted_by_price(self):
        skus = [make_sku(8), make_sku(2), make_sku(4)]
        curve = PricePerformanceCurve.from_probabilities(skus, np.array([0.0, 0.5, 0.2]))
        assert [p.sku.vcores for p in curve] == [2, 4, 8]

    def test_monotone_enforcement(self):
        """A pricier SKU never scores below a cheaper one (paper Section 3.2)."""
        curve = curve_from([0.2, 0.5, 0.1, 0.0])
        scores = curve.scores()
        assert np.all(np.diff(scores) >= 0)
        # The dominated point is lifted to the cheaper point's score.
        assert curve.points[1].score == pytest.approx(0.8)
        # Raw probabilities preserved for inspection.
        assert curve.points[1].throttling_probability == pytest.approx(0.5)

    def test_probability_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            PricePerformanceCurve.from_probabilities([make_sku(2)], np.array([0.1, 0.2]))

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            curve_from([0.0, 1.5, 0.0, 0.0])

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PricePerformanceCurve(points=())

    def test_unsorted_points_rejected(self):
        good = curve_from([0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="sorted"):
            PricePerformanceCurve(points=tuple(reversed(good.points)))


class TestShapes:
    def test_flat(self):
        assert curve_from([0.0, 0.0, 0.0, 0.0]).shape() is CurveShape.FLAT

    def test_simple(self):
        assert curve_from([1.0, 1.0, 0.0, 0.0]).shape() is CurveShape.SIMPLE

    def test_complex(self):
        assert curve_from([0.6, 0.3, 0.1, 0.0]).shape() is CurveShape.COMPLEX

    def test_all_throttled_is_complex_not_simple(self):
        # A bifurcation needs a 100 % side to be a "clear choice".
        assert curve_from([1.0, 1.0, 1.0, 1.0]).shape() is not CurveShape.FLAT


class TestSelection:
    def test_cheapest_full_performance(self):
        curve = curve_from([0.6, 0.2, 0.0, 0.0])
        point = curve.cheapest_full_performance()
        assert point.sku.vcores == 8

    def test_cheapest_full_performance_none(self):
        assert curve_from([0.5, 0.4, 0.3, 0.2]).cheapest_full_performance() is None

    def test_cheapest_at_least(self):
        curve = curve_from([0.6, 0.2, 0.1, 0.0])
        assert curve.cheapest_at_least(0.75).sku.vcores == 4
        assert curve.cheapest_at_least(0.95).sku.vcores == 16

    def test_position_and_lookup(self):
        curve = curve_from([0.0, 0.0, 0.0, 0.0])
        name = curve.points[2].sku.name
        assert curve.position_of(name) == 2
        assert curve.point_for(name).sku.name == name

    def test_missing_sku_raises(self):
        curve = curve_from([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(KeyError):
            curve.position_of("nope")
        with pytest.raises(KeyError):
            curve.point_for("nope")

    def test_render_ascii_smoke(self):
        text = curve_from([0.6, 0.2, 0.1, 0.0]).render_ascii(width=30, height=8)
        assert "o" in text
        assert "$" in text

    def test_scores_and_prices_aligned(self):
        curve = curve_from([0.5, 0.0, 0.0, 0.0])
        assert curve.scores().shape == curve.prices().shape == (4,)


class TestPickling:
    def test_round_trip_is_equal_and_keeps_named_points(self):
        curve = curve_from([0.3, 0.1, 0.0, 0.0])
        restored = pickle.loads(pickle.dumps(curve))
        assert restored == curve
        assert restored.entity_id == curve.entity_id
        assert all(type(point) is CurvePoint for point in restored.points)

    def test_restored_curves_share_their_skus(self):
        skus = [make_sku(v) for v in (2, 4, 8)]
        first, second = (
            PricePerformanceCurve.from_probabilities(skus, np.array(probs))
            for probs in ([0.5, 0.1, 0.0], [0.2, 0.2, 0.0])
        )
        a, b = (pickle.loads(pickle.dumps(c)) for c in (first, second))
        assert [p.sku for p in a] == skus
        assert all(x.sku is y.sku for x, y in zip(a, b))

    def test_curves_pickled_by_the_default_protocol_still_load(self):
        """State blobs written before the columnar pickle keep restoring."""
        curve = curve_from([0.3, 0.1, 0.0, 0.0])

        class DefaultProtocol(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is PricePerformanceCurve:
                    # What object.__reduce_ex__ gives a dataclass by default.
                    return copyreg.__newobj__, (type(obj),), dict(vars(obj))
                return NotImplemented

        buffer = io.BytesIO()
        DefaultProtocol(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(curve)
        assert pickle.loads(buffer.getvalue()) == curve
