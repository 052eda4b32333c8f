import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cews import build_partition
from cews.errors import (
    DegenerateCenter,
    EwtError,
    MultipleInfinities,
    NotSorted,
    RayWithoutNeighbor,
    SignIndexViolation,
    VstarMissingSide,
    ZeroLengthSupport,
)

from cews.io import decode_boundary, encode_boundary

from conftest import EXAMPLE_BOUNDS, PI, INF


def rebuilt(p):
    """The partition as a config file stores it, read back and rebuilt."""
    text = json.dumps([encode_boundary(v) for v in p.boundaries], allow_nan=False)
    values = [decode_boundary(v, f"boundaries[{i}]") for i, v in enumerate(json.loads(text))]
    return build_partition(p.mode, values)


class TestBuild:
    def test_example_partition_layout(self, example_partition):
        p = example_partition
        assert p.support_indices == (-4, -3, -2, -1, 1, 2, 3)
        assert p.has_left_ray and p.has_right_ray
        assert p.indices == (-4, -3, -2, -1, 1, 2, 3, 4)

    def test_minimal_v_mode(self):
        p = build_partition("V", [-1.0, 0.0, 1.0])
        assert p.support_indices == (-1, 0)
        assert p.support(-1).lo == -1.0 and p.support(-1).hi == 0.0
        assert p.support(0).lo == 0.0 and p.support(0).hi == 1.0

    def test_vstar_missing_side(self):
        with pytest.raises(VstarMissingSide):
            build_partition("Vstar", [1.0, 2.0, 3.0])
        with pytest.raises(VstarMissingSide):
            # an infinite side does not count as a finite boundary
            build_partition("Vstar", [-INF, 5.0, 7.0, INF])
        with pytest.raises(VstarMissingSide, match="positive"):
            build_partition("Vstar", [-2.0, -1.0])

    def test_not_sorted(self):
        with pytest.raises(NotSorted):
            build_partition("V", [1.0, 0.0, -1.0])

    def test_zero_length_support(self):
        with pytest.raises(ZeroLengthSupport):
            build_partition("Vstar", [-1.0, 2.0, 2.0])

    def test_multiple_infinities(self):
        with pytest.raises(MultipleInfinities):
            build_partition("Vstar", [-INF, -INF, -1.0, 1.0])
        with pytest.raises(MultipleInfinities):
            build_partition("Vstar", [-1.0, 1.0, INF, INF])

    def test_sign_index_violation(self):
        with pytest.raises(SignIndexViolation):
            build_partition("V", [-1.0, 1.0])  # no zero boundary
        with pytest.raises(SignIndexViolation):
            build_partition("Vstar", [-1.0, 0.0, 1.0])  # zero present

    def test_too_few_boundaries(self):
        with pytest.raises(ValueError):
            build_partition("V", [0.0])

    def test_single_support_covering_the_line_is_rejected(self):
        # a lone (-inf, +inf) support fails the mode rules in either labelling
        with pytest.raises(SignIndexViolation):
            build_partition("V", [-INF, INF])
        with pytest.raises(VstarMissingSide):
            build_partition("Vstar", [-INF, INF])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            build_partition("W", [-1.0, 0.0, 1.0])

    def test_nan_boundary(self):
        with pytest.raises(ValueError, match="NaN"):
            build_partition("Vstar", [-INF, -1.0, math.nan, 1.0, INF])

    @pytest.mark.parametrize(("zero", "one"), [(False, True), (np.False_, np.True_)])
    def test_bool_boundary(self, zero, one):
        # False would stand in for the zero boundary, and True for 1.0
        with pytest.raises(TypeError, match="bool"):
            build_partition("V", [-INF, zero, 1.0, INF])
        with pytest.raises(TypeError, match="bool"):
            build_partition("Vstar", [-INF, -1.0, one, INF])


class TestGeometry:
    def test_compact_centers_are_midpoints(self, example_partition):
        p = example_partition
        assert p.support_center(1) == pytest.approx(PI, rel=1e-15)
        assert p.support_center(-3) == pytest.approx(-2 * PI, rel=1e-15)
        assert p.support_center(2) == pytest.approx(7 * PI / 4, rel=1e-15)

    def test_left_ray_center_borrows_neighbor_width(self, example_partition):
        # neighbor [-3pi, -pi] has width 2pi: center = -3pi - pi = -4pi
        assert example_partition.support_center(-4) == pytest.approx(-4 * PI, rel=1e-15)

    def test_right_ray_center_borrows_neighbor_width(self, example_partition):
        # neighbor [3pi/2, 2pi] has width pi/2: center = 2pi + pi/4 = 9pi/4
        assert example_partition.support_center(3) == pytest.approx(9 * PI / 4, rel=1e-15)

    def test_zero_straddling_center(self, example_partition):
        assert example_partition.support_center(-1) == pytest.approx(PI / 12, rel=1e-14)

    def test_lengths(self, example_partition):
        p = example_partition
        assert p.support(2).length == pytest.approx(PI / 2, rel=1e-15)
        assert p.support(-1).length == pytest.approx(5 * PI / 6, rel=1e-15)
        assert p.support(-4).length == INF
        assert p.support(3).length == INF

    def test_ray_next_to_ray_has_no_center(self):
        p = build_partition("V", [-INF, 0.0, INF])
        with pytest.raises(RayWithoutNeighbor):
            p.support_center(-1)
        with pytest.raises(RayWithoutNeighbor):
            p.support_center(0)

    def test_compact_support_has_no_compact_neighbor(self, example_partition):
        with pytest.raises(RayWithoutNeighbor, match="not a one-sided ray"):
            example_partition.compact_neighbor(1)

    def test_unknown_support_index(self, example_partition):
        with pytest.raises(KeyError):
            example_partition.support(0)  # Vstar has no support 0
        with pytest.raises(KeyError):
            example_partition.support(99)


class TestMaxGamma:
    def test_example_value(self, example_partition):
        # ratios length/(2|center|): 1/2, 1/2, 1/2, 1/7 and the Vstar cap 1/2
        assert example_partition.max_gamma() == pytest.approx(1 / 7, rel=1e-15)

    def test_symmetric_vstar_hits_cap(self):
        p = build_partition("Vstar", [-INF, -1.0, 1.0, INF])
        assert p.max_gamma() == 0.5

    def test_v_mode(self):
        # each support alone would allow 1, but the zero boundary's borrowed
        # half-width overlaps the next transition from gamma = 1/2 on
        p = build_partition("V", [-2.0, 0.0, 2.0])
        assert p.max_gamma() == 0.5

    def test_no_compact_support(self):
        p = build_partition("V", [-INF, 0.0, INF])
        with pytest.raises(DegenerateCenter):
            p.max_gamma()

    def test_underflowing_center(self):
        # a valid partition whose compact support has midpoint 0.5 * 5e-324 == 0
        p = build_partition("V", [0.0, 5e-324])
        assert p.support_center(0) == 0.0
        with pytest.raises(DegenerateCenter):
            p.max_gamma()


class TestInvariants:
    @pytest.mark.parametrize(
        "mode,values",
        [
            ("Vstar", EXAMPLE_BOUNDS),
            ("V", (-INF, -2.0, 0.0, 1.4, 1.8, INF)),
            ("V", (-1.0, 0.0, 1.0)),
            ("Vstar", (-2.5, -1.0, 1.0, 2.0)),
        ],
    )
    def test_supports_tile_boundaries(self, mode, values):
        p = build_partition(mode, values)
        supports = p.supports
        assert len(supports) == len(values) - 1
        for a, b in zip(supports, supports[1:]):
            assert a.hi == b.lo

    def test_compact_centers_inside_support(self, example_partition):
        for s in example_partition.supports:
            if not s.is_ray:
                c = example_partition.support_center(s.index)
                assert s.lo < c < s.hi

    def test_rebuild_round_trip(self, example_partition):
        assert rebuilt(example_partition) == example_partition

    neg = st.lists(
        st.floats(min_value=-100.0, max_value=-0.01), min_size=1, max_size=4, unique=True
    )
    pos = st.lists(
        st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=4, unique=True
    )

    @given(neg=neg, pos=pos, left_ray=st.booleans(), right_ray=st.booleans(),
           zero=st.booleans())
    def test_generated_partitions_are_consistent(self, neg, pos, left_ray, right_ray, zero):
        values = sorted(neg) + ([0.0] if zero else []) + sorted(pos)
        if left_ray:
            values = [-INF] + values
        if right_ray:
            values = values + [INF]
        p = build_partition("V" if zero else "Vstar", values)

        assert list(p.indices) == sorted(p.indices)
        for a, b in zip(p.supports, p.supports[1:]):
            assert a.hi == b.lo
        assert rebuilt(p) == p

        assert 0.0 < p.max_gamma() <= 0.5

    boundary = st.one_of(
        st.sampled_from([-INF, 0.0, INF]),
        st.floats(min_value=-4.0, max_value=4.0, exclude_min=True, exclude_max=True),
    )

    @given(values=st.lists(boundary, min_size=2, max_size=8, unique=True).map(sorted),
           mode=st.sampled_from(["V", "Vstar"]))
    @example(values=[-INF, INF], mode="Vstar")
    @example(values=[-INF, INF], mode="V")
    @example(values=[-INF, 0.0, INF], mode="V")
    def test_guarantees_the_evaluators_rely_on(self, values, mode):
        """The Partition docstring's guarantees, which the filter evaluators,
        support_center, compact_neighbor and the V-mode zero half-width take
        for granted instead of checking."""
        try:
            p = build_partition(mode, values)
        except (EwtError, ValueError):
            return
        assert not any(s.is_left_ray and s.is_right_ray for s in p.supports)
        compact = [s for s in p.supports if not s.is_ray]
        for s in compact:
            if mode == "Vstar" and s.index == -1:
                continue
            assert s.lo >= 0.0 or s.hi <= 0.0
            if p.support_center(s.index) == 0.0:
                # only a midpoint that underflows; max_gamma() rejects it
                with pytest.raises(DegenerateCenter):
                    p.max_gamma()
        if mode == "V":
            z = p.boundaries.index(0.0)
            near = p.boundaries[max(z - 1, 0) : z + 2]
            if compact:
                assert any(v != 0.0 and math.isfinite(v) for v in near)
            else:
                with pytest.raises(DegenerateCenter):
                    p.max_gamma()
