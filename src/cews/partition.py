"""Ordered boundary sets on the frequency line and the supports they induce.

Boundaries may include the sentinels -inf / +inf, which turn the outermost
supports into half-infinite rays. Two labelling modes exist:

* ``"V"``: zero is itself a boundary and carries index 0,
* ``"Vstar"``: zero is not a boundary; the support that straddles it gets
  index -1, its upper boundary being the first positive one (index +1).

Negative boundaries are indexed -1, -2, ... counting away from zero, positive
ones +1, +2, ..., and every support takes the index of its lower boundary.
Partitions are immutable after construction and safe to share across threads.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DegenerateCenter,
    MultipleInfinities,
    NotSorted,
    RayWithoutNeighbor,
    SignIndexViolation,
    VstarMissingSide,
    ZeroLengthSupport,
)

V_MODE = "V"
VSTAR_MODE = "Vstar"
MODES = (V_MODE, VSTAR_MODE)


@dataclass(frozen=True)
class Support:
    """One interval of a partition, possibly a half-infinite ray."""

    index: int
    lo: float
    hi: float

    @property
    def is_left_ray(self) -> bool:
        return math.isinf(self.lo)

    @property
    def is_right_ray(self) -> bool:
        return math.isinf(self.hi)

    @property
    def is_ray(self) -> bool:
        return self.is_left_ray or self.is_right_ray

    @property
    def length(self) -> float:
        """hi - lo; +inf for rays."""
        return self.hi - self.lo


@dataclass(frozen=True)
class Partition:
    """Validated boundary set; :func:`build_partition` is its only supported
    constructor. It guarantees a finite boundary, so no support spans the whole
    line; every compact support but Vstar's -1 lies on one side of zero; and in
    V mode a compact support gives the zero boundary a finite neighbour. It is
    its mode and boundaries; indices and supports are derived on first use."""

    mode: str
    boundaries: tuple

    # -- enumeration ----------------------------------------------------------

    @cached_property
    def indices(self) -> tuple:
        """Each boundary's index: its position counted from the first
        non-negative boundary, skipping 0 in Vstar mode (module docstring)."""
        first = sum(1 for v in self.boundaries if v < 0)
        skip = self.mode == VSTAR_MODE
        return tuple(i - first + (skip and v > 0) for i, v in enumerate(self.boundaries))

    @cached_property
    def supports(self) -> tuple:
        bounds = self.boundaries
        return tuple(Support(*s) for s in zip(self.indices, bounds, bounds[1:]))

    @cached_property
    def support_indices(self) -> tuple:
        return self.indices[:-1]

    @cached_property
    def _pos(self) -> dict:
        return {n: i for i, n in enumerate(self.support_indices)}

    @property
    def has_left_ray(self) -> bool:
        return math.isinf(self.boundaries[0])

    @property
    def has_right_ray(self) -> bool:
        return math.isinf(self.boundaries[-1])

    def support(self, n: int) -> Support:
        return self.supports[self.ordinal(n)]

    def ordinal(self, n: int) -> int:
        """Position of support n in left-to-right enumeration order."""
        if n not in self._pos:
            raise KeyError(f"no support with index {n}")
        return self._pos[n]

    # -- geometry -------------------------------------------------------------

    def support_center(self, n: int) -> float:
        """Center frequency of support n.

        Compact supports use their midpoint. A ray is centered half the
        adjacent compact support's width beyond its finite edge, which
        requires that neighbor to exist.
        """
        s = self.support(n)
        if s.is_left_ray:
            return s.hi - self.compact_neighbor(n).length / 2.0
        if s.is_right_ray:
            return s.lo + self.compact_neighbor(n).length / 2.0
        return 0.5 * (s.lo + s.hi)

    def compact_neighbor(self, n: int) -> Support:
        """The compact support adjacent to ray n (its width donor)."""
        s = self.support(n)
        if not s.is_ray:
            raise RayWithoutNeighbor(f"support {n} is not a one-sided ray")
        pos = self._pos[n] + (1 if s.is_left_ray else -1)
        if 0 <= pos < len(self.supports):
            neighbor = self.supports[pos]
            if not neighbor.is_ray:
                return neighbor
        raise RayWithoutNeighbor(f"ray support {n} has no adjacent compact support")

    def max_gamma(self) -> float:
        """Supremum of admissible transition ratios; valid gamma are below it.

        Each compact support contributes length / (2 |center|), and the result
        is capped at 1/2. In Vstar mode the zero-straddling support (index -1)
        is skipped; the cap covers the symmetric case where it is centered
        exactly at zero. In V mode the zero boundary borrows the half-width
        gamma * min(|neighbour boundaries|), which overlaps the next boundary's
        transition once gamma reaches 1/2.
        """
        ratios = []
        for s in self.supports:
            if s.is_ray:
                continue
            if self.mode == VSTAR_MODE and s.index == -1:
                continue
            center = abs(self.support_center(s.index))
            if center == 0.0:
                # the midpoint of [0, 5e-324] underflows to zero
                raise DegenerateCenter(f"compact support {s.index} is centered at zero")
            ratios.append(s.length / (2.0 * center))
        if self.mode == V_MODE and not ratios:
            raise DegenerateCenter("no compact support available to bound gamma")
        return min(ratios + [0.5])


def build_partition(mode: str, boundary_values) -> Partition:
    """Validate boundary values; the partition derives its sign-based indices.

    Values must be strictly increasing extended reals with at most one -inf
    (first) and one +inf (last). V mode requires the zero boundary, Vstar mode
    forbids it and needs at least one finite boundary on each side of zero.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    values = [float(v) for v in boundary_values]
    if len(values) < 2:
        raise ValueError("a partition needs at least 2 boundaries")
    if any(math.isnan(v) for v in values):
        raise ValueError("boundaries must not be NaN")
    values = [0.0 if v == 0.0 else v for v in values]  # normalize -0.0

    if sum(1 for v in values if v == -math.inf) > 1 or sum(
        1 for v in values if v == math.inf
    ) > 1:
        raise MultipleInfinities("at most one -inf and one +inf boundary allowed")
    for a, b in zip(values, values[1:]):
        if b < a:
            raise NotSorted(f"boundaries must be strictly increasing ({b} after {a})")
        if b == a:
            raise ZeroLengthSupport(f"repeated boundary {a} creates an empty support")

    zero_count = sum(1 for v in values if v == 0.0)
    if mode == V_MODE:
        if zero_count != 1:
            raise SignIndexViolation(
                "V mode requires the zero boundary; without it the supports "
                "straddling 0 cannot be indexed consistently"
            )
    else:
        if zero_count:
            raise SignIndexViolation("Vstar mode excludes the zero boundary")
        if not any(v < 0 and math.isfinite(v) for v in values):
            raise VstarMissingSide("Vstar mode needs a finite negative boundary")
        if not any(v > 0 and math.isfinite(v) for v in values):
            raise VstarMissingSide("Vstar mode needs a finite positive boundary")

    return Partition(mode=mode, boundaries=tuple(values))
