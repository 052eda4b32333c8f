"""Invariants the paper implies, checked over random valid partitions.

Partitions have both rays, 1-3 finite boundaries on each side of zero (plus
the zero boundary in V mode) and grids of odd and even size.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from cews import (
    FamilyParams,
    FrequencyGrid,
    analytic_bounds,
    build_partition,
    dual_bank,
    empirical_bounds,
    sample_bank,
)

from conftest import INF

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)

side = st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3, unique=True)


@st.composite
def banks_on_grid(draw):
    """(partition, grid) with boundaries at least 0.02 apart."""
    mode = draw(st.sampled_from(["V", "Vstar"]))
    finite = sorted(-v for v in draw(side)) + ([0.0] if mode == "V" else []) + sorted(draw(side))
    assume(min(b - a for a, b in zip(finite, finite[1:])) >= 0.02)
    partition = build_partition(mode, [-INF] + finite + [INF])
    return partition, FrequencyGrid(draw(st.integers(32, 400)))


ALL_FAMILIES = st.sampled_from(
    ["littlewood-paley", "meyer", "shannon", "gabor-local", "gabor-extended"]
)


def make_params(partition, family):
    if family == "littlewood-paley":
        return FamilyParams(family, gamma=0.9 * partition.max_gamma())
    if family.startswith("gabor-"):
        return FamilyParams("gabor", gabor_rays=family.split("-")[1])
    return FamilyParams(family)


@PROPERTY_SETTINGS
@given(banks_on_grid())
def test_lp_is_tight(case):
    partition, grid = case
    bank = sample_bank(partition, make_params(partition, "littlewood-paley"), grid)
    a, b = empirical_bounds(bank)
    assert abs(a - 1.0) <= 1e-12 and abs(b - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(banks_on_grid(), st.sampled_from(["meyer", "shannon"]))
def test_empirical_bounds_within_analytic(case, family):
    partition, grid = case
    # a zero-centred support gives Meyer no phase reference
    assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    params = make_params(partition, family)
    a, b = empirical_bounds(sample_bank(partition, params, grid))
    a_ana, b_ana = analytic_bounds(params, partition)
    assert a >= a_ana * (1.0 - 1e-12)
    assert b <= b_ana * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(banks_on_grid(), ALL_FAMILIES)
def test_dual_inverts_on_regular_bins(case, family):
    partition, grid = case
    assume(all(partition.support_center(s.index) != 0.0 for s in partition.supports))
    bank = sample_bank(partition, make_params(partition, family), grid)
    dual = dual_bank(bank, allow_singular=True)
    identity = np.sum(np.conj(bank.spectra) * dual.spectra, axis=0)
    regular = np.ones(grid.n_samples, dtype=bool)
    regular[list(dual.singular_bins)] = False
    assert np.abs(identity[regular] - 1.0).max(initial=0.0) <= 1e-12


@PROPERTY_SETTINGS
@given(banks_on_grid())
def test_dual_of_lp_dual_is_lp(case):
    partition, grid = case
    bank = sample_bank(partition, make_params(partition, "littlewood-paley"), grid)
    twice = dual_bank(dual_bank(bank))
    assert np.abs(twice.spectra - bank.spectra).max() <= 1e-12
