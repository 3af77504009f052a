"""Percentile helper vs numpy's reference."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import percentile

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=1, max_size=60),
       st.integers(min_value=0, max_value=100))
def test_percentile_matches_numpy(data, pct):
    expected = np.percentile(data, pct)
    assert percentile(data, pct) == pytest.approx(expected, rel=1e-9,
                                                  abs=1e-6)


def test_percentile_bounds_checked():
    with pytest.raises(ValueError):
        percentile([1, 2], 101)
    with pytest.raises(ValueError):
        percentile([1, 2], -1)


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 50)
