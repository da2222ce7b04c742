from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from possum.calculus import CertaintyInterval, TNormFamily

# Absolute tolerance for numeric comparisons throughout the suite.
TOL = 1e-9

FAMILIES = list(TNormFamily)

# 21-point grid over the unit interval, step 0.05.
GRID = [i / 20 for i in range(21)]

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)

families = st.sampled_from(FAMILIES)


@st.composite
def intervals(draw) -> CertaintyInterval:
    a = draw(unit_floats)
    b = draw(unit_floats)
    return CertaintyInterval(min(a, b), max(a, b))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20817)


class ForgetfulGoals(dict):
    """A goal table that never answers a lookup.

    Passed as ``QuerySession(goals=...)``, it makes the session derive
    every goal again each time a premise reaches it, as an engine with
    no table at all would; its entries are still written.
    """

    def get(self, key, default=None):
        return default
