"""Exact number-state results against 30-digit references and invariants.

The pairs and angles below are the hard cases of the mixing-angle sweep:
a root of the radial profile that grid refinement could not settle
((2,1) at 37 pi/200, (3,2) at 5 pi/200), a pair of roots near the origin
enclosing a lobe of 1.8e-7 ((5,0) at 49 pi/200), and degrees where the
companion-matrix roots of the Laguerre series go wrong ((13,13), (25,25)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wignerosc.fock_dynamics import FockPairState, OscillatorParams, mode_populations
from wignerosc.info_measures import mutual_information, negativity

UNIT = OscillatorParams(gamma=1.0)  # mixing angle theta equals the time
STEP = math.pi / 200  # the fig1 default angle step

# mpmath at 30 digits (polyroots of the monomial profile, quad between roots)
NEGATIVITY_25_25_MODE1_AT_5_STEPS = 0.7817680297273644


@pytest.mark.parametrize("k,ell,index,modes", [
    (2, 1, 37, (1, 2)),
    (3, 2, 5, (1, 2)),
    (5, 0, 49, (1,)),
    (13, 13, 5, (1, 2)),
])
def test_negativity_against_mpmath(k, ell, index, modes):
    theta = STEP * index
    for mode in modes:
        value = negativity(mode_populations(FockPairState(k, ell, UNIT), theta, mode))
        assert value == pytest.approx(oracles.negativity_pair(k, ell, theta, mode), abs=1e-12)


def test_root_pair_near_origin():
    value = negativity(mode_populations(FockPairState(5, 0, UNIT), STEP * 49, 1))
    assert value == pytest.approx(1.7906e-7, rel=1e-4)


def test_high_degree_constant():
    value = negativity(mode_populations(FockPairState(25, 25, UNIT), STEP * 5, 1))
    assert value == pytest.approx(NEGATIVITY_25_25_MODE1_AT_5_STEPS, abs=1e-12)


@st.composite
def pairs_and_angles(draw):
    total = draw(st.integers(0, 60))
    k = draw(st.integers(0, total))
    theta = draw(st.floats(0.0, math.pi))
    return FockPairState(k, total - k, UNIT), theta


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(pairs_and_angles())
def test_populations_sum_to_one(case):
    state, theta = case
    assert abs(float(np.sum(mode_populations(state, theta))) - 1.0) <= 1e-13


@PROPERTY
@given(pairs_and_angles())
def test_negativity_mode_exchange(case):
    state, theta = case
    one = negativity(mode_populations(state, theta, 1))
    two = negativity(mode_populations(state, math.pi / 2 - theta, 2))
    assert one >= 0.0 and two >= 0.0
    assert one == pytest.approx(two, abs=1e-12)


@PROPERTY
@given(pairs_and_angles())
def test_mutual_information_bounds(case):
    state, theta = case
    info = mutual_information(state, theta)
    assert 0.0 <= info <= 2.0 * (1.0 - 1.0 / (state.k + state.ell + 1))
