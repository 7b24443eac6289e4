import math

import numpy as np
import pytest
from scipy.special import eval_laguerre, roots_hermite

import oracles
from wignerosc.fock_dynamics import (
    FockPairState,
    OscillatorParams,
    WignerField,
    mode_populations,
    pair_field,
)
from wignerosc import info_measures
from wignerosc.info_measures import (
    MAX_QUANTA,
    NegativityError,
    linear_entropy,
    mutual_information,
    negativity,
    normalization,
)

UNIT = OscillatorParams(gamma=1.0)  # mixing angle theta equals the time
OFF_UNIT_MODELS = [(1.0, 1.0, 0.0), (3.0, 1.0, 0.35), (0.7, 0.5, 0.2)]  # (omega, hbar, gamma)


def marginal(state, theta, mode):
    """The oracle's single-mode marginal of the library's populations, as a function of (q, p) in vacuum units."""
    probs = mode_populations(state, theta, mode)
    return lambda q, p: oracles.marginal_wigner(probs, q, p)


def marginal_entropy(state, theta, mode):
    """1 - purity of the marginal, by the oracle's dense trapezoid grid."""
    return 1.0 - oracles.dense_grid_purity(marginal(state, theta, mode), extent=8.0, points=801)


def expectation_value(field, observable, degree):
    """integral(W * O) for a polynomial symbol O of the given degree: the normalization of W times O."""
    def weighted(*z):
        return field.profile(*z) * observable(*z)

    return normalization(WignerField(weighted, field.degree + degree))


def hamiltonian_symbol(params):
    """(hbar omega / 2) (q1^2 + p1^2 + q2^2 + p2^2) + hbar gamma (p1 q2 - p2 q1) in vacuum units."""
    half, g = params.hbar * params.omega / 2, params.hbar * params.gamma
    return lambda q1, p1, q2, p2: half * (q1 * q1 + p1 * p1 + q2 * q2 + p2 * p2) + g * (p1 * q2 - p2 * q1)


class TestLinearEntropy:
    @pytest.mark.parametrize("k,ell,theta", [(1, 0, 0.0), (1, 0, 0.8), (2, 1, 0.4)])
    def test_pure_joint_state(self, k, ell, theta):
        state = FockPairState(k, ell, UNIT)
        assert abs(linear_entropy(pair_field(state, theta))) < 1e-10

    def test_vacuum_marginal(self):
        state = FockPairState(1, 0, UNIT)
        assert abs(marginal_entropy(state, 0.0, 2)) < 1e-9

    def test_mixed_marginal_against_dense_grid(self):
        # half-swapped marginal: each mode's entropy, half the closed-form mutual information,
        # checked against a brute-force trapezoid purity on a dense grid, then against the enumeration value
        state = FockPairState(1, 0, UNIT)
        theta = math.pi / 4
        s = 0.5 * mutual_information(state, theta)
        assert 0.0 < s < 1.0
        assert s == pytest.approx(marginal_entropy(state, theta, 1), abs=1e-8)
        assert s == pytest.approx(oracles.mixed_state_entropy(1, 0, theta), abs=1e-12)

    def test_marginal_entropy_curve(self):
        # the library's populations under the oracle's grid purity, against the enumeration value
        state = FockPairState(2, 1, UNIT)
        for theta in (0.15, 0.6, 1.1):
            s = marginal_entropy(state, theta, 1)
            assert s == pytest.approx(oracles.mixed_state_entropy(2, 1, theta), abs=1e-11)

    def test_requires_envelope(self):
        # a field is its envelope times a profile of stated degree: there is no bare evaluator
        with pytest.raises(TypeError):
            WignerField(lambda q, p: 0.0 * q)


class TestMutualInformation:
    def test_zero_for_product_state(self):
        state = FockPairState(1, 0, UNIT)
        assert abs(mutual_information(state, 0.0)) < 1e-9

    def test_zero_after_full_swap(self):
        state = FockPairState(1, 0, UNIT)
        assert abs(mutual_information(state, math.pi / 2)) < 1e-8

    def test_peak_location_and_value(self):
        state = FockPairState(1, 0, UNIT)
        thetas = np.linspace(0.0, math.pi / 2, 41)
        values = [mutual_information(state, t) for t in thetas]
        assert thetas[int(np.argmax(values))] == pytest.approx(math.pi / 4, abs=math.pi / 80)
        assert mutual_information(state, math.pi / 4) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k,ell", [(1, 0), (2, 1)])
    def test_matches_enumeration(self, k, ell):
        state = FockPairState(k, ell, UNIT)
        for theta in (0.2, 0.7, 1.3):
            expected = oracles.mutual_information_pair(k, ell, theta)
            assert mutual_information(state, theta) == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self):
        state = FockPairState(2, 1, UNIT)
        for theta in np.linspace(0.0, math.pi, 25):
            assert mutual_information(state, theta) >= -1e-8

    def test_generic_two_mode_field(self):
        # purities of the three fields against the closed form: Gauss-Hermite for the joint field,
        # the oracle's dense grid for the marginals
        for k, ell in ((1, 0), (2, 1)):
            state = FockPairState(k, ell, UNIT)
            for theta in (0.2, 0.5, 1.1):
                quadrature = (
                    marginal_entropy(state, theta, 1)
                    + marginal_entropy(state, theta, 2)
                    - linear_entropy(pair_field(state, theta))
                )
                assert mutual_information(state, theta) == pytest.approx(quadrature, abs=1e-12)

    def test_rejects_single_mode_field(self):
        # a single mode's state is its population vector; the information needs the pair
        state = FockPairState(1, 0, UNIT)
        with pytest.raises(TypeError):
            mutual_information(mode_populations(state, 0.0, 1))
        with pytest.raises(TypeError):
            mutual_information(pair_field(state, 0.0))

    def test_capped_at_uniform_populations(self):
        # (1,1) reaches uniform populations where sin^2(2 theta) = 2/3; the
        # pair sum lands one ulp above the maximum 2N/(N+1) = 4/3 there
        state = FockPairState(1, 1, OscillatorParams(gamma=1.0))
        theta = 0.5 * math.asin(math.sqrt(2.0 / 3.0))
        assert mutual_information(state, theta) == 4.0 / 3.0
        assert np.max(mutual_information(state, np.linspace(0.0, math.pi, 2001))) <= 4.0 / 3.0

    def test_vectorized_over_times(self):
        state = FockPairState(2, 1, UNIT)
        thetas = np.array([0.2, 0.7, 1.3])
        values = mutual_information(state, thetas)
        assert values == pytest.approx([mutual_information(state, t) for t in thetas], abs=1e-15)


class TestNegativity:
    def test_vacuum_marginal_zero(self):
        state = FockPairState(1, 0, UNIT)
        assert negativity(mode_populations(state, 0.0, 2)) == 0.0

    def test_single_quantum_marginal(self):
        state = FockPairState(1, 0, UNIT)
        value = negativity(mode_populations(state, 0.0, 1))
        assert value == pytest.approx(4.0 * math.exp(-0.5) - 2.0, abs=1e-14)

    def test_curve_against_closed_form(self):
        state = FockPairState(1, 0, UNIT)
        thetas = np.array([0.2, 0.5, 0.7, 1.0])
        values = negativity(mode_populations(state, thetas, 1))
        for theta, value in zip(thetas, values):
            assert value == pytest.approx(oracles.fock1_negativity_closed_form(theta), abs=1e-14)

    def test_curve_against_radial_quadrature(self):
        state = FockPairState(2, 1, UNIT)
        for theta in (0.0, 0.3, 0.9):
            value = negativity(mode_populations(state, theta, 1))
            assert value == pytest.approx(oracles.negativity_pair(2, 1, theta, 1), abs=1e-12)

    def test_matches_dense_grid(self):
        # a trapezoid grid of |W| - W shares no root finding with the
        # exact sum; the kinks at the zero circles limit it to about 1e-5
        for k, ell, theta in ((2, 1, 0.6), (3, 2, 0.15)):
            state = FockPairState(k, ell, UNIT)
            value = negativity(mode_populations(state, theta, 1))
            brute = oracles.dense_grid_negativity(marginal(state, theta, 1), extent=8.0, points=801)
            assert value == pytest.approx(brute, abs=2e-5)

    def test_swap_symmetry(self):
        state = FockPairState(1, 0, UNIT)
        for theta in (0.0, 0.3, 0.6):
            one = negativity(mode_populations(state, theta, 1))
            two = negativity(mode_populations(state, math.pi / 2 - theta, 2))
            assert one == pytest.approx(two, abs=1e-14)

    def test_gaussian_field_zero(self):
        # a thermal state is Gaussian and number-diagonal; its tail beyond
        # 40 quanta is below 1e-21
        nbar = 0.4
        probs = nbar ** np.arange(41) / (nbar + 1.0) ** np.arange(1, 42)
        assert negativity(probs) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_two_mode_field(self):
        state = FockPairState(1, 0, UNIT)
        with pytest.raises(TypeError):
            negativity(pair_field(state, 0.0))
        with pytest.raises(ValueError):
            negativity(np.full((2, 2, 2), 0.25))

    def test_rows_match_single_vectors(self, monkeypatch):
        state = FockPairState(3, 2, UNIT)
        probs = mode_populations(state, np.linspace(0.0, math.pi, 9))
        rows = negativity(probs)
        assert rows.shape == (9,)
        assert rows == pytest.approx([negativity(row) for row in probs], abs=1e-15)
        monkeypatch.setattr(info_measures, "_SCAN_BUDGET", 2000)  # chunks of 2 rows
        assert negativity(probs) == pytest.approx(rows, abs=1e-15)

    # (0,43) has roots in the tail where f is rounding noise, so are its Newton steps;
    # (150,150) takes 4 chunks of rows, which share one scan table (a table per chunk made 16)
    @pytest.mark.parametrize("k,ell,most", [(2, 1, 7), (5, 0, 7), (25, 25, 10), (0, 43, 7), (150, 150, 13)])
    def test_laguerre_tables_per_sweep(self, k, ell, most, monkeypatch):
        # one scan table plus one per Newton iteration and chunk; 40 bisection steps took 42
        calls = []
        table = info_measures._scaled_table
        monkeypatch.setattr(info_measures, "_scaled_table", lambda n, x: calls.append(n) or table(n, x))
        probs = mode_populations(FockPairState(k, ell, UNIT), math.pi / 200 * np.arange(201), 1)
        negativity(probs)
        assert 2 <= len(calls) <= most

    @pytest.mark.parametrize("n", [1, 5, 50, 150, 313])
    def test_scaled_table_against_scipy(self, n):
        # the table of numpy's lagvander on negativity's scan points, against scipy's Laguerre values at every
        # 8th point (all of them take scipy 3.7 s at n = 313); the largest error, 1.9e-12 at n = 313, is among them
        v = np.linspace(0.0, math.sqrt(4 * n + 6 + 12 * math.sqrt(n + 1)), 64 * (n + 1) + 257) ** 2
        want = eval_laguerre(np.arange(n + 1)[:, None], v[::8]) * np.exp(-0.5 * v[::8])
        assert np.max(np.abs(info_measures._scaled_table(n, v)[:, ::8] - want)) <= 1e-11

    def test_unsettled_roots_raise(self, monkeypatch):
        monkeypatch.setattr(info_measures, "_NEWTON_CAP", 1)
        with pytest.raises(NegativityError, match="did not settle"):
            negativity(mode_populations(FockPairState(2, 1, UNIT), 0.6, 1))

    @pytest.mark.filterwarnings("error")
    def test_past_float_range_raises(self):
        assert MAX_QUANTA == 313
        assert negativity(mode_populations(FockPairState(MAX_QUANTA, 0, UNIT), 0.3, 1)) > 0.0
        with pytest.raises(NegativityError, match=f"order {MAX_QUANTA + 1}"):
            negativity(mode_populations(FockPairState(MAX_QUANTA + 1, 0, UNIT), 0.3, 1))


class TestExpectationValue:
    """Phase-space averages over the pair's field, each the normalization of W times a polynomial symbol."""

    def test_unit_observable(self):
        state = FockPairState(2, 1, UNIT)
        field = pair_field(state, 0.4)
        assert expectation_value(field, lambda q1, p1, q2, p2: np.ones_like(q1), 0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_energy_of_eigenstate(self):
        # without coupling the pair (1, 0) is an eigenstate at every time
        params = OscillatorParams()
        field = pair_field(FockPairState(1, 0, params), 0.9)
        value = expectation_value(field, hamiltonian_symbol(params), 2)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_eigenstate_energy_sweep(self):
        # <H> = hbar omega (k + l + 1) for every pair at every time: a product of number states has
        # <p1 q2 - p2 q1> = 0, and <H> is conserved
        for omega, hbar, gamma in ((1.0, 1.0, 0.35), *OFF_UNIT_MODELS):
            params = OscillatorParams(omega=omega, hbar=hbar, gamma=gamma)
            for k, ell in ((0, 0), (0, 2), (2, 1)):
                field = pair_field(FockPairState(k, ell, params), 1.3)
                value = expectation_value(field, hamiltonian_symbol(params), 2)
                assert value == pytest.approx(hbar * omega * (k + ell + 1), rel=1e-12)

    def test_odd_observable_vanishes(self):
        state = FockPairState(1, 0, UNIT)
        field = pair_field(state, 0.9)
        assert abs(expectation_value(field, lambda q1, p1, q2, p2: q1, 1)) < 1e-12


class TestFieldConstruction:
    def test_pair_field_normalized(self):
        state = FockPairState(2, 1, UNIT)
        assert normalization(pair_field(state, 0.7)) == pytest.approx(1.0, abs=1e-10)

    def test_marginal_field_matches_direct_evaluation(self):
        # Gauss-Hermite integral of the joint Wigner function over mode 2 against the oracle's marginal
        # of the library's populations; the integrand is the envelope times a polynomial of degree
        # 2(k + l), which k + l + 1 nodes per axis integrate exactly
        rng = np.random.default_rng(23)
        params = OscillatorParams(omega=0.8, hbar=0.9, gamma=1.0)
        for (k, ell) in ((1, 0), (2, 1), (3, 3)):
            state = FockPairState(k, ell, params)
            x, w = roots_hermite(k + ell + 2)
            q2, p2 = x[:, None], x[None, :]
            weights = np.outer(w, w) * np.exp(q2 * q2 + p2 * p2)
            for theta in (0.0, 0.37, 1.2):
                probs = mode_populations(state, theta, 1)
                q, p = rng.normal(scale=1.6, size=(2, 50))
                joint = pair_field(state, theta)(q[:, None, None], p[:, None, None], q2, p2)
                direct = np.sum(weights * joint, axis=(1, 2))
                scale = np.max(np.abs(direct)) + 1e-300
                marginal_values = oracles.marginal_wigner(probs, q, p)
                assert np.max(np.abs(marginal_values - direct)) / scale < 1e-11

    def test_field_validation(self):
        # the degree sizes the quadrature rules, so it must be a nonnegative integer
        for degree in (-1, 1.5, math.nan, "two"):
            with pytest.raises(ValueError):
                WignerField(lambda *z: z[0], degree)
        assert WignerField(lambda *z: z[0], 1).degree == 1

    def test_wrong_coordinate_count(self):
        state = FockPairState(1, 0, UNIT)
        with pytest.raises(ValueError, match="expected 4 coordinates, got 2"):
            pair_field(state, 0.0)(0.0, 0.0)
