import math

import numpy as np
import pytest

import oracles
from wignerosc.fock_dynamics import (
    FockPairState,
    OscillatorParams,
    envelope_rates,
    evolved_wigner,
    hamiltonian_symbol,
    mode_populations,
)
from wignerosc import info_measures
from wignerosc.gaussian_states import thermal_state
from wignerosc.info_measures import (
    WignerField,
    eigenstate_field,
    expectation_value,
    gaussian_field,
    linear_entropy,
    marginal_field,
    mutual_information,
    negativity,
    normalization,
    pair_field,
)
from wignerosc.quadrature import gauss_hermite

UNIT = OscillatorParams(gamma=1.0)  # mixing angle theta equals the time


class TestLinearEntropy:
    @pytest.mark.parametrize("k,ell,theta", [(1, 0, 0.0), (1, 0, 0.8), (2, 1, 0.4)])
    def test_pure_joint_state(self, k, ell, theta):
        state = FockPairState(k, ell, UNIT)
        assert abs(linear_entropy(pair_field(state, theta))) < 1e-10

    def test_vacuum_marginal(self):
        state = FockPairState(1, 0, UNIT)
        assert abs(linear_entropy(marginal_field(state, 0.0, 2))) < 1e-9

    def test_mixed_marginal_against_dense_grid(self):
        # half-swapped marginal: mixedness checked against a brute-force
        # trapezoid purity on a dense grid, then against the enumeration value
        state = FockPairState(1, 0, UNIT)
        theta = math.pi / 4
        field = marginal_field(state, theta, 1)
        s = linear_entropy(field)
        assert 0.0 < s < 1.0
        brute = 1.0 - oracles.dense_grid_purity(field, extent=8.0, points=801)
        assert s == pytest.approx(brute, abs=1e-8)
        assert s == pytest.approx(oracles.mixed_state_entropy(1, 0, theta), abs=1e-12)

    def test_marginal_entropy_curve(self):
        state = FockPairState(2, 1, UNIT)
        for theta in (0.15, 0.6, 1.1):
            s = linear_entropy(marginal_field(state, theta, 1))
            assert s == pytest.approx(oracles.mixed_state_entropy(2, 1, theta), abs=1e-11)

    def test_requires_envelope(self):
        bare = WignerField(evaluator=lambda q, p: 0.0 * q, mode_count=1, hbar=1.0)
        with pytest.raises(ValueError):
            linear_entropy(bare)


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
        # the field route reproduces the state route
        state = FockPairState(1, 0, UNIT)
        field = pair_field(state, 0.5)
        direct = mutual_information(state, 0.5)
        via_field = mutual_information(field, rule=gauss_hermite(8))
        assert via_field == pytest.approx(direct, abs=1e-12)

    def test_rejects_single_mode_field(self):
        state = FockPairState(1, 0, UNIT)
        with pytest.raises(ValueError):
            mutual_information(marginal_field(state, 0.0, 1))

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
            brute = oracles.dense_grid_negativity(marginal_field(state, theta, 1), extent=8.0, points=801)
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


class TestExpectationValue:
    def test_unit_observable(self):
        state = FockPairState(2, 1, UNIT)
        field = pair_field(state, 0.4)
        assert expectation_value(field, lambda q1, p1, q2, p2: np.ones_like(q1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_energy_of_eigenstate(self):
        params = OscillatorParams(gamma=0.1)
        field = eigenstate_field(1, 0, params)
        value = expectation_value(field, hamiltonian_symbol(params))
        assert value == pytest.approx(2.1, abs=1e-12)

    def test_eigenstate_energy_sweep(self):
        params = OscillatorParams(gamma=0.35)
        from wignerosc.fock_dynamics import energy

        for n1, n2 in ((0, 0), (0, 2), (2, 1)):
            field = eigenstate_field(n1, n2, params)
            value = expectation_value(field, hamiltonian_symbol(params))
            assert value == pytest.approx(energy(n1, n2, params), rel=1e-12)

    def test_odd_observable_vanishes(self):
        state = FockPairState(1, 0, UNIT)
        field = pair_field(state, 0.9)
        assert abs(expectation_value(field, lambda q1, p1, q2, p2: q1)) < 1e-12


class TestFieldConstruction:
    def test_pair_field_normalized(self):
        state = FockPairState(2, 1, UNIT)
        assert normalization(pair_field(state, 0.7)) == pytest.approx(1.0, abs=1e-10)

    def test_marginal_field_normalized(self):
        state = FockPairState(2, 1, UNIT)
        assert normalization(marginal_field(state, 0.7, 2)) == pytest.approx(1.0, abs=1e-10)

    def test_marginal_field_matches_direct_evaluation(self):
        # Gauss-Hermite integral of the joint Wigner function over mode 2;
        # its integrand is the envelope times a polynomial of degree
        # 2(k + l), which k + l + 1 nodes per axis integrate exactly
        rng = np.random.default_rng(23)
        params = OscillatorParams(mass=1.3, omega=0.8, hbar=0.9, gamma=1.0)
        a_q, a_p = envelope_rates(params)
        for (k, ell) in ((1, 0), (2, 1), (3, 3)):
            state = FockPairState(k, ell, params)
            rule = gauss_hermite(k + ell + 2)
            q2 = rule.nodes[:, None] / math.sqrt(a_q)
            p2 = rule.nodes[None, :] / math.sqrt(a_p)
            weights = np.outer(rule.weights, rule.weights) * np.exp(a_q * q2 * q2 + a_p * p2 * p2)
            for theta in (0.0, 0.37, 1.2):
                field = marginal_field(state, theta, 1)
                q, p = rng.normal(scale=1.6, size=(2, 50))
                joint = evolved_wigner(state, (q[:, None, None], p[:, None, None], q2, p2), theta)
                direct = params.hbar * np.sum(weights * joint, axis=(1, 2))
                scale = np.max(np.abs(direct)) + 1e-300
                assert np.max(np.abs(field(q, p) - direct)) / scale < 1e-11

    def test_gaussian_field_matches_state(self):
        state = thermal_state(1.5)
        field = gaussian_field(state)
        rng = np.random.default_rng(29)
        q, p = rng.normal(scale=2.0, size=(2, 20))
        from wignerosc.gaussian_states import gaussian_wigner

        assert np.allclose(field(q, p), gaussian_wigner(state, q, p), rtol=1e-13)
        assert normalization(field) == pytest.approx(1.0, abs=1e-10)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            WignerField(evaluator=lambda q, p: q, mode_count=3, hbar=1.0)
        with pytest.raises(ValueError):
            WignerField(evaluator=lambda q, p: q, mode_count=1, hbar=1.0, envelope_rates=(1.0,))
