import math

import numpy as np
import pytest

import oracles
from wignerosc.fock_dynamics import (
    FockPairState,
    OscillatorParams,
    PhasePoint,
    classical_trajectory,
    energy,
    envelope_rates,
    evolved_wigner,
    marginal_wigner,
    mode_populations,
    stationary_wigner,
)
from wignerosc.quadrature import gauss_hermite, laguerre

DEFAULT = OscillatorParams()
COUPLED = OscillatorParams(gamma=0.1)


def fock_1d(n, q, p, hbar=1.0):
    """Single-mode number-state Wigner function, written out directly."""
    s = (q * q + p * p) / hbar
    return (-1.0) ** n / (math.pi * hbar) * np.exp(-s) * laguerre(n, 2.0 * s)


def exact_rule(k, ell):
    """Gauss-Hermite rule exact for the purity integrands of |k> x |l>, degree 4(k+l)."""
    return gauss_hermite(max(8, 2 * (k + ell) + 1))


def normalization_4d(fn, params, nodes=12):
    """Quadrature of a full two-mode Wigner function."""
    rule = gauss_hermite(nodes)
    a_q, a_p = envelope_rates(params)
    q_ax, p_ax = rule.nodes / math.sqrt(a_q), rule.nodes / math.sqrt(a_p)
    w = rule.weights
    q1, p1, q2, p2 = np.meshgrid(q_ax, p_ax, q_ax, p_ax, indexing="ij")
    combo = w[:, None, None, None] * w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
    vals = fn(q1, p1, q2, p2)
    envelope = np.exp(
        a_q * q1 * q1 + a_p * p1 * p1 + a_q * q2 * q2 + a_p * p2 * p2
    )
    return float(np.sum(combo * vals * envelope)) / (a_q * a_p)


class TestParams:
    def test_alpha_beta_relation(self):
        for params in (DEFAULT, OscillatorParams(mass=2.3, omega=0.7, hbar=0.5, gamma=1.2)):
            assert 2 * params.alpha * params.beta == pytest.approx(params.omega, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(mass=-1.0)
        with pytest.raises(ValueError):
            OscillatorParams(omega=0.0)
        with pytest.raises(ValueError):
            OscillatorParams(gamma=math.inf)

    def test_phase_point_finite(self):
        with pytest.raises(ValueError):
            PhasePoint(0.0, math.nan, 0.0, 0.0)

    def test_fock_pair_validation(self):
        with pytest.raises(ValueError):
            FockPairState(-1, 0, DEFAULT)
        with pytest.raises(ValueError):
            FockPairState(0, -2, DEFAULT)


class TestEnergy:
    def test_ground_state(self):
        assert energy(0, 0, COUPLED) == pytest.approx(1.0, rel=1e-14)

    def test_first_excited(self):
        assert energy(1, 0, COUPLED) == pytest.approx(2.1, rel=1e-14)

    def test_balanced_levels_ignore_coupling(self):
        assert energy(1, 1, COUPLED) == pytest.approx(energy(1, 1, DEFAULT), rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            energy(-1, 0, DEFAULT)


class TestStationaryWigner:
    def test_ground_state_at_origin(self):
        value = stationary_wigner(0, 0, (0.0, 0.0, 0.0, 0.0), DEFAULT)
        assert value == pytest.approx(1.0 / math.pi**2, rel=1e-14)

    def test_ground_state_nonnegative(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=2.0, size=(4, 500))
        assert np.all(stationary_wigner(0, 0, pts, COUPLED) >= 0.0)

    @pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (2, 1)])
    def test_normalized(self, n1, n2):
        total = normalization_4d(
            lambda *z: stationary_wigner(n1, n2, z, COUPLED), COUPLED
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_stationary_under_flow(self):
        # eigenstates are constant along classical trajectories
        rng = np.random.default_rng(11)
        for _ in range(20):
            pt = PhasePoint(*rng.normal(scale=1.5, size=4))
            moved = classical_trajectory(pt, 0.83, COUPLED)
            a = stationary_wigner(1, 2, pt, COUPLED)
            b = stationary_wigner(1, 2, moved, COUPLED)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-14)


class TestClassicalTrajectory:
    def test_identity_at_zero(self):
        pt = PhasePoint(0.3, -1.2, 0.8, 0.05)
        assert classical_trajectory(pt, 0.0, COUPLED) == pt

    def test_quarter_period(self):
        out = classical_trajectory(PhasePoint(1, 0, 0, 0), math.pi / 2, DEFAULT)
        assert out.q1 == pytest.approx(0.0, abs=1e-12)
        assert out.p1 == pytest.approx(-1.0, rel=1e-12)
        assert out.q2 == pytest.approx(0.0, abs=1e-12)
        assert out.p2 == pytest.approx(0.0, abs=1e-12)

    def test_mode_mixing_rotation(self):
        # omega*t = 2*pi with gamma*t = pi/2 sends mode 1 onto mode 2
        params = OscillatorParams(gamma=0.25)
        out = classical_trajectory(PhasePoint(1, 0, 0, 0), 2 * math.pi, params)
        assert out.q1 == pytest.approx(0.0, abs=1e-12)
        assert out.q2 == pytest.approx(-1.0, rel=1e-12)
        assert out.p1 == pytest.approx(0.0, abs=1e-12)
        assert out.p2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("params", [DEFAULT, COUPLED, OscillatorParams(mass=1.7, omega=0.6, gamma=0.3)])
    def test_symplectic_jacobian(self, params):
        # finite-difference Jacobian of the flow map has unit determinant;
        # one Richardson step scrubs the h^2 truncation of central differences
        base = PhasePoint(0.4, -0.2, 1.1, 0.7)
        t = 1.234

        def fd_jacobian(eps):
            jac = np.zeros((4, 4))
            for j, name in enumerate(("q1", "p1", "q2", "p2")):
                plus = dict(q1=base.q1, p1=base.p1, q2=base.q2, p2=base.p2)
                minus = dict(plus)
                plus[name] += eps
                minus[name] -= eps
                fp = classical_trajectory(PhasePoint(**plus), t, params).as_array()
                fm = classical_trajectory(PhasePoint(**minus), t, params).as_array()
                jac[:, j] = (fp - fm) / (2 * eps)
            return jac

        jac = (4.0 * fd_jacobian(1e-4) - fd_jacobian(2e-4)) / 3.0
        assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-10)


class TestEvolvedWigner:
    def test_product_at_zero(self):
        state = FockPairState(1, 0, COUPLED)
        rng = np.random.default_rng(5)
        for _ in range(25):
            q1, p1, q2, p2 = rng.normal(scale=1.5, size=4)
            joint = evolved_wigner(state, (q1, p1, q2, p2), 0.0)
            assert joint == pytest.approx(fock_1d(1, q1, p1) * fock_1d(0, q2, p2), rel=1e-12, abs=1e-15)

    def test_origin_value(self):
        state = FockPairState(1, 0, DEFAULT)
        assert evolved_wigner(state, (0.0, 0.0, 0.0, 0.0), 0.0) == pytest.approx(
            -1.0 / math.pi**2, rel=1e-14
        )

    def test_half_swap(self):
        # gamma*t = pi/2: modes exchange, second mode coordinates negated
        state = FockPairState(2, 1, COUPLED)
        t = math.pi / 2 / COUPLED.gamma
        rng = np.random.default_rng(8)
        for _ in range(25):
            q1, p1, q2, p2 = rng.normal(scale=1.3, size=4)
            swapped = evolved_wigner(state, (-q2, -p2, q1, p1), 0.0)
            assert evolved_wigner(state, (q1, p1, q2, p2), t) == pytest.approx(
                swapped, rel=1e-10, abs=1e-16
            )

    def test_half_turn_periodicity(self):
        state = FockPairState(1, 0, COUPLED)
        rng = np.random.default_rng(13)
        pts = rng.normal(scale=1.5, size=(4, 100))
        t0 = 2.0
        t1 = t0 + math.pi / COUPLED.gamma
        a = evolved_wigner(state, pts, t0)
        b = evolved_wigner(state, pts, t1)
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("k,ell", [(1, 0), (2, 1), (2, 2)])
    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.1])
    def test_normalization_and_purity(self, k, ell, theta):
        params = COUPLED
        state = FockPairState(k, ell, params)
        t = theta / params.gamma
        rule = exact_rule(k, ell)
        a_q, a_p = envelope_rates(params)
        # scale-1 nodes for the normalization, scale-2 for the purity
        total = normalization_4d(lambda *z: evolved_wigner(state, z, t), params, nodes=len(rule))
        assert total == pytest.approx(1.0, abs=1e-8)
        axes = [rule.nodes / math.sqrt(2 * a) for a in (a_q, a_p, a_q, a_p)]
        grids = np.meshgrid(*axes, indexing="ij")
        w = rule.weights
        combo = w[:, None, None, None] * w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
        vals = evolved_wigner(state, grids, t)
        envelope = np.exp(
            a_q * grids[0] ** 2 + a_p * grids[1] ** 2 + a_q * grids[2] ** 2 + a_p * grids[3] ** 2
        )
        profile = vals * envelope
        purity = (2 * math.pi * params.hbar) ** 2 / (4 * a_q * a_p) * float(np.sum(combo * profile**2))
        assert purity == pytest.approx(1.0, abs=1e-8)


class TestMarginal:
    @pytest.mark.parametrize("k,ell", [(1, 0), (2, 1), (0, 3), (4, 4)])
    def test_populations_match_enumeration(self, k, ell):
        state = FockPairState(k, ell, OscillatorParams(gamma=0.5))
        times = np.array([0.0, 0.3, 1.7, 4.0])
        probs = mode_populations(state, times)
        assert probs.shape == (4, k + ell + 1)
        for t, row in zip(times, probs):
            assert np.max(np.abs(row - oracles.mixed_populations(k, ell, 0.5 * t))) < 1e-13
        assert np.array_equal(mode_populations(state, times, 2), probs[:, ::-1])
        with pytest.raises(ValueError):
            mode_populations(state, 0.0, 3)

    def test_mode1_origin(self):
        state = FockPairState(1, 0, DEFAULT)
        value = marginal_wigner(state, 0.0, 1, (0.0, 0.0))
        assert value == pytest.approx(-1.0 / math.pi, rel=1e-13)

    def test_mode2_is_ground_state(self):
        state = FockPairState(1, 0, DEFAULT)
        rng = np.random.default_rng(17)
        q, p = rng.normal(scale=1.2, size=(2, 30))
        assert np.allclose(marginal_wigner(state, 0.0, 2, (q, p)), fock_1d(0, q, p), rtol=1e-12)

    @pytest.mark.parametrize("k,ell,theta", [(1, 0, 0.0), (1, 0, 0.6), (2, 1, 0.9)])
    def test_marginal_normalized(self, k, ell, theta):
        params = OscillatorParams(gamma=1.0)
        state = FockPairState(k, ell, params)
        rule = exact_rule(k, ell)
        a_q, a_p = envelope_rates(params)
        q_ax, p_ax = rule.nodes / math.sqrt(a_q), rule.nodes / math.sqrt(a_p)
        qq, pp = np.meshgrid(q_ax, p_ax, indexing="ij")
        vals = marginal_wigner(state, theta, 1, (qq, pp))
        profile = vals * np.exp(a_q * qq**2 + a_p * pp**2)
        total = float(np.sum(np.outer(rule.weights, rule.weights) * profile)) / math.sqrt(a_q * a_p)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_mode_swap_against_initial(self):
        # at gamma*t = pi/2 the mode-1 marginal equals the t=0 mode-2 one
        params = OscillatorParams(gamma=1.0)
        state = FockPairState(2, 1, params)
        rng = np.random.default_rng(19)
        q, p = rng.normal(scale=1.4, size=(2, 40))
        swapped = marginal_wigner(state, math.pi / 2, 1, (q, p))
        initial = marginal_wigner(state, 0.0, 2, (q, p))
        assert np.max(np.abs(swapped - initial)) < 1e-10

    @pytest.mark.parametrize("theta", [0.0, 0.35, 0.785, 1.2])
    def test_position_density_nonnegative(self, theta):
        params = OscillatorParams(gamma=1.0)
        state = FockPairState(2, 1, params)
        rule = exact_rule(2, 1)
        a_q, a_p = envelope_rates(params)
        p_ax = rule.nodes / math.sqrt(a_p)
        for q in np.linspace(-4.0, 4.0, 33):
            vals = marginal_wigner(state, theta, 1, (q, p_ax))
            profile = vals * np.exp(a_q * q * q + a_p * p_ax**2)
            density = math.exp(-a_q * q * q) * float(np.sum(rule.weights * profile)) / math.sqrt(a_p)
            assert density >= -1e-9

    def test_nondefault_units(self):
        # normalization survives unequal mass/frequency/hbar
        params = OscillatorParams(mass=1.7, omega=0.6, hbar=0.8, gamma=1.0)
        state = FockPairState(1, 1, params)
        rule = exact_rule(1, 1)
        a_q, a_p = envelope_rates(params)
        q_ax, p_ax = rule.nodes / math.sqrt(a_q), rule.nodes / math.sqrt(a_p)
        qq, pp = np.meshgrid(q_ax, p_ax, indexing="ij")
        vals = marginal_wigner(state, 0.7, 1, (qq, pp))
        profile = vals * np.exp(a_q * qq**2 + a_p * pp**2)
        total = float(np.sum(np.outer(rule.weights, rule.weights) * profile)) / math.sqrt(a_q * a_p)
        assert total == pytest.approx(1.0, abs=1e-9)
