import math

import numpy as np
import pytest
from scipy.special import eval_laguerre, roots_hermite

import oracles
from wignerosc.fock_dynamics import (
    FockPairState,
    OscillatorParams,
    energy,
    mode_populations,
    pair_field,
)

DEFAULT = OscillatorParams()
COUPLED = OscillatorParams(gamma=0.1)
OFF_UNIT_MODELS = [(1.0, 1.0, 0.0), (3.0, 1.0, 0.35), (0.7, 0.5, 0.2)]  # (omega, hbar, gamma)


def fock_1d(n, q, p):
    """Single-mode number-state Wigner function in vacuum units, written out directly."""
    s = q * q + p * p
    return (-1.0) ** n / math.pi * np.exp(-s) * eval_laguerre(n, 2.0 * s)


def exact_rule(k, ell):
    """Gauss-Hermite nodes and weights exact for the purity integrands of |k> x |l>, degree 4(k+l)."""
    return roots_hermite(max(8, 2 * (k + ell) + 1))


def evolved_wigner(state, point, t):
    """Joint Wigner function of the evolving pair at a point (q1, p1, q2, p2)."""
    return pair_field(state, t)(*point)


def flow(params, t):
    """The oracle's Hamiltonian flow matrix in vacuum units, its physical flow at m omega = 1."""
    return oracles.hamiltonian_flow(1.0 / params.omega, params.omega, params.gamma, t)


def marginal_wigner(state, t, mode, point):
    """Single-mode marginal at a point (q, p): the oracle's Wigner function of the library's populations."""
    return oracles.marginal_wigner(mode_populations(state, t, mode), *point)


def normalization_4d(fn, nodes=12):
    """Quadrature of a full two-mode Wigner function, whose envelope is exp(-|z|^2)."""
    x, w = roots_hermite(nodes)
    grids = np.meshgrid(x, x, x, x, indexing="ij")
    combo = w[:, None, None, None] * w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
    vals = fn(*grids)
    return float(np.sum(combo * vals * np.exp(sum(g * g for g in grids))))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(hbar=-1.0)
        with pytest.raises(ValueError):
            OscillatorParams(omega=0.0)
        with pytest.raises(ValueError):
            OscillatorParams(gamma=math.inf)

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
        # hbar omega (n1 + n2 + 1) + hbar gamma (n1 - n2) at omega != 1 and hbar != 1, and higher up
        for omega, hbar, gamma in OFF_UNIT_MODELS:
            params = OscillatorParams(omega=omega, hbar=hbar, gamma=gamma)
            for n1, n2 in ((0, 0), (0, 2), (2, 1), (1, 1)):
                expected = hbar * omega * (n1 + n2 + 1) + hbar * gamma * (n1 - n2)
                assert energy(n1, n2, params) == pytest.approx(expected, rel=1e-14)

    def test_balanced_levels_ignore_coupling(self):
        assert energy(1, 1, COUPLED) == pytest.approx(energy(1, 1, DEFAULT), rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            energy(-1, 0, DEFAULT)


class TestStationaryWigner:
    """Pairs that are energy eigenstates: the ground state, and every pair without coupling."""

    def test_ground_state_at_origin(self):
        value = evolved_wigner(FockPairState(0, 0, DEFAULT), (0.0, 0.0, 0.0, 0.0), 0.0)
        assert value == pytest.approx(1.0 / math.pi**2, rel=1e-14)

    def test_ground_state_nonnegative(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=2.0, size=(4, 500))
        assert np.all(evolved_wigner(FockPairState(0, 0, COUPLED), pts, 3.7) >= 0.0)

    @pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (2, 1)])
    def test_normalized(self, n1, n2):
        state = FockPairState(n1, n2, DEFAULT)
        total = normalization_4d(lambda *z: evolved_wigner(state, z, 2.3))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_stationary_under_flow(self):
        # the Wigner function is carried along the classical trajectories: W_t(Phi_t z) = W_0(z),
        # and with no coupling W_t = W_0
        rng = np.random.default_rng(11)
        for params in (DEFAULT, COUPLED, OscillatorParams(omega=0.6, hbar=0.8, gamma=0.3)):
            state = FockPairState(1, 2, params)
            moving = flow(params, 0.83)
            for _ in range(20):
                pt = rng.normal(scale=1.5, size=4)
                a = evolved_wigner(state, pt, 0.0)
                b = evolved_wigner(state, moving @ pt, 0.83)
                assert b == pytest.approx(a, rel=1e-10, abs=1e-14)


class TestClassicalTrajectory:
    """The oracle's flow matrix, which the propagator tests take as the closed system's reference."""

    def test_identity_at_zero(self):
        assert np.array_equal(flow(COUPLED, 0.0), np.eye(4))

    def test_quarter_period(self):
        out = flow(DEFAULT, math.pi / 2) @ [1, 0, 0, 0]
        assert out == pytest.approx([0.0, -1.0, 0.0, 0.0], abs=1e-12)

    def test_mode_mixing_rotation(self):
        # omega*t = 2*pi with gamma*t = pi/2 sends mode 1 onto mode 2
        out = flow(OscillatorParams(gamma=0.25), 2 * math.pi) @ [1, 0, 0, 0]
        assert out == pytest.approx([0.0, 0.0, -1.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("params", [DEFAULT, COUPLED, OscillatorParams(omega=0.6, gamma=0.3)])
    def test_symplectic_jacobian(self, params):
        # the flow preserves the symplectic form J of (q1, p1, q2, p2), so its determinant is 1
        jac = flow(params, 1.234)
        form = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        assert np.max(np.abs(jac @ form @ jac.T - form)) < 1e-14
        assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-12)


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
        x, w = exact_rule(k, ell)
        # scale-1 nodes for the normalization, scale-2 for the purity
        total = normalization_4d(lambda *z: evolved_wigner(state, z, t), nodes=len(x))
        assert total == pytest.approx(1.0, abs=1e-8)
        grids = np.meshgrid(*[x / math.sqrt(2)] * 4, indexing="ij")
        combo = w[:, None, None, None] * w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
        profile = evolved_wigner(state, grids, t) * np.exp(sum(g * g for g in grids))
        purity = (2 * math.pi) ** 2 / 4 * float(np.sum(combo * profile**2))
        assert purity == pytest.approx(1.0, abs=1e-8)


class TestAngleOverflow:
    # gamma * t passes the floats at a finite t: an OverflowError naming that time, with no numpy warning
    STATE = FockPairState(2, 1, OscillatorParams(gamma=10.0))

    def test_populations_name_the_time(self):
        with pytest.raises(OverflowError, match=r"gamma \* t leaves the floats at t = 1e\+308"):
            mode_populations(self.STATE, np.array([1.0, 1e308]))
        with pytest.raises(ValueError, match="time must be finite"):
            mode_populations(self.STATE, math.inf)

    def test_field_names_the_time(self):
        with pytest.raises(OverflowError, match=r"gamma \* t leaves the floats at t = 1e\+308"):
            pair_field(self.STATE, 1e308)
        with pytest.raises(ValueError, match="time must be finite"):
            pair_field(self.STATE, math.nan)


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
        x, w = exact_rule(k, ell)
        qq, pp = np.meshgrid(x, x, indexing="ij")
        profile = marginal_wigner(state, theta, 1, (qq, pp)) * np.exp(qq**2 + pp**2)
        total = float(np.sum(np.outer(w, w) * profile))
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
        x, w = exact_rule(2, 1)
        for q in np.linspace(-4.0, 4.0, 33):
            profile = marginal_wigner(state, theta, 1, (q, x)) * np.exp(q * q + x**2)
            density = math.exp(-q * q) * float(np.sum(w * profile))
            assert density >= -1e-9

    def test_nondefault_units(self):
        # normalization survives a frequency and hbar other than 1: the marginal is in vacuum units
        params = OscillatorParams(omega=0.6, hbar=0.8, gamma=1.0)
        state = FockPairState(1, 1, params)
        x, w = exact_rule(1, 1)
        qq, pp = np.meshgrid(x, x, indexing="ij")
        profile = marginal_wigner(state, 0.7, 1, (qq, pp)) * np.exp(qq**2 + pp**2)
        total = float(np.sum(np.outer(w, w) * profile))
        assert total == pytest.approx(1.0, abs=1e-9)
