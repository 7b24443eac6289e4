import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wignerosc import open_dynamics
from wignerosc.fock_dynamics import OscillatorParams
from wignerosc.gaussian_states import (
    MAX_MOMENT,
    PHYSICALITY_SLACK,
    GaussianState,
    ThermalBath,
    UnphysicalStateError,
    fidelity,
    reduce_mode,
    thermal_state,
    validate_moments,
)
from wignerosc.open_dynamics import (
    EvolutionRecord,
    backflow_intervals,
    evolve_coupled,
    rising_intervals,
    thermalize_closed_form,
)

PARAMS = OscillatorParams(gamma=0.1)
PARAMS_FREE = OscillatorParams(gamma=0.0)
BATH = ThermalBath(0.1, 4.0)
OFF_UNIT_MODELS = [(1.0, 0.0), (3.0, 0.35), (0.7, 0.2)]  # (omega, gamma)


def drift_and_diffusion(params, bath, mass=None):
    """The oracle's drift and diffusion of the physical model at this mass and hbar = 1, taken to the
    library's vacuum units x = q sqrt(m omega), y = p / sqrt(m omega), where the mass drops out.

    The default mass 1 / omega is the one whose physical units are the vacuum units."""
    mass = 1.0 / params.omega if mass is None else mass
    alpha, beta = 1.0 / math.sqrt(2.0 * mass), math.sqrt(mass) * params.omega / math.sqrt(2.0)
    drift, diffusion = oracles.drift_and_diffusion(
        alpha, beta, 1.0, params.gamma, bath.decay_rate, bath.mean_occupation
    )
    scale = np.array([1.0 / math.sqrt(mass * params.omega), math.sqrt(mass * params.omega)] * 2)
    return drift * scale[None, :] / scale[:, None], diffusion / np.outer(scale, scale)


def flow(params, t):
    """The oracle's Hamiltonian flow matrix in vacuum units, its physical flow at m omega = 1."""
    return oracles.hamiltonian_flow(1.0 / params.omega, params.omega, params.gamma, t)


def van_loan_doubled(drift, diffusion, t: float, doublings: int):
    """(Phi, Q) over t from one scipy step map over t / 2^doublings, composed by doubling."""
    phi, noise = oracles.van_loan_map(drift, diffusion, t / 2.0**doublings)
    noise = 0.5 * (noise + noise.T)
    for _ in range(doublings):
        noise = phi @ noise @ phi.T + noise
        phi = phi @ phi
    return phi, noise


def figure_initial(displacement=(1.0, 1.0, 1.0, 1.0), block=4.0):
    cov = np.zeros((4, 4))
    cov[:2, :2] = block * np.eye(2)
    cov[2:, 2:] = block * np.eye(2)
    return GaussianState(np.asarray(displacement, dtype=float), cov)


class TestClosedForm:
    def test_identity_at_zero(self):
        state = GaussianState([1.0, 1.0], np.eye(2))
        out = thermalize_closed_form(state, BATH, 0.0)
        assert np.allclose(out.cov, state.cov)
        assert np.allclose(out.mean, state.mean)

    def test_half_life(self):
        state = GaussianState([1.0, 1.0], np.eye(2))
        t = math.log(2.0) / BATH.decay_rate
        out = thermalize_closed_form(state, BATH, t)
        assert np.allclose(out.cov, 5.0 * np.eye(2), atol=1e-12)
        assert np.allclose(out.mean, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_asymptote(self):
        state = GaussianState([1.0, -2.0], np.eye(2))
        out = thermalize_closed_form(state, BATH, 50.0 / BATH.decay_rate)
        assert np.allclose(out.cov, 9.0 * np.eye(2), atol=1e-10)
        assert np.allclose(out.mean, 0.0, atol=1e-10)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            thermalize_closed_form(thermal_state(1.0), BATH, -0.5)


class TestDriftDiffusion:
    def test_hamiltonian_flow_matches_trajectories(self):
        # with no bath, integrating z' = A z must land on the closed-form flow, and e^{At} must be
        # that flow; omega != 1 checks that both turn each mode plane at omega
        models = [OscillatorParams(omega=w, gamma=g) for w, g in OFF_UNIT_MODELS]
        for params in (PARAMS_FREE, OscillatorParams(gamma=0.3), *models):
            drift, diffusion = drift_and_diffusion(params, ThermalBath(0.0, 0.0))
            assert np.allclose(diffusion, 0.0)
            rng = np.random.default_rng(31)
            z = rng.normal(size=4)
            t_final, h = 1.7, 1e-3
            current = z.copy()
            for _ in range(int(round(t_final / h))):
                k1 = drift @ current
                k2 = drift @ (current + 0.5 * h * k1)
                k3 = drift @ (current + 0.5 * h * k2)
                k4 = drift @ (current + h * k3)
                current = current + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            carry = flow(params, t_final)
            assert np.allclose(current, carry @ z, atol=1e-9)
            assert np.max(np.abs(carry - oracles.van_loan_map(drift, diffusion, t_final)[0])) < 1e-14

    def test_flow_derivative_matches_trajectory(self):
        drift, _ = drift_and_diffusion(PARAMS, ThermalBath(0.0, 0.0))
        z = np.array([0.7, -0.2, 0.4, 1.1])
        eps = 1e-6
        plus, minus = flow(PARAMS, eps) @ z, flow(PARAMS, -eps) @ z
        assert np.allclose((plus - minus) / (2 * eps), drift @ z, atol=1e-8)

    def test_damped_block_structure(self):
        drift, diffusion = drift_and_diffusion(PARAMS_FREE, BATH)
        sigma = 3.0 * np.eye(4)
        rhs = drift @ sigma + sigma @ drift.T + diffusion
        expected_mode1 = -BATH.decay_rate * 3.0 * np.eye(2) + BATH.decay_rate * 9.0 * np.eye(2)
        assert np.allclose(rhs[:2, :2], expected_mode1, atol=1e-13)
        assert np.allclose(rhs[2:, 2:], 0.0, atol=1e-13)

    def test_bath_acts_on_first_mode_only(self):
        drift, diffusion = drift_and_diffusion(PARAMS, BATH)
        free_drift, _ = drift_and_diffusion(PARAMS, ThermalBath(0.0, 0.0))
        assert np.allclose((drift - free_drift)[2:, :], 0.0)
        assert np.allclose(diffusion[2:, :], 0.0)
        assert np.allclose(diffusion[:, 2:], 0.0)


class TestOutOfRange:
    @pytest.mark.parametrize("params,bath,quantity", [
        (PARAMS, ThermalBath(0.1, 1e308), "the asymptotic variance 2 mbar + 1 leaves the floats"),
    ], ids=["asymptote"])
    def test_closed_form_out_of_range_is_named(self, params, bath, quantity):
        with pytest.raises(OverflowError, match=re.escape(quantity)):
            evolve_coupled(figure_initial(), params, bath, np.linspace(0.0, 1.0, 3))

    @pytest.mark.filterwarnings("error")
    def test_moments_leaving_the_floats_name_the_first_time(self):
        # the variances stay finite, but omega t passes the float range at t = 9.46: the tracks, taken in
        # the frame turning with R(omega t), do not see it, and the means, built on first access, name
        # t = 9.5, the first sample it spoils
        params = OscillatorParams(omega=1.9e307, gamma=0.1)
        initial = GaussianState(np.ones(4), 5.0 * np.eye(4))
        record = evolve_coupled(initial, params, BATH, 0.5 * np.arange(21))
        assert np.isfinite(record.fidelity_track).all() and np.isfinite(record.coherence_track).all()
        with pytest.raises(ValueError, match="moments must be finite at t = 9.5$") as info:
            record.means
        assert info.value.index == 19

    def test_moments_past_the_floats_name_the_first_time(self):
        # finite initial means 1.5e308 in both q1 and q2; with no bath the exchange at gamma = 0.1 turns
        # them into q1 = (cos gamma t + sin gamma t) 1.5e308, past the floats first at t = 2.5
        # (1.2163 * 1.5e308; 1.1788 * 1.5e308 at t = 2); omega t stays near 0, so R(omega t) = I
        params = OscillatorParams(omega=1e-300, gamma=0.1)
        initial = GaussianState([1.5e308, 0.0, 1.5e308, 0.0], 5.0 * np.eye(4))
        with pytest.raises(ValueError, match="moments must be finite at t = 2.5$") as info:
            evolve_coupled(initial, params, ThermalBath(0.0, 1.0), 0.5 * np.arange(11))
        assert info.value.index == 5


    def test_uncertified_noise_is_named(self, monkeypatch):
        # M(t) = I - e^{Ct} e^{C^T t} >= 0 holds exactly; a value that rounding took below it is named by its time
        exchange = open_dynamics._exchange

        def rounded(rate, gamma, t):
            flow, (m11, m12, m22) = exchange(rate, gamma, t)
            return flow, (m11, m12, np.where(t == 2.0, -1e-300, m22))

        monkeypatch.setattr(open_dynamics, "_exchange", rounded)
        with pytest.raises(UnphysicalStateError, match="M\\(t\\) is not positive semidefinite at t = 2$") as info:
            evolve_coupled(figure_initial(), PARAMS, BATH, np.arange(4.0))
        assert info.value.index == 2


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e-160, -1e-300])
    def test_noise_below_the_floats_is_certified(self, gamma):
        # M22 = Gamma gamma^2 int o^2 is below the floats here; _exchange returns M12 / s and M22 / s^2,
        # s = |gamma| / (Gamma/4), which match 700-digit references, and M(t) is certified with them
        t = np.array([0.0, 0.005, 0.05, 1.0, 10.0, 60.0, 600.0])
        _, (m11, m12, m22) = open_dynamics._exchange(BATH.decay_rate, gamma, t)
        assert m11[0] == m12[0] == m22[0] == 0.0
        with mp.workdps(700):
            s = abs(mp.mpf(gamma)) / (mp.mpf(BATH.decay_rate) / 4)
            drift = mp.matrix([[-mp.mpf(BATH.decay_rate) / 2, gamma], [-gamma, 0]])
            for i in range(1, t.size):
                flow = mp.expm(drift * mp.mpf(t[i]))
                m = mp.eye(2) - flow * flow.T
                for got, want in ((m11[i], m[0, 0]), (m12[i], m[0, 1] / s), (m22[i], m[1, 1] / s**2)):
                    assert got == pytest.approx(float(want), rel=1e-14)
        record = evolve_coupled(figure_initial(), OscillatorParams(gamma=gamma), BATH, t)
        assert np.isfinite(record.covs).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [1e155, 1e160, 1e200, 1e300])
    def test_overdamped_noise_at_huge_rates(self, rate):
        # at Gamma t of order 1 the exponents 2 gamma^2 t / b of the overdamped M22 fall below the normal
        # floats, where int_0^t e^{-cs} ds is t to the last bit; M22 / s^2 matches 1000-digit references
        gamma, scaled = 0.1, np.array([0.5, 4.0, 60.0])
        _, (_, _, m22) = open_dynamics._exchange(rate, gamma, scaled / rate)
        with mp.workdps(1000):
            s = mp.mpf(gamma) / (mp.mpf(rate) / 4)
            drift = mp.matrix([[-mp.mpf(rate) / 2, gamma], [-gamma, 0]])
            for got, gt in zip(m22, scaled):
                flow = mp.expm(drift * mp.mpf(gt / rate))
                want = (1 - flow[1, 0] ** 2 - flow[1, 1] ** 2) / s**2
                assert abs(got - want) <= 1e-14 * abs(want)


class TestEvolveCoupled:
    def test_uncoupled_matches_closed_form_entrywise(self):
        initial = figure_initial(displacement=(0.0, 0.0, 0.0, 0.0))
        times = np.linspace(0.0, 6.0 / BATH.decay_rate, 121)
        record = evolve_coupled(initial, PARAMS_FREE, BATH, times)
        start = reduce_mode(initial, 1)
        for t, state in zip(record.times, record.states):
            ref = thermalize_closed_form(start, BATH, t)
            part = reduce_mode(state, 1)
            assert np.max(np.abs(part.cov - ref.cov)) < 1e-12
            assert np.max(np.abs(part.mean - ref.mean)) < 1e-12
            # mode 2 keeps its isotropic block and never correlates with mode 1
            assert np.max(np.abs(state.cov[2:, 2:] - initial.cov[2:, 2:])) < 1e-12
            assert np.array_equal(state.cov[:2, 2:], np.zeros((2, 2)))

    def test_uncoupled_displaced_invariants(self):
        # the oscillator phase keeps turning, so compare the pieces the
        # bath controls: |d|, the isotropic spread, and both witness tracks
        initial = figure_initial()
        times = np.linspace(0.0, 6.0 / BATH.decay_rate, 121)
        record = evolve_coupled(initial, PARAMS_FREE, BATH, times)
        start = reduce_mode(initial, 1)
        asymptote = thermal_state(BATH.mean_occupation)
        for t, state, f in zip(record.times, record.states, record.fidelity_track):
            ref = thermalize_closed_form(start, BATH, t)
            part = reduce_mode(state, 1)
            assert np.linalg.norm(part.mean) == pytest.approx(
                np.linalg.norm(ref.mean), abs=1e-8
            )
            assert part.cov[0, 0] == pytest.approx(ref.cov[0, 0], abs=1e-8)
            assert abs(part.cov[0, 1]) < 1e-8
            assert f == pytest.approx(fidelity(ref, asymptote), abs=1e-10)

    def test_uncoupled_fidelity_monotone(self):
        initial = figure_initial()
        times = np.linspace(0.0, 6.0 / BATH.decay_rate, 601)
        record = evolve_coupled(initial, PARAMS_FREE, BATH, times)
        assert record.backflow_intervals == []
        assert np.all(np.diff(record.fidelity_track) >= -1e-12)
        assert record.fidelity_track[-1] > 0.99

    def test_coupled_backflow_appears(self):
        initial = figure_initial()
        times = np.arange(0.0, 6.0 + 1e-9, 0.005) / BATH.decay_rate
        record = evolve_coupled(initial, PARAMS, BATH, times)
        assert len(record.backflow_intervals) == 2
        diffs = np.diff(record.fidelity_track)
        assert diffs.min() < -1e-6 and diffs.max() > 0

    def test_coherence_rises_during_backflow(self):
        initial = figure_initial()
        times = np.arange(0.0, 6.0 + 1e-9, 0.005) / BATH.decay_rate
        record = evolve_coupled(initial, PARAMS, BATH, times)
        rises = rising_intervals(record.times, record.coherence_track)
        assert rises
        step = times[1] - times[0]
        for a, b in rises:
            assert any(
                a <= hi + step and lo <= b + step for lo, hi in record.backflow_intervals
            )

    def test_asymptotic_thermalization(self):
        times = np.linspace(0.0, 12.0 / BATH.decay_rate, 241)
        asymptote = thermal_state(BATH.mean_occupation)
        for gamma in (0.0, 0.1, 0.25):
            params = OscillatorParams(gamma=gamma)
            record = evolve_coupled(figure_initial(), params, BATH, times)
            final = fidelity(reduce_mode(record.states[-1], 1), asymptote)
            assert final >= 1.0 - 1e-3

    def test_physicality_along_the_way(self):
        times = np.linspace(0.0, 6.0 / BATH.decay_rate, 121)
        record = evolve_coupled(figure_initial(), PARAMS, BATH, times)
        for state in record.states:
            for i in (0, 2):  # each mode's nu = sqrt(det) of its 2x2 block
                assert math.sqrt(np.linalg.det(state.cov[i : i + 2, i : i + 2])) >= 1.0 - 1e-6

    def test_closed_system_purity_and_beat(self):
        # no bath: spread determinant conserved, fidelity beat at pi/gamma
        gamma = 0.25
        params = OscillatorParams(gamma=gamma)
        bath = ThermalBath(0.0, 4.0)
        period = math.pi / gamma
        times = np.linspace(0.0, 2 * period, 401)
        record = evolve_coupled(figure_initial(), params, bath, times)
        dets = [np.linalg.det(s.cov) for s in record.states]
        assert np.max(np.abs(np.asarray(dets) - dets[0])) < 1e-8
        track = record.fidelity_track
        assert track.max() - track.min() > 1e-3
        shift = 200  # grid points per period
        assert np.max(np.abs(track[shift:] - track[:-shift])) < 1e-6

    # omega sets only the intra-mode turn R(omega t), up to omega t near 1e202
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega", [4.0, 1e200, 1e150], ids=["omega=4", "omega=1e200", "omega=1e150"])
    def test_tracks_are_unit_free(self, omega):
        # the tracks are taken in the frame turning with R(omega t), so they are the unit model's at any omega
        times = 0.1 * np.arange(201) / BATH.decay_rate  # Gamma t = 0, 0.1, ..., 20
        unit = evolve_coupled(figure_initial(), PARAMS, BATH, times)
        record = evolve_coupled(figure_initial(), OscillatorParams(omega=omega, gamma=PARAMS.gamma), BATH, times)
        assert np.max(np.abs(record.fidelity_track - unit.fidelity_track)) < 1e-13
        assert np.max(np.abs(record.coherence_track - unit.coherence_track)) < 1e-13

    @pytest.mark.parametrize("mass,omega", [(4.0, 1.0), (1.0, 3.0)], ids=["m=4", "omega=3"])
    def test_bath_thermalizes_for_any_m_omega(self, mass, omega):
        # the oracle's physical model at mass m has, in vacuum units, the thermal steady state
        # (2 mbar + 1) I, and the library's reduced mode-1 fidelity to it reaches 1 at Gamma t = 200
        params = OscillatorParams(omega=omega, gamma=0.1)
        steady = oracles.lyapunov_steady_state(*drift_and_diffusion(params, BATH, mass))
        assert np.max(np.abs(steady - (2 * BATH.mean_occupation + 1) * np.eye(4))) < 1e-12
        record = evolve_coupled(figure_initial(), params, BATH, np.array([0.0, 200.0 / BATH.decay_rate]))
        assert abs(record.fidelity_track[-1] - 1.0) < 1e-12

    def test_grid_validation(self):
        for grid in ([1.0, 2.0], [0.0, 2.0, 1.0], [0.0, math.nan, 2.0], [0.0, 1.0, math.inf]):
            with pytest.raises(ValueError, match="t_grid must be"):
                evolve_coupled(figure_initial(), PARAMS, BATH, grid)
        with pytest.raises(ValueError):
            evolve_coupled(reduce_mode(figure_initial(), 1), PARAMS, BATH, [0.0, 1.0])

    def test_states_rebuild_the_arrays(self):
        times = np.linspace(0.0, 10.0, 5)
        record = evolve_coupled(figure_initial(), PARAMS, BATH, times)
        states = record.states
        assert len(states) == times.size
        for state, mean, cov in zip(states, record.means, record.covs):
            assert isinstance(state, GaussianState)
            assert np.array_equal(state.mean, mean) and np.array_equal(state.cov, cov)


class TestExactPropagator:
    """The step maps against independent integrators and closed forms."""

    WINDOW = 1.0 / BATH.decay_rate  # Gamma t in [0, 1]

    def _against_rk4(self, times):
        initial = figure_initial()
        record = evolve_coupled(initial, PARAMS, BATH, times)
        drift, diffusion = drift_and_diffusion(PARAMS, BATH)
        means, covs = oracles.rk4_moments(drift, diffusion, initial.mean, initial.cov, times, 0.0025)
        assert np.max(np.abs(record.means - means)) < 1e-10
        assert np.max(np.abs(record.covs - covs)) < 1e-10

    def test_matches_rk4_on_cli_grid(self):
        # the CLI's t_step * arange(n) / Gamma grid has many distinct spacings
        self._against_rk4(0.005 * np.arange(201) / BATH.decay_rate)

    def test_matches_rk4_on_random_grid(self):
        rng = np.random.default_rng(11)
        inner = np.sort(rng.uniform(0.0, self.WINDOW, 150))
        self._against_rk4(np.concatenate(([0.0], inner, [self.WINDOW])))

    def test_matches_plain_composition_of_the_maps(self):
        # scipy step maps composed as d <- Phi d, sigma <- Phi sigma Phi^T + Q over the CLI's
        # 12,001-point grid gather rounding step by step; the closed form must stay within 1e-12
        times = 0.005 * np.arange(12001) / BATH.decay_rate
        initial = figure_initial()
        record = evolve_coupled(initial, PARAMS, BATH, times)
        drift, diffusion = drift_and_diffusion(PARAMS, BATH)
        steps = np.diff(times)
        maps = {step: oracles.van_loan_map(drift, diffusion, step) for step in set(steps.tolist())}
        d, sigma = initial.mean, initial.cov
        worst = 0.0
        for i, step in enumerate(steps.tolist(), start=1):
            phi, noise = maps[step]
            d, sigma = phi @ d, phi @ sigma @ phi.T + noise
            worst = max(worst, np.max(np.abs(record.covs[i] - sigma)), np.max(np.abs(record.means[i] - d)))
        assert worst < 1e-12

    def test_steady_state_solves_lyapunov(self):
        drift, diffusion = drift_and_diffusion(PARAMS, BATH)
        steady = oracles.lyapunov_steady_state(drift, diffusion)
        assert np.allclose(steady, (2 * BATH.mean_occupation + 1) * np.eye(4), atol=1e-12)
        times = np.linspace(0.0, 100.0 / BATH.decay_rate, 11)
        record = evolve_coupled(figure_initial(), PARAMS, BATH, times)
        assert np.max(np.abs(record.covs[-1] - steady)) < 1e-11

    def test_long_step_matches_substep_doubling(self):
        # 1024 scipy substeps composed by doubling; one scipy exponential over
        # the whole span is off by about 5e-12 here
        drift, diffusion = drift_and_diffusion(PARAMS, BATH)
        initial = figure_initial()
        record = evolve_coupled(initial, PARAMS, BATH, [0.0, 500.0])
        phi, noise = van_loan_doubled(drift, diffusion, 500.0, 10)
        assert np.max(np.abs(record.means[1] - phi @ initial.mean)) < 1e-14
        assert np.max(np.abs(record.covs[1] - (phi @ initial.cov @ phi.T + noise))) < 2e-12

    def test_no_bath_is_the_hamiltonian_flow(self):
        # Gamma = 0: the moments are carried by the flow Phi of the closed-form trajectories,
        # sigma -> Phi sigma Phi^T with no added noise
        initial = figure_initial(displacement=(0.7, -0.2, 0.4, 1.1))
        times = np.array([0.0, 0.05, 37.0])
        record = evolve_coupled(initial, PARAMS, ThermalBath(0.0, 4.0), times)
        for t, mean, cov in zip(times, record.means, record.covs):
            carry = flow(PARAMS, t)
            assert np.max(np.abs(mean - carry @ initial.mean)) < 1e-12
            assert np.max(np.abs(cov - carry @ initial.cov @ carry.T)) < 1e-12

    def test_unphysical_point_is_named(self):
        means = np.zeros((3, 4))
        covs = np.array([np.eye(4)] * 3)
        covs[2, 2:, 2:] = 0.5 * np.eye(2)
        with pytest.raises(UnphysicalStateError, match=r"mode 2 .* at t = 7"):
            validate_moments(means, covs, np.array([0.0, 3.0, 7.0]))
        covs[2, 2:, 2:] = np.eye(2)
        covs[1, 0, 2] = covs[1, 2, 0] = 2.0  # blocks fine, joint matrix indefinite
        with pytest.raises(ValueError, match="positive definite at t = 3"):
            validate_moments(means, covs, np.array([0.0, 3.0, 7.0]))


# (mass, omega) by coupling: gamma = 0, below, at and above the exceptional point Gamma/4 = 0.025
SCALED_MODELS = [
    (mass, omega, gamma) for mass, omega in ((1.0, 1.0), (4.0, 1.0), (1.0, 3.0)) for gamma in (0.0, 0.02, 0.025, 0.1)
]


@pytest.mark.parametrize("mass,omega,gamma", SCALED_MODELS)
class TestScaledModel:
    """The closed form against the oracles, run on the moment equations of the physical model at
    mass m (hbar = 1) taken to the vacuum quadratures x = q sqrt(m omega), y = p / sqrt(m omega):
    the library's record is that model at every mass."""

    def _scaled_record(self, mass, omega, gamma, times):
        params = OscillatorParams(omega=omega, gamma=gamma)
        drift, diffusion = drift_and_diffusion(params, BATH, mass)
        initial = figure_initial(displacement=(0.3, -0.4, 0.5, 0.2))
        record = evolve_coupled(initial, params, BATH, times)
        return drift, diffusion, initial.mean, initial.cov, record.means, record.covs

    def test_matches_van_loan_map(self, mass, omega, gamma):
        # bounds by time (mean, covariance): the oracle's doublings gather rounding
        bounds = {0.05: (1e-15, 1e-14), 3.0: (1e-14, 2e-13), 37.0: (1e-13, 1e-12)}
        times = np.array([0.0, *bounds])
        drift, diffusion, mean, cov, means, covs = self._scaled_record(mass, omega, gamma, times)
        for t, got_mean, got_cov in zip(times[1:], means[1:], covs[1:]):
            phi, noise = van_loan_doubled(drift, diffusion, t, max(0, math.ceil(math.log2(t / 0.05))))
            assert np.max(np.abs(got_mean - phi @ mean)) < bounds[t][0]
            assert np.max(np.abs(got_cov - (phi @ cov @ phi.T + noise))) < bounds[t][1]

    def test_matches_rk4(self, mass, omega, gamma):
        times = np.linspace(0.0, 0.5 / BATH.decay_rate, 11)  # Gamma t in [0, 0.5]
        drift, diffusion, mean, cov, means, covs = self._scaled_record(mass, omega, gamma, times)
        rk_means, rk_covs = oracles.rk4_moments(drift, diffusion, mean, cov, times, 0.001 / omega)
        assert np.max(np.abs(means - rk_means)) < 1e-10
        assert np.max(np.abs(covs - rk_covs)) < 1e-10

    def test_thermal_steady_state(self, mass, omega, gamma):
        # (2 mbar + 1) I solves the Lyapunov equation; without coupling mode 2 keeps its state,
        # so the solution is not unique and only mode 1 and the cross blocks reach it
        thermal = (2 * BATH.mean_occupation + 1) * np.eye(4)
        times = np.array([0.0, 200.0 / BATH.decay_rate])
        drift, diffusion, _, cov, _, covs = self._scaled_record(mass, omega, gamma, times)
        assert np.max(np.abs(drift @ thermal + thermal @ drift.T + diffusion)) < 1e-14
        if gamma == 0.0:
            assert np.max(np.abs(covs[-1, :2] - thermal[:2])) < 1e-12
            assert abs(np.linalg.det(covs[-1, 2:, 2:]) - np.linalg.det(cov[2:, 2:])) < 1e-12
        else:
            assert np.max(np.abs(oracles.lyapunov_steady_state(drift, diffusion) - thermal)) < 1e-12
            assert np.max(np.abs(covs[-1] - thermal)) < 1e-12


@st.composite
def damped_runs(draw):
    """(params, bath, initial state): gamma exactly 0, exactly at the exceptional point Gamma/4, or drawn."""
    rate = draw(st.floats(0.05, 2.0))
    kind = draw(st.sampled_from(["none", "exceptional", "drawn"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "none":
        gamma = 0.0
    elif kind == "exceptional":
        gamma = sign * rate / 4.0
    else:
        gamma = sign * draw(st.floats(0.001, 2.0))
    mbar, nbar = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))
    mean = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)))
    return OscillatorParams(gamma=gamma), ThermalBath(rate, mbar), GaussianState(mean, (2 * nbar + 1) * np.eye(4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(damped_runs())
def test_closed_form_properties(run):
    # the means, the 4x4 covariances built on access and the mode-1 tracks against scipy step maps composed
    # by doubling and 30-digit tracks of those moments; then nu >= 1, 0 <= F <= 1 and F -> 1
    params, bath, initial = run
    times = np.array([0.0, 0.5, 3.0, 12.0]) / bath.decay_rate  # Gamma t
    record = evolve_coupled(initial, params, bath, times)
    validate_moments(record.means, record.covs)
    drift, diffusion = drift_and_diffusion(params, bath)
    variance = 2 * bath.mean_occupation + 1
    for i, t in enumerate(times):
        phi, noise = van_loan_doubled(drift, diffusion, t, max(0, math.ceil(math.log2(max(t, 0.05) / 0.05))))
        mean, cov = phi @ initial.mean, phi @ initial.cov @ phi.T + noise
        assert np.max(np.abs(record.means[i] - mean)) < 1e-10
        assert np.max(np.abs(record.covs[i] - cov)) < 1e-10
        fid, coh = oracles.mode_tracks_mp(mean[:2], cov[:2, :2].tolist(), variance)
        assert abs(record.fidelity_track[i] - float(fid)) < 1e-10
        assert abs(record.coherence_track[i] - float(coh)) < 1e-10
    for cov in record.covs:
        for j in (0, 2):
            assert math.sqrt(np.linalg.det(cov[j : j + 2, j : j + 2])) >= 1.0 - PHYSICALITY_SLACK
    assert np.all((record.fidelity_track >= 0.0) & (record.fidelity_track <= 1.0))
    # the slowest decay of mode 1: Gamma / 2 without coupling, else the smallest rate of e^{Ct}
    drift_c = np.array([[-bath.decay_rate / 2, params.gamma], [-params.gamma, 0.0]])
    slowest = bath.decay_rate / 2 if params.gamma == 0.0 else min(-np.linalg.eigvals(drift_c).real)
    late = evolve_coupled(initial, params, bath, np.array([0.0, 60.0 / slowest]))
    assert late.fidelity_track[-1] == pytest.approx(1.0, abs=1e-9)


def _up_to_bound():
    """A magnitude in [0, MAX_MOMENT]: 0 or the bound itself, or log-uniform over [1e-3, MAX_MOMENT]."""
    top = math.log10(MAX_MOMENT)
    return st.sampled_from([0.0, MAX_MOMENT]) | st.floats(-3.0, top).map(lambda e: min(10.0**e, MAX_MOMENT))


@st.composite
def domain_runs(draw):
    """(params, bath, initial state) with the occupations and each mean entry anywhere in the numeric domain."""
    rate = draw(st.floats(0.05, 2.0))
    gamma = draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from([0.0, rate / 4.0]) | st.floats(0.001, 2.0))
    mbar, nbar = draw(_up_to_bound()), draw(_up_to_bound())
    mean = [draw(st.sampled_from([1.0, -1.0])) * draw(_up_to_bound()) for _ in range(4)]
    return OscillatorParams(gamma=gamma), ThermalBath(rate, mbar), GaussianState(mean, (2 * nbar + 1) * np.eye(4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(domain_runs())
def test_tracks_in_the_numeric_domain(run):
    # the kernels take the moments unscaled: up to MAX_MOMENT no value leaves the floats and numpy warns
    # of nothing, which the suite's filterwarnings makes an error
    params, bath, initial = run
    record = evolve_coupled(initial, params, bath, np.linspace(0.0, 60.0, 61) / bath.decay_rate)
    assert np.isfinite(record.fidelity_track).all() and np.isfinite(record.coherence_track).all()
    assert np.all((record.fidelity_track >= 0.0) & (record.fidelity_track <= 1.0))
    assert np.all(record.coherence_track >= 0.0)


class TestIntervalDetection:
    def test_monotone_track_is_clean(self):
        times = np.linspace(0, 5, 50)
        assert backflow_intervals(times, np.linspace(0.1, 0.9, 50)) == []

    def test_single_dip(self):
        assert backflow_intervals([0, 1, 2, 3], [0.2, 0.4, 0.3, 0.5]) == [(1.0, 2.0)]

    def test_adjacent_dips_merge(self):
        out = backflow_intervals([0, 1, 2, 3, 4], [0.5, 0.4, 0.3, 0.35, 0.3])
        assert out == [(0.0, 2.0), (3.0, 4.0)]

    def test_tolerance_filters_noise(self):
        track = [0.5, 0.5 - 1e-12, 0.6]
        assert backflow_intervals([0, 1, 2], track) == []

    def test_rising_mirror(self):
        assert rising_intervals([0, 1, 2, 3], [0.5, 0.3, 0.4, 0.4]) == [(1.0, 2.0)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            backflow_intervals([0, 1, 2], [0.1, 0.2])

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
    def test_tolerance_must_be_nonnegative(self, tol):
        # a negative tolerance reads a flat step as both a drop and a rise
        for detect in (backflow_intervals, rising_intervals):
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                detect([0, 1, 2], [0.5, 0.5, 0.5], tol)


class TestEvolutionRecord:
    GOOD = dict(
        times=np.array([0.0, 1.0]),
        fidelity_track=np.zeros(2),
        coherence_track=np.zeros(2),
        initial=GaussianState(np.zeros(4), np.eye(4)),
        params=PARAMS,
        bath=BATH,
    )

    def test_validation(self):
        good = self.GOOD
        assert len(EvolutionRecord(**good).states) == 2
        for times in ([0.0, 0.0], [0.0, math.nan], [-math.inf, 0.0]):
            with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
                EvolutionRecord(**{**good, "times": np.array(times)})
        with pytest.raises(ValueError):
            EvolutionRecord(**{**good, "coherence_track": np.zeros((2, 1))})
        with pytest.raises(ValueError):
            EvolutionRecord(**{**good, "initial": thermal_state(1.0)})
        with pytest.raises(ValueError):
            EvolutionRecord(**{**good, "fidelity_track": np.zeros(3)})

    @pytest.mark.filterwarnings("error")
    def test_covariances_are_validated_on_access(self):
        # omega t passes the floats from t = 9.46 on: R(omega t), and so the means and covariances, are not finite
        params = OscillatorParams(omega=1.9e307, gamma=0.1)
        record = EvolutionRecord(**{**self.GOOD, "times": 0.5 * np.arange(21), "params": params,
                                    "fidelity_track": np.zeros(21), "coherence_track": np.zeros(21)})
        with pytest.raises(ValueError, match="moments must be finite at t = 9.5$"):
            record.covs
        # the vacuum under the bath: sigma(t) = e^{Ct} e^{C^T t} (x) I + (2 mbar + 1) M (x) I, built once
        record = EvolutionRecord(**self.GOOD)
        assert record.covs is record.covs and record.means is record.means
        assert np.array_equal(record.covs[0], np.eye(4)) and np.array_equal(record.means, np.zeros((2, 4)))
