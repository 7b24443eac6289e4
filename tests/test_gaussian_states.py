import math

import mpmath as mp
import numpy as np
import pytest

import oracles
from wignerosc.gaussian_states import (
    MAX_MOMENT,
    GaussianState,
    ThermalBath,
    UnphysicalStateError,
    coherence,
    fidelity,
    moment_coherence,
    reduce_mode,
    state_to_record,
    thermal_state,
)


def random_physical_state(rng, displaced=True):
    """Random squeezed-rotated thermal state, strictly physical."""
    nu = 1.0 + rng.exponential(1.5)
    r = rng.uniform(-0.6, 0.6)
    phi = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    cov = nu * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
    mean = rng.normal(scale=1.5, size=2) if displaced else np.zeros(2)
    return GaussianState(mean, cov)


class TestGaussianState:
    def test_vacuum_is_physical(self):
        state = thermal_state(0.0)
        assert np.allclose(state.cov, np.eye(2))
        assert math.sqrt(np.linalg.det(state.cov)) == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], np.array([[1.0, 0.5], [-0.5, 1.0]]))

    def test_rejects_sub_vacuum(self):
        with pytest.raises(UnphysicalStateError):
            GaussianState([0.0, 0.0], 0.5 * np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], np.diag([1.0, -1.0]))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0, 0.0], np.eye(3))
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], np.eye(4))

    def test_record_round_trip(self):
        rng = np.random.default_rng(1)
        state = random_physical_state(rng)
        record = state_to_record(state)
        assert sorted(record) == ["N", "d", "sigma"]
        again = GaussianState(record["d"], record["sigma"])
        assert record["N"] == again.modes == 1
        assert np.array_equal(again.mean, state.mean)
        assert np.array_equal(again.cov, state.cov)


def gaussian_wigner(state, *coords):
    """The oracle's Wigner function of a Gaussian state."""
    return oracles.gaussian_wigner(state.mean, state.cov, *coords)


class TestWignerEvaluator:
    """The oracle's Gaussian Wigner function, the reference for reduce_mode's marginal."""

    def test_vacuum_origin(self):
        assert gaussian_wigner(thermal_state(0.0), 0.0, 0.0) == pytest.approx(
            1.0 / (2 * math.pi), rel=1e-14
        )

    def test_normalized_on_grid(self):
        state = GaussianState([0.4, -0.3], np.array([[2.0, 0.3], [0.3, 1.0]]))
        ax = np.linspace(-12, 12, 601)
        vals = gaussian_wigner(state, ax[:, None], ax[None, :])
        step = ax[1] - ax[0]
        total = np.trapezoid(np.trapezoid(vals, dx=step, axis=-1), dx=step)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_displaced_peak(self):
        state = GaussianState([2.0, 0.0], np.eye(2))
        ax = np.linspace(-4, 4, 161)
        vals = gaussian_wigner(state, ax[:, None], ax[None, :])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        assert ax[i] == pytest.approx(2.0, abs=0.06)
        assert ax[j] == pytest.approx(0.0, abs=0.06)

    def test_two_mode_normalized(self):
        cov = np.eye(4) * 1.5
        cov[0, 2] = cov[2, 0] = 0.4
        cov[1, 3] = cov[3, 1] = -0.4
        state = GaussianState([0.2, 0.0, -0.1, 0.3], cov)
        rule_ax = np.linspace(-9, 9, 41)
        step = rule_ax[1] - rule_ax[0]
        grids = np.meshgrid(*([rule_ax] * 4), indexing="ij")
        vals = gaussian_wigner(state, *grids)
        total = vals
        for _ in range(4):
            total = np.trapezoid(total, dx=step, axis=-1)
        assert float(total) == pytest.approx(1.0, abs=1e-6)

    def test_coordinate_count_check(self):
        with pytest.raises(ValueError):
            gaussian_wigner(thermal_state(0.0), 0.0, 0.0, 0.0, 0.0)


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            state = random_physical_state(rng)
            assert abs(fidelity(state, state) - 1.0) < 1e-12

    def test_vacuum_vs_thermal(self):
        assert fidelity(thermal_state(0.0), thermal_state(4.0)) == pytest.approx(0.2, abs=1e-12)

    def test_vacuum_vs_displaced(self):
        for a in (0.5, 1.5, 3.0):
            displaced = GaussianState([a, 0.0], np.eye(2))
            expected = math.exp(-a * a / 4.0)
            assert fidelity(thermal_state(0.0), displaced) == pytest.approx(expected, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s1, s2 = random_physical_state(rng), random_physical_state(rng)
            assert abs(fidelity(s1, s2) - fidelity(s2, s1)) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s1, s2 = random_physical_state(rng), random_physical_state(rng)
            value = fidelity(s1, s2)
            assert 0.0 <= value <= 1.0

    def test_huge_occupations(self):
        # the edge of the numeric domain, occupations and mean entries MAX_MOMENT, alone and with 0; for
        # isotropic blocks a I and b I, F = 2 / (ab + 1 - sqrt((a^2 - 1)(b^2 - 1))) exp(-|d1 - d2|^2 / (2 (a + b))),
        # whose 2 / (ab + 1 - ...) loses 121 digits at a = b = 2e60 + 1, here at 250 digits
        assert MAX_MOMENT == 1e60
        top = MAX_MOMENT
        cases = ((top, top, top, -top), (top, top, top, top), (top, top, 1e30, 0.0), (top, top, 0.0, 0.0),
                 (top, 0.0, 0.0, 0.0), (top, 0.0, 1e30, 0.0), (0.0, top, top, 0.0), (0.0, 0.0, 0.0, top))
        for nbar1, nbar2, d1, d2 in cases:
            s1 = GaussianState([d1, 0.0], (2 * nbar1 + 1) * np.eye(2))
            s2 = GaussianState([d2, 0.0], (2 * nbar2 + 1) * np.eye(2))
            with mp.workdps(250):
                a, b = mp.mpf(s1.cov[0, 0]), mp.mpf(s2.cov[0, 0])
                overlap = 2 / (a * b + 1 - mp.sqrt((a * a - 1) * (b * b - 1)))
                exact = overlap * mp.exp(-(mp.mpf(d1) - mp.mpf(d2)) ** 2 / (2 * (a + b)))
            assert fidelity(s1, s2) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


class TestCoherence:
    def test_thermal_states_have_none(self):
        for nbar in (0.0, 0.5, 3.0, 10.0):
            assert coherence(thermal_state(nbar)) == 0.0

    def test_coherent_state(self):
        state = GaussianState([2.0, 0.0], np.eye(2))
        assert coherence(state) == pytest.approx(2.0, abs=1e-12)
        # a pure state holds delta = |d|^2 / 4 quanta, its coherence is S_th(delta); 1/delta overflows below
        # about 5.6e-309, and the cancellation-free kernel must not
        for d in (1e-3, 1e-100, 1e-154):
            with mp.workdps(40):
                delta = mp.mpf(d) ** 2 / 4
                exact = ((delta + 1) * mp.log(delta + 1) - delta * mp.log(delta)) / mp.log(2)
            assert coherence(GaussianState([d, 0.0], np.eye(2))) == pytest.approx(float(exact), rel=1e-12)

    def test_huge_occupations(self):
        # the edge of the numeric domain, occupations and mean entries MAX_MOMENT, alone and with 0 or 1:
        # S_th(m + |d|^2 / 4) - S_th(m), m = (nu - 1)/2, a difference of entropies (x + 1) log(x + 1) - x log x
        # whose terms reach 1.4e122 and which is 3.6e-61 bits at m = 1e60, |d| = 1, here at 250 digits
        top = MAX_MOMENT
        cases = ((top, top, top), (top, top, -top), (top, 0.0, 0.0), (top, 1.0, 0.0), (top, 0.0, 3.0),
                 (0.0, top, 0.0), (0.0, top, -top), (0.0, 1e-3, 0.0))
        for nbar, dq, dp in cases:
            state = GaussianState([dq, dp], (2 * nbar + 1) * np.eye(2))
            with mp.workdps(250):
                m = (mp.mpf(state.cov[0, 0]) - 1) / 2
                n = m + (mp.mpf(dq) ** 2 + mp.mpf(dp) ** 2) / 4

                def entropy(x):
                    return (x + 1) * mp.log(x + 1) - (x * mp.log(x) if x > 0 else 0)

                exact = (entropy(n) - entropy(m)) / mp.log(2)
            assert coherence(state) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("nbar", [10.0, 49.0, 99.0])
    def test_displaced_thermal_against_mpmath(self, nbar, monkeypatch):
        # (m + 1) log1p(delta/(m + 1)) - m log1p(delta/m) cancels to about 1e-16 m of the coherence, which
        # past m = 4.5 the kernel takes as an integral over [m, m + 1]; the reference's entropies reach
        # 1e17 at d = 1e8 and differ by 1e-9 at d = 1e-3, so it takes 60 digits
        monkeypatch.setattr(oracles, "DIGITS", 60)
        cov = (2 * nbar + 1) * np.eye(2)
        worst = 0.0
        for d in np.geomspace(1e-3, 1e8, 23):
            mean = np.array([0.6 * d, 0.8 * d])
            exact = oracles.mode_tracks_mp(mean, cov, 1.0)[1]
            worst = max(worst, abs(moment_coherence(mean, cov) / float(exact) - 1.0))
        assert worst < 5e-15

    def test_displaced_thermal_value(self):
        state = GaussianState([1.0, 1.0], 4.0 * np.eye(2))
        expected = (3 * math.log2(3) - 2 * math.log2(2)) - (
            2.5 * math.log2(2.5) - 1.5 * math.log2(1.5)
        )
        assert coherence(state) == pytest.approx(expected, abs=1e-12)
        assert coherence(state) == pytest.approx(0.327511016026796, abs=1e-12)

    def test_spectral_entropy_consistency(self):
        # the cancellation-free kernel equals S_th(nbar) - S_th(m): the state's entropy is
        # the thermal entropy at its matching occupation m = (nu - 1)/2
        def entropy(n):
            return (n + 1) * math.log2(n + 1) - (n * math.log2(n) if n > 0 else 0.0)

        rng = np.random.default_rng(8)
        for nu in (1.0, 1.7, 4.0, 9.2):
            for _ in range(5):
                squeeze, phi = rng.uniform(0.5, 2.0), rng.uniform(0, math.pi)
                rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
                cov = nu * rot @ np.diag([squeeze, 1 / squeeze]) @ rot.T
                mean = rng.normal(size=2)
                nbar = (np.trace(cov) + mean @ mean - 2) / 4
                direct = entropy(nbar) - entropy((nu - 1) / 2)
                assert moment_coherence(mean, cov) == pytest.approx(direct, abs=1e-13)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            state = random_physical_state(rng)
            phi = rng.uniform(0, 2 * math.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            turned = GaussianState(rot @ state.mean, rot @ state.cov @ rot.T)
            assert abs(coherence(turned) - coherence(state)) < 1e-10

    def test_isotropic_zero_mean_has_none(self):
        for nu in (1.0, 2.5, 7.0):
            assert coherence(GaussianState([0.0, 0.0], nu * np.eye(2))) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            assert coherence(random_physical_state(rng)) >= 0.0


class TestThermalState:
    def test_vacuum(self):
        assert np.allclose(thermal_state(0.0).cov, np.eye(2))

    def test_occupied(self):
        assert np.allclose(thermal_state(4.0).cov, 9.0 * np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            thermal_state(-0.1)


class TestReduceMode:
    def test_block_extraction(self):
        cov = np.diag([2.0, 2.0, 5.0, 5.0])
        state = GaussianState([1.0, 0.0, -2.0, 0.5], cov)
        part = reduce_mode(state, 1)
        assert np.allclose(part.cov, 2.0 * np.eye(2))
        assert np.allclose(part.mean, [1.0, 0.0])
        part2 = reduce_mode(state, 2)
        assert np.allclose(part2.cov, 5.0 * np.eye(2))
        assert np.allclose(part2.mean, [-2.0, 0.5])

    def test_ignores_cross_correlations(self):
        cov = np.eye(4) * 3.0
        cov[0, 2] = cov[2, 0] = 1.2
        cov[1, 3] = cov[3, 1] = -1.2
        state = GaussianState([0.0, 0.0, 0.0, 0.0], cov)
        assert np.allclose(reduce_mode(state, 1).cov, 3.0 * np.eye(2))

    def test_matches_quadrature_marginal(self):
        cov = np.array(
            [
                [1.9, 0.2, 0.5, -0.3],
                [0.2, 1.4, 0.1, 0.4],
                [0.5, 0.1, 2.2, 0.0],
                [-0.3, 0.4, 0.0, 1.7],
            ]
        )
        state = GaussianState([0.3, -0.2, 0.6, 0.1], cov)
        part = reduce_mode(state, 1)
        ax = np.linspace(-14.0, 14.0, 351)
        step = ax[1] - ax[0]
        qq, pp = np.meshgrid(ax, ax, indexing="ij")
        for q1, p1 in ((0.0, 0.0), (0.8, -0.5), (-1.3, 0.9)):
            joint = gaussian_wigner(state, q1, p1, qq, pp)
            integral = np.trapezoid(np.trapezoid(joint, dx=step, axis=-1), dx=step)
            assert integral == pytest.approx(gaussian_wigner(part, q1, p1), abs=1e-8)

    def test_mode_validation(self):
        state = GaussianState(np.zeros(4), np.eye(4))
        with pytest.raises(ValueError):
            reduce_mode(state, 3)
        with pytest.raises(ValueError):
            reduce_mode(reduce_mode(state, 1), 1)


class TestThermalBath:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalBath(-0.1, 1.0)
        with pytest.raises(ValueError):
            ThermalBath(0.1, -1.0)

    def test_zero_rate_allowed(self):
        bath = ThermalBath(0.0, 2.0)
        assert bath.decay_rate == 0.0
