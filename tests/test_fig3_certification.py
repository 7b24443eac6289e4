"""fig3 tracks against a 30-digit evaluation of the moment equations.

The reference integrates the model at the CLI defaults (m = omega = hbar = 1,
Gamma = gamma = 0.1, mbar = 4, nbar = 2) by one mpmath expm of Van Loan's
block per sample time, and evaluates the mode-1 fidelity and coherence at
30 digits.  The library's columns must agree to 5e-15, a few dozen units of
rounding.
"""

import math

import mpmath as mp
import pytest

import oracles
from wignerosc.cli import resolve_config, run_fig3

RATE, GAMMA, MBAR, NBAR = 0.1, 0.1, 4.0, 2.0
# Hamilton's equations of (p1^2 + p2^2 + q1^2 + q2^2)/2 + gamma (p1 q2 - p2 q1), mode 1 damped
DRIFT = [
    [-RATE / 2, 1.0, GAMMA, 0.0],
    [-1.0, -RATE / 2, 0.0, GAMMA],
    [-GAMMA, 0.0, 0.0, 1.0],
    [0.0, -GAMMA, -1.0, 0.0],
]
DIFFUSION = [[RATE * (2 * MBAR + 1) if i == j < 2 else 0.0 for j in range(4)] for i in range(4)]
TOLERANCE = 5e-15


def _rotated(phi: float) -> list[float]:
    c, s = math.cos(phi), math.sin(phi)
    return [c + s, c - s, c + s, c - s]  # R(phi) (1, 1) in each mode plane


@pytest.mark.parametrize("displacement", [[1.0, 1.0, 1.0, 1.0], _rotated(2.2)], ids=["default", "rotated"])
def test_tracks_against_30_digit_van_loan(displacement):
    sets = ["numeric.t_max=60", "numeric.t_step=2.5", "physics.displacement=" + ",".join(map(repr, displacement))]
    columns = run_fig3(resolve_config("fig3", None, sets), GAMMA)["columns"]
    times = columns["t"] / RATE  # the times the CLI evaluates
    assert times.size == 25
    d = [mp.mpf(v) for v in displacement]
    cov = mp.zeros(4, 4)
    for i in range(4):  # isotropic blocks that carry nbar quanta each
        mode = d[i - i % 2 : i - i % 2 + 2]
        cov[i, i] = (4 * NBAR + 2 - mode[0] ** 2 - mode[1] ** 2) / 2
    tracks = [
        oracles.mode_tracks_mp(mean[:2], moments[:2, :2].tolist(), 2 * MBAR + 1)
        for mean, moments in oracles.van_loan_moments_mp(DRIFT, DIFFUSION, d, cov.tolist(), times)
    ]
    worst = {
        "fidelity": max(abs(got - want) for got, (want, _) in zip(columns["fidelity"], tracks)),
        "coherence_raw": max(abs(got - want) for got, (_, want) in zip(columns["coherence_raw"], tracks)),
        "coherence_normalized": max(
            abs(got - want / tracks[0][1]) for got, (_, want) in zip(columns["coherence_normalized"], tracks)
        ),
    }
    assert max(worst.values()) < TOLERANCE, worst


def test_huge_occupation_against_high_precision_van_loan(monkeypatch):
    # the edge of the numeric domain: thermal occupations nbar = mbar = 1e60 and every mean 1e60.  The
    # fidelity underflows to 0, as exp(-|d1|^2 / (2 (a + b))) does; the coherence, near 200 bits, is a
    # difference of entropies (x + 1) log(x + 1) - x log x whose terms reach 1.4e122, so the reference takes
    # 160 digits
    monkeypatch.setattr(oracles, "DIGITS", 160)
    sets = ["physics.nbar=1e60", "physics.mbar=1e60", "physics.initial_covariance=thermal",
            "physics.displacement=1e60,1e60,1e60,1e60", "numeric.t_step=0.5"]
    columns = run_fig3(resolve_config("fig3", None, sets), GAMMA)["columns"]
    times = columns["t"] / RATE
    assert times.size == 13
    top = mp.mpf(1e60)
    diffusion = [[RATE * (2 * top + 1) if i == j < 2 else 0 for j in range(4)] for i in range(4)]
    cov = [[2 * top + 1 if i == j else 0 for j in range(4)] for i in range(4)]
    tracks = [
        oracles.mode_tracks_mp(mean[:2], moments[:2, :2].tolist(), 2 * top + 1)
        for mean, moments in oracles.van_loan_moments_mp(DRIFT, diffusion, [top] * 4, cov, times)
    ]
    for name, index in (("fidelity", 0), ("coherence_raw", 1)):
        for got, want in zip(columns[name], tracks):
            assert got == pytest.approx(float(want[index]), rel=1e-13, abs=0.0), (name, got, want[index])


@pytest.mark.parametrize("mbar,digits", [(1e17, 80), (1e60, 170)], ids=["mbar=1e17", "mbar=1e60"])
def test_huge_bath_occupation_against_high_precision_van_loan(mbar, digits, monkeypatch):
    # sigma(t) = E sigma(0) E^T + (2 mbar + 1) M (x) I keeps sigma(0) = 4 I at t = 0, which the former
    # E (sigma(0) - sigma_inf) E^T + sigma_inf lost from mbar = 1e17 on; the fidelity to (2 mbar + 1) I
    # is 2 / (sqrt(Delta + delta) - sqrt(delta)) with delta near (2 mbar)^4, so the reference carries
    # 2 log10(2 mbar) and 40 digits more.  Q is linear in the diffusion, so the reference takes Van Loan's
    # Phi sigma(0) Phi^T with no diffusion, to 40 digits, and adds 2 mbar + 1 times its Q at unit occupation
    # variance, to all the digits, since the coherence comes of tr sigma_1 / 2 - nu_1 for an isotropic sigma_1
    columns = run_fig3(resolve_config("fig3", None, [f"physics.mbar={mbar!r}", "numeric.t_step=1"]), GAMMA)["columns"]
    times = columns["t"] / RATE
    assert times.size == 7
    zero = [[0] * 4 for _ in range(4)]
    unit = [[RATE if i == j < 2 else 0 for j in range(4)] for i in range(4)]
    cov = [[4 if i == j else 0 for j in range(4)] for i in range(4)]  # adjusted: nbar = 2 at d = (1, 1)
    monkeypatch.setattr(oracles, "DIGITS", 40)
    carried = oracles.van_loan_moments_mp(DRIFT, zero, [1.0] * 4, cov, times)
    monkeypatch.setattr(oracles, "DIGITS", digits)
    noise = oracles.van_loan_moments_mp(DRIFT, unit, [0.0] * 4, zero, times)
    with mp.workdps(digits):
        variance = 2 * mp.mpf(mbar) + 1
        tracks = [
            oracles.mode_tracks_mp(mean[:2], (moments + variance * q)[:2, :2].tolist(), variance)
            for (mean, moments), (_, q) in zip(carried, noise)
        ]
    for name, index in (("fidelity", 0), ("coherence_raw", 1)):
        worst = max(abs(got / float(want[index]) - 1) for got, want in zip(columns[name], tracks))
        assert worst < 1e-13, (name, worst)
