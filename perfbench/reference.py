"""Reference values for the benchmark, computed without the wignerosc package.

Nothing here imports the library or the test suite's oracles, so a later
change to either cannot move the yardstick.

* ``fig1`` and ``query negativity``: rotating the number-state pair
  |k> x |l> by the mixing angle theta leaves a pure two-mode state
  sum_j A_j |j, k+l-j>, whose beam-splitter amplitudes A_j are
  enumerated here in mpmath.  Each mode is diagonal in the number basis,
  so the mutual information is exactly 2(1 - sum_j P_j^2) with
  P_j = A_j^2, and the negativity of a mode is the radial integral
  int_{Q<0} e^{-u/2} |Q(u)| du of the Laguerre series
  Q(u) = sum_j P_j (-1)^j L_j(u), split at the real roots of Q and
  integrated to 30 digits.  These are stored in ``fock_reference.json``;
  run this file as a script to regenerate it (about a minute).
* ``fig3``: the moment equations are linear with constant coefficients,
  so one output step is the exact affine map d -> Phi d,
  sigma -> Phi sigma Phi^T + Q with Phi = e^{A dt} and Q from one 8x8
  matrix exponential (Van Loan's block method, scipy ``expm``).  The
  tracks cost a fraction of a second, so they are computed when checked
  rather than stored.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.linalg import expm

FOCK_TABLE = Path(__file__).with_name("fock_reference.json")

# The CLI's default fig1 angle grid: 0, pi/200, ..., pi.
THETA_STEP = math.pi / 200
THETA_COUNT = 201
# Every pair a workload can draw (see workloads.py).
FOCK_PAIRS = ((1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3), (5, 0), (0, 5))

# fig3 defaults of the CLI, restated here so the reference does not read them
# from the library: natural units, gamma = Gamma = 0.1, nbar = 2, mbar = 4.
FIG3_DEFAULTS = {
    "gamma": 0.1,
    "decay_rate": 0.1,
    "nbar": 2.0,
    "mbar": 4.0,
    "displacement": (1.0, 1.0, 1.0, 1.0),
    "backflow_tol": 1e-9,
}


def theta_grid() -> np.ndarray:
    """The angles the CLI evaluates, bit for bit: step * arange(count)."""
    return float(repr(THETA_STEP)) * np.arange(THETA_COUNT)


def populations(k: int, ell: int, theta) -> list:
    """Mode-1 occupation probabilities P_j, j = 0..k+l, after mixing by theta.

    Expands (c a1^+ - s a2^+)^k (s a1^+ + c a2^+)^l |0,0> / sqrt(k! l!).
    """
    c, s = mp.cos(theta), mp.sin(theta)
    total = k + ell
    out = []
    for j in range(total + 1):
        amp = mp.mpf(0)
        for r in range(max(0, j - ell), min(k, j) + 1):
            q = j - r
            term = mp.binomial(k, r) * mp.binomial(ell, q)
            amp += (-1) ** (k - r) * term * c ** (r + ell - q) * s ** (k - r + q)
        norm = mp.factorial(j) * mp.factorial(total - j) / (mp.factorial(k) * mp.factorial(ell))
        out.append((amp * mp.sqrt(norm)) ** 2)
    return out


def mutual_information(probs) -> mp.mpf:
    return 2 * (1 - mp.fsum(p * p for p in probs))


def negativity(probs) -> mp.mpf:
    """int |W| - int W of the number-diagonal state with populations probs.

    With u = 2 r^2 the Wigner function is e^{-u/2} Q(u) / pi and the
    phase-space measure is (pi/2) du, so the negativity is the integral of
    e^{-u/2} |Q| over the region where Q < 0.
    """
    coeffs = [mp.mpf(0)] * len(probs)  # monomial coefficients of Q, lowest first
    for j, p in enumerate(probs):
        if p < mp.mpf(10) ** -60:  # contributes below any reported digit
            continue
        for i in range(j + 1):
            coeffs[i] += p * (-1) ** j * mp.binomial(j, i) * (-1) ** i / mp.factorial(i)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()

    def q(u):
        return mp.polyval(coeffs[::-1], u)

    cuts = [mp.mpf(0)]
    if len(coeffs) > 1:
        roots = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        cuts += sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -20 and mp.re(r) > 0)
    cuts.append(mp.inf)
    total = mp.mpf(0)
    for a, b in zip(cuts, cuts[1:]):
        mid = a + 1 if b == mp.inf else (a + b) / 2
        if q(mid) < 0:
            total -= mp.quad(lambda u: mp.exp(-u / 2) * q(u), [a, b])
    return total


def fock_rows(k: int, ell: int) -> dict[str, list[float]]:
    """Reference fig1 columns of pair (k, l) on the default angle grid."""
    mi, neg1, neg2 = [], [], []
    with mp.workdps(30):
        for theta in theta_grid():
            probs = populations(k, ell, mp.mpf(float(theta)))
            mi.append(float(mutual_information(probs)))
            neg1.append(float(negativity(probs)))
            neg2.append(float(negativity(probs[::-1])))
    return {"mutual_information": mi, "negativity_mode1": neg1, "negativity_mode2": neg2}


def load_fock_table() -> dict:
    """Stored fig1 reference columns, keyed by "k,l"."""
    return json.loads(FOCK_TABLE.read_text())["pairs"]


def _adjusted_covariance(d: np.ndarray, nbar: float) -> np.ndarray:
    """Isotropic blocks sized so each displaced mode carries nbar quanta."""
    cov = np.zeros((4, 4))
    for mode in (0, 1):
        part = d[2 * mode : 2 * mode + 2]
        cov[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = (4 * nbar + 2 - part @ part) / 2 * np.eye(2)
    return cov


def _gaussian_fidelity(d: np.ndarray, s: np.ndarray, s_ref: np.ndarray) -> float:
    """Single-mode Gaussian fidelity against the zero-mean state s_ref (vacuum = I)."""
    total = s + s_ref
    big = np.linalg.det(total)
    small = max((np.linalg.det(s) - 1.0) * (np.linalg.det(s_ref) - 1.0), 0.0)
    return 2.0 / (math.sqrt(big + small) - math.sqrt(small)) * math.exp(-0.5 * d @ np.linalg.solve(total, d))


def _entropy_bits(n: float) -> float:
    """Von Neumann entropy of a thermal state with mean occupation n."""
    return (n + 1) * math.log2(n + 1) - (n * math.log2(n) if n > 0 else 0.0)


def _coherence_bits(d: np.ndarray, s: np.ndarray) -> float:
    """Entropy of the thermal state with the same mean occupation, minus the state's."""
    nu = math.sqrt(np.linalg.det(s))
    mean_n = (np.trace(s) + d @ d - 2.0) / 4.0
    return max(_entropy_bits(mean_n) - _entropy_bits((nu - 1.0) / 2.0), 0.0)


def _intervals(times: np.ndarray, track: np.ndarray, tol: float, rising: bool) -> list[list[float]]:
    """Maximal runs of sample-to-sample changes beyond tol in one direction."""
    steps = np.diff(track)
    hit = steps > tol if rising else steps < -tol
    out: list[list[float]] = []
    for i in np.flatnonzero(hit):
        if i > 0 and hit[i - 1]:
            out[-1][1] = float(times[i + 1])
        else:
            out.append([float(times[i]), float(times[i + 1])])
    return out


def fig3_reference(t_max: float, t_step: float, displacement=None) -> dict:
    """Reference fig3 columns and intervals for the CLI defaults.

    Times are in Gamma*t units, as the CLI prints them.
    """
    p = FIG3_DEFAULTS
    g, rate = p["gamma"], p["decay_rate"]
    d = np.asarray(displacement if displacement is not None else p["displacement"], dtype=float)
    # Hamilton's equations of H = (p1^2 + p2^2 + q1^2 + q2^2)/2 + g (p1 q2 - p2 q1)
    # in the ordering (q1, p1, q2, p2), plus damping and diffusion on mode 1.
    drift = np.array([[0.0, 1.0, g, 0.0], [-1.0, 0.0, 0.0, g], [-g, 0.0, 0.0, 1.0], [0.0, -g, -1.0, 0.0]])
    drift[0, 0] = drift[1, 1] = -rate / 2
    diffusion = np.zeros((4, 4))
    diffusion[0, 0] = diffusion[1, 1] = rate * (2 * p["mbar"] + 1)
    dt = t_step / rate
    block = np.zeros((8, 8))
    block[:4, :4] = -drift
    block[:4, 4:] = diffusion
    block[4:, 4:] = drift.T
    ex = expm(block * dt)
    phi = ex[4:, 4:].T
    noise = phi @ ex[:4, 4:]

    count = int(math.floor(t_max / t_step + 1e-9)) + 1
    sigma = _adjusted_covariance(d, p["nbar"])
    thermal = (2 * p["mbar"] + 1) * np.eye(2)
    fid = np.empty(count)
    coh = np.empty(count)
    for i in range(count):
        fid[i] = _gaussian_fidelity(d[:2], sigma[:2, :2], thermal)
        coh[i] = _coherence_bits(d[:2], sigma[:2, :2])
        d = phi @ d
        sigma = phi @ sigma @ phi.T + noise
    times = t_step * np.arange(count)
    tol = p["backflow_tol"]
    return {
        "columns": {
            "t": times,
            "fidelity": fid,
            "coherence_normalized": coh / coh[0],
            "coherence_raw": coh,
        },
        "backflow_intervals": _intervals(times, fid, tol, rising=False),
        "coherence_rise_intervals": _intervals(times, coh, tol, rising=True),
    }


def main() -> None:
    pairs = {f"{k},{ell}": fock_rows(k, ell) for k, ell in FOCK_PAIRS}
    payload = {
        "about": "fig1 reference columns on theta = (pi/200) * arange(201); see reference.py",
        "pairs": pairs,
    }
    FOCK_TABLE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
