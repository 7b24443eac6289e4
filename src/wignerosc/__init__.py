"""Phase-space toolkit for two coupled harmonic oscillators.

Exact number-state Wigner dynamics with mutual-information and negativity
analysis, a Gaussian covariance-matrix engine with fidelity and coherence,
dissipative evolution with backflow detection, and a CLI that emits the
standard experiment data sets.
"""

__version__ = "0.1.0"

from .quadrature import (
    QuadratureRule,
    gauss_hermite,
    laguerre,
    laguerre_table,
)
from .fock_dynamics import (
    FockPairState,
    OscillatorParams,
    PhasePoint,
    classical_trajectory,
    energy,
    evolved_wigner,
    hamiltonian_symbol,
    marginal_wigner,
    mode_populations,
    radial_profile,
    stationary_wigner,
)
from .gaussian_states import (
    GaussianState,
    ThermalBath,
    UnphysicalStateError,
    coherence,
    fidelity,
    gaussian_wigner,
    mean_photon,
    reduce_mode,
    state_from_record,
    state_to_record,
    thermal_state,
)
from .info_measures import (
    WignerField,
    eigenstate_field,
    expectation_value,
    gaussian_field,
    linear_entropy,
    marginal_field,
    mutual_information,
    negativity,
    pair_field,
)
from .open_dynamics import (
    EvolutionRecord,
    backflow_intervals,
    drift_and_diffusion,
    evolve_coupled,
    rising_intervals,
    thermalize_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
