"""Phase-space toolkit for two coupled harmonic oscillators.

Exact number-state Wigner dynamics with mutual-information and negativity
analysis, a Gaussian covariance-matrix engine with fidelity and coherence,
dissipative evolution with backflow detection, and a CLI that emits the
standard experiment data sets.
"""

__version__ = "0.1.0"

from .quadrature import laguerre, laguerre_table
from .fock_dynamics import (
    FockPairState,
    OscillatorParams,
    WignerField,
    energy,
    mode_populations,
    pair_field,
)
from .gaussian_states import (
    GaussianState,
    ThermalBath,
    UnphysicalStateError,
    coherence,
    fidelity,
    reduce_mode,
    state_to_record,
    thermal_state,
)
from .info_measures import (
    NegativityError,
    linear_entropy,
    mutual_information,
    negativity,
)
from .open_dynamics import (
    EvolutionRecord,
    backflow_intervals,
    evolve_coupled,
    rising_intervals,
    thermalize_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
