"""Phase-space toolkit for two coupled harmonic oscillators.

Exact number-state Wigner dynamics with mutual-information and negativity
analysis, a Gaussian covariance-matrix engine with fidelity and coherence,
dissipative evolution with backflow detection, and a CLI that emits the
standard experiment data sets.

The package itself imports nothing: the library lives in its modules
(``fock_dynamics``, ``info_measures``, ``gaussian_states``, ``open_dynamics``),
which load numpy, and the command line in ``cli``, which loads numpy only once a
run starts computing.  The modules import ``numpy.polynomial`` (Gauss rules and
Laguerre values) in the functions that use it, so a run that needs none skips its
import: about 3.6 ms, against 65-85 ms for numpy (``python -X importtime``, numpy 2.4.6).
"""

__version__ = "0.1.0"

# The library's numeric domain: occupations and each entry of a mean at most MAX_MOMENT (see gaussian_states).
MAX_MOMENT = 1e60


# The command line's two failures live here, not in cli, so that under `python -m wignerosc.cli`, where cli
# runs as __main__, the module that computes the runs raises the very classes that cli.main catches.
class ConfigError(Exception):
    """Bad key, bad value, or unparseable configuration input."""


class NumericFailure(Exception):
    """A computation broke down on input that passed validation."""
