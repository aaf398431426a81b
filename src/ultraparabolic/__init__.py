"""Operator calculus and numerics for strongly degenerate parabolic equations.

The package covers one pipeline, exactly in this order:

- ``vfalgebra``: exact rational vector-field algebra — commutators, bracket
  towers, spanning certificates, and block-cascade structure checks.
- ``auxfields``: time-weighted auxiliary fields with exact symbolic
  verification of their commutator identities and inversion back to the
  tower fields.
- ``sobolev``: spectral Sobolev machinery on a periodic box — norms, Bessel
  multipliers, products, and commutator-bound measurements.
- ``solver``: an exact characteristics/Fourier route for constant
  coefficients and an IMEX finite-difference route for variable ones, with
  residual and energy reporting.
- ``smoothing``: derivative-growth measurement along a trajectory and the
  factorial-scale fit quantifying analytic smoothing.
- ``problems``: the JSON problem-spec format, shipped example specs, and
  structural/ellipticity condition reports.
- ``fieldio``: deterministic JSON/CSV/binary serialization.
- ``cli``: the ``ultraparabolic`` command wrapping the pipeline.
"""

from . import auxfields, fieldio, problems, smoothing, sobolev, solver, vfalgebra
from .auxfields import *  # noqa: F403
from .fieldio import *  # noqa: F403
from .problems import *  # noqa: F403
from .smoothing import *  # noqa: F403
from .sobolev import *  # noqa: F403
from .solver import *  # noqa: F403
from .vfalgebra import *  # noqa: F403

__version__ = "1.0.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"] + [
    name
    for module in (vfalgebra, auxfields, sobolev, solver, smoothing, problems, fieldio)
    for name in module.__all__
]
