"""Operator calculus and numerics for strongly degenerate parabolic equations.

The package covers one pipeline, exactly in this order:

- ``vfalgebra``: exact rational vector-field algebra — commutators, bracket
  towers, spanning certificates, and block-cascade structure checks.
- ``auxfields``: time-weighted auxiliary fields with exact symbolic
  verification of their commutator identities and inversion back to the
  tower fields.
- ``sobolev``: spectral Sobolev machinery on a periodic box — norms, Bessel
  weights, products, and commutator-bound measurements.
- ``solver``: an exact characteristics/Fourier route for constant
  coefficients and an IMEX finite-difference route for variable ones, with
  residual and energy reporting.
- ``smoothing``: derivative-growth measurement along a trajectory and the
  factorial-scale fit quantifying analytic smoothing.
- ``problems``: the JSON problem-spec format, shipped example specs, and
  structural/ellipticity condition reports.
- ``fieldio``: deterministic JSON/CSV/binary serialization.
- ``cli``: the ``ultraparabolic`` command wrapping the pipeline.

The modules fall into two layers by what they import.  The exact layer
(``vfalgebra``, ``auxfields``, ``problems``, the JSON/CSV part of
``fieldio``, and ``cli``) loads no NumPy; the numerical layer (``sobolev``,
``solver``, ``smoothing``, and the binary field I/O) does.  So this package
loads no module up front: each public name resolves on first access, from
the ``__all__`` of the module that exports it, and the ``check``, ``verify``
and ``report`` stages never load NumPy.
"""

__version__ = "1.0.0"

# Searched in this order for a name: the exact layer first, so that a name
# it exports resolves without loading NumPy.
_MODULES = ("vfalgebra", "auxfields", "problems", "fieldio", "sobolev", "solver", "smoothing")


def _module(name):
    # __import__, unlike importlib.import_module, shows in -X importtime
    return __import__(f"{__name__}.{name}", fromlist=["__all__"])


def __getattr__(name):
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        # each module's __all__ is the one list of its public names
        value = ["__version__"] + [attr for module in _MODULES
                                   for attr in _module(module).__all__]
    else:
        module = next((m for m in map(_module, _MODULES) if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")) | set(_MODULES))
