"""The numerical layer's exception classes, importable without NumPy.

``cli.main`` maps these to exit codes in every stage, so they live apart from
the modules that raise them.  ``solver`` and ``smoothing`` re-export them in
their ``__all__``, where they are documented and imported from.
"""

from __future__ import annotations


class SolverError(RuntimeError):
    """A solve could not be carried out as requested."""


class CFLError(SolverError):
    """Explicit advection step too large for the grid; carries a suggestion."""

    def __init__(self, dt, cfl, limit, suggested_dt):
        self.dt = dt
        self.cfl = cfl
        self.limit = limit
        self.suggested_dt = suggested_dt
        super().__init__(
            f"advective CFL number {cfl:.3g} exceeds limit {limit:.3g} at dt = {dt:.6g}; "
            f"retry with dt <= {suggested_dt:.6g}"
        )


class CoercivityError(SolverError):
    """Diffusion coefficient violates the two-sided ellipticity bound."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.message())


class EmptyReportError(RuntimeError):
    """Every requested derivative order drowned in round-off noise."""


class DegenerateFitError(ValueError):
    """The (d, M_d) data cannot identify the three fit parameters."""
