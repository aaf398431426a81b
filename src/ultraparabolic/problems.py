"""Problem specifications: coefficient presets, JSON schema, builtin catalogue.

A ProblemSpec captures one degenerate-parabolic Cauchy problem

    du/dt + X u + Y u - a(x) * sum_{k<m0} d^2_k u = g,   u(0) = u0,

where X = sum_{k,j} B[k][j] x_k d_j is the linear drift (exact rationals),
Y = sum_{l<m0} b_l(x) d_l + b0(x) collects the bounded first- and zeroth-order
terms supported on the diffused axes, and the diffusion coefficient is the
isotropic matrix a(x) I_{m0} with 1/Lambda <= a <= Lambda.

All spatial coefficients are presets: small declarative recipes (constant,
sine perturbation, Gaussian bump, linear ramp, seeded low-regularity noise)
that evaluate deterministically on any TorusGrid.  Specs serialize to a JSON
document with rational entries written as strings ("3/2"), so a spec round
trips bit-exactly through its canonical JSON form; spec_hash() fingerprints
that form.

Index convention: axes are 0-based everywhere (axis 0 is the first diffused
direction).

Loading, hashing and certifying a spec is exact and loads no NumPy; the
methods that sample a grid import NumPy and ``sobolev`` when they run, and
spec_hash imports ``hashlib`` (OpenSSL) when it runs.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .fieldio import canonical_json
from .vfalgebra import (
    BracketTower,
    LPStructure,
    as_fraction,
    bracket_tower,
    hormander_check,
    lp_bracket_consistency,
    lp_check,
    lp_full_matrix,
    span_decompose,
)

__all__ = [
    "ProblemSpecError",
    "Preset",
    "ConstantPreset",
    "SinPerturbPreset",
    "GaussianPreset",
    "LinearPreset",
    "LowRegularityPreset",
    "preset_from_json",
    "ProblemSpec",
    "builtin_spec_names",
    "load_builtin",
    "load_spec_file",
    "condition_report",
    "coercivity_check",
    "CoercivityReport",
]


class ProblemSpecError(ValueError):
    """A spec document is malformed or internally inconsistent."""


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class Preset:
    """Base class: a deterministic recipe for one scalar coefficient field."""

    kind = "abstract"

    @property
    def is_zero(self) -> bool:
        """Whether the preset is known to vanish identically (a zero constant)."""
        return False

    def evaluate(self, grid: TorusGrid) -> np.ndarray:
        """Grid samples, of length 1 on each axis the field does not vary along.

        They broadcast against grid.shape; a constant has shape (1,) * n.
        """
        raise NotImplementedError

    def spectral(self, grid: TorusGrid) -> SpectralField:
        """Fourier-side form; overridden where exact band limits matter."""
        import numpy as np

        from .sobolev import SpectralField

        values = np.broadcast_to(self.evaluate(grid), grid.shape)
        return SpectralField.from_grid_values(grid, values)

    def to_json_dict(self) -> dict:
        """`kind` and every field in the JSON type of its default: the one preset writer.

        An int stays an int, a float is a float, and a tuple is a list of
        floats, left out while empty; preset_from_json reads the same fields.
        """
        doc = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                if value:
                    doc[f.name] = [float(c) for c in value]
            else:
                doc[f.name] = (int if isinstance(f.default, int) else float)(value)
        return doc


@dataclass(frozen=True)
class ConstantPreset(Preset):
    value: float = 0.0

    kind = "constant"

    def evaluate(self, grid):
        import numpy as np

        return np.full((1,) * grid.n, float(self.value))

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0


@dataclass(frozen=True)
class SinPerturbPreset(Preset):
    """base + amplitude * sin(x_axis / L): periodic on the box by construction."""

    axis: int = 0
    amplitude: float = 0.25
    base: float = 1.0

    kind = "sin_perturb"

    def evaluate(self, grid):
        if not 0 <= self.axis < grid.n:
            raise ProblemSpecError(f"sin_perturb axis {self.axis} out of range for n={grid.n}")
        import numpy as np

        return self.base + self.amplitude * np.sin(grid.coordinate(self.axis) / grid.L)


@dataclass(frozen=True)
class GaussianPreset(Preset):
    """exp(-|x - center|^2 / (2 width^2)); center defaults to the origin."""

    width: float = 1.0
    center: tuple = ()

    kind = "gaussian"

    def evaluate(self, grid):
        if not self.width > 0:
            raise ProblemSpecError("gaussian width must be positive")
        center = self.center or (0.0,) * grid.n
        if len(center) != grid.n:
            raise ProblemSpecError(f"gaussian center has {len(center)} entries, need {grid.n}")
        import numpy as np

        # formed in place, one grid array in all, by the operations of
        # exp(-(0 + d_0^2 + ... + d_{n-1}^2) / (2 width^2)) in their order
        q = np.zeros(grid.shape)
        with np.errstate(over="ignore"):  # an overflowed square is an exact zero below
            for axis, c in enumerate(center):
                q += (grid.coordinate(axis) - float(c)) ** 2
        np.negative(q, out=q)
        q /= 2.0 * self.width**2
        return np.exp(q, out=q)


@dataclass(frozen=True)
class LinearPreset(Preset):
    """slope * x_axis + intercept (a coefficient profile, not a periodic field)."""

    axis: int = 0
    slope: float = 1.0
    intercept: float = 0.0

    kind = "linear"

    def evaluate(self, grid):
        if not 0 <= self.axis < grid.n:
            raise ProblemSpecError(f"linear axis {self.axis} out of range for n={grid.n}")
        return self.slope * grid.coordinate(self.axis) + self.intercept


@dataclass(frozen=True)
class LowRegularityPreset(Preset):
    """Seeded rough data: spectrum ~ <xi>^(-exponent), windowed, re-band-limited.

    The draw is deterministic for a fixed (seed, grid): seeded white noise is
    shaped to the target spectral decay, multiplied by a Gaussian window so the
    field concentrates inside the box, truncated back below half Nyquist, and
    scaled to unit norm in H^{nominal_s}.  The unit normalization matters for
    downstream scale sequences S_d^{1/(d+1)}: an arbitrarily small overall
    amplitude would dominate every (d+1)-th root.
    """

    exponent: float = 0.25
    seed: int = 0
    nominal_s: float = -1.0

    kind = "low_regularity"

    def __post_init__(self):
        if self.seed < 0:
            raise ProblemSpecError(f"low_regularity seed must be >= 0, got {self.seed}")

    def spectral(self, grid):
        import numpy as np

        from .sobolev import SpectralField, hs_norm, random_band_limited

        rng = np.random.default_rng(self.seed)
        rough = random_band_limited(grid, rng, decay=self.exponent)
        window = np.ones(grid.shape)
        # x and sigma in units of 2**e, about L: a power-of-two scale leaves
        # every rounding as it was and keeps the squares finite for any box
        e = math.frexp(grid.L)[1]
        sigma = math.ldexp(np.pi * grid.L / 3.0, -e)
        for axis in range(grid.n):
            x = np.ldexp(grid.coordinate(axis), -e)
            window = window * np.exp(-x**2 / (2.0 * sigma**2))
        values = rough.grid_values().real * window
        coeffs = SpectralField.from_grid_values(grid, values).coeffs
        keep = np.ones(grid.shape, dtype=bool)
        for axis in range(grid.n):
            keep &= np.abs(grid.frequency(axis) * grid.L) < grid.N // 4
        coeffs = np.where(keep, coeffs, 0.0)
        scale = hs_norm(SpectralField(grid, coeffs), self.nominal_s)
        if scale > 0:
            coeffs = coeffs / scale
        return SpectralField(grid, coeffs)

    def evaluate(self, grid):
        return self.spectral(grid).grid_values().real


_PRESETS = {
    cls.kind: cls
    for cls in (ConstantPreset, SinPerturbPreset, GaussianPreset, LinearPreset, LowRegularityPreset)
}


def preset_from_json(doc) -> Preset:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ProblemSpecError(f"preset must be an object with a 'kind' field, got {doc!r}")
    kind = doc["kind"]
    if kind == "zero":
        return ConstantPreset(0.0)
    cls = _PRESETS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProblemSpecError(f"unknown preset kind {kind!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    try:
        params = {k: _parameter(defaults[k], v) for k, v in doc.items() if k != "kind"}
    except KeyError as exc:
        raise ProblemSpecError(f"bad parameters for preset {kind!r}: unknown field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemSpecError(f"bad parameters for preset {kind!r}: {exc}") from exc
    return cls(**params)


def _parameter(default, value):
    """One preset parameter converted to the type of its field's default."""
    if isinstance(default, tuple):
        return tuple(_finite(c) for c in value)
    if isinstance(default, int):
        return _integer(value)
    return _finite(value)


def _integer(value) -> int:
    """``value`` as an int, refusing a JSON boolean (``operator.index`` takes true as 1)."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _finite(value) -> float:
    """``value`` as a float, refusing a JSON boolean, nan and +-inf (no canonical JSON form)."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ProblemSpecError(f"expected a finite number, got {value!r}")
    return x


# ---------------------------------------------------------------------------
# problem specification


def _fraction_matrix(rows, what) -> tuple:
    try:
        return tuple(tuple(as_fraction(Fraction(str(x))) for x in row) for row in rows)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ProblemSpecError(f"{what}: entries must be rationals like '3/2': {exc}") from exc


def _matrix_json(rows) -> list:
    return [[str(x) for x in row] for row in rows]


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    n: int
    m0: int
    B: tuple
    delta: Fraction
    s: float
    T: float
    Lambda: float
    a: Preset
    b: tuple
    b0: Preset
    g: Preset
    u0: Preset
    blocks: tuple | None = None
    N: int | None = None
    L: float | None = None
    _tower_cache: list = field(default_factory=list, init=False, compare=False, repr=False)
    _lp: LPStructure | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        # the name becomes the artifact file stem under --out, so it must be one path component
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(sep in self.name for sep in "/\\\0")):
            raise ProblemSpecError(f"spec name must be a nonempty string other than . and .. "
                                   f"with no path separator or NUL, got {self.name!r}")
        if self.n < 1 or not 1 <= self.m0 <= self.n:
            raise ProblemSpecError(f"need 1 <= m0 <= n, got m0={self.m0}, n={self.n}")
        if self.B is None:
            if self.blocks is None:
                raise ProblemSpecError("either B or blocks must be given")
            object.__setattr__(self, "_lp", lp_check(self.blocks))
            object.__setattr__(self, "B", lp_full_matrix(self._lp))
        if len(self.B) != self.n or any(len(row) != self.n for row in self.B):
            raise ProblemSpecError(f"B must be {self.n}x{self.n}")
        delta = Fraction(self.delta)
        if delta <= 1:
            raise ProblemSpecError(f"delta must be a rational > 1, got {delta}")
        object.__setattr__(self, "delta", delta)
        if not self.T > 0:
            raise ProblemSpecError("final time T must be positive")
        if not self.Lambda >= 1:
            raise ProblemSpecError("ellipticity bound Lambda must be >= 1")
        if len(self.b) != self.m0:
            raise ProblemSpecError(f"b must list one first-order coefficient per diffused axis "
                                   f"({self.m0}), got {len(self.b)}")
        if self.blocks is not None and self._lp is None:  # both given
            object.__setattr__(self, "_lp", lp_check(self.blocks))
            if lp_full_matrix(self._lp) != self.B:
                raise ProblemSpecError("blocks are given but their assembled drift differs from B")
        if self._lp is not None and self._lp.sizes[:1] != (self.m0,):
            raise ProblemSpecError(f"the first block has {self._lp.sizes[0]} rows, but m0 = {self.m0}")
        if self.N is not None and (self.N < 4 or self.N % 2):
            raise ProblemSpecError("grid hint N must be an even integer >= 4")
        if self.L is not None and not self.L > 0:
            raise ProblemSpecError("grid hint L must be positive")

    # -- derived objects ------------------------------------------------------

    def tower(self) -> BracketTower:
        if not self._tower_cache:
            self._tower_cache.append(bracket_tower(self.B, self.m0))
        return self._tower_cache[0]

    def kappa(self) -> float:
        """The time-weight exponent kappa = delta + 2r of the smoothing scales."""
        return float(self.delta) + 2 * self.tower().r

    def lp_structure(self) -> LPStructure | None:
        return self._lp

    def B_float(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.B])

    def default_grid(self, N=None, L=None) -> TorusGrid:
        from .sobolev import TorusGrid

        N = N if N is not None else (self.N if self.N is not None else 32)
        L = L if L is not None else (self.L if self.L is not None else 4.0)
        try:
            return TorusGrid(self.n, int(N), float(L))
        except ValueError as exc:
            raise ProblemSpecError(f"no grid for {self.name}: {exc}") from exc

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "name": self.name,
            "n": self.n,
            "m0": self.m0,
            "B": _matrix_json(self.B),
            "delta": str(self.delta),
            "s": float(self.s),
            "T": float(self.T),
            "Lambda": float(self.Lambda),
            "a": self.a.to_json_dict(),
            "b": [p.to_json_dict() for p in self.b],
            "b0": self.b0.to_json_dict(),
            "g": self.g.to_json_dict(),
            "u0": self.u0.to_json_dict(),
        }
        if self.blocks is not None:
            doc["blocks"] = [_matrix_json(block) for block in self.blocks]
        if self.N is not None or self.L is not None:
            doc["grid"] = {}
            if self.N is not None:
                doc["grid"]["N"] = self.N
            if self.L is not None:
                doc["grid"]["L"] = self.L
        return doc

    @classmethod
    def from_json_dict(cls, doc) -> "ProblemSpec":
        if not isinstance(doc, dict):
            raise ProblemSpecError("spec document must be a JSON object")
        required = {"name", "n", "m0", "B", "delta", "s", "T", "Lambda", "a", "b", "b0", "g", "u0"}
        missing = required - doc.keys()
        if missing:
            raise ProblemSpecError(f"spec is missing fields: {sorted(missing)}")
        known = required | {"blocks", "grid"}
        unknown = doc.keys() - known
        if unknown:
            raise ProblemSpecError(f"spec has unknown fields: {sorted(unknown)}")
        grid = doc.get("grid", {})
        if not isinstance(grid, dict) or grid.keys() - {"N", "L"}:
            raise ProblemSpecError("grid hint must be an object with keys N and/or L")
        try:
            delta = Fraction(str(doc["delta"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemSpecError(f"delta must be a rational like '3/2': {exc}") from exc
        blocks = doc.get("blocks")
        if blocks is not None:
            blocks = tuple(_fraction_matrix(block, "blocks") for block in blocks)
        if not isinstance(doc["b"], list):
            raise ProblemSpecError("b must be a list of presets, one per diffused axis")
        try:
            n, m0 = _integer(doc["n"]), _integer(doc["m0"])
            s, T, Lambda = _finite(doc["s"]), _finite(doc["T"]), _finite(doc["Lambda"])
            N = _integer(grid["N"]) if "N" in grid else None
            L = _finite(grid["L"]) if "L" in grid else None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProblemSpecError(f"n, m0 and grid N must be integers, s, T, Lambda and "
                                   f"grid L finite numbers: {exc}") from exc
        return cls(
            name=doc["name"],
            n=n,
            m0=m0,
            B=_fraction_matrix(doc["B"], "B"),
            delta=delta,
            s=s,
            T=T,
            Lambda=Lambda,
            a=preset_from_json(doc["a"]),
            b=tuple(preset_from_json(p) for p in doc["b"]),
            b0=preset_from_json(doc["b0"]),
            g=preset_from_json(doc["g"]),
            u0=preset_from_json(doc["u0"]),
            blocks=blocks,
            N=N,
            L=L,
        )

    def dumps(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def loads(cls, text: str) -> "ProblemSpec":
        import json

        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
            raise ProblemSpecError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(doc)

    def spec_hash(self) -> str:
        """The first 16 hex digits of the SHA-256 of the canonical JSON form.

        hashlib, which loads OpenSSL, is imported here: a stage that writes
        no manifest (smoothing) never loads it.
        """
        import hashlib

        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# builtin catalogue


def builtin_spec_names() -> list:
    root = resources.files("ultraparabolic") / "specs"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin(name: str) -> ProblemSpec:
    root = resources.files("ultraparabolic") / "specs"
    path = root / f"{name}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ProblemSpecError(
            f"no builtin spec named {name!r}; available: {builtin_spec_names()}"
        ) from None
    return ProblemSpec.loads(text)


def load_spec_file(path) -> ProblemSpec:
    """Load a spec from a file path, falling back to the builtin catalogue."""
    from pathlib import Path

    p = Path(path)
    if p.exists():
        try:
            return ProblemSpec.loads(p.read_text(encoding="utf-8"))
        except ProblemSpecError as exc:
            raise ProblemSpecError(f"{p}: {exc}") from None
    if p.suffix == "" and "/" not in str(path):
        return load_builtin(str(path))
    raise ProblemSpecError(f"spec file not found: {path}")


# ---------------------------------------------------------------------------
# structural condition reports


def condition_report(spec: ProblemSpec) -> dict:
    """Exact structural certificates for one spec, collected for reporting.

    Runs the bracket tower, the spanning check with witness and decomposition
    constant, and (when block data is present) the cascade-structure checks.
    Everything here is exact rational arithmetic; 'satisfied' is a genuine
    theorem about the given matrices, not a numerical observation.
    """
    tower = spec.tower()
    cert = hormander_check(tower)
    report = {
        "spec": spec.name,
        "spec_hash": spec.spec_hash(),
        "n": spec.n,
        "m0": spec.m0,
        "tower_depth": tower.r,
        "rank": cert.rank,
        "satisfied": cert.satisfied,
        "witness": [[p, q] for p, q in cert.witness],
    }
    if cert.satisfied:
        decomp = span_decompose(tower)
        report["K"] = str(decomp.K)
        report["decomposition"] = {
            str(j): {f"({p},{q})": str(c) for (p, q), c in sorted(coeffs.items())}
            for j, coeffs in sorted(decomp.coefficients.items())
        }
    if spec.blocks is not None:
        structure = spec.lp_structure()
        consistency = lp_bracket_consistency(structure)
        report["lp"] = {
            "sizes": list(structure.sizes),
            "depth": structure.depth,
            "consistent": consistency.consistent,
            "left_inverses_exact": True,
        }
    return report


@dataclass(frozen=True)
class CoercivityReport:
    """Sampled ellipticity check for the diffusion coefficient a."""

    ok: bool
    minimum: float
    maximum: float
    bound: float
    worst_point: tuple

    def message(self) -> str:
        if self.ok:
            return (f"coefficient within [1/Lambda, Lambda] = "
                    f"[{1.0 / self.bound:.6g}, {self.bound:.6g}] "
                    f"(observed [{self.minimum:.6g}, {self.maximum:.6g}])")
        return (f"coefficient leaves [{1.0 / self.bound:.6g}, {self.bound:.6g}]: "
                f"range [{self.minimum:.6g}, {self.maximum:.6g}] "
                f"at x = {tuple(round(c, 6) for c in self.worst_point)}")


def coercivity_check(spec: ProblemSpec, grid: TorusGrid | None = None) -> CoercivityReport:
    """Sample a(x) on the grid and test 1/Lambda <= a <= Lambda pointwise."""
    import numpy as np

    grid = grid or spec.default_grid()
    values = spec.a.evaluate(grid)
    lo, hi = float(values.min()), float(values.max())
    bound = float(spec.Lambda)
    tol = 1e-12 * bound
    ok = lo >= 1.0 / bound - tol and hi <= bound + tol
    low_bad = ok or (1.0 / bound - lo) >= (hi - bound)
    target = np.argmin(values) if low_bad else np.argmax(values)
    # unravelled on the sample's own shape: an axis a does not vary along has
    # length 1, index 0, where the full grid's first extremum lies too
    worst_idx = np.unravel_index(int(target), values.shape)
    worst_point = tuple(float(grid.axis_points[i]) for i in worst_idx)
    return CoercivityReport(ok=ok, minimum=lo, maximum=hi, bound=bound, worst_point=worst_point)
