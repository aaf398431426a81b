"""Spectral Sobolev layer: norms, bound-test ratios, exact structural zeros, I/O."""

import json

import numpy as np
import pytest

from ultraparabolic.fieldio import (
    canonical_json,
    read_field,
    write_csv,
    write_field,
    write_json,
)
from ultraparabolic.sobolev import (
    SobolevIndexSet,
    SpectralField,
    TorusGrid,
    commutator_bound_test,
    hs_norm,
    product_bound_test,
    random_band_limited,
    spectral_product,
)


# test-local spectral helpers: no runtime path needs them

def l2_norm(f):
    return float(np.linalg.norm(f.coeffs))


def bessel_apply(field, s):
    """Bessel smoothing operator Lambda^s: multiply coefficients by <xi>^s."""
    return SpectralField(field.grid, field.coeffs * field.grid.bessel_weight(s))


def peetre_gap(grid, s):
    """Max of <xi+eta>^s / (2^|s| <xi>^s <eta>^|s|) over all grid frequency pairs."""
    axes = np.meshgrid(*(grid.axis_modes / grid.L for _ in range(grid.n)), indexing="ij")
    xi = np.stack([a.ravel() for a in axes], axis=-1)  # every frequency, (N^n, n)
    bracket = np.sqrt(1.0 + np.sum(xi**2, axis=1))
    pair_sq = np.sum((xi[:, None, :] + xi[None, :, :]) ** 2, axis=-1)
    lhs = np.power(1.0 + pair_sq, 0.5 * s)
    rhs = (2.0 ** abs(s)) * np.power(bracket[:, None], s) * np.power(bracket[None, :], abs(s))
    return float(np.max(lhs / rhs))


def partial_derivative(f, alpha):
    """Exact spectral derivative d^alpha f: multiply by prod (i xi_j)^alpha_j."""
    out = f.coeffs
    for axis, a in enumerate(alpha):
        if a:
            out = out * (1j * f.grid.frequency(axis)) ** a
    return SpectralField(f.grid, out)


def band_limit_radius(f):
    """Largest |k_i| carrying a nonzero coefficient (max over axes)."""
    modes = f.grid.axis_modes[np.argwhere(f.coeffs != 0)]
    return int(np.abs(modes).max()) if modes.size else 0


def is_conjugate_symmetric(f, tol=1e-14):
    """Whether the field is real-valued: c(-k) = conj(c(k)) within tol."""
    flipped = f.coeffs
    for axis in range(f.grid.n):
        flipped = np.flip(np.roll(flipped, -1, axis=axis), axis=axis)
    scale = max(1.0, float(np.abs(f.coeffs).max()))
    return bool(np.max(np.abs(flipped.conj() - f.coeffs)) <= tol * scale)


# ---------------------------------------------------------------------------
# grids and transforms


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(2, 7)
    with pytest.raises(ValueError):
        TorusGrid(2, 2)
    with pytest.raises(ValueError):
        TorusGrid(0, 8)
    with pytest.raises(ValueError):
        TorusGrid(2, 8, L=0.0)
    for L in (float("nan"), float("inf"), 1e308, 1e-320):  # spacing or 4/L not finite
        with pytest.raises(ValueError):
            TorusGrid(2, 8, L=L)


def test_axis_modes_layout():
    grid = TorusGrid(1, 8)
    assert grid.axis_modes.tolist() == [0, 1, 2, 3, -4, -3, -2, -1]


def test_plancherel_random_field():
    rng = np.random.default_rng(7)
    grid = TorusGrid(2, 16, L=1.5)
    values = rng.standard_normal(grid.shape)
    f = SpectralField.from_grid_values(grid, values)
    # oracle: box-averaged L2 norm computed directly on grid values
    l2_direct = float(np.sqrt(np.mean(np.abs(values) ** 2)))
    assert abs(l2_norm(f) - l2_direct) <= 1e-12 * l2_direct
    assert abs(hs_norm(f, 0.0) - l2_direct) <= 1e-12 * l2_direct


def test_grid_values_round_trip():
    rng = np.random.default_rng(11)
    grid = TorusGrid(3, 8)
    values = rng.standard_normal(grid.shape)
    back = SpectralField.from_grid_values(grid, values).grid_values()
    assert np.max(np.abs(back - values)) <= 1e-12
    assert np.max(np.abs(back.imag)) <= 1e-13


def test_constant_field_norm_is_one():
    grid = TorusGrid(2, 16, L=2.0)
    one = SpectralField.constant(grid)
    assert l2_norm(one) == 1.0
    assert hs_norm(one, 3.7) == 1.0  # zero mode has weight <0> = 1 exactly


def test_single_mode_norm_closed_form():
    grid = TorusGrid(2, 16, L=2.0)
    f = SpectralField.single_mode(grid, (3, -2), amplitude=0.5)
    for s in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.5):
        expected = 0.5 * (1.0 + (3 / 2.0) ** 2 + (2 / 2.0) ** 2) ** (0.5 * s)
        assert abs(hs_norm(f, s) - expected) <= 1e-13 * expected


def test_partial_derivative_matches_closed_form():
    grid = TorusGrid(1, 32, L=1.0)
    x = grid.coordinate(0)
    f = SpectralField.from_grid_values(grid, np.sin(3 * x))
    df = partial_derivative(f, (1,)).grid_values()
    assert np.max(np.abs(df.real - 3 * np.cos(3 * x))) <= 1e-11
    d2 = partial_derivative(f, (2,)).grid_values()
    assert np.max(np.abs(d2.real + 9 * np.sin(3 * x))) <= 1e-10


def test_partial_derivative_mixed_2d():
    grid = TorusGrid(2, 16, L=1.0)
    x, y = grid.coordinate(0), grid.coordinate(1)
    f = SpectralField.from_grid_values(grid, np.sin(2 * x) * np.cos(y))
    dxy = partial_derivative(f, (1, 1)).grid_values()
    oracle = -2 * np.cos(2 * x) * np.sin(y)
    assert np.max(np.abs(dxy.real - oracle)) <= 1e-11


def test_bessel_multiplier_composition():
    rng = np.random.default_rng(3)
    grid = TorusGrid(2, 16)
    f = SpectralField.from_grid_values(grid, rng.standard_normal(grid.shape))
    twice = bessel_apply(bessel_apply(f, 1.25), -2.5)
    once = bessel_apply(f, -1.25)
    diff = hs_norm(twice - once, 0.0)
    assert diff <= 1e-12 * hs_norm(once, 0.0)


def test_bessel_apply_inverts():
    rng = np.random.default_rng(5)
    grid = TorusGrid(1, 32)
    f = SpectralField.from_grid_values(grid, rng.standard_normal(grid.shape))
    back = bessel_apply(bessel_apply(f, 2.0), -2.0)
    assert hs_norm(back - f, 0.0) <= 1e-12 * hs_norm(f, 0.0)


def test_index_set_exponents():
    idx = SobolevIndexSet(2.0, 2)
    assert idx.s0 == abs(2.0 - 1.0) + 1.0 + 2.0
    assert idx.s1 == abs(2.0) + 1.0 + 1.0
    idx = SobolevIndexSet(-1.0, 3)
    assert idx.s0 == 2.0 + 1.5 + 2.0
    assert idx.s1 == 1.0 + 1.5 + 1.0


# ---------------------------------------------------------------------------
# products and commutators


def test_spectral_product_matches_grid_product():
    rng = np.random.default_rng(23)
    grid = TorusGrid(2, 32)
    h = random_band_limited(grid, rng, decay=1.0)
    f = random_band_limited(grid, rng, decay=2.0)
    conv = spectral_product(h, f)
    # oracle: pointwise multiplication of the grid samples (alias-free here)
    direct = SpectralField.from_grid_values(
        grid, h.grid_values().real * f.grid_values().real
    )
    scale = max(l2_norm(conv), 1e-30)
    assert l2_norm(conv - direct) <= 1e-12 * scale


def test_spectral_product_rejects_wide_band():
    grid = TorusGrid(1, 16)
    wide = SpectralField.single_mode(grid, (4,))  # N//4 = 4 not allowed
    ok = SpectralField.single_mode(grid, (3,))
    with pytest.raises(ValueError):
        spectral_product(wide, ok)
    spectral_product(ok, ok)  # radius 3 < 4 passes


def test_band_limit_radius():
    grid = TorusGrid(2, 32)
    f = SpectralField.single_mode(grid, (3, -5))
    assert band_limit_radius(f) == 5
    assert band_limit_radius(SpectralField.zero(grid)) == 0


def test_product_ratio_constant_multiplier_exactly_one():
    rng = np.random.default_rng(2)
    grid = TorusGrid(2, 16)
    f = random_band_limited(grid, rng)
    one = SpectralField.constant(grid)
    for s in (-2.0, 0.0, 1.0, 3.0):
        report = product_bound_test(one, f, s)
        assert report.ratio == 1.0


def test_commutator_constant_multiplier_exact_zero():
    rng = np.random.default_rng(4)
    grid = TorusGrid(2, 16)
    f = random_band_limited(grid, rng)
    one = SpectralField.constant(grid, value=2.25)
    for s in (-1.0, 0.5, 2.0):
        report = commutator_bound_test(one, f, s)
        assert report.numerator == 0.0
        assert report.ratio == 0.0


def test_commutator_s_zero_exact_zero():
    rng = np.random.default_rng(6)
    grid = TorusGrid(2, 16)
    h = random_band_limited(grid, rng)
    f = random_band_limited(grid, rng)
    report = commutator_bound_test(h, f, 0.0)
    assert report.numerator == 0.0


def test_commutator_matches_direct_operator():
    # oracle: build [h, Lambda^s] f literally as h*(Lambda^s f) - Lambda^s(h*f)
    rng = np.random.default_rng(8)
    grid = TorusGrid(2, 32)
    h = random_band_limited(grid, rng, decay=1.5)
    f = random_band_limited(grid, rng, decay=1.5)
    s = 1.5
    direct = spectral_product(h, bessel_apply(f, s)) - bessel_apply(spectral_product(h, f), s)
    report = commutator_bound_test(h, f, s)
    assert abs(report.numerator - l2_norm(direct)) <= 1e-12 * max(l2_norm(direct), 1e-30)


def test_commutator_gains_one_derivative():
    # the ratio against ||f||_{H^(s-1)} must stay bounded as f roughens,
    # while the naive ratio against ||f||_{H^s} shrinks: check monotone gap
    rng = np.random.default_rng(9)
    grid = TorusGrid(1, 64)
    h = random_band_limited(grid, rng, decay=3.0, band=4)
    s = 2.0
    ratios = []
    for mode in (3, 7, 13):
        f = SpectralField.single_mode(grid, (mode,))
        ratios.append(commutator_bound_test(h, f, s).ratio)
    assert max(ratios) <= 10.0 * min(ratios)  # bounded, no blow-up with frequency


@pytest.mark.parametrize("grid", [TorusGrid(1, 32, L=0.75), TorusGrid(3, 16, L=1.5)],
                         ids=["1d", "3d"])
def test_commutator_exact_zeros_in_one_and_three_dimensions(grid):
    rng = np.random.default_rng(14)
    h = random_band_limited(grid, rng)
    f = random_band_limited(grid, rng)
    one = SpectralField.constant(grid, value=-1.75)
    for s in (-1.0, 0.5, 2.0):
        assert commutator_bound_test(one, f, s).numerator == 0.0
    assert commutator_bound_test(h, f, 0.0).numerator == 0.0


# ---------------------------------------------------------------------------
# reference: the full-grid lattice sums, one np.roll of the whole grid per term


def _reference_product(h, f):
    a, b = h.coeffs, f.coeffs
    if np.count_nonzero(b) < np.count_nonzero(a):
        a, b = b, a
    out = np.zeros(h.grid.shape, dtype=np.complex128)
    axes = tuple(range(h.grid.n))
    for idx in np.argwhere(a != 0):
        out += a[tuple(idx)] * np.roll(b, idx, axis=axes)
    return out


def _reference_commutator_numerator(h, f, s):
    grid = h.grid
    m = grid.bessel_weight(s)
    mf = m * f.coeffs
    acc = np.zeros(grid.shape, dtype=np.complex128)
    axes = tuple(range(grid.n))
    for idx in np.argwhere(h.coeffs != 0):
        shifted_mf = np.roll(mf, idx, axis=axes)
        shifted_f = np.roll(f.coeffs, idx, axis=axes)
        acc += h.coeffs[tuple(idx)] * (shifted_mf - m * shifted_f)
    return float(np.linalg.norm(acc))


def _sparse_wide(grid, rng, radius):
    """Three modes, one at |k_i| = radius: sparser than a dense field of smaller radius."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for k in ((radius,) + (0,) * (grid.n - 1), (1,) * grid.n, (-radius,) * grid.n):
        coeffs[tuple(int(m) % grid.N for m in k)] = rng.standard_normal() + 1j * rng.standard_normal()
    return SpectralField(grid, coeffs)


def _zero_pad(field):
    """The same trigonometric polynomial on the grid with twice the points."""
    grid = field.grid
    fine = TorusGrid(grid.n, 2 * grid.N, grid.L)
    modes = grid.axis_modes % fine.N
    coeffs = np.zeros(fine.shape, dtype=np.complex128)
    coeffs[np.ix_(*(modes,) * grid.n)] = field.coeffs
    return SpectralField(fine, coeffs)


# (grid, band of h, band of f): dense draws with r_h < r_f and r_h > r_f;
# band 0 means the sparse three-mode field of radius one below the limit
_BOX_CASES = [
    (TorusGrid(1, 32, L=1.0), 3, 7),
    (TorusGrid(1, 32, L=1.0), 7, 3),
    (TorusGrid(2, 32, L=2.0), 2, 6),
    (TorusGrid(2, 32, L=2.0), 6, 2),
    (TorusGrid(2, 32, L=2.0), 0, 3),
    (TorusGrid(2, 32, L=2.0), 3, 0),
    (TorusGrid(3, 16, L=0.5), 2, 4),
    (TorusGrid(3, 16, L=0.5), 4, 2),
    (TorusGrid(3, 16, L=0.5), 0, 2),
]


def _draw(grid, rng, band):
    if band == 0:
        return _sparse_wide(grid, rng, grid.N // 4 - 1)
    return random_band_limited(grid, rng, decay=1.0, band=band)


@pytest.mark.parametrize("grid, band_h, band_f", _BOX_CASES)
def test_box_sums_equal_full_grid_reference(grid, band_h, band_f):
    rng = np.random.default_rng(31 * grid.n + band_h)
    h, f = _draw(grid, rng, band_h), _draw(grid, rng, band_f)
    assert np.array_equal(spectral_product(h, f).coeffs, _reference_product(h, f))
    for s in (-1.0, 0.0, 0.5, 2.0):
        numerator = commutator_bound_test(h, f, s).numerator
        reference = _reference_commutator_numerator(h, f, s)
        assert abs(numerator - reference) <= 1e-15 * reference, s


@pytest.mark.parametrize("grid, band_h, band_f", _BOX_CASES)
def test_box_sums_unchanged_by_zero_padding(grid, band_h, band_f):
    rng = np.random.default_rng(37 * grid.n + band_f)
    h, f = _draw(grid, rng, band_h), _draw(grid, rng, band_f)
    hf, ff = _zero_pad(h), _zero_pad(f)
    assert np.array_equal(spectral_product(hf, ff).coeffs, _zero_pad(spectral_product(h, f)).coeffs)
    for s in (-1.0, 0.5, 2.0):
        assert commutator_bound_test(hf, ff, s).numerator == commutator_bound_test(h, f, s).numerator


def test_zero_inputs_rejected():
    grid = TorusGrid(1, 16)
    z = SpectralField.zero(grid)
    f = SpectralField.single_mode(grid, (1,))
    with pytest.raises(ValueError):
        commutator_bound_test(z, f, 1.0)
    with pytest.raises(ValueError):
        product_bound_test(f, z, 1.0)


def test_conjugate_symmetry_preserved_by_operations():
    rng = np.random.default_rng(12)
    grid = TorusGrid(2, 16)
    h = random_band_limited(grid, rng)
    f = random_band_limited(grid, rng)
    assert is_conjugate_symmetric(h)
    assert is_conjugate_symmetric(bessel_apply(f, 1.5))
    assert is_conjugate_symmetric(spectral_product(h, f))
    assert is_conjugate_symmetric(partial_derivative(f, (1, 0)))
    assert is_conjugate_symmetric(h + f)


def test_peetre_inequality_on_grid_frequencies():
    for grid in (TorusGrid(1, 32, L=1.0), TorusGrid(2, 12, L=2.0)):
        for s in (-2.0, -1.0, 1.0, 2.0):
            assert peetre_gap(grid, s) <= 1.0 + 1e-12


def test_random_band_limited_properties():
    rng = np.random.default_rng(13)
    grid = TorusGrid(2, 32)
    f = random_band_limited(grid, rng, decay=2.0, band=5)
    assert band_limit_radius(f) < 5
    assert is_conjugate_symmetric(f)
    assert np.max(np.abs(f.grid_values().imag)) <= 1e-13


# ---------------------------------------------------------------------------
# serialization


def test_field_binary_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    grid = TorusGrid(2, 16, L=1.25)
    f = random_band_limited(grid, rng)
    path = tmp_path / "field.upf"
    write_field(path, f)
    g = read_field(path)
    assert g.grid == grid
    assert np.array_equal(g.coeffs, f.coeffs)  # complex128 is bit-exact


def test_field_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.upf"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(ValueError):
        read_field(path)
    path.write_bytes(b"UP")
    with pytest.raises(ValueError):
        read_field(path)


def test_field_binary_rejects_truncated_payload(tmp_path):
    grid = TorusGrid(1, 8)
    f = SpectralField.single_mode(grid, (1,))
    path = tmp_path / "f.upf"
    write_field(path, f)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_field(path)


def test_canonical_json_deterministic(tmp_path):
    a = {"zeta": 1.5, "alpha": [1, 2, {"y": 0.1, "x": np.float64(2.0)}]}
    b = {"alpha": [1, 2, {"x": 2.0, "y": 0.1}], "zeta": 1.5}
    assert canonical_json(a) == canonical_json(b)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, a)
    write_json(p2, b)
    assert p1.read_bytes() == p2.read_bytes()
    parsed = json.loads(p1.read_text())
    assert parsed["alpha"][2]["x"] == 2.0


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_csv_writer_repr_floats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["d", "value"], [(0, 0.1), (1, 2.0), (2, np.float64(0.25))])
    assert path.read_text() == "d,value\n0,0.1\n1,2.0\n2,0.25\n"
