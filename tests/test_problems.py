"""Problem specs: preset evaluation, JSON round trips, validation, reports."""

from fractions import Fraction

import numpy as np
import pytest

from ultraparabolic.problems import (
    CoercivityReport,
    ConstantPreset,
    GaussianPreset,
    LinearPreset,
    LowRegularityPreset,
    ProblemSpec,
    ProblemSpecError,
    SinPerturbPreset,
    builtin_spec_names,
    coercivity_check,
    condition_report,
    load_builtin,
    load_spec_file,
    preset_from_json,
)
from ultraparabolic.sobolev import SpectralField, TorusGrid, hs_norm

ALL_BUILTINS = (
    "brownian-inertia",
    "chain3",
    "fokkerplanck",
    "heat",
    "kolmogorov-general",
    "kolmogorov2d",
    "kolmogorov2d-lowreg",
    "lp-block",
)


# ---------------------------------------------------------------------------
# presets


def test_builtin_catalogue_complete():
    assert tuple(builtin_spec_names()) == ALL_BUILTINS


def test_constant_preset():
    grid = TorusGrid(2, 8)
    vals = ConstantPreset(2.5).evaluate(grid)
    assert vals.shape == grid.shape
    assert np.all(vals == 2.5)
    assert ConstantPreset(0.0).is_zero
    assert ConstantPreset(0.0).depends_axes(2) == frozenset()


def test_only_a_zero_constant_preset_is_zero():
    assert ConstantPreset(0.0).is_zero and not ConstantPreset(1e-300).is_zero
    for p in (SinPerturbPreset(), GaussianPreset(), LinearPreset(),
              LowRegularityPreset()):
        assert not p.is_zero


def test_sin_perturb_matches_formula():
    grid = TorusGrid(2, 16, L=2.0)
    p = SinPerturbPreset(axis=1, amplitude=0.25, base=1.0)
    vals = p.evaluate(grid)
    oracle = 1.0 + 0.25 * np.sin(grid.coordinate(1) / 2.0)
    assert np.array_equal(vals, oracle)
    assert p.depends_axes(2) == {1}
    with pytest.raises(ProblemSpecError):
        SinPerturbPreset(axis=5).evaluate(grid)


def test_gaussian_matches_formula():
    grid = TorusGrid(2, 16, L=3.0)
    p = GaussianPreset(width=0.75, center=(1.0, -0.5))
    vals = p.evaluate(grid)
    x, y = grid.coordinate(0), grid.coordinate(1)
    oracle = np.exp(-((x - 1.0) ** 2 + (y + 0.5) ** 2) / (2 * 0.75**2))
    assert np.max(np.abs(vals - oracle)) == 0.0
    assert p.depends_axes(2) is None
    with pytest.raises(ProblemSpecError):
        GaussianPreset(width=0.5, center=(1.0,)).evaluate(grid)
    with pytest.raises(ProblemSpecError):
        GaussianPreset(width=0.0).evaluate(grid)


def test_linear_matches_coordinate():
    grid = TorusGrid(3, 8, L=2.0)
    p = LinearPreset(axis=2, slope=-1.5, intercept=0.25)
    assert np.array_equal(p.evaluate(grid), -1.5 * grid.coordinate(2) + 0.25)
    assert p.depends_axes(3) == {2}


def test_low_regularity_deterministic_band_limited_normalized():
    grid = TorusGrid(2, 32, L=4.0)
    p = LowRegularityPreset(exponent=0.25, seed=7)
    a = p.evaluate(grid)
    b = p.evaluate(grid)
    assert np.array_equal(a, b)
    f = p.spectral(grid)
    assert abs(hs_norm(f, p.nominal_s) - 1.0) <= 1e-12
    assert f.band_limit_radius() < grid.N // 4
    assert np.max(np.abs(f.grid_values().real - a)) <= 1e-14
    c = LowRegularityPreset(exponent=0.25, seed=8).evaluate(grid)
    assert not np.array_equal(a, c)


def test_low_regularity_normalization_index_is_adjustable():
    grid = TorusGrid(2, 32, L=4.0)
    p = LowRegularityPreset(exponent=0.25, seed=7, nominal_s=0.5)
    assert abs(hs_norm(p.spectral(grid), 0.5) - 1.0) <= 1e-12
    assert p.to_json_dict()["nominal_s"] == 0.5


def test_preset_json_round_trips():
    presets = [
        ConstantPreset(1.5),
        SinPerturbPreset(axis=1, amplitude=0.1, base=2.0),
        GaussianPreset(width=0.4, center=(0.5, -1.0)),
        GaussianPreset(width=0.4),
        LinearPreset(axis=0, slope=-1.0, intercept=0.5),
        LowRegularityPreset(exponent=0.5, seed=42),
    ]
    for p in presets:
        assert preset_from_json(p.to_json_dict()) == p


def test_preset_json_rejects_bad_input():
    assert preset_from_json({"kind": "zero"}) == ConstantPreset(0.0)
    with pytest.raises(ProblemSpecError):
        preset_from_json({"kind": "mystery"})
    with pytest.raises(ProblemSpecError):
        preset_from_json({"value": 1.0})
    with pytest.raises(ProblemSpecError):
        preset_from_json({"kind": "gaussian", "widht": 1.0})


# ---------------------------------------------------------------------------
# spec round trips and validation


def test_all_builtins_round_trip():
    for name in ALL_BUILTINS:
        spec = load_builtin(name)
        assert spec.name == name
        again = ProblemSpec.loads(spec.dumps())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()


def test_builtin_files_are_canonical():
    # shipped JSON must be byte-identical to the canonical dump of its own parse
    from importlib import resources

    root = resources.files("ultraparabolic") / "specs"
    for name in ALL_BUILTINS:
        text = (root / f"{name}.json").read_text(encoding="utf-8")
        assert ProblemSpec.loads(text).dumps() == text


def test_spec_hash_tracks_content():
    spec = load_builtin("kolmogorov2d")
    import dataclasses

    other = dataclasses.replace(spec, T=2.0)
    assert other.spec_hash() != spec.spec_hash()


def test_replaced_drift_gets_its_own_tower():
    import dataclasses

    spec = load_builtin("kolmogorov2d")
    assert spec.tower().r == 1
    zero = tuple(tuple(Fraction(0) for _ in row) for row in spec.B)
    replaced = dataclasses.replace(spec, B=zero)
    assert replaced.tower().r == 0
    assert spec.tower().r == 1


def test_unknown_builtin_rejected():
    with pytest.raises(ProblemSpecError):
        load_builtin("nonexistent")


def test_load_spec_file(tmp_path):
    spec = load_builtin("chain3")
    path = tmp_path / "my.json"
    path.write_text(spec.dumps())
    assert load_spec_file(path) == spec
    assert load_spec_file("chain3") == spec  # bare name falls back to builtin
    with pytest.raises(ProblemSpecError):
        load_spec_file(tmp_path / "missing.json")


def _doc(**overrides):
    doc = load_builtin("kolmogorov2d").to_json_dict()
    doc.update(overrides)
    return doc


def test_validation_rejects_bad_documents():
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(m0=3))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(B=[["0", "1"]]))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(delta="1"))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(delta="2/0"))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(T=0.0))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(Lambda=0.5))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(b=[]))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(B=[["0", "x"], ["0", "0"]]))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(extra_field=1))
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(_doc(grid={"N": 7}))
    doc = _doc()
    del doc["u0"]
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(doc)
    with pytest.raises(ProblemSpecError):
        ProblemSpec.loads("not json")


def test_blocks_must_match_drift():
    doc = load_builtin("lp-block").to_json_dict()
    doc["B"][0][2] = "5"  # tamper: no longer the assembled cascade
    with pytest.raises(ProblemSpecError):
        ProblemSpec.from_json_dict(doc)


def test_blocks_assemble_drift_when_B_omitted():
    spec = load_builtin("lp-block")
    F = Fraction
    assert spec.B[0][2] == F(1)
    assert spec.B[1][2] == F(2)
    assert spec.B[2][3] == F(3)
    assert sum(1 for row in spec.B for x in row if x) == 3


def test_default_grid_hints_and_overrides():
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid()
    assert (grid.n, grid.N, grid.L) == (6, 8, 3.4)
    assert spec.default_grid(N=12).N == 12
    assert spec.default_grid(L=5.0).L == 5.0


def test_lower_order_term_detection():
    assert not load_builtin("kolmogorov2d").has_lower_order_terms()
    assert load_builtin("fokkerplanck").has_lower_order_terms()
    assert load_builtin("brownian-inertia").has_lower_order_terms()


# ---------------------------------------------------------------------------
# structural reports


def test_condition_report_kolmogorov():
    rep = condition_report(load_builtin("kolmogorov2d"))
    assert rep["satisfied"] is True
    assert rep["tower_depth"] == 1
    assert rep["rank"] == 2
    assert rep["witness"] == [[0, 0], [0, 1]]
    assert rep["K"] == "2"
    assert rep["decomposition"]["1"] == {"(0,1)": "1"}


def test_condition_report_heat_no_brackets_needed():
    rep = condition_report(load_builtin("heat"))
    assert rep["satisfied"] is True
    assert rep["tower_depth"] == 0
    assert rep["K"] == "1"
    assert rep["decomposition"] == {}


def test_condition_report_lp_block():
    rep = condition_report(load_builtin("lp-block"))
    assert rep["satisfied"] is True
    assert rep["lp"] == {
        "sizes": [2, 1, 1],
        "depth": 2,
        "consistent": True,
        "left_inverses_exact": True,
    }


def test_condition_report_all_builtins_satisfied():
    for name in ALL_BUILTINS:
        rep = condition_report(load_builtin(name))
        assert rep["satisfied"] is True, name
        assert rep["rank"] == rep["n"], name


def test_coercivity_accepts_builtins():
    for name in ALL_BUILTINS:
        report = coercivity_check(load_builtin(name))
        assert isinstance(report, CoercivityReport)
        assert report.ok, (name, report.message())


def test_coercivity_flags_violation():
    import dataclasses

    spec = dataclasses.replace(
        load_builtin("kolmogorov2d"), a=SinPerturbPreset(axis=0, amplitude=1.5, base=1.0)
    )
    report = coercivity_check(spec)
    assert not report.ok
    assert report.minimum < 1.0 / spec.Lambda
    assert len(report.worst_point) == spec.n
    assert "leaves" in report.message()


def test_float_drift_and_vector_field():
    spec = load_builtin("kolmogorov2d")
    B = spec.B_float()
    assert B.tolist() == [[0.0, 1.0], [0.0, 0.0]]
    X = spec.drift_vector_field()
    assert X.constant_row() is None or True  # drift is genuinely linear, not constant
    tower = spec.tower()
    assert tower.r == 1
