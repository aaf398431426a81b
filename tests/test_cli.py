"""End-to-end tests for the command-line pipeline.

Everything runs in-process through `main(argv)` so exit codes and artifacts
can be asserted without subprocess overhead.  Grids are kept small; the
heavyweight configurations live in the acceptance suite.
"""

import json

import numpy as np
import pytest

from ultraparabolic.cli import (
    EXIT_CONDITION,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    main,
)
from ultraparabolic.fieldio import read_field


def run(*argv):
    return main(list(argv))


def write_spec(tmp_path, name="toy", **overrides):
    doc = {
        "name": name,
        "n": 2,
        "m0": 1,
        "B": [["0", "1"], ["0", "0"]],
        "delta": "3/2",
        "s": 0.0,
        "T": 0.5,
        "Lambda": 2.0,
        "a": {"kind": "constant", "value": 1.0},
        "b": [{"kind": "constant", "value": 0.0}],
        "b0": {"kind": "constant", "value": 0.0},
        "g": {"kind": "constant", "value": 0.0},
        "u0": {"kind": "gaussian", "width": 0.5},
        "grid": {"N": 16, "L": 2.0},
    }
    doc.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parser plumbing


def test_parser_rejects_bad_knobs():
    parser = build_parser()
    for argv in (
        ["check"],                                      # --spec required
        ["solve", "--spec", "heat", "--grid", "-4"],
        ["solve", "--spec", "heat", "--dt", "0"],
        ["verify", "--spec", "heat", "--delta", "nonsense"],
        ["verify", "--spec", "heat", "--delta", "-1/2"],
        ["bogus-subcommand"],
    ):
        with pytest.raises(SystemExit) as err:
            parser.parse_args(argv)
        assert err.value.code == EXIT_IO, argv


def test_missing_spec_exits_with_io_code(tmp_path):
    assert run("check", "--spec", "no-such-name", "--out", str(tmp_path)) == EXIT_IO
    assert run("check", "--spec", str(tmp_path / "ghost.json"),
               "--out", str(tmp_path)) == EXIT_IO


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("overrides, grid", [
    ({}, "5"),
    ({"n": "two"}, None),
    ({"T": "soon"}, None),
    ({"a": {"kind": "constant", "value": "x"}}, None),
    ({"u0": {"kind": "gaussian", "width": 0.5, "center": 5}}, None),
    ({"a": {"kind": "linear", "axis": "first"}}, None),
    ({"n": 2.7}, None),
    ({"m0": 1.5}, None),
    ({"grid": {"N": 16.5, "L": 2.0}}, None),
])
def test_bad_input_exits_with_io_code(tmp_path, overrides, grid):
    spec = write_spec(tmp_path, **overrides)
    argv = ["solve", "--spec", str(spec), "--out", str(tmp_path)]
    if grid is not None:
        argv += ["--grid", grid]
    assert _exit_code(argv) == EXIT_IO


def test_malformed_json_exits_with_io_code(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert run("check", "--spec", str(bad), "--out", str(tmp_path)) == EXIT_IO


# ---------------------------------------------------------------------------
# check


def test_check_writes_certificate_and_passes(tmp_path):
    assert run("check", "--spec", "kolmogorov2d", "--out", str(tmp_path)) == EXIT_OK
    doc = json.loads((tmp_path / "kolmogorov2d.check.json").read_text())
    assert doc["satisfied"] is True
    assert doc["tower_depth"] == 1
    assert doc["rank"] == 2
    assert doc["all_conditions_hold"] is True
    assert "decomposition" in doc and "K" in doc
    assert (tmp_path / "run_meta.json").exists()


def test_check_block_structure_included_for_block_spec(tmp_path):
    assert run("check", "--spec", "lp-block", "--out", str(tmp_path)) == EXIT_OK
    doc = json.loads((tmp_path / "lp-block.check.json").read_text())
    assert doc["lp"]["consistent"] is True
    assert doc["lp"]["left_inverses_exact"] is True


def test_check_fails_when_tower_does_not_span(tmp_path):
    spec = write_spec(tmp_path, name="flat", B=[["0", "0"], ["0", "0"]])
    assert run("check", "--spec", str(spec), "--out", str(tmp_path)) == EXIT_CONDITION
    doc = json.loads((tmp_path / "flat.check.json").read_text())
    assert doc["satisfied"] is False and doc["rank"] == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_all_identities_pass(tmp_path):
    assert run("verify", "--spec", "kolmogorov2d", "--out", str(tmp_path),
               "--dmax", "2", "--seed", "5") == EXIT_OK
    doc = json.loads((tmp_path / "kolmogorov2d.verify.json").read_text())
    assert doc["all_passed"] is True
    assert doc["passed"] == doc["total"] == len(doc["cases"])
    kinds = {c["kind"] for c in doc["cases"]}
    assert kinds == {"closed_vs_recursive", "commutator_identity", "inversion"}
    draws = [c for c in doc["cases"] if c["kind"] == "commutator_identity"]
    # 3 default deltas x m0=1 x d in {1,2} x 5 draws
    assert len(draws) == 30
    assert all("f" in c for c in draws)


def test_verify_honors_delta_flag(tmp_path):
    assert run("verify", "--spec", "chain3", "--out", str(tmp_path),
               "--dmax", "1", "--delta", "5/2") == EXIT_OK
    doc = json.loads((tmp_path / "chain3.verify.json").read_text())
    assert doc["deltas"] == ["5/2"]


def test_verify_seed_changes_draws_not_verdict(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for seed, out in (("1", a), ("2", b)):
        assert run("verify", "--spec", "kolmogorov2d", "--out", str(out),
                   "--dmax", "1", "--seed", seed) == EXIT_OK
    da = json.loads((a / "kolmogorov2d.verify.json").read_text())
    db = json.loads((b / "kolmogorov2d.verify.json").read_text())
    assert da["all_passed"] and db["all_passed"]
    fa = [c["f"] for c in da["cases"] if c["kind"] == "commutator_identity"]
    fb = [c["f"] for c in db["cases"] if c["kind"] == "commutator_identity"]
    assert fa != fb


def test_verify_requires_spanning_tower(tmp_path):
    spec = write_spec(tmp_path, name="flat", B=[["0", "0"], ["0", "0"]])
    assert run("verify", "--spec", str(spec), "--out", str(tmp_path)) == EXIT_CONDITION


# ---------------------------------------------------------------------------
# solve


def test_solve_exact_route_artifacts(tmp_path):
    spec = write_spec(tmp_path)
    assert run("solve", "--spec", str(spec), "--out", str(tmp_path),
               "--tgrid", "9") == EXIT_OK
    doc = json.loads((tmp_path / "toy.solve.json").read_text())
    assert doc["method"] == "exact"
    assert doc["grid"] == {"n": 2, "N": 16, "L": 2.0}
    assert len(doc["field_files"]) == 9
    assert np.isfinite(doc["residual_max"])
    assert doc["energy_max_ratio"] >= 1.0
    field = read_field(tmp_path / doc["field_files"][0])
    assert field.grid.N == 16
    energy_lines = (tmp_path / "toy.energy.csv").read_text().splitlines()
    assert energy_lines[0] == "time,energy,ratio"
    assert len(energy_lines) == 10
    residual_lines = (tmp_path / "toy.residual.csv").read_text().splitlines()
    assert residual_lines[0] == "time,residual"
    assert len(residual_lines) == 6  # five-point stencil drops two at each end


def test_solve_variable_coefficient_takes_fd_route(tmp_path):
    spec = write_spec(tmp_path, name="varying",
                      a={"kind": "sin_perturb", "axis": 0,
                         "amplitude": 0.25, "base": 1.0})
    assert run("solve", "--spec", str(spec), "--out", str(tmp_path),
               "--tgrid", "5") == EXIT_OK
    doc = json.loads((tmp_path / "varying.solve.json").read_text())
    assert doc["method"] == "fd"
    assert doc["dt"] is not None and doc["cfl"] is not None
    assert doc["boundary_fraction_max"] < 0.01
    assert np.isfinite(doc["energy_max_ratio"])


def test_solve_grid_and_box_overrides(tmp_path):
    spec = write_spec(tmp_path)
    assert run("solve", "--spec", str(spec), "--out", str(tmp_path),
               "--grid", "24", "--box", "3.0") == EXIT_OK
    doc = json.loads((tmp_path / "toy.solve.json").read_text())
    assert doc["grid"] == {"n": 2, "N": 24, "L": 3.0}


def test_solve_residual_gate(tmp_path):
    spec = write_spec(tmp_path)
    # coarse snapshots: stencil truncation dominates, so an absurd gate trips
    assert run("solve", "--spec", str(spec), "--out", str(tmp_path),
               "--tol", "1e-12") == EXIT_CONDITION
    doc = json.loads((tmp_path / "toy.solve.json").read_text())
    assert doc["residual_within_tol"] is False
    # artifacts are still written for inspection
    assert (tmp_path / "toy.energy.csv").exists()


def test_solve_rejects_vanishing_diffusion(tmp_path):
    spec = write_spec(tmp_path, name="bad-a",
                      a={"kind": "sin_perturb", "axis": 0,
                         "amplitude": 1.5, "base": 1.0})
    assert run("solve", "--spec", str(spec), "--out", str(tmp_path)) == EXIT_NUMERICAL


def test_solve_cfl_abort(tmp_path):
    assert run("solve", "--spec", "brownian-inertia", "--out", str(tmp_path),
               "--dt", "0.5") == EXIT_NUMERICAL


def test_solve_tgrid_too_small_for_residual(tmp_path):
    spec = write_spec(tmp_path)
    assert run("solve", "--spec", str(spec), "--out", str(tmp_path),
               "--tgrid", "3") == EXIT_IO


# ---------------------------------------------------------------------------
# smoothing


def test_smoothing_artifacts(tmp_path):
    assert run("smoothing", "--spec", "kolmogorov2d", "--out", str(tmp_path),
               "--grid", "32", "--dmax", "4", "--tgrid", "7") == EXIT_OK
    doc = json.loads((tmp_path / "kolmogorov2d.smoothing.json").read_text())
    assert [o["d"] for o in doc["orders"]] == [0, 1, 2, 3, 4]
    assert doc["empirical_L"] > 0
    assert doc["kappa"] == pytest.approx(3.5)
    csv_lines = (tmp_path / "kolmogorov2d.smoothing.csv").read_text().splitlines()
    assert csv_lines[0] == "d,S_d,L_d,argmax_alpha,argmax_t"
    assert len(csv_lines) == 6
    # alpha cells are space-separated multi-indices of length n
    assert all(len(line.split(",")[3].split()) == 2 for line in csv_lines[1:])


def test_smoothing_zero_data_reports_zero_scales(tmp_path):
    spec = write_spec(tmp_path, name="null", u0={"kind": "zero"})
    assert run("smoothing", "--spec", str(spec), "--out", str(tmp_path),
               "--dmax", "3", "--tgrid", "5") == EXIT_OK
    doc = json.loads((tmp_path / "null.smoothing.json").read_text())
    assert all(o["S_d"] == 0.0 for o in doc["orders"])
    assert doc["gevrey_fit"] is None


# ---------------------------------------------------------------------------
# report


def test_report_aggregates_and_passes(tmp_path):
    for argv in (
        ["check", "--spec", "kolmogorov2d", "--out", str(tmp_path)],
        ["verify", "--spec", "kolmogorov2d", "--out", str(tmp_path), "--dmax", "1"],
        ["solve", "--spec", "kolmogorov2d", "--out", str(tmp_path), "--grid", "16"],
        ["smoothing", "--spec", "kolmogorov2d", "--out", str(tmp_path),
         "--grid", "16", "--dmax", "3", "--tgrid", "5"],
    ):
        assert main(argv) == EXIT_OK
    assert run("report", "--spec", "kolmogorov2d", "--out", str(tmp_path)) == EXIT_OK
    doc = json.loads((tmp_path / "kolmogorov2d.report.json").read_text())
    assert doc["all_passed"] is True
    assert set(doc["verdicts"]) == {"check", "verify", "solve", "smoothing"}
    assert doc["headline"]["tower_depth"] == 1
    assert doc["headline"]["identities_passed"] == doc["headline"]["identities_total"]


def test_report_flags_failed_component(tmp_path):
    spec = write_spec(tmp_path, name="flat", B=[["0", "0"], ["0", "0"]])
    assert run("check", "--spec", str(spec), "--out", str(tmp_path)) == EXIT_CONDITION
    assert run("report", "--spec", str(spec), "--out", str(tmp_path)) == EXIT_CONDITION
    doc = json.loads((tmp_path / "flat.report.json").read_text())
    assert doc["verdicts"]["check"] is False and doc["all_passed"] is False


def test_report_fails_smoothing_without_reliable_orders(tmp_path):
    spec = write_spec(tmp_path)
    assert run("smoothing", "--spec", str(spec), "--out", str(tmp_path),
               "--dmax", "3", "--tgrid", "5") == EXIT_OK
    path = tmp_path / "toy.smoothing.json"
    doc = json.loads(path.read_text())
    for order in doc["orders"]:
        order["reliable"] = False
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run("report", "--spec", str(spec), "--out", str(tmp_path)) == EXIT_CONDITION
    report = json.loads((tmp_path / "toy.report.json").read_text())
    assert report["verdicts"]["smoothing"] is False


def test_report_with_no_artifacts_is_an_io_error(tmp_path):
    assert run("report", "--spec", "heat", "--out", str(tmp_path)) == EXIT_IO


# ---------------------------------------------------------------------------
# determinism


def test_repeat_runs_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path)
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        for argv in (
            ["check", "--spec", str(spec), "--out", str(out)],
            ["verify", "--spec", str(spec), "--out", str(out),
             "--dmax", "2", "--seed", "9"],
            ["solve", "--spec", str(spec), "--out", str(out), "--tgrid", "7"],
            ["smoothing", "--spec", str(spec), "--out", str(out),
             "--dmax", "3", "--tgrid", "5"],
            ["report", "--spec", str(spec), "--out", str(out)],
        ):
            assert main(argv) == EXIT_OK
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    compared = 0
    for name in names:
        if name == "run_meta.json":  # the volatile sidecar may differ
            continue
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        compared += 1
    assert compared >= 12


def test_run_meta_sidecar_holds_volatile_fields(tmp_path):
    assert run("check", "--spec", "heat", "--out", str(tmp_path)) == EXIT_OK
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["command"] == "check"
    assert "timestamp_utc" in meta and "elapsed_seconds" in meta
    # and the primary artifact does not mention time at all
    primary = (tmp_path / "heat.check.json").read_text()
    assert "timestamp" not in primary
