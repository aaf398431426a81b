"""End-to-end tests for the command-line pipeline.

Everything runs in-process through `main(argv)` so exit codes and artifacts
can be asserted without subprocess overhead.  Grids are kept small; the
heavyweight configurations live in the acceptance suite.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultraparabolic import cli
from ultraparabolic.cli import (
    EXIT_CONDITION,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    main,
)
from ultraparabolic.fieldio import read_field
from ultraparabolic.problems import load_builtin
from ultraparabolic.solver import solve_fd


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
    ({"T": "inf"}, None),
    ({"s": "nan"}, None),
    ({"Lambda": 1e400}, None),
    ({"s": 10**400}, None),
    ({"grid": {"N": 16, "L": "inf"}}, None),
    ({"a": {"kind": "sin_perturb", "amplitude": "nan"}}, None),
    ({"u0": {"kind": "gaussian", "width": float("inf")}}, None),
    ({"u0": {"kind": "low_regularity", "seed": -1}}, None),
    ({}, "8 --tgrid 5 --box inf"),
    ({}, "8 --tgrid 5 --box 1e-320"),
    ({}, "8 --tgrid 5 --tol nan"),
    ({}, "8 --tgrid 5 --box nan"),
    ({}, "8 --tgrid 5 --dt nan"),
])
def test_bad_input_exits_with_io_code(tmp_path, overrides, grid):
    # grid: the --grid value, optionally followed by more solve flags
    spec = write_spec(tmp_path, **overrides)
    argv = ["solve", "--spec", str(spec), "--out", str(tmp_path)]
    if grid is not None:
        argv += ["--grid", *grid.split()]
    assert _exit_code(argv) == EXIT_IO


_VALID_NUMBERS = {"s": 0.0, "T": 0.5, "Lambda": 2.0, "L": 2.0, "amplitude": 0.25}
# floats() draws nan, +-inf, zeros, subnormals and extremes; repr() sends the
# same values as strings such as "nan" and "-inf"; each field keeps its valid
# value about half the time, so one bad number is often the only one
_SPEC_NUMBERS = st.fixed_dictionaries({
    key: st.one_of(st.just(value), st.floats(), st.floats().map(repr))
    for key, value in _VALID_NUMBERS.items()
})


@settings(max_examples=100, deadline=None)
@given(numbers=_SPEC_NUMBERS)
@example(numbers={**_VALID_NUMBERS, "s": float("nan")})
@example(numbers={**_VALID_NUMBERS, "T": "inf"})
@example(numbers={**_VALID_NUMBERS, "Lambda": 1e400})
@example(numbers={**_VALID_NUMBERS, "L": float("inf")})
@example(numbers={**_VALID_NUMBERS, "amplitude": "-inf"})
def test_check_keeps_exit_code_contract_for_any_spec_number(tmp_path_factory, numbers):
    out = tmp_path_factory.mktemp("fuzz")
    spec = write_spec(out, s=numbers["s"], T=numbers["T"], Lambda=numbers["Lambda"],
                      grid={"N": 16, "L": numbers["L"]},
                      a={"kind": "sin_perturb", "amplitude": numbers["amplitude"]})
    code = _exit_code(["check", "--spec", str(spec), "--out", str(out)])
    assert code in {EXIT_OK, EXIT_CONDITION, EXIT_NUMERICAL, EXIT_IO}


# None leaves the flag out; floats() draws nan, +-inf, zeros and subnormals,
# the bounded draw keeps some runs going through the solver
_FLAG_VALUES = st.one_of(st.none(), st.floats(), st.floats(1e-6, 1e6))


@settings(max_examples=40, deadline=None)
@given(box=_FLAG_VALUES, dt=_FLAG_VALUES, tol=_FLAG_VALUES)
@example(box=float("inf"), dt=None, tol=None)
@example(box=1e-320, dt=None, tol=None)
@example(box=float("nan"), dt=float("-inf"), tol=None)
@example(box=None, dt=float("nan"), tol=None)
@example(box=None, dt=None, tol=float("nan"))
@example(box=1e-80, dt=5e-324, tol=1e300)
def test_solve_keeps_exit_code_contract_for_any_flag_value(tmp_path_factory, box, dt, tol):
    out = tmp_path_factory.mktemp("flags")
    argv = ["solve", "--spec", "kolmogorov2d", "--out", str(out), "--grid", "8", "--tgrid", "5"]
    # --flag=value, so argparse never mistakes "-inf" or "-1e-05" for an option
    argv += [f"--{name}={value!r}" for name, value in (("box", box), ("dt", dt), ("tol", tol))
             if value is not None]
    assert _exit_code(argv) in {EXIT_OK, EXIT_CONDITION, EXIT_NUMERICAL, EXIT_IO}


@pytest.mark.parametrize("spec", ["kolmogorov2d", "kolmogorov2d-lowreg"])
def test_huge_box_solves_without_warnings(tmp_path, spec):
    # x**2 and the window width sigma**2 overflow at L = 1e160: the Gaussian's
    # overflowed squares are exact zeros, the rough data's window is formed
    # in units of L, and neither may warn or raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("solve", "--spec", spec, "--out", str(tmp_path), "--grid", "8",
                   "--tgrid", "5", "--box", "1e160") == EXIT_OK
    result = json.loads((tmp_path / f"{spec}.solve.json").read_text())
    assert np.isfinite(result["residual_max"])


# work-sizing flags stay small (--grid <= 16, --tgrid <= 9, --dmax <= 6), and
# the draws include values the parser refuses
_GRID_POINTS = st.integers(-2, 16)
_SNAPSHOTS = st.integers(-1, 9)
_ORDERS = st.integers(-1, 6)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["kolmogorov2d", "brownian-inertia"]), grid=_GRID_POINTS,
       tgrid=_SNAPSHOTS, dmax=_ORDERS, box=_FLAG_VALUES, dt=_FLAG_VALUES)
@example(spec="kolmogorov2d", grid=8, tgrid=5, dmax=4, box=1e-80, dt=None)
@example(spec="brownian-inertia", grid=8, tgrid=5, dmax=2, box=None, dt=1e-9)
@example(spec="brownian-inertia", grid=8, tgrid=5, dmax=2, box=None, dt=5e-324)
@example(spec="brownian-inertia", grid=8, tgrid=5, dmax=2, box=float("nan"), dt=float("inf"))
@example(spec="kolmogorov2d", grid=4, tgrid=1, dmax=1, box=1e-320, dt=None)
@example(spec="brownian-inertia", grid=4, tgrid=1, dmax=1, box=1e160, dt=None)
def test_smoothing_keeps_exit_code_contract_for_any_flag_value(tmp_path_factory, spec, grid,
                                                               tgrid, dmax, box, dt):
    out = tmp_path_factory.mktemp("smoothing-flags")
    argv = ["smoothing", "--spec", spec, "--out", str(out), f"--grid={grid}",
            f"--tgrid={tgrid}", f"--dmax={dmax}"]
    argv += [f"--{name}={value!r}" for name, value in (("box", box), ("dt", dt))
             if value is not None]
    assert _exit_code(argv) in {EXIT_OK, EXIT_CONDITION, EXIT_NUMERICAL, EXIT_IO}


# rationals around the admissible range (> 1), and text that is no rational
_DELTAS = st.one_of(st.fractions(-3, 5, max_denominator=12).map(str),
                    st.floats().map(repr), st.sampled_from(["1/0", "", "x", "2/"]))


@settings(max_examples=30, deadline=None)
@given(dmax=_ORDERS, seed=st.integers(), deltas=st.lists(_DELTAS, max_size=2))
@example(dmax=1, seed=0, deltas=["1/2"])
@example(dmax=1, seed=-1, deltas=["1"])
@example(dmax=1, seed=10**30, deltas=["1e-320", "inf"])
def test_verify_keeps_exit_code_contract_for_any_flag_value(tmp_path_factory, dmax, seed,
                                                            deltas):
    out = tmp_path_factory.mktemp("verify-flags")
    argv = ["verify", "--spec", "kolmogorov2d", "--out", str(out), f"--dmax={dmax}",
            f"--seed={seed}"]
    argv += [f"--delta={delta}" for delta in deltas]
    assert _exit_code(argv) in {EXIT_OK, EXIT_CONDITION, EXIT_NUMERICAL, EXIT_IO}


_REPORT_KINDS = ("check", "verify", "solve", "smoothing")


@pytest.fixture(scope="module")
def valid_artifacts(tmp_path_factory):
    """The four kolmogorov2d artifacts report reads, as parsed JSON."""
    out = tmp_path_factory.mktemp("valid")
    for argv in (["check"], ["verify", "--dmax", "1"], ["solve", "--grid", "8", "--tgrid", "5"],
                 ["smoothing", "--grid", "8", "--tgrid", "5", "--dmax", "3"]):
        assert main([*argv, "--spec", "kolmogorov2d", "--out", str(out)]) == EXIT_OK
    return {kind: json.loads((out / f"kolmogorov2d.{kind}.json").read_text())
            for kind in _REPORT_KINDS}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)
_BAD_TEXT = st.sampled_from(["", "{", "NaN", "-Infinity", "1e400", "[1e999]", "9" * 5000,
                             "[" * 100_000, '{"orders": [1e400]}'])


@st.composite
def _artifact(draw, kind, valid):
    """None (absent), or the artifact file's bytes."""
    choice = draw(st.sampled_from(["absent", "valid", "mutated", "json", "text"]))
    if choice == "absent":
        return None
    if choice == "text":
        return draw(_BAD_TEXT).encode() if draw(st.booleans()) else b"\xff\xfe{"
    if choice == "json":
        return json.dumps(draw(_JSON)).encode()
    doc = json.loads(json.dumps(valid[kind]))
    if choice == "mutated":
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(_JSON)
        if kind == "smoothing" and draw(st.booleans()):
            doc["orders"] = draw(st.lists(_JSON | st.just(valid[kind]["orders"][0]),
                                          max_size=3))
    return json.dumps(doc).encode()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_report_keeps_exit_code_contract_for_any_artifact(tmp_path_factory, valid_artifacts,
                                                          data):
    out = tmp_path_factory.mktemp("report-artifacts")
    for kind in _REPORT_KINDS:
        raw = data.draw(_artifact(kind, valid_artifacts), label=kind)
        if raw is not None:
            (out / f"kolmogorov2d.{kind}.json").write_bytes(raw)
    code = _exit_code(["report", "--spec", "kolmogorov2d", "--out", str(out)])
    assert code in {EXIT_OK, EXIT_CONDITION, EXIT_NUMERICAL, EXIT_IO}


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


def test_results_that_overflow_abort_before_writing(tmp_path):
    # frequencies up to 4/L = 4e80: <xi>^4 in the residual's H^2 norm and the
    # order-4 derivative weights overflow, so the results would be nan
    for argv in (["solve", "--tgrid", "5"], ["smoothing", "--tgrid", "5", "--dmax", "4"]):
        out = tmp_path / argv[0]
        assert run(*argv, "--spec", "kolmogorov2d", "--out", str(out),
                   "--grid", "8", "--box", "1e-80") == EXIT_NUMERICAL
        assert not out.exists()


def test_grid_whose_weights_overflow_is_refused_with_a_box_that_passes(tmp_path, capsys):
    out = tmp_path / "tiny"
    assert run("solve", "--spec", "kolmogorov2d", "--out", str(out), "--grid", "8",
               "--tgrid", "5", "--box", "1e-80") == EXIT_NUMERICAL
    assert not out.exists()
    message = capsys.readouterr().err
    assert "overflows" in message
    box = message.rsplit("L >= ", 1)[1].strip()
    assert run("solve", "--spec", "kolmogorov2d", "--out", str(tmp_path / "passing"),
               "--grid", "8", "--tgrid", "5", "--box", box) == EXIT_OK


def test_solve_refuses_a_step_count_past_the_limit(tmp_path):
    # dt = 1e-9 asks for 5e8 explicit steps; the guard refuses before the first
    out = tmp_path / "steps"
    started = time.perf_counter()
    assert run("solve", "--spec", "kolmogorov-general", "--out", str(out), "--grid", "8",
               "--tgrid", "5", "--dt", "1e-9") == EXIT_NUMERICAL
    assert time.perf_counter() - started < 10.0
    assert not out.exists()


def _fresh_interpreter(*argv):
    """Run a new Python process on argv with this package's source tree importable.

    The pytest process has loaded every module through other tests; a fresh
    interpreter shows what a stage loads by itself.
    """
    src = str(Path(__import__("ultraparabolic").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def test_exact_stages_load_no_numerical_code(tmp_path):
    script = textwrap.dedent(f"""
        import sys
        import ultraparabolic.cli as cli

        NUMERICAL = ("numpy", "ultraparabolic.sobolev", "ultraparabolic.solver",
                     "ultraparabolic.smoothing")

        def loaded():
            return [m for m in NUMERICAL if m in sys.modules]

        assert loaded() == [], loaded()
        for spec in ("lp-block", "kolmogorov2d"):
            for stage in (["check"], ["verify", "--dmax", "2"], ["report"]):
                argv = [*stage, "--spec", spec, "--out", {str(tmp_path / "exact")!r}]
                assert cli.main(argv) == 0, argv
                assert loaded() == [], (argv, loaded())
        for stage in ("solve", "smoothing"):
            argv = [stage, "--spec", "kolmogorov2d", "--grid", "16", "--tgrid", "9",
                    "--out", {str(tmp_path / "numerical")!r}]
            assert cli.main(argv) == 0, argv
        assert loaded() == list(NUMERICAL), loaded()
        # the FD transport kernels load with the FD route only
        assert "ultraparabolic._upwind" not in sys.modules
    """)
    result = _fresh_interpreter("-c", script)
    assert result.returncode == 0, result.stderr


def test_perfbench_traced_stage_records_every_layer_span(tmp_path):
    # perfbench/traced_stage.py wraps the functions cli and problems call;
    # a name it cannot find before main runs would leave its metric at 0.
    # The span of solve_auto is named after the route that ran, and the
    # span of smoothing_profile counts its norm evaluations from the report.
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "traced_stage.py"
    spans = tmp_path / "spans.json"
    result = _fresh_interpreter(str(bench), str(spans), "solve", "--spec", "fokkerplanck",
                                "--grid", "6", "--tgrid", "5", "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    names = {span["name"] for span in json.loads(spans.read_text(encoding="utf-8"))}
    assert {"cli.main", "solver.solve_fd", "solver.residual_series", "solver.energy_check",
            "fieldio.write_field", "problems.coercivity_check"} <= names, names

    result = _fresh_interpreter(str(bench), str(spans), "smoothing", "--spec", "kolmogorov2d",
                                "--grid", "16", "--tgrid", "9", "--dmax", "4",
                                "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    by_name = {span["name"]: span for span in json.loads(spans.read_text(encoding="utf-8"))}
    assert {"cli.main", "solver.solve_exact", "fieldio.write_json",
            "fieldio.write_csv"} <= set(by_name), set(by_name)
    # five orders on two axes at the nine snapshots from t = T / 100 to T
    assert by_name["smoothing.smoothing_profile"]["norm_evals"] == 5 * 2 * 9


_REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
_SMOOTHING_REFERENCES = {
    key: ref["M_d"] for key, ref in json.loads(_REFERENCES.read_text(encoding="utf-8")).items()
    if key.split()[1] == "smoothing"
}


def test_perfbench_references_pin_four_smoothing_commands():
    # the four smoothing commands of the benchmark, one per workload
    assert len(_SMOOTHING_REFERENCES) == 4


@pytest.mark.parametrize("key", sorted(_SMOOTHING_REFERENCES))
def test_perfbench_smoothing_command_reproduces_its_reference(key, tmp_path):
    # each key is "<spec> smoothing <flags>", the command line the benchmark
    # runs; its raw suprema M_d must match the stored ones to the benchmark's
    # tolerance, 1e-9 relative
    spec, kind, *flags = key.split()
    assert run(kind, "--spec", spec, "--out", str(tmp_path), *flags) == EXIT_OK
    doc = json.loads((tmp_path / f"{spec}.smoothing.json").read_text(encoding="utf-8"))
    seen = [order["M_d"] for order in doc["orders"]]
    expected = _SMOOTHING_REFERENCES[key]
    assert len(seen) == len(expected)
    for d, (value, ref) in enumerate(zip(seen, expected)):
        assert abs(value - ref) <= 1e-9 * abs(ref), (key, d, value, ref)


def _two_diffused_axes_spec(tmp_path):
    """A written spec whose a varies along both of its diffused axes: the sine-adi route."""
    return write_spec(tmp_path, name="two-axis-a", m0=2, B=[["0", "0"], ["0", "0"]],
                      a={"kind": "gaussian", "width": 10.0},
                      b=[{"kind": "constant", "value": 0.0}] * 2)


def test_exact_route_stages_never_import_scipy(tmp_path):
    # a fresh interpreter: the pytest process imports SciPy through other tests
    script = textwrap.dedent(f"""
        import sys
        from ultraparabolic import cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        assert scipy_modules() == [], scipy_modules()
        for stage in ("solve", "smoothing"):
            argv = [stage, "--spec", "kolmogorov2d", "--grid", "16", "--tgrid", "9",
                    "--out", {str(tmp_path / "exact")!r}]
            assert cli.main(argv) == 0, stage
        assert scipy_modules() == [], scipy_modules()
    """)
    result = _fresh_interpreter("-c", script)
    assert result.returncode == 0, result.stderr


def test_sine_route_stages_never_import_scipy(tmp_path):
    # a fresh interpreter: the pytest process imports SciPy through other tests;
    # kolmogorov-general's a varies along one diffused axis (sine-tridiagonal),
    # the written spec's a along two (Douglas's sweeps, sine-adi)
    two_axis = _two_diffused_axes_spec(tmp_path)
    script = textwrap.dedent(f"""
        import json, sys
        from pathlib import Path
        from ultraparabolic import cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        out = Path({str(tmp_path / "fd")!r})
        for spec, grid, slab_solver in (("fokkerplanck", "6", "sine"),
                                        ("brownian-inertia", "16", "sine"),
                                        ("kolmogorov-general", "8", "sine-tridiagonal"),
                                        ({str(two_axis)!r}, "8", "sine-adi")):
            for stage, extra in (("solve", []), ("smoothing", ["--dmax", "3"])):
                argv = [stage, "--spec", spec, "--grid", grid, "--tgrid", "5", *extra,
                        "--out", str(out)]
                assert cli.main(argv) == 0, (spec, stage)
                meta = json.loads((out / "run_meta.json").read_text())
                assert meta["slab_solver"] == slab_solver, (spec, stage, meta)
        assert scipy_modules() == [], scipy_modules()
    """)
    result = _fresh_interpreter("-c", script)
    assert result.returncode == 0, result.stderr
    for spec in ("fokkerplanck", "brownian-inertia", "kolmogorov-general", "two-axis-a"):
        assert json.loads((tmp_path / "fd" / f"{spec}.solve.json").read_text())["method"] == "fd"


def test_sine_adi_solves_with_a_step_of_the_snapshot_gap(tmp_path):
    # Douglas's sweeps have no iteration to fail: the written spec's T = 0.5
    # over --tgrid 5 takes one step of 0.125 per snapshot gap
    two_axis = _two_diffused_axes_spec(tmp_path)
    out = tmp_path / "out"
    assert run("solve", "--spec", str(two_axis), "--grid", "8", "--tgrid", "5", "--dt", "0.125",
               "--out", str(out)) == EXIT_OK
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["slab_solver"] == "sine-adi" and meta["slab_sweeps"] == [0, 1]
    assert meta["fd_steps"] == 4
    assert (out / "two-axis-a.solve.json").exists()


def _count_forward_transforms(monkeypatch) -> Counter:
    """Count calls of np.fft.fftn and np.fft.rfftn, the n-D forward transforms."""
    counts = Counter()
    for name in ("fftn", "rfftn"):
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


def test_solve_transforms_each_fd_snapshot_once(tmp_path, monkeypatch):
    counts = _count_forward_transforms(monkeypatch)
    assert run("solve", "--spec", "fokkerplanck", "--grid", "6", "--tgrid", "9",
               "--out", str(tmp_path / "fd")) == EXIT_OK
    # one spectrum per snapshot gives its .upf, its energy norms and its
    # residual normaliser
    assert counts == {"fftn": 9}
    for tgrid in ("5", "9"):
        counts.clear()
        assert run("solve", "--spec", "kolmogorov2d", "--grid", "16", "--tgrid", tgrid,
                   "--out", str(tmp_path / f"exact{tgrid}")) == EXIT_OK
        # the exact route keeps each snapshot's coefficients: only the initial
        # data's spectrum is formed, whatever the number of snapshots
        assert counts == {"fftn": 1}, tgrid


def _overflowed_energy(solution, spec, norms=None):
    from ultraparabolic.solver import energy_check

    report = energy_check(solution, spec, norms)
    return dataclasses.replace(report, ratio=np.full_like(report.ratio, np.inf))


def test_refused_solve_leaves_the_output_directory_as_it_found_it(tmp_path, monkeypatch):
    # the refusal comes after every snapshot has been written under a temporary name
    monkeypatch.setattr(cli, "energy_check", _overflowed_energy)
    argv = ["solve", "--spec", "fokkerplanck", "--grid", "6", "--tgrid", "5"]
    missing = tmp_path / "new" / "out"
    assert run(*argv, "--out", str(missing)) == EXIT_NUMERICAL
    assert not (tmp_path / "new").exists()

    kept = tmp_path / "kept"
    kept.mkdir()
    older = b"an older snapshot"
    (kept / "fokkerplanck.t0000.upf").write_bytes(older)
    assert run(*argv, "--out", str(kept)) == EXIT_NUMERICAL
    assert (kept / "fokkerplanck.t0000.upf").read_bytes() == older
    # only the volatile sidecar, which every stage writes when it can, is new,
    # and it says that the stage was refused
    assert sorted(p.name for p in kept.iterdir()) == ["fokkerplanck.t0000.upf", "run_meta.json"]
    assert json.loads((kept / "run_meta.json").read_text())["exit_code"] == EXIT_NUMERICAL == 3
    # a stage that succeeds records 0
    monkeypatch.undo()
    assert run(*argv, "--out", str(kept)) == EXIT_OK
    assert json.loads((kept / "run_meta.json").read_text())["exit_code"] == 0


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


def test_run_meta_records_the_route_and_the_fd_step_count(tmp_path):
    for stage, extra in (("solve", ()), ("smoothing", ("--dmax", "3"))):
        for spec, grid, reason in (("kolmogorov2d", "16", None),
                                   ("brownian-inertia", "16", "first-order transport coefficients b"),
                                   ("kolmogorov-general", "8", "variable diffusion coefficient")):
            out = tmp_path / stage / spec
            assert run(stage, "--spec", spec, "--grid", grid, "--tgrid", "5", *extra,
                       "--out", str(out)) == EXIT_OK
            meta = json.loads((out / "run_meta.json").read_text())
            assert meta["route"] == ("exact" if reason is None else "fd")
            assert meta["route_reason"] == reason
            if reason is None:
                assert not {"slab_solver", "slab_sweeps", "transport", "fd_steps", "cfl",
                            "cfl_limit"} & set(meta)
                continue
            loaded = load_builtin(spec)
            times = (np.linspace(0.0, loaded.T, 5) if stage == "solve"
                     else np.linspace(loaded.T / 100.0, loaded.T, 5))
            sol = solve_fd(loaded, loaded.default_grid(N=int(grid)), times=times)
            assert meta["slab_solver"] == sol.diagnostics["slab_solver"]
            # kolmogorov-general's a varies along diffused axis 0; brownian-inertia's is constant
            assert meta["slab_sweeps"] == sol.diagnostics["slab_sweeps"] == {
                "kolmogorov-general": [0], "brownian-inertia": []}[spec]
            # kolmogorov-general's speeds each span one other axis; brownian-inertia is 2-D
            assert meta["transport"] == sol.diagnostics["transport"] == {
                "kolmogorov-general": "matrices", "brownian-inertia": "stencil"}[spec]
            assert meta["fd_steps"] == sol.diagnostics["steps"] > 0
            assert meta["cfl"] == sol.diagnostics["cfl"]
            assert 0.0 < meta["cfl"] <= meta["cfl_limit"] == sol.diagnostics["cfl_limit"] == 0.8


def test_run_meta_records_peak_rss_on_every_stage_and_an_unused_dt(tmp_path):
    for stage, extra in (("check", ()), ("verify", ()), ("solve", ("--grid", "16", "--tgrid", "5")),
                         ("smoothing", ("--grid", "16", "--tgrid", "5", "--dmax", "3"))):
        out = tmp_path / stage
        assert run(stage, "--spec", "kolmogorov2d", *extra, "--out", str(out)) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["peak_rss_mb"] > 1.0, stage
    assert run("report", "--spec", "kolmogorov2d", "--out", str(tmp_path / "solve")) == EXIT_OK
    assert json.loads((tmp_path / "solve" / "run_meta.json").read_text())["peak_rss_mb"] > 1.0
    # the exact route takes no step: a given --dt is recorded as unused, not dropped
    # (the smoothing stage's first snapshot gap, T/100, admits no round FD step)
    for stage, extra in (("solve", ()), ("smoothing", ("--dmax", "3"))):
        for spec, dt, unused in (("kolmogorov2d", "0.01", {"--dt": 0.01}),
                                 ("kolmogorov2d", None, {}),
                                 ("brownian-inertia", "0.0025" if stage == "solve" else None, {})):
            out = tmp_path / "dt" / stage / spec / str(dt)
            flags = ("--dt", dt) if dt else ()
            assert run(stage, "--spec", spec, "--grid", "16", "--tgrid", "5", *extra, *flags,
                       "--out", str(out)) == EXIT_OK
            meta = json.loads((out / "run_meta.json").read_text())
            assert meta["unused_options"] == unused, (stage, spec, dt)


def test_run_meta_sidecar_holds_volatile_fields(tmp_path):
    assert run("check", "--spec", "heat", "--out", str(tmp_path)) == EXIT_OK
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["command"] == "check"
    assert "timestamp_utc" in meta and "elapsed_seconds" in meta
    # and the primary artifact does not mention time at all
    primary = (tmp_path / "heat.check.json").read_text()
    assert "timestamp" not in primary
