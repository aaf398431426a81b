"""The package re-exports each module's public names exactly once, on first access."""

import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import ultraparabolic

MODULES = ("vfalgebra", "auxfields", "sobolev", "solver", "smoothing", "problems", "fieldio")


def test_every_module_export_resolves_on_the_package_once():
    exported = ultraparabolic.__all__
    assert len(exported) == len(set(exported))
    expected = {"__version__"}
    for name in MODULES:
        module = importlib.import_module(f"ultraparabolic.{name}")
        for attr in module.__all__:
            assert getattr(ultraparabolic, attr) is getattr(module, attr), (name, attr)
        assert not expected & set(module.__all__), name  # no name exported by two modules
        expected |= set(module.__all__)
    assert set(exported) == expected


def test_dir_and_star_import_cover_every_export():
    exported = set(ultraparabolic.__all__)
    assert exported <= set(dir(ultraparabolic))
    namespace = {}
    exec("from ultraparabolic import *", namespace)
    assert exported <= set(namespace)
    for name in exported:
        assert namespace[name] is getattr(ultraparabolic, name), name


def test_exact_layer_exports_resolve_without_numpy():
    # a fresh interpreter: the pytest process has loaded NumPy through other tests
    script = textwrap.dedent("""
        import sys
        import ultraparabolic

        assert not [m for m in sys.modules if m.startswith("ultraparabolic.")]
        spec = ultraparabolic.load_builtin("lp-block")
        assert ultraparabolic.hormander_check(spec.tower()).satisfied
        assert isinstance(spec, ultraparabolic.ProblemSpec)
        assert "numpy" not in sys.modules
    """)
    src = str(Path(ultraparabolic.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


def test_numpy_floor_is_stated_once_and_met():
    import numpy as np

    root = Path(__file__).resolve().parents[1]
    declared = re.findall(r'"numpy>=([0-9.]+)"', (root / "pyproject.toml").read_text())
    documented = re.findall(r"NumPy ≥ ([0-9.]+)", (root / "README.md").read_text())
    assert len(declared) == 1 and set(documented) == set(declared)
    # the in-place transforms of sobolev and solver need fft's out= (NumPy 2.0)
    a = np.arange(8.0) + 0j
    want = np.fft.fftn(a)
    assert np.fft.fftn(a, out=a) is a and np.array_equal(a, want)
