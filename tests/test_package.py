"""The package re-exports each module's public names exactly once."""

import importlib

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
