"""Guard the package's public surface.

Every lazily exported top-level name must resolve, and the documented
entry points must exist with their documented signatures.
"""

import inspect

import pytest

import repro


def test_all_lazy_exports_resolve():
    for name in repro._EXPORTS:
        obj = getattr(repro, name)
        assert obj is not None, name


def test_dir_lists_exports():
    d = dir(repro)
    for name in ("calu", "caqr", "tslu", "tsqr", "solve", "MachineModel"):
        assert name in d


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_a_thing


def test_version():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize(
    "name,params",
    [
        ("calu", {"A", "b", "tr", "tree", "executor", "lookahead"}),
        ("caqr", {"A", "b", "tr", "tree", "executor", "lookahead"}),
        ("tslu", {"A", "tr", "tree", "executor"}),
        ("tsqr", {"A", "tr", "tree", "executor"}),
        ("solve", {"A", "rhs", "b", "tr", "tree", "refine", "cores"}),
        ("lstsq", {"A", "rhs", "b", "tr", "tree", "cores"}),
    ],
)
def test_documented_signatures(name, params):
    fn = getattr(repro, name)
    sig = set(inspect.signature(fn).parameters)
    assert params <= sig, f"{name} missing {params - sig}"


def test_subpackages_importable():
    import repro.analysis
    import repro.baselines
    import repro.bench
    import repro.core
    import repro.distmem
    import repro.kernels
    import repro.machine
    import repro.runtime


@pytest.mark.parametrize("name", ["calu", "caqr", "tslu", "tsqr"])
def test_core_names_its_driver_submodules(name):
    """``repro.core.<name>`` is the submodule, so patching a constant on
    ``import repro.core.<name> as m`` reaches the code that reads it;
    the driver function is ``repro.<name>``."""
    import importlib

    import repro.core

    module = importlib.import_module(f"repro.core.{name}")
    assert getattr(repro.core, name) is module
    assert getattr(repro, name) is getattr(module, name)
    assert callable(getattr(repro, name)) and not callable(module)


def test_experiment_registry_matches_cli_help():
    from repro.bench.experiments import EXPERIMENTS

    # Every registered experiment returns something with .format().
    for name, fn in EXPERIMENTS.items():
        assert callable(fn), name


def test_every_public_function_has_docstring():
    import repro.analysis as analysis
    import repro.core as core
    import repro.kernels as kernels

    for mod in (kernels, core, analysis):
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert (obj.__doc__ or "").strip(), f"{mod.__name__}.{name} lacks a docstring"
