"""The names other code relies on: the package's public names, which the
README documents, and the layers the benchmark tracer wraps by module path."""

import importlib
import inspect
import pkgutil
import re
import runpy
from pathlib import Path

import numpy as np

import fracprec
from fracprec import multigrid, spectral, verify

ROOT = Path(__file__).resolve().parent.parent
ERROR_TYPES = ("TagError", "PencilError", "IndefinitenessError")


def readme_library_names():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"from fracprec import \((.*?)\)", text, re.S).group(1)
    names = []
    for line in block.splitlines():
        names += [tok.strip() for tok in line.split("#")[0].split(",") if tok.strip()]
    return names


def test_public_names_are_the_readme_library_names():
    names = readme_library_names()
    assert len(names) == 15
    expected = names + list(ERROR_TYPES) + ["__version__"]
    assert len(fracprec.__all__) == len(set(fracprec.__all__))
    assert set(fracprec.__all__) == set(expected)
    for name in fracprec.__all__:
        assert hasattr(fracprec, name), name


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(code, scope)
    fine = scope["fine"].mesh
    d = np.random.default_rng(0).uniform(-1, 1, fine.num_edges)
    assert scope["mg"].apply(d).shape == (fine.num_edges,)
    u = np.random.default_rng(1).uniform(-1, 1, fine.num_triangles)
    assert scope["aux"].apply(u).shape == (fine.num_triangles,)


def test_every_module_export_resolves():
    # A stale name in __all__ breaks ``from fracprec.<module> import *``.
    modules = [fracprec] + [importlib.import_module(f"fracprec.{info.name}")
                            for info in pkgutil.iter_modules(fracprec.__path__)]
    assert len(modules) == 11
    for module in modules:
        for name in getattr(module, "__all__", ()):  # cli exports nothing
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_spectral_names():
    # Table 2 reads the exact spectrum; the Lanczos extremes are gone.
    assert set(spectral.__all__) == {
        "SpectralPair", "PowerMap", "FourierModes", "PencilError",
        "generalized_eig", "fourier_pair", "helmholtz_power", "solve_power", "apply_power",
        "inf_sup_constant", "scalar_spectrum", "densify"}
    assert not hasattr(spectral, "scalar_extremes")


def test_every_traced_layer_resolves():
    # Executed from source, so nothing is written next to the tracer.
    layers = runpy.run_path(str(ROOT / "bench" / "tracer.py"))["LAYERS"]
    assert layers
    for name, (module_name, target, _) in layers.items():
        module = importlib.import_module(f"fracprec.{module_name}")
        if "." in target:
            cls_name, attr = target.split(".")
            assert attr in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, target, None)), name


def test_generalized_eig_is_bound_where_the_tracer_patches_it():
    assert multigrid.generalized_eig is spectral.generalized_eig
    assert verify.generalized_eig is spectral.generalized_eig


def test_run_all_takes_the_keywords_its_callers_pass():
    # bench/workloads.py passes trials, s_grid and seed; the CLI adds tol.
    # Binding raises TypeError for any keyword run_all does not take.
    inspect.signature(verify.run_all).bind(trials=1, s_grid=(0.5,), seed=0, tol=1e-9)
