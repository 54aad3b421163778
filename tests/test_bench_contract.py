"""The names the benchmark under ``bench/`` looks up in the package.

``bench/tracer.py`` rebinds the functions and methods it lists, and
``bench/workloads.py`` names the exceptions a law check may be refused
with.  Renaming or deleting one of them breaks ``bench/run.py`` and no
other test, so this file pins them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", BENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def test_traced_functions_and_methods_resolve(bench_module):
    tracer = bench_module("tracer")
    for _, modname, attr in tracer.FUNCTIONS:
        module = importlib.import_module(f"multipoint.{modname}")
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
    for _, modname, clsname, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(f"multipoint.{modname}"), clsname)
        assert attr in cls.__dict__, f"{modname}.{clsname}.{attr}"


def test_algebra_rejections_resolve(bench_module):
    workloads = bench_module("workloads")
    rejections = workloads.Algebra.REJECTIONS
    assert len(rejections) == 3
    assert all(issubclass(cls, Exception) for cls in rejections)


def test_seg_intersect_is_bound_in_four_modules():
    # bench/selftest.py checks that the tracer rebinds seg_intersect in at
    # least four modules, so at least four must hold it by name
    import pkgutil

    import multipoint
    from multipoint.exactgeom import seg_intersect

    holders = [
        info.name
        for info in pkgutil.iter_modules(multipoint.__path__)
        if info.name != "__main__"
        and seg_intersect in vars(importlib.import_module(f"multipoint.{info.name}")).values()
    ]
    assert len(holders) >= 4, holders
