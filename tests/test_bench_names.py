"""The benchmark in perfbench/ wraps library functions by name, reads
library attributes in its workloads and clears two in-process caches
between passes.  A deleted or renamed function would leave its traced
metrics unmeasured or a workload broken, so this checks the names."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

from rank3 import fields, groups

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads
    return tracer, workloads


def test_every_traced_function_exists(bench):
    tracer, _workloads = bench
    t = tracer.Tracer()  # builds the wrappers without installing them
    assert t.absent == []


def test_every_library_attribute_the_workloads_read_exists():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "rank3"
               for alias in node.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert {"meataxe", "linalg", "constructions"} <= modules
    assert ("meataxe", "GModule") in read
    missing = sorted("%s.%s" % (mod, name) for mod, name in read
                     if not hasattr(importlib.import_module("rank3." + mod),
                                    name))
    assert missing == []


def test_cold_caches_finds_the_caches_it_clears(bench, monkeypatch):
    _tracer, workloads = bench
    # stand-ins, so that clearing them leaves the shared caches alone
    monkeypatch.setattr(groups, "_OMEGA_CACHE", {"key": "group"})
    monkeypatch.setattr(fields, "_cached_field",
                        functools.lru_cache(maxsize=None)(fields.FiniteField))
    fields._cached_field(3, 1, None)
    workloads.cold_caches()
    assert groups._OMEGA_CACHE == {}
    assert fields._cached_field.cache_info().currsize == 0


def test_one_traced_pass_of_each_workload_calls_its_predicted_layers(
        bench, monkeypatch):
    # A traced layer the library stops calling (or starts calling) on a
    # workload shows here, not only in the benchmark's traced run.  The
    # field cache stays: the MeatAxe compares fields with `is`, and a
    # cleared cache would hand later callers a new GF(3).
    tracer, workloads = bench
    for name in tracer.PREDICTED_ORDER:
        state = workloads.SETUP[name](0)
        # a fresh Omega cache, so that the Omega_3 closures are enumerated
        monkeypatch.setattr(groups, "_OMEGA_CACHE", {})
        t, tally = tracer.Tracer(), workloads.Tally()
        t.install()
        try:
            workloads.PASS[name](state, tally)
        finally:
            t.uninstall()
        assert (tally.failed, tally.errors) == (0, [])
        assert tally.attempted > 0
        assert t.coverage_misses(name) == []
