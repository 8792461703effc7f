"""The benchmark in perfbench/ wraps library functions by name and clears
two in-process caches between passes.  A deleted or renamed function
would leave its traced metrics unmeasured, so this checks the names."""

import functools
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
