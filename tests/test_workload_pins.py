"""Pinned outputs of one pass of perfbench's search, sweep and construct
inputs.  Each test pins a count and the SHA-256 of the repr of every result,
so a change in a search tree, a characterization route or a built host shows
even where every result still verifies; the call counts show more work per
step where every result is the same."""

import hashlib
import importlib
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from gooddecomp import _kernel_py, builders, decomp, digraph, oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LIB = SimpleNamespace(builders=builders, decomp=decomp, digraph=digraph, oracle=oracle)


@pytest.fixture
def workloads(monkeypatch):
    """perfbench's workloads module, imported from its own directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _count_calls(monkeypatch, module, name) -> list[int]:
    """Wrap module.name so that each call adds one to the returned cell."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("seed, want, want_reaches", [
    (0, (207, 26379, 0, "7511952eaa3797a3fdd963754a8296ac07c24bae1fd5efefef1344c36056aa31"), 12149),
    (7, (207, 27081, 0, "a1b648fc2f82791b6a13b556e226c923d9959d3609b6c85e71528ed9c68d4273"), 12292),
], ids=["seed0", "seed7"])
def test_search_reports(workloads, monkeypatch, seed, want, want_reaches):
    """Every oracle report on the search inputs as (label, outcome, nodes,
    reason, order, sorted sides or None): the count, the nodes, the aborts
    and the digest, and the kernel's _reaches calls."""
    calls = _count_calls(monkeypatch, _kernel_py, "_reaches")
    reports = []
    for label, d, _ in workloads.search_inputs(LIB, random.Random(seed), False):
        r = oracle.oracle_good_decomposition(d, budget=workloads.SEARCH_BUDGET)
        sides = None if r.decomposition is None else tuple(sorted(p) for p in r.decomposition.parts)
        reports.append((label, r.outcome, r.nodes_explored, r.reason, r.order, sides))
    got = (len(reports), sum(r[2] for r in reports), sum(r[1] == "aborted" for r in reports),
           _digest(reports))
    assert got == want
    assert calls[0] == want_reaches


def test_sweep_characterizations(workloads, monkeypatch):
    """A seed-0 pass of the sweep inputs through the characterization, each
    result as its exception tag or its sorted parts, run twice in one process:
    the second run reads the outer memos the first filled, so a memo that
    hands out shared state shows.  Each run re-checks every decomposition
    with verify_decomposition and makes one decomp.verify call per
    decomposition, so a verdict that is not kept, or a route that verifies
    twice, shows.  Every spec has outer order 3, so each skeleton template
    is built once over both runs."""
    calls = _count_calls(monkeypatch, decomp, "verify")
    for _ in range(2):
        calls[0] = 0
        results = []
        for spec in workloads.sweep_inputs(LIB, random.Random(0), False):
            r = decomp.characterize_semicomplete_composition(spec)
            if r.decomposition is not None:
                assert decomp.verify_decomposition(r.decomposition).ok
            parts = None if r.decomposition is None else tuple(sorted(p) for p in r.decomposition.parts)
            results.append(r.exception_tag if r.is_exception else parts)
        tags = sorted(Counter(r for r in results if isinstance(r, str)).items())
        assert (len(results), tags, _digest(results)) == (
            1360,
            [("C3_K2_K2_K3", 1), ("C3_P2_K2_K2", 1)],
            "df8c1f56c6eb5305236e97d6cd585eb6afd7d9fb2b8cac8510183d034152e111",
        )
        assert calls[0] == 1358
    assert decomp._eq_sides.cache_info().misses == 1
    assert decomp._case3_sides.cache_info().misses == 1


def test_construct_decompositions(workloads):
    """A seed-0 pass of the construct inputs, without the cli/ jobs that
    CLI_RUNS pins: each decomposition as (label, sorted parts) and each host
    as (label, sorted arcs), so a builder slip that changes a host shows even
    where the sides still verify."""
    results, hosts = [], []
    for job in workloads.construct_inputs(LIB, random.Random(0), False):
        if not job.label.startswith("cli/"):
            dec = job.call()
            results.append((job.label, tuple(sorted(p) for p in dec.parts)))
            hosts.append((job.label, sorted(dec.host.arcs)))
    assert (len(results), _digest(results)) == (
        18, "fbd8607890274e19d2d9ab753cb71d30b78ecc77ff317f665c688cdab485d2d1")
    assert (len(hosts), _digest(hosts)) == (
        18, "ceb88531b14e0bd15b252a95420e585cfd10879e6b6805bacb559884e9d11594")
