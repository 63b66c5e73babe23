"""The traced benchmark run (`bench/tracing.py`) patches functions where
they are called. A refactor that renames or moves one of those call
sites must fail here, not only in the traced run. The tests import
`bench/` and leave it unchanged."""

from pathlib import Path

import pytest

from tabrobust.attacks import AttackBudget, caa
from tabrobust.harness import select_attack_set

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_every_traced_call_site_resolves(tracing):
    for site in tracing.SITES:
        owner, name = tracing._owner(site)
        # The lookup Tracer.install makes before patching the name.
        found = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        assert callable(found), f"{site.module}.{site.attr} does not exist"


def test_search_span_fires_once_per_searched_row(tracing, small_bench):
    # The bench times MOEVA per attacked row through the name `moeva` in
    # caa's module; a search that bypassed it would drop out of the trace.
    model, dataset, schema, cs = small_bench
    budget = AttackBudget(eps=0.5, n_gen=4, n_pop=20, n_off=12, seed=3)
    idx = select_attack_set(model, dataset, schema, cap=12, seed=3)
    Z = model.scaler.transform(dataset.X[idx])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = caa(model, cs, Z, dataset.y[idx], budget, schema, row_indices=idx)
    finally:
        tracer.uninstall()
    searched = sum("search" in s.attempts for s in result.samples)
    assert searched >= 1
    assert tracer.stats["attacks.moeva.moeva"].calls == searched
