"""The traced benchmark run (`bench/tracing.py`) patches functions where
they are called. A refactor that renames or moves one of those call
sites must fail here, not only in the traced run. The tests import
`bench/` and leave it unchanged."""

from pathlib import Path

import pytest

from tabrobust import defense, mlp
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


def traced_caa(tracing, small_bench, fit=False):
    """(tracer, result) of one `caa` run under the bench's wrappers,
    after a 1-epoch `mlp.train` if `fit`."""
    model, dataset, schema, cs = small_bench
    budget = AttackBudget(eps=0.5, n_gen=4, n_pop=20, n_off=12, seed=3)
    idx = select_attack_set(model, dataset, schema, cap=12, seed=3)
    Z = model.scaler.transform(dataset.X[idx])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if fit:
            mlp.train(mlp.ReferenceModel(schema.n_features, seed=3), dataset,
                      mlp.TrainConfig(epochs=1, seed=3), schema)
        result = caa(model, cs, Z, dataset.y[idx], budget, schema, row_indices=idx)
    finally:
        tracer.uninstall()
    return tracer, result


def test_search_span_fires_once_per_searched_row(tracing, small_bench):
    # The bench times MOEVA per attacked row through the name `moeva` in
    # caa's module; a search that bypassed it would drop out of the trace.
    tracer, result = traced_caa(tracing, small_bench)
    searched = sum("search" in s.attempts for s in result.samples)
    assert searched >= 1
    assert tracer.stats["attacks.moeva.moeva"].calls == searched


def test_every_attack_site_fires(tracing, small_bench):
    # The traced bench run reports a heavy site that never fired; this
    # catches it for the attack stages without a traced run.
    tracer, _ = traced_caa(tracing, small_bench)
    attack_sites = [i for i, s in enumerate(tracing.SITES)
                    if s.module.startswith("tabrobust.attacks")]
    assert len(attack_sites) >= 12
    silent = [f"{tracing.SITES[i].module}.{tracing.SITES[i].attr}"
              for i in attack_sites if i not in tracer.fired]
    assert not silent


def test_every_model_site_fires(tracing, small_bench):
    # Training and one attack make every model call the bench wraps; a
    # renamed one would otherwise show only in the slow traced run.
    tracer, _ = traced_caa(tracing, small_bench, fit=True)
    model_sites = {s.attr: i for i, s in enumerate(tracing.SITES) if s.module == "tabrobust.mlp"}
    assert set(model_sites) == {
        "train", "ReferenceModel.loss_and_gradients", "ReferenceModel.input_gradient",
        "ReferenceModel.predict_proba_scaled",
    }
    assert not [attr for attr, i in model_sites.items() if i not in tracer.fired]


def test_every_defense_site_fires(tracing, small_bench):
    # Cutmix and one adversarial-training epoch make every defense call
    # the bench wraps; one that stopped going through its site would
    # otherwise show only in the slow traced run.
    model, dataset, schema, cs = small_bench
    fresh = mlp.ReferenceModel(schema.n_features, seed=3, scaler=model.scaler)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        defense.augment_dataset(dataset, schema, cs, defense.AugmentConfig(ratio=0.1, seed=3))
        defense.adversarial_train(fresh, dataset, cs, defense.ATConfig(),
                                  mlp.TrainConfig(epochs=1, seed=3), schema)
    finally:
        tracer.uninstall()
    defense_sites = {s.attr: i for i, s in enumerate(tracing.SITES)
                     if s.module == "tabrobust.defense"}
    assert len(defense_sites) == 8
    assert not [attr for attr, i in defense_sites.items() if i not in tracer.fired]
