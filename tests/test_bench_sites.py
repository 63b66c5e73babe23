"""The traced benchmark run (`bench/tracing.py`) patches functions where
they are called. A refactor that renames or moves one of those call
sites must fail here, not only in the traced run. The test imports
`bench/` and leaves it unchanged."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    for site in tracing.SITES:
        owner, name = tracing._owner(site)
        # The lookup Tracer.install makes before patching the name.
        found = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        assert callable(found), f"{site.module}.{site.attr} does not exist"
