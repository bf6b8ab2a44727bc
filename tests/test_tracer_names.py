"""The names ``bench/tracing.py`` times stay resolvable.

The tracer looks up each ``BOUNDARIES`` entry by name: a module attribute,
or a method in its class's own ``__dict__``. Removing or renaming one of
those names fails here, in the tier-1 suite, and not only in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from pkgverse import ingest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_boundary_resolves_as_the_tracer_looks_it_up():
    missing = []
    for name, module_name, attr, _ in _boundaries():
        module = importlib.import_module("pkgverse." + module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(name)
    assert missing == []


def test_the_ingest_aliases_are_the_walkers():
    # the tracer times the CLI's walkers only while these are one object each
    assert ingest.parse_registry_dump is ingest.registry_dump_records
    assert ingest.parse_contribution_events is ingest.contribution_records
