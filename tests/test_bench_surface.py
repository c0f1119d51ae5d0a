"""The library names that the benchmark's tracer wraps stay importable.

``bench/tracing.py`` replaces these names in their modules during a traced
run; a rename in the library would only show up there.  The tracer module
imports nothing but numpy and the standard library, so it is loaded by file
path rather than through the benchmark's own test configuration.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_library_name_exists():
    tracing = _load_tracing()
    targets = [(mod, attr) for mod, attr, _ in tracing.SPAN_TARGETS]
    targets += [tracing.SBAR_TARGET, *tracing.FIT_TARGETS]
    assert len(targets) > 20
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
