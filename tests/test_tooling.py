"""Guards for the benchmark tooling that patches package internals."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_bindings_that_exist():
    # The tracer replaces each name in the namespace its callers look it up
    # in; a refactor that drops or moves one of those bindings breaks
    # `perfbench/run.py --trace 1` with a KeyError.
    missing = []
    for module_path, attr, _ in _load_tracer().WRAPS:
        first, *rest = module_path.split(".")
        owner = importlib.import_module(f"kanreg.{first}")
        for part in rest:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{module_path}.{attr}")
    assert missing == []
