"""The benchmark's tracer (``perfbench/tracing.py``) replaces program
functions by module attribute, so a renamed or deleted attribute would only
surface when ``perfbench/run.py --trace 1`` installs it.  This test loads the
tracer as it is and checks that every traced name still resolves."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{module.__name__}.{attr} (for {name})"
               for name, sites in tracing.TRACED.items()
               for module, attr in sites
               if not callable(getattr(module, attr, None))]
    assert not missing, missing
