"""Guards for the benchmark tooling that looks up package names from outside.

``perfbench/tracing.py`` patches each ``(module, attribute)`` in its
``TARGETS`` table; a name removed from the package would make
``perfbench/run.py --trace 1`` fail, so the suite checks them here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []
