"""Every function the benchmark's layer probes wrap must exist.

``perfbench/probes.py`` swaps named functions for span wrappers, and
its ``install`` reads each target from its owner's ``__dict__``.  A
change that deletes or renames a probed function breaks the traced
benchmark run; this check catches it in tier-1.  The probes module is
loaded from its file, without touching ``sys.path``, so no tier-1
module name is shadowed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

PROBES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _probes_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_probes_under_test", PROBES_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    targets = [(mod, path) for mod, path, _, _ in _probes_module().PROBES]
    # ``install`` also wraps the service's handler factory by name.
    return targets + [("repro.serving.service", "_make_handler")]


@pytest.mark.parametrize("module_name,path", _targets())
def test_probed_name_resolves(module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__, f"{module_name}.{path} is probed by name"
