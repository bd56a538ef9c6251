"""Every name the perfbench layer tracer patches still exists in agridw.

The tracer (``perfbench/layertrace.py``) wraps functions by module path and
attribute name; a rename in ``src/agridw`` would otherwise surface only when
the benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _patches():
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("target, attr", [(t, a) for t, a, _name, _folded in _patches()])
def test_patched_name_resolves_to_a_callable(target, attr):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None)), f"{target}.{attr} is not a callable"
