"""The repository benchmark's timing hooks still find their targets.

``perfbench/tracer.py`` wraps public entry points of every layer from
outside the program (``PerfRecorder.observe``, ``_QueueFlow.enqueue``,
``Kernel.step``, ...).  A rename in ``src/`` would break the traced
benchmark run without failing any other test, so this installs the
tracer's hooks and takes them off again.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_every_wrapped_entry_point_resolves_and_restores():
    tracer_module = _load_tracer_module()
    for module_name, path, _key, _effect in tracer_module.SPANS:
        tracer_module._resolve(module_name, path)  # raises if it moved

    tracer = tracer_module.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert len(patched) >= len(tracer_module.SPANS)
        for owner, name, original in patched:
            assert owner.__dict__[name] is not original
    finally:
        tracer.restore()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original
