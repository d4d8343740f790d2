"""Every name the per-layer tracer wraps must resolve in the package.

`perfbench/tracer.py` looks functions up by the module name their callers
use, so an import that nothing in `src/` calls (such as `gin_encode` in
`infoalign.evalkit`) is still needed: without it a traced run fails with
AttributeError. The tracer is loaded by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


WRAPS = load_wraps()


@pytest.mark.parametrize("module,path", [(w[0], w[1]) for w in WRAPS],
                         ids=[f"{w[0]}:{w[1]}" for w in WRAPS])
def test_wrapped_name_resolves(module, path):
    owner = importlib.import_module(module)
    for name in path.split("."):
        assert hasattr(owner, name), f"{module} has no {path}"
        owner = getattr(owner, name)
    assert callable(owner)
