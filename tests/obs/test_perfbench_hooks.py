"""The benchmark's span hooks resolve on the program they wrap.

``perfbench/layers.py`` wraps public callables by module and attribute
name (its ``_TARGETS``) at the start of every traced benchmark run; a
renamed function or a dropped import there would break each such run.
The module is read here without installing its wrappers.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def test_every_wrapped_callable_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers._TARGETS
    for owner, attr, span_name in layers._TARGETS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
        assert span_name.startswith("perfbench.")
