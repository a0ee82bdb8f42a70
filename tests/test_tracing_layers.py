"""The benchmark's span map must name real methods, one span per call.

perfbench/tracing.py patches each (owner, attribute) of a layer on its
owner. If one owner inherited a traced method from another owner of the
same layer, a call would pass through both wrappers and record two spans.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.layers()


def test_traced_methods_resolve_and_are_not_inherited_between_owners():
    for name, targets in _layers().items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), (name, owner, attr)
        patched = {(owner, attr) for owner, attr in targets if isinstance(owner, type)}
        for owner, attr in patched:
            # where the lookup on owner stops once every owner carries a wrapper
            if attr not in vars(owner):
                base = next(c for c in owner.__mro__[1:]
                            if attr in vars(c) or (c, attr) in patched)
                assert (base, attr) not in patched, (name, owner, attr)
