"""numpy for the numerical half, loaded at its first attribute access.

The exact half never touches numpy, so a fresh process that only
validates, reduces or measures never pays for importing it.  This is the
``importlib.util.LazyLoader`` recipe from the importlib documentation.
"""
import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ImportError(f"curvedegen needs {name}, which is not installed", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
