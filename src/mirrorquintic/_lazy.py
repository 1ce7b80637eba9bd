"""numpy, loaded on the first array operation.

A cache-hit `mql trace`, `ledger-dump` or `--version` builds no array, yet
importing numpy is about two fifths of such a run's time and a quarter
of its peak memory.  The package therefore takes numpy from lazy_numpy()
and reads `np.<attr>` only inside function bodies, never while its
modules import (tests/test_tooling.py checks both).
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_numpy():
    """The numpy module, executed when one of its attributes is first read.

    If numpy is already in sys.modules, that module is returned as it is.
    Otherwise the module is registered there through
    importlib.util.LazyLoader and runs on its first attribute access.

    That first access is not thread-safe on Python 3.11: LazyLoader swaps
    the module's class before numpy has finished executing, so a second
    thread can read a half-initialized module.  The package starts no
    thread; a caller that runs counts on its own threads must touch numpy
    in the calling thread first.
    """
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module
