"""PEP 562 lazy exports shared by the package ``__init__`` modules.

A package lists, per submodule, the names its callers import through
the package; that map is its one list of exports.  Reading one of them
loads only that submodule; the value is then cached in the package
namespace, so importing a package costs only what its caller uses.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, sources: Dict[str, str]
                 ) -> Tuple[List[str], Callable, Callable]:
    """The module ``__all__``, ``__getattr__`` and ``__dir__`` of ``package``.

    ``sources`` maps each module, named relative to the package
    (``".aes"``), to the space-separated names it provides.  A
    submodule that lists its own name exports itself.  ``__all__`` is
    those names plus the public non-module names the package bound
    before the call (``from .sha1 import sha1``), which never reach
    ``__getattr__``; a submodule an import loaded on the way is not
    exported unless ``sources`` lists it.
    """
    owner = {name: module for module, names in sources.items()
             for name in names.split()}
    eager = {name for name, value in vars(sys.modules[package]).items()
             if not name.startswith("_") and value is not lazy_exports
             and not isinstance(value, ModuleType)}

    def __getattr__(name: str):
        module_name = owner.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name, package)
        value = module if module_name == "." + name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return sorted(eager | set(owner)), __getattr__, __dir__
