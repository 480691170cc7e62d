"""PEP 562 lazy exports shared by the package ``__init__`` modules.

A package lists, per submodule, the public names that submodule
defines.  Reading one of them loads only that submodule; the value is
then cached in the package namespace, so importing a package costs
only what its caller uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Tuple


def lazy_exports(package: str,
                 sources: Dict[str, str]) -> Tuple[Callable, Callable]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``sources`` maps each module, named relative to the package
    (``".aes"``), to the space-separated names it provides.  A
    submodule that lists its own name exports itself.  Names the
    package binds when it is imported never reach ``__getattr__``.
    """
    owner = {name: module for module, names in sources.items()
             for name in names.split()}

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

    return __getattr__, __dir__
