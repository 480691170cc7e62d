"""Analysis utilities: figure regeneration, reporting, sweeps."""

from .._lazy import lazy_exports

# Named like its submodule, so bound now: importing the submodule
# first would otherwise rebind the name to the module.
from .sweep import sweep

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".figures": "all_figures",
})
