"""The paper's core content: challenge models and the secure platform.

Quantitative challenge models (§3): the Figure 3 processing-gap
surface, the Figure 4 battery-life analysis, and the Figure 2 protocol
evolution timeline.  Platform architecture (§4): the Figure 1 concern
taxonomy, the Figure 5 layered hierarchy, the Figure 6 modular base
architecture, secure boot, key storage, the two-world secure execution
environment, biometric user identification, DRM, and the complete
:class:`~repro.core.appliance.MobileAppliance` composition.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".appliance": "provision_appliance",
})
