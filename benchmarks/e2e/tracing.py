"""Outside-in layer tracing: wrap each layer's public callables.

:func:`install` replaces every callable named in
:data:`spec.LAYERS` with a timing wrapper.  Methods are replaced on
their class.  Functions are replaced by identity in every loaded
``repro`` module namespace, because several modules import them by
name (``fleet.runtime`` holds its own ``prf`` and
``derive_key_block``).  Install before the first iteration, so that
closures the program compiles per connection pick up the wrappers.

A wrapped call's *self time* is its duration minus the durations of
the wrapped calls made inside it, so the self times of all layers add
up to the time spent inside any wrapped call.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns
from typing import Callable, Dict

from . import spec


class Ledger:
    """Self time, call counts and extra counts per layer."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in spec.LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in spec.LAYERS}
        self.counts: Dict[str, int] = {
            f"{layer}.{extra}": 0
            for layer in spec.LAYERS for extra in spec.layer_extras(layer)}
        # Frame stack of child durations; the bottom entry collects the
        # time spent inside top-level wrapped calls.
        self.stack = [0]
        self._replaced = []

    def replace(self, owner, name: str, original, wrapper) -> None:
        """Set ``owner.name`` to ``wrapper``, remembering ``original``."""
        setattr(owner, name, wrapper)
        self._replaced.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every replaced callable back."""
        while self._replaced:
            owner, name, original = self._replaced.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Zero every total in place (the wrappers hold the dicts)."""
        for table in (self.self_ns, self.calls, self.counts):
            for key in table:
                table[key] = 0
        self.stack[:] = [0]

    @property
    def attributed_ns(self) -> int:
        """Time spent inside top-level wrapped calls since the reset."""
        return self.stack[0]

    def wrap(self, fn: Callable, layer: str, extra) -> Callable:
        """A timing wrapper of ``fn`` charging ``layer``."""
        stack = self.stack
        self_ns = self.self_ns
        calls = self.calls
        counts = self.counts
        key = f"{layer}.{extra}"
        by_length = extra == "bytes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                counts[key] += len(args[1]) if by_length else 1
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                stack[-1] += elapsed
                self_ns[layer] += elapsed - children
                calls[layer] += 1
        return wrapper


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def install() -> Ledger:
    """Wrap every target of :data:`spec.LAYERS`; returns the ledger.

    :meth:`Ledger.uninstall` puts the originals back (a child process
    never needs to; an in-process test does)."""
    ledger = Ledger()
    for layer, targets in spec.LAYERS.items():
        for target, extra in targets:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                cls = getattr(module, class_name)
                original = cls.__dict__[method]
                if not callable(original):
                    raise TypeError(f"{target} is not a plain method")
                ledger.replace(cls, method, original,
                               ledger.wrap(original, layer, extra))
                continue
            original = getattr(module, path)
            wrapper = ledger.wrap(original, layer, extra)
            for namespace in _repro_modules():
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        ledger.replace(namespace, name, original, wrapper)
    return ledger
