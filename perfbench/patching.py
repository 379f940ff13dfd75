"""Replace attributes of moesim's modules and classes from outside the
package, and put the originals back.

Both the trace and the output capture for the correctness checks wrap a
function at the point where its callers look it up: a module global of the
calling module (`moesim.experiments.global_lipschitz`), or a class attribute
(`moesim.core.Dataset.neighbor_rows`).  The package itself is not changed.
"""

from __future__ import annotations

import importlib
from typing import Callable


def resolve(target: str) -> tuple[object, str]:
    """`"pkg.module:attr"` or `"pkg.module:Class.attr"` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patches:
    """A set of wrapped attributes; `restore` undoes them in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        """Replace `target` with `make_wrapper(original function)`.

        Class attributes are read from the class `__dict__`, so a classmethod
        or staticmethod is rewrapped as one and a plain method still receives
        `self`.
        """
        owner, attr = resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new: object = type(raw)(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
