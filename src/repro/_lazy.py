"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` names its public objects and the
submodule each one lives in, and imports nothing: the first access to a
name imports its submodule.  ``import repro`` therefore loads no numpy,
and ``psgl count`` loads only the modules its run touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a relative submodule name (``".graph"``) to the
    public names it defines, in ``__all__`` order.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        # Cache it: the next access is a plain module-dict hit.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
