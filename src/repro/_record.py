"""Record classes without code generation.

``@dataclass`` builds each class's ``__init__``, ``__repr__`` and
``__eq__`` by compiling source text when the class is created: a
millisecond or so per class, paid on every cold start of ``psgl``.  The
records a count imports are plain ``__slots__`` classes with
hand-written constructors instead; these two bases give them what the
dataclasses did besides: field-wise ``==`` and ``repr`` over
``__slots__`` in declaration order, and, for :class:`FrozenRecord`,
fields that refuse assignment after ``__init__``.
"""

from __future__ import annotations

from typing import Any, Tuple


class Record:
    """Field-wise equality and ``repr`` over the class's ``__slots__``."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]  # mutable: not hashable

    def _values(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__
            if not name.startswith("_")
        )
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A :class:`Record` whose fields are set once, in ``__init__``
    (through ``object.__setattr__``), and hashed and pickled by value."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot assign to {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}"
        )

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # ``__init__`` takes the fields in slot order.
        return type(self), self._values()
