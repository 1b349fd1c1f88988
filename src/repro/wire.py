"""One wire format for value objects, derived from their dataclass fields.

The configs, specs and results that the result store persists and the job
fingerprints hash mix in :class:`Wire`, which gives them ``to_dict`` and
``from_dict``:

* ``to_dict`` writes one key per dataclass field, in declaration order.
  Nested objects are written through their own ``to_dict``, sequences as
  lists and mappings in key order, recursively.
* ``from_dict`` coerces each value to its field's annotation (a nested
  class through its ``from_dict``), so a decoded object re-encodes to the
  same dict.  Keys that name no field are ignored; a missing key takes the
  field's default, and a missing key for a field without one raises.
* A class with a versioned form sets :attr:`Wire.WIRE_FORMAT`: its form
  then carries a ``format`` key, and ``from_dict`` refuses any other
  version with :class:`~repro.errors.ConfigError`.

So a field added to a config is in the wire form, and therefore in every
fingerprint that embeds it, without further code.  Annotations are
resolved once per class with :func:`typing.get_type_hints`, so every name
a field annotation uses must be importable at run time.  The only unions
decoded are ``Optional[X]``.
"""

from __future__ import annotations

import copy
import dataclasses
import types
from functools import cache
from typing import Any, Callable, ClassVar, Optional, Union, get_args, get_origin, get_type_hints

from repro.errors import ConfigError

_PLAIN = frozenset({int, float, str, bool, type(None)})


def _encode(value: object) -> object:
    """The JSON-ready form of one field value."""
    if type(value) in _PLAIN:
        return value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    raise TypeError(f"cannot encode a {type(value).__name__}")


def _decoder(hint: Any) -> Callable[[Any], Any]:
    """The function that rebuilds a value of type ``hint`` from its form."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union or origin is types.UnionType:
        members = [arg for arg in args if arg is not type(None)]
        if len(members) != 1:
            raise TypeError(f"cannot decode {hint}: only Optional unions are supported")
        decode = _decoder(members[0])
        return lambda value: None if value is None else decode(value)
    if origin is list or origin is tuple:
        decode = _decoder(args[0])
        return lambda value: origin(decode(item) for item in value)
    if origin is dict:
        decode_key, decode = _decoder(args[0]), _decoder(args[1])
        return lambda value: {decode_key(k): decode(v) for k, v in value.items()}
    if hint is dict:
        return copy.deepcopy
    return getattr(hint, "from_dict", hint)


@cache
def _fields(cls: type) -> tuple[tuple[str, Callable[[Any], Any]], ...]:
    """(name, decoder) of each of ``cls``'s fields, in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f.name, _decoder(hints[f.name])) for f in dataclasses.fields(cls))


class Wire:
    """Mixin for dataclasses: ``to_dict``/``from_dict`` from the fields."""

    #: Version written as the form's ``format`` key; None writes no key.
    WIRE_FORMAT: ClassVar[Optional[int]] = None

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form: one key per field (module docstring)."""
        out: dict[str, object] = {}
        if self.WIRE_FORMAT is not None:
            out["format"] = self.WIRE_FORMAT
        for name, _ in _fields(type(self)):
            out[name] = _encode(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: dict[str, object]):
        """Inverse of :meth:`to_dict` (re-validates through ``__post_init__``)."""
        if cls.WIRE_FORMAT is not None and data.get("format") != cls.WIRE_FORMAT:
            raise ConfigError(
                f"unsupported serialized {cls.__name__} format {data.get('format')!r}"
            )
        return cls(**{name: decode(data[name]) for name, decode in _fields(cls) if name in data})
