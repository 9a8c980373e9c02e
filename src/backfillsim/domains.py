"""Config key domains, declared once in each section's field annotations.

A field such as `n_brokers: Count = 20` declares a key's name, default and
domain: an `Annotated` type carrying a `Domain`, a `Literal` of the allowed
values (matched on type too, so 8.0 is not 8), or `Optional` of either.
`Checked.__post_init__` checks every declared key before a section's own
`__post_init__` relates keys to one another; each rejection reads
`<key> must be <domain>, got <value!r>`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from typing import (Annotated, Callable, Literal, NamedTuple, Optional, Union, get_args,
                    get_origin, get_type_hints)


class Domain(NamedTuple):
    text: str  # completes "<key> must be ..."
    holds: Callable[[object], bool]


def is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def is_real(value) -> bool:
    # a bool is an int and a quoted number a str; neither is a number here
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def real(text: str, test: Callable[[float], bool]) -> Domain:
    """The finite numbers that pass `test`."""
    return Domain(text, lambda v: is_real(v) and test(v))


def entries(text: str, entry: Callable[[object], bool]) -> Domain:
    """The non-empty lists whose every entry passes `entry`."""
    return Domain(text, lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                  and all(map(entry, v)))


Count = Annotated[int, Domain("an integer >= 1", lambda v: is_int(v, 1))]
NonNegativeInt = Annotated[int, Domain("an integer >= 0", lambda v: is_int(v, 0))]
Positive = Annotated[float, real("a finite number > 0", lambda v: v > 0)]
NonNegative = Annotated[float, real("a finite number >= 0", lambda v: v >= 0)]
Probability = Annotated[float, real("a number in [0, 1]", lambda v: 0 <= v <= 1)]
Text = Annotated[str, Domain("a non-empty string", lambda v: isinstance(v, str) and v != "")]


def _domain(hint) -> Optional[Domain]:
    origin = get_origin(hint)
    if origin is Annotated:
        return next((meta for meta in hint.__metadata__ if isinstance(meta, Domain)), None)
    if origin is Literal:
        choices = get_args(hint)
        return Domain(f"one of {choices!r}", lambda v: any(
            type(v) is type(choice) and v == choice for choice in choices))
    if origin is Union and type(None) in get_args(hint):
        inner = _domain(next(arg for arg in get_args(hint) if arg is not type(None)))
        return inner and Domain(f"{inner.text} or null", lambda v: v is None or inner.holds(v))
    return None


@functools.cache
def declared(cls) -> tuple[tuple[str, Domain], ...]:
    """(key, domain) of each init field of `cls` that declares one; a class's
    annotations are resolved on its first construction only."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, domain) for f in fields(cls)
                 if f.init and (domain := _domain(hints[f.name])) is not None)


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, (list, tuple)) else value


class Checked:
    """Base of every config section: construction checks each declared key,
    then stores a list (YAML loads a sequence as one) as nested tuples, so a
    section stays hashable and equal to one built from its defaults."""

    def __post_init__(self):
        for name, domain in declared(type(self)):
            value = getattr(self, name)
            if not domain.holds(value):
                raise ValueError(f"{name} must be {domain.text}, got {value!r}")
            if isinstance(value, (list, tuple)):
                object.__setattr__(self, name, _tuples(value))
