"""Exact arithmetic, the time domain, and the contract every model implements.

All quantities in the engine are exact rationals; the API takes them, and
returns times, as ``fractions.Fraction``, save that a ``Kripke``'s ``clock``
view holds integer numerators.  Linear hybrid automaton and reservoir ring states hold
integer numerators over one common positive denominator (see
:class:`lhamc.lha.LhaSystem` and :class:`lhamc.reservoir.NResSystem`), and
each state is read and identified through its canonical text; the explorer
and its Kripke structures keep elapsed time as one integer clock over the
lcm of the durations' denominators, and :func:`fraction_text` renders such a
pair exactly as ``str(Fraction)`` would.
Durations ("time") are nonnegative rationals validated by :func:`as_time`;
atomic propositions are plain nonempty strings.  Floating point never enters
any semantic computation.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from fractions import Fraction
from math import gcd
from typing import Any

ZERO = Fraction(0)
ONE = Fraction(1)


class ModelError(ValueError):
    """A model, formula, pattern, or argument violates a structural constraint."""


class ModelWarning(UserWarning):
    """A model is suspicious but still usable (e.g. unbalanced flow rates)."""


_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_rational(value: Any) -> Fraction:
    """Parse an exact rational from ``p``, ``-p``, or ``p/q`` text.

    Ints (but not bools or floats) pass through unchanged, so JSON numbers
    written without a fractional part are accepted.  Decimal notation is
    rejected on purpose: ``"1.5"`` is not exact input, ``"3/2"`` is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ModelError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value)
        if m:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) is not None else 1
            if den == 0:
                raise ModelError(f"zero denominator in rational: {value!r}")
            return Fraction(num, den)
    raise ModelError(f"not a rational: {value!r} (expected 'p' or 'p/q')")


def json_shape(value: Any, shape: type, where: str) -> Any:
    """``value`` if it is a JSON object (``dict``) or list (``list``) as
    ``shape`` says; model loaders check document shapes with it."""
    if not isinstance(value, shape):
        raise ModelError(f"{where} must be a JSON {'object' if shape is dict else 'list'}, got {value!r}")
    return value


def json_objects(value: Any, where: str) -> list[dict]:
    """``value`` if it is a JSON list of objects."""
    return [json_shape(item, dict, f"each entry of {where}") for item in json_shape(value, list, where)]


def as_time(value: Any) -> Fraction:
    """Validate a duration: an exact rational that is >= 0."""
    t = parse_rational(value)
    if t < 0:
        raise ModelError(f"negative duration: {t}")
    return t


def fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, with one gcd."""
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def check_prop_name(name: Any) -> str:
    if not isinstance(name, str) or not name:
        raise ModelError(f"proposition names are nonempty strings, got {name!r}")
    return name


class TimedTransitionSystem(ABC):
    """What the exploration engine needs from a model.

    States are opaque immutable values.  Implementations must be
    deterministic: the same state always yields the same successor list in
    the same order, and :meth:`serialize` is injective on semantically
    distinct states (it doubles as the dedup key during search).
    """

    @abstractmethod
    def initial_state(self) -> Any:
        """The unique start state."""

    @abstractmethod
    def discrete_successors(self, state: Any) -> list[tuple[str, Any]]:
        """All instantaneous steps from ``state`` as (rule label, successor) pairs.

        The list is deterministically ordered, by (label, serialized
        successor) unless the model documents a different total order.
        """

    @abstractmethod
    def timed_successor(self, state: Any, delta: Fraction) -> Any | None:
        """The state after letting ``delta`` time pass, or None if blocked.

        A zero duration always succeeds and returns ``state`` itself.
        """

    @abstractmethod
    def prop_holds(self, state: Any, prop: str) -> bool:
        """Whether atomic proposition ``prop`` holds in ``state``."""

    @abstractmethod
    def serialize(self, state: Any) -> str:
        """Canonical single-line text for ``state``."""

    def propositions(self) -> frozenset[str]:
        """The atomic propositions this model can evaluate."""
        return frozenset()

    def enabled_labels(self, state: Any) -> list[str]:
        """The sorted distinct labels of the discrete steps from ``state``."""
        return sorted({label for label, _ in self.discrete_successors(state)})

    def annotations(self, state: Any) -> dict[str, list]:
        """Named lists of facts about ``state`` that a simulation reports."""
        return {}
