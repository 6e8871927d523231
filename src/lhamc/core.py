"""Exact arithmetic, the time domain, the reader of model documents, a memo
table (:class:`Memo`), and the contract every model implements.

All quantities in the engine are exact rationals; the API takes them, and
returns times, as ``fractions.Fraction``.  Linear hybrid automaton and
reservoir ring states hold integer numerators over one common positive
denominator (see :class:`lhamc.lha.LhaSystem` and :class:`lhamc.reservoir.NResSystem`),
and each state is read and identified through its canonical text.  The
explorer, and the search hits and lasso steps it gives (:class:`Timed`
records), keep elapsed time as one integer clock over the lcm of the
durations' denominators; a ``Fraction`` is built only when ``elapsed`` is
read, and :func:`fraction_text` renders such a time as ``str(Fraction)`` would.
Durations ("time") are nonnegative rationals validated by :func:`as_time`,
and every model reads its ticks through one :class:`TickTables`: it
validates a duration once, compiles its tick table once, and returns the
state itself for a zero duration.  Atomic propositions are plain nonempty
strings.  Floating point never enters any semantic computation.
"""

from __future__ import annotations

import re
import sys
from abc import ABC, abstractmethod
from fractions import Fraction
from math import gcd
from typing import Any, Callable

ZERO = Fraction(0)
ONE = Fraction(1)


class ModelError(ValueError):
    """A model, formula, pattern, or argument violates a structural constraint."""


class ModelWarning(UserWarning):
    """A model is suspicious but still usable (e.g. unbalanced flow rates)."""


_REQUIRED = object()  # a read's default where its key must be present
_SHAPES = {dict: "a JSON object", list: "a JSON list", str: "a JSON string", int: "an integer id"}
_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$", re.ASCII)


def parse_rational(value: Any) -> Fraction:
    """Parse an exact rational from ``p``, ``-p``, or ``p/q`` text.

    Ints (but not bools or floats) pass through unchanged, so JSON numbers
    written without a fractional part are accepted.  Decimal notation is
    rejected on purpose: ``"1.5"`` is not exact input, ``"3/2"`` is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, LongNumeral)):
        raise ModelError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value)
        if m:
            num = parse_int(m.group(1))
            den = parse_int(m.group(2)) if m.group(2) is not None else 1
            if den == 0:
                raise ModelError(f"zero denominator in rational: {value!r}")
            return Fraction(num, den)
    raise ModelError(f"not a rational: {value!r} (expected 'p' or 'p/q')")


class LongNumeral:
    """A numeral past the interpreter's digit limit,
    ``sys.get_int_max_str_digits()``, kept by its digit count, not its value;
    a model document's JSON reader leaves one where the numeral stood, and
    the :class:`Doc` read of it names its place."""

    __slots__ = ("digits",)

    def __init__(self, numeral: str):
        self.digits = len(numeral.lstrip("-"))

    def __repr__(self) -> str:
        return f"a numeral of {self.digits} digits, past the limit of {sys.get_int_max_str_digits()}"


def json_int(numeral: str) -> int | LongNumeral:
    """The value of a decimal numeral, ``-`` allowed, or a
    :class:`LongNumeral` past the digit limit."""
    try:
        return int(numeral)
    except ValueError:
        return LongNumeral(numeral)


def parse_int(numeral: str, what: str = "rational") -> int:
    """The value of a decimal numeral, ``-`` allowed; past the digit limit,
    a :class:`ModelError` that names ``what`` the numeral is and gives its
    digit count, not its value."""
    value = json_int(numeral)
    if isinstance(value, LongNumeral):
        raise ModelError(f"not a {what}: {value!r}")
    return value


class Doc:
    """A JSON object or list in a model document, and its place there: the
    document's name, such as ``the automaton document``, or a path below it,
    such as ``edges[0].guard[1]``, rendered only for an error.  Each read
    checks what it reads and raises :class:`ModelError` naming the place on
    failure; a read with a ``default`` returns it where the key is absent.
    """

    __slots__ = ("value", "up", "key")

    def __init__(self, value: Any, up: Doc | str, key: Any = None, known: tuple[str, ...] | None = None):
        """``known``, where given, are the only keys the object may have; a
        loader accepts only the keys it reads, and names the first other one."""
        self.value, self.up, self.key = value, up, key
        if known is not None:
            for name in value:
                if name not in known:
                    raise ModelError(f"unknown key {name!r} in {self}")

    def __str__(self) -> str:
        return self.up if self.key is None else self.up.at(self.key)

    def at(self, key: Any) -> str:
        """The place of this document's entry ``key``."""
        if isinstance(key, int):
            return f"{self}[{key}]"
        return key if self.key is None else f"{self}.{key}"

    def get(self, key: Any, shape: type | None = None, default: Any = _REQUIRED) -> Any:
        """The entry ``key``, which is of ``shape`` if one is given."""
        try:
            value = self.value[key]
        except KeyError:
            if default is _REQUIRED:
                raise ModelError(f"{self} is missing {key!r}") from None
            return default
        if shape is None or type(value) is shape or isinstance(value, shape) and not isinstance(value, bool):
            return value
        raise ModelError(f"{self.at(key)} must be {_SHAPES[shape]}, got {value!r}")

    def object(self, key: Any, known: tuple[str, ...] | None = None, default: Any = _REQUIRED) -> Doc:
        return Doc(self.get(key, dict, default), self, key, known)

    def objects(self, key: str, known: tuple[str, ...], default: Any = _REQUIRED) -> list[Doc]:
        """The list at ``key``, of objects with only the ``known`` keys."""
        entries = Doc(self.get(key, list, default), self, key)
        return [Doc(entries.get(i, dict), entries, i, known) for i in range(len(entries.value))]

    def strings(self, key: str) -> list[str]:
        entries = Doc(self.get(key, list), self, key)
        return [entries.get(i, str) for i in range(len(entries.value))]

    def rational(self, key: str, default: Any = _REQUIRED, read: Callable = parse_rational) -> Fraction:
        """The rational at ``key``, as ``read`` parses and validates it."""
        value = self.get(key, None, default)
        try:
            return read(value)
        except ModelError as err:
            raise ModelError(f"{self.at(key)}: {err}") from None

    def rationals(self, key: str, default: Any = _REQUIRED) -> dict[str, Fraction]:
        """The object at ``key``, of rationals."""
        doc = self.object(key, None, default)
        return {name: doc.rational(name) for name in doc.value}


def as_time(value: Any, step: str = "") -> Fraction:
    """Validate a duration: an exact rational that is >= 0, and > 0 if it is
    a ``step``, such as a sampling increment, that time advances by."""
    t = parse_rational(value)
    if t < 0:
        raise ModelError(f"negative duration: {t}")
    if step and t == 0:
        raise ModelError(f"{step} must be positive")
    return t


def fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, with one gcd."""
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def fraction_texts(start: int, step: int, den: int, count: int) -> list[str]:
    """``[fraction_text(start + k * step, den) for k in range(count)]``.

    The reduced denominator of ``start + k * step`` over ``den`` repeats with
    period ``den // gcd(step, den)`` in ``k``, so each residue class of ``k``
    is one integer range over one denominator, rendered without a gcd per item.
    """
    if step == 0:
        return [fraction_text(start, den)] * max(count, 0)
    out = [""] * max(count, 0)
    period = den // gcd(step, den)
    for r in range(min(period, count)):
        num = start + r * step
        g = gcd(num, den)
        first, stride, times = num // g, period * step // g, len(range(r, count, period))
        suffix = "" if g == den else f"/{den // g}"
        out[r::period] = [f"{n}{suffix}" for n in range(first, first + times * stride, stride)]
    return out


def as_clock(elapsed: Any, scale: int = 1) -> tuple[int, int]:
    """The time ``elapsed / scale`` as (integer numerator, positive scale)."""
    t = elapsed if isinstance(elapsed, (int, Fraction)) else Fraction(elapsed)
    return t.numerator, t.denominator * scale


class Timed:
    """A record whose time is an integer ``clock`` numerator over a positive
    ``scale``, as :func:`as_clock` reads it; ``elapsed``, its ``Fraction``, is
    built when read.  Records of a class compare, hash and print by their
    ``_fields``, as a dataclass of those fields would."""

    __slots__ = ("clock", "scale")
    _fields: tuple[str, ...] = ()
    elapsed = property(lambda self: Fraction(self.clock, self.scale))

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: Any) -> Any:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


class Memo(dict):
    """A dict that fills a missing key with ``make(key)`` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], Any]):
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


class TickTables(Memo):
    """A model's compiled tick tables by duration.

    ``of(delta)`` validates a duration object it did not see last with
    :func:`as_time` before any lookup, since ``1.0`` and ``True`` hash like
    ``Fraction(1)``; it builds the table with ``make`` once per distinct
    duration, and is None for a zero duration.  The last duration object is
    recognised by identity, so an explorer that passes one ``Fraction`` on
    every tick pays one comparison.
    """

    __slots__ = ("last", "table")

    def __init__(self, make: Callable[[Fraction], Any]):
        super().__init__(make)
        self.last, self.table = ZERO, None

    def of(self, delta: Any) -> Any:
        if delta is not self.last:
            d = as_time(delta)
            self.table, self.last = self[d] if d else None, delta
        return self.table


def check_prop_name(name: Any) -> str:
    if not isinstance(name, str) or not name:
        raise ModelError(f"proposition names are nonempty strings, got {name!r}")
    return name


# consecutive state texts of a run, and the enabled labels and annotations
# that each of them has
Segment = tuple[list[str], list[str], dict[str, list]]


class TimedTransitionSystem(ABC):
    """What the exploration engine needs from a model.

    States are opaque immutable values.  Implementations must be
    deterministic: the same state always yields the same successor list in
    the same order, and :meth:`serialize` is injective on semantically
    distinct states (it doubles as the dedup key during search).

    A simulation takes its whole run of ticks from :meth:`timed_trace`, as
    segments of consecutive state texts that share their enabled labels and
    annotations.  A linear hybrid automaton and a reservoir ring compute
    those segments in closed form, and the texts, labels and annotations, and
    so the output, are those of stepping one tick at a time.  A check leaps
    over :meth:`quiet` stretches, and reads the texts of a lasso's stretch
    from :meth:`timed_trace`.
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

    def quiet(self, state: Any, delta: Fraction, limit: int) -> tuple[int, Any] | None:
        """``(k, the state after k ticks of delta)``, 1 < k <= ``limit``, when
        ``state`` and the k - 1 states after it have no discrete successor, an
        unblocked tick and ``state``'s propositions; else None, as always here."""
        return None

    def timed_trace(self, state: Any, delta: Fraction, count: int) -> list[Segment]:
        """The run of ``state`` and the states after 1, ..., ``count`` steps
        of ``delta``, as (texts, enabled labels, annotations) segments.

        The texts of the segments, in order, are the run's states serialized;
        every state of a segment has its segment's :meth:`annotations` and
        labels, the sorted labels of its discrete steps.  The run ends early,
        before the first blocked step, and is ``state`` alone when ``count``
        is not positive.  This default calls :meth:`timed_successor` once per
        step and makes one segment per state; a model that overrides it
        returns the same texts, labels and annotations.  A check prints the
        states inside a :meth:`quiet` stretch with the texts of this run.
        """
        segments = []
        for k in range(max(count, 0) + 1):
            if k:
                state = self.timed_successor(state, delta)
                if state is None:
                    break
            labels = sorted({label for label, _ in self.discrete_successors(state)})
            segments.append(([self.serialize(state)], labels, self.annotations(state)))
        return segments

    @abstractmethod
    def prop_holds(self, state: Any, prop: str) -> bool:
        """Whether atomic proposition ``prop`` holds in ``state``."""

    @abstractmethod
    def serialize(self, state: Any) -> str:
        """Canonical single-line text for ``state``."""

    def propositions(self) -> frozenset[str]:
        """The atomic propositions this model can evaluate."""
        return frozenset()

    def annotations(self, state: Any) -> dict[str, list]:
        """Named lists of facts about ``state`` that a simulation reports."""
        return {}
