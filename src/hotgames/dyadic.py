"""Exact dyadic rational arithmetic.

Every quantity the engine handles (stops, temperatures, thermograph
coordinates, bound constants) is a rational with a power-of-two
denominator. Values are normalized on construction, so equality and
hashing are structural. The public constructor `Dyadic(num, exp)`
validates its parts; arithmetic builds its results with the internal
`_make`, which only normalizes. Numerators are plain ints: magnitude is
bounded only by memory, never by a machine word, and no float ever
enters a computation.
"""

from __future__ import annotations

import re

# ASCII digits only: a Unicode \d would also read "٣" or "３" as 3
_FRACTION_RE = re.compile(r"([+-]?\d+)/(\d+)\Z", re.ASCII)
_DECIMAL_RE = re.compile(r"([+-]?\d+)\.(\d+)\Z", re.ASCII)
_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)


class Dyadic:
    """num / 2**exp, normalized so exp >= 0 and (exp == 0 or num is odd)."""

    __slots__ = ("num", "exp")

    def __new__(cls, num: int, exp: int = 0) -> "Dyadic":
        if not isinstance(num, int) or not isinstance(exp, int):
            raise TypeError(f"Dyadic parts must be int, got {num!r}, {exp!r}")
        if exp < 0:
            raise ValueError(f"negative exponent: {exp}")
        return _make(num, exp)

    def __reduce__(self):
        # pickle and copy through the validating constructor
        return Dyadic, (self.num, self.exp)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse "5", "-3/4" (power-of-two denominator) or "1.25"."""
        s = text.strip()
        if _INT_RE.match(s):
            return cls(int(s))
        m = _FRACTION_RE.match(s)
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            if den <= 0 or den & (den - 1):
                raise ValueError(f"denominator is not a power of two: {text!r}")
            return cls(num, den.bit_length() - 1)
        m = _DECIMAL_RE.match(s)
        if m:
            digits = m.group(2)
            k = len(digits)
            whole = int(m.group(1))
            frac = int(digits)
            num = abs(whole) * 10**k + frac
            if s.lstrip().startswith("-"):
                num = -num
            # num / 10**k is dyadic iff 5**k divides num
            five = 5**k
            if num % five:
                raise ValueError(f"not a dyadic rational: {text!r}")
            return cls(num // five, k)
        raise ValueError(f"malformed dyadic literal: {text!r}")

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Dyadic | None":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return _make(other, 0)
        return None

    def __add__(self, other):
        o = other if other.__class__ is Dyadic else self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exp, o.exp)
        return _make((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is Dyadic else self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exp, o.exp)
        return _make((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self.num, self.exp)

    def __abs__(self):
        return _make(abs(self.num), self.exp)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def half(self) -> "Dyadic":
        return _make(self.num, self.exp + 1)

    # -- order ------------------------------------------------------------

    def __eq__(self, other):
        o = other if other.__class__ is Dyadic else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.exp == o.exp

    def __lt__(self, other):
        # a / 2^e < b / 2^f exactly when a * 2^f < b * 2^e; Dyadic operands
        # skip the coercion call: stops comparisons are a hot path of `_leq`
        o = other if other.__class__ is Dyadic else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num << o.exp < o.num << self.exp

    def __le__(self, other):
        o = other if other.__class__ is Dyadic else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num << o.exp <= o.num << self.exp

    def __gt__(self, other):
        o = other if other.__class__ is Dyadic else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num << o.exp > o.num << self.exp

    def __ge__(self, other):
        o = other if other.__class__ is Dyadic else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num << o.exp >= o.num << self.exp

    def __hash__(self):
        # integer-valued dyadics normalize to exp == 0, so hashing them
        # like plain ints keeps mixed int/Dyadic dict keys coherent
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    def __bool__(self):
        return self.num != 0

    # -- views ------------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.exp == 0

    def __int__(self) -> int:
        if self.exp:
            raise ValueError(f"{self} is not an integer")
        return self.num

    def __float__(self) -> float:
        # rendering only; exact code paths never call this
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({str(self)!r})"


_new = object.__new__


def _make(num: int, exp: int) -> Dyadic:
    """num / 2**exp, normalized, for int parts with exp >= 0. Internal:
    arithmetic on Dyadics builds its results here, without the checks of
    the public constructor `Dyadic(num, exp)`, which validates and then
    calls this."""
    if num == 0:
        exp = 0
    elif exp:
        # strip common factors of two (trailing zero bits of num)
        shift = min(exp, (num & -num).bit_length() - 1)
        num >>= shift
        exp -= shift
    d = _new(Dyadic)
    d.num = num
    d.exp = exp
    return d


ZERO = Dyadic(0)
MINUS_ONE = Dyadic(-1)


def dyadic(value) -> Dyadic:
    """Coerce an int, string or Dyadic to a Dyadic."""
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, int):
        return Dyadic(value)
    if isinstance(value, str):
        return Dyadic.parse(value)
    raise TypeError(f"cannot make a Dyadic from {value!r}")
