"""Exact arbitrary-precision naturals and scaled decimals.

Every series value in this package flows through the two types defined
here; no float ever touches a computation path.

``BigNat``
    Unbounded non-negative integer stored as little-endian limbs in base
    10**9.  The power-of-ten base makes decimal scaling a pure limb/digit
    shift, so multiplying or dividing by 10**k is always exact.

``FixedDec``
    Signed scaled decimal: value = sign * mantissa * 10**-scale with an
    explicit, caller-visible scale.  Rescaling down, division and
    multiplication all truncate toward zero - never round.  Truncation
    keeps results bit-reproducible and plays nicely with alternating
    series error analysis; callers absorb the drift with guard digits.
    Its arithmetic is spelled ``fd_*`` only; the class itself keeps
    ``-x``, ``abs()`` and the value comparisons.  ``fd_to_int`` is its
    one int view, so no other module reads the sign and mantissa.

``widen_until_settled``
    The one settle rule: a value's proven floor at a scale, read off two
    int ends that widen by GUARD digits until both floor alike.  It is
    also the one rounding: a rounded value floors a bracket shifted half
    an ulp up.

Operands range from a few limbs to a few thousand digits (``--scale``
goes up to 2000, and a 1000-digit pi multiplies and divides 1000-digit
mantissas).  The linear ``BigNat`` operations (add, subtract, compare,
division by one limb, decimal down-shift) run as limb loops, and add
and subtract stop where the shorter operand and its carry end, copying
the longer operand's high limbs as one slice; the quadratic ones
(multi-limb division, products, decimal up-shift, the integer square
root) convert to Python ``int`` and back, since CPython does those
textbook algorithms in C.  A ``FixedDec`` value comparison aligns its
operands' scales through ``fd_to_int`` and builds no ``BigNat``.  The series
kernels keep their divisors to one limb where they can.  All values are
immutable after construction and every operation is a pure function, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from typing import Callable

BASE = 10**9
LIMB_DIGITS = 9
# Digits a kernel starts past its scale, and each widen_until_settled retry adds
GUARD = 10


class ScaleMismatchError(ValueError):
    """Raised when add/sub operands do not share a scale."""


# ---------------------------------------------------------------------------
# limb-level helpers (little-endian ints in [0, BASE); BigNat drops high zeros)
# ---------------------------------------------------------------------------

def _add_limbs(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = []
    carry = 0
    for x, y in zip(a, b):
        s = x + y + carry
        if s >= BASE:
            out.append(s - BASE)
            carry = 1
        else:
            out.append(s)
            carry = 0
    i = len(b)
    while carry and i < len(a):
        if a[i] == BASE - 1:
            out.append(0)
        else:
            out.append(a[i] + 1)
            carry = 0
        i += 1
    out.extend(a[i:])
    if carry:
        out.append(1)
    return out


def _sub_limbs(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    # requires a >= b, so a nonzero limb of a above b's length ends the
    # borrow before the limbs run out
    out = []
    borrow = 0
    for x, y in zip(a, b):
        d = x - y - borrow
        if d < 0:
            out.append(d + BASE)
            borrow = 1
        else:
            out.append(d)
            borrow = 0
    i = len(b)
    while borrow:
        if a[i]:
            out.append(a[i] - 1)
            borrow = 0
        else:
            out.append(BASE - 1)
        i += 1
    out.extend(a[i:])
    return out


def _cmp_limbs(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def _divrem_small(a: tuple[int, ...], d: int) -> tuple[list[int], int]:
    # single-limb divisor, 0 < d < BASE
    out = [0] * len(a)
    rem = 0
    for i in range(len(a) - 1, -1, -1):
        cur = rem * BASE + a[i]
        out[i] = cur // d
        rem = cur - out[i] * d
    return out, rem


# ---------------------------------------------------------------------------
# BigNat
# ---------------------------------------------------------------------------

class BigNat:
    """Unbounded non-negative integer, little-endian base-10**9 limbs.

    Canonical form: the empty tuple is zero and the highest limb is
    otherwise nonzero.  The constructor makes it from any sequence of
    limbs by dropping high zero limbs.  Instances are immutable.
    """

    __slots__ = ("limbs",)

    def __init__(self, limbs: tuple[int, ...] | list[int] = ()):
        limbs = tuple(limbs)
        if limbs and not limbs[-1]:
            top = len(limbs) - 1
            while top and not limbs[top - 1]:
                top -= 1
            limbs = limbs[:top]
        object.__setattr__(self, "limbs", limbs)

    def __setattr__(self, name, value):
        raise AttributeError("BigNat is immutable")

    @classmethod
    def from_int(cls, n: int) -> "BigNat":
        if n < 0:
            raise ValueError("BigNat cannot hold a negative value")
        limbs = []
        while n:
            limbs.append(n % BASE)
            n //= BASE
        return cls(limbs)

    @classmethod
    def from_str(cls, s: str) -> "BigNat":
        if not (s.isascii() and s.isdigit()):
            raise ValueError(f"not a decimal natural: {s!r}")
        limbs = []
        for i in range(len(s), 0, -LIMB_DIGITS):
            limbs.append(int(s[max(0, i - LIMB_DIGITS):i]))
        return cls(limbs)

    def to_int(self) -> int:
        n = 0
        for limb in reversed(self.limbs):
            n = n * BASE + limb
        return n

    def is_zero(self) -> bool:
        return not self.limbs

    def num_digits(self) -> int:
        """Decimal digit count; zero has one digit."""
        if not self.limbs:
            return 1
        return (len(self.limbs) - 1) * LIMB_DIGITS + len(str(self.limbs[-1]))

    def __str__(self) -> str:
        if not self.limbs:
            return "0"
        parts = [str(self.limbs[-1])]
        parts.extend(str(l).zfill(LIMB_DIGITS) for l in reversed(self.limbs[:-1]))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"BigNat({self})"

    def _cmp(self, other: "BigNat") -> int:
        return _cmp_limbs(self.limbs, other.limbs)

    def __eq__(self, other):
        return isinstance(other, BigNat) and self.limbs == other.limbs

    def __hash__(self):
        return hash(self.limbs)

    def __add__(self, other: "BigNat") -> "BigNat":
        return BigNat(_add_limbs(self.limbs, other.limbs))

    def __sub__(self, other: "BigNat") -> "BigNat":
        if self._cmp(other) < 0:
            raise ArithmeticError("BigNat subtraction would go negative")
        return BigNat(_sub_limbs(self.limbs, other.limbs))

    def __mul__(self, other: "BigNat") -> "BigNat":
        return BigNat.from_int(self.to_int() * other.to_int())

    def __divmod__(self, other: "BigNat") -> tuple["BigNat", "BigNat"]:
        """Floor quotient and remainder.  A one-limb divisor runs the
        linear limb loop; a longer one goes through int."""
        if other.is_zero():
            raise ZeroDivisionError("BigNat division by zero")
        if len(other.limbs) == 1:
            q, r = _divrem_small(self.limbs, other.limbs[0])
            return BigNat(q), BigNat([r])
        q, r = divmod(self.to_int(), other.to_int())
        return BigNat.from_int(q), BigNat.from_int(r)

    def __floordiv__(self, other: "BigNat") -> "BigNat":
        return divmod(self, other)[0]

    def shift10(self, k: int) -> "BigNat":
        """Exact multiply by 10**k (k >= 0)."""
        if k < 0:
            raise ValueError("shift10 takes k >= 0; use unshift10 to scale down")
        if self.is_zero() or k == 0:
            return self
        return BigNat.from_int(self.to_int() * 10**k)

    def unshift10(self, k: int) -> "BigNat":
        """Floor-divide by 10**k (k >= 0): drops the k lowest decimal digits."""
        if k < 0:
            raise ValueError("unshift10 takes k >= 0")
        if k == 0 or self.is_zero():
            return self
        whole, rest = divmod(k, LIMB_DIGITS)
        limbs = self.limbs[whole:]
        if rest:
            limbs = _divrem_small(limbs, 10**rest)[0]
        return BigNat(limbs)

    def isqrt(self) -> "BigNat":
        """Largest r with r*r <= self."""
        return BigNat.from_int(math.isqrt(self.to_int()))


def _as_nat(v) -> BigNat:
    if isinstance(v, BigNat):
        return v
    if isinstance(v, int):
        return BigNat.from_int(v)
    raise TypeError(f"expected BigNat or int, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# FixedDec
# ---------------------------------------------------------------------------

_FD_PATTERN = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]+))?")


class FixedDec:
    """Signed scaled decimal: sign * mantissa * 10**-scale.

    The scale is explicit and never changes silently.  Zero is canonical
    with sign +1.  Arithmetic contracts:

    * add/sub require equal scales and are exact at that scale;
    * mul forms the exact double-scale product, then truncates (toward
      zero) back to the larger input scale;
    * every division truncates toward zero.
    """

    __slots__ = ("sign", "mantissa", "scale")

    def __init__(self, sign: int, mantissa: BigNat, scale: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if scale < 0:
            raise ValueError("scale must be non-negative")
        mantissa = _as_nat(mantissa)
        if mantissa.is_zero():
            sign = 1
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name, value):
        raise AttributeError("FixedDec is immutable")

    # construction helpers ---------------------------------------------------

    @classmethod
    def from_int(cls, n: int, scale: int = 0) -> "FixedDec":
        sign = -1 if n < 0 else 1
        return cls(sign, BigNat.from_int(abs(n) * 10**scale), scale)

    def is_zero(self) -> bool:
        return self.mantissa.is_zero()

    # value comparison (scales may differ; alignment is exact) ---------------

    def _cmp(self, other: "FixedDec") -> int:
        s = max(self.scale, other.scale)
        a, b = fd_to_int(self, s), fd_to_int(other, s)
        return (a > b) - (a < b)

    def __eq__(self, other):
        return isinstance(other, FixedDec) and self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    __hash__ = None

    def __neg__(self) -> "FixedDec":
        return FixedDec(-self.sign, self.mantissa, self.scale)

    def __abs__(self) -> "FixedDec":
        return FixedDec(1, self.mantissa, self.scale)

    def __str__(self) -> str:
        return fd_to_string(self)

    def __repr__(self) -> str:
        return f"FixedDec({fd_to_string(self)})"


# spec-named operation surface ------------------------------------------------

def fd_from_ratio(num, den, scale: int) -> FixedDec:
    """num / den floored at scale, for naturals num and den > 0."""
    return fd_divn(FixedDec(1, num, 0), den, scale)


def fd_add(a: FixedDec, b: FixedDec) -> FixedDec:
    """Exact sum; operands must share a scale."""
    if a.scale != b.scale:
        raise ScaleMismatchError(f"add/sub needs equal scales, got {a.scale} and {b.scale}")
    if a.sign == b.sign:
        return FixedDec(a.sign, a.mantissa + b.mantissa, a.scale)
    if a.mantissa._cmp(b.mantissa) > 0:
        return FixedDec(a.sign, a.mantissa - b.mantissa, a.scale)
    return FixedDec(b.sign, b.mantissa - a.mantissa, a.scale)


def fd_sub(a: FixedDec, b: FixedDec) -> FixedDec:
    """Exact difference; operands must share a scale."""
    return fd_add(a, -b)


def fd_mul(a: FixedDec, b: FixedDec) -> FixedDec:
    """Exact product at scale a.scale + b.scale, truncated back to the
    larger input scale."""
    out_scale = max(a.scale, b.scale)
    mant = (a.mantissa * b.mantissa).unshift10(a.scale + b.scale - out_scale)
    return FixedDec(a.sign * b.sign, mant, out_scale)


def fd_divn(a: FixedDec, n, scale: int | None = None) -> FixedDec:
    """a / n for a natural n, truncated toward zero at scale (a.scale
    unless given); a zero n raises ZeroDivisionError."""
    scale = a.scale if scale is None else scale
    return FixedDec(a.sign, fd_rescale(a, scale).mantissa // _as_nat(n), scale)


def fd_to_int(a: FixedDec, scale: int) -> int:
    """sign * mantissa at scale as an int: exact when the scale rises,
    truncated toward zero when it drops."""
    if scale >= a.scale:
        return a.sign * a.mantissa.to_int() * 10 ** (scale - a.scale)
    return a.sign * (a.mantissa.to_int() // 10 ** (a.scale - scale))


def fd_rescale(a: FixedDec, scale: int) -> FixedDec:
    """Change scale: exact when raising, truncated toward zero when lowering."""
    if scale == a.scale:
        return a
    if scale > a.scale:
        return FixedDec(a.sign, a.mantissa.shift10(scale - a.scale), scale)
    return FixedDec(a.sign, a.mantissa.unshift10(a.scale - scale), scale)


def widen_until_settled(bracket: Callable[[int], tuple[int, int]], scale: int,
                        start: int) -> FixedDec:
    """floor(x * 10**scale) for a value x >= 0, read off bracket(ws), two
    ints lo <= x * 10**ws < hi + 1 (so an end may be a floor), for ws =
    start, start + GUARD, ... until both ends floor to the same int at
    scale.  The floor is monotone, so x gives that int too: Ziv's (1991)
    rounding test.  A negative floor is refused by FixedDec."""
    ws = start
    while True:
        low, high = (end // 10 ** (ws - scale) for end in bracket(ws))
        if low == high:
            return FixedDec(1, low, scale)
        ws += GUARD


def fd_isqrt(a: FixedDec, scale: int) -> FixedDec:
    """Floor square root at the requested scale: the largest r (a multiple
    of 10**-scale) with r*r <= a."""
    if a.sign < 0:
        raise ValueError("fd_isqrt of a negative value")
    return FixedDec(1, fd_rescale(a, 2 * scale).mantissa.isqrt(), scale)


def fd_to_string(a: FixedDec) -> str:
    """Decimal string with exactly `scale` fractional digits."""
    digits = str(a.mantissa)
    if a.scale == 0:
        body = digits
    else:
        digits = digits.rjust(a.scale + 1, "0")
        body = digits[:-a.scale] + "." + digits[-a.scale:]
    return ("-" if a.sign < 0 else "") + body


def fd_from_string(s: str) -> FixedDec:
    """Parse [+-]?digits[.digits]? in ASCII digits; the scale is the
    fractional digit count."""
    m = _FD_PATTERN.fullmatch(s)
    if not m:
        raise ValueError(f"malformed decimal string: {s!r}")
    sign = -1 if m.group(1) == "-" else 1
    frac = m.group(3) or ""
    return FixedDec(sign, BigNat.from_str(m.group(2) + frac), len(frac))
