"""Elements of the modular group, their action on the upper half-plane, and
constructive generator words.

Matrices are kept in a canonical sign form (c > 0, or c = 0 and d > 0) so each
object represents a class modulo +-I.  `decompose` rewrites any element as a
word in the generators S: z -> -1/z and T: z -> z + 1 by repeating one
nearest-integer descent step on the lower-left entry (`descent_step`), which
at least halves c, so the word has at most c.bit_length() S factors;
`evaluate_word` multiplies a word back out in plain integers.
`reduce_to_fundamental_domain` moves any point of the upper half-plane into
-1/2 <= Re < 1/2, |tau| >= 1, deciding every step in exact integers, and
returns the reduced point correctly rounded.

A point of the upper half-plane is a plain `complex`, and `_as_tau` is the
one check that it is finite with Im > 0: every public entry point here and in
`evaluate` calls it and raises ValueError otherwise.  An image point beyond
the float range raises NumericDegeneracyError, and so does a matrix entry
that `apply_mobius` cannot convert to a float.  A `ModularMatrix` itself has
no size limit: `decompose` and the exact arithmetic work at any size, and an
entry with more digits than Python converts to text is printed by its bit
length.

A `ModularMatrix` is a named 4-tuple (a, b, c, d): it unpacks as one, equals
the plain tuple of its entries, and takes only entries of type int (a bool
or a float raises ValueError).  It drops the tuple `+` and `*`, so a matrix
never concatenates or repeats.  A `GeneratorWord` is an immutable object
holding its normalized factor tuple.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

__all__ = [
    "ModularMatrix",
    "GeneratorWord",
    "NumericDegeneracyError",
    "IDENTITY",
    "S",
    "T",
    "t_power",
    "apply_mobius",
    "decompose",
    "descent_step",
    "evaluate_word",
    "reduce_to_fundamental_domain",
]


class NumericDegeneracyError(Exception):
    """Raised when a value the computation needs lies beyond the float range."""


class ModularMatrix(namedtuple("ModularMatrix", "a b c d")):
    """Integer matrix (a, b; c, d) with ad - bc = 1, canonical up to sign.

    Construction normalizes the sign so that c > 0, or c = 0 and d > 0; the
    object therefore names the class {M, -M}.  Every entry must be of type
    int; anything else, a bool included, raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if not type(a) is type(b) is type(c) is type(d) is int:
            raise _entry_type_error(a, b, c, d)
        if a * d - b * c != 1:
            raise ValueError(
                "matrix ({}, {}; {}, {}) must have determinant 1".format(
                    *map(_entry_text, (a, b, c, d))
                )
            )
        if c < 0 or (c == 0 and d < 0):
            return tuple.__new__(cls, (-a, -b, -c, -d))
        return tuple.__new__(cls, (a, b, c, d))

    @classmethod
    def _make(cls, iterable) -> "ModularMatrix":
        # the namedtuple default skips __new__; _replace goes through here too
        return cls(*iterable)

    # a matrix is not a sequence to concatenate or repeat
    __add__ = __radd__ = __mul__ = __rmul__ = None

    def inverse(self) -> "ModularMatrix":
        a, b, c, d = self
        return ModularMatrix(d, -b, -c, a)

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        a, b, c, d = self
        e, f, g, h = other
        return ModularMatrix(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __str__(self):
        return "[{} {}; {} {}]".format(*map(_entry_text, self))


def _entry_type_error(*entries) -> ValueError:
    """The error for matrix entries that are not all of type int."""
    bad = next(x for x in entries if type(x) is not int)
    return ValueError(f"matrix entries must be of type int, got {type(bad).__name__} {bad!r}")


def _entry_text(x: int) -> str:
    """str(x), or its bit length where x has more digits than Python prints."""
    try:
        return str(x)
    except ValueError:
        return f"{'-' if x < 0 else ''}<{abs(x).bit_length()}-bit integer>"


IDENTITY = ModularMatrix(1, 0, 0, 1)
S = ModularMatrix(0, -1, 1, 0)
T = ModularMatrix(1, 1, 0, 1)


def t_power(m: int) -> ModularMatrix:
    """The translation matrix T^m = (1, m; 0, 1)."""
    return ModularMatrix(1, m, 0, 1)


def _as_tau(tau: complex) -> complex:
    """tau as a complex number, checked to be a finite point of the upper half-plane."""
    z = complex(tau)
    if not (z.imag > 0 and cmath.isfinite(z)):
        raise ValueError(f"tau must be a finite point of the upper half-plane, got {z}")
    return z


# A word factor is either the literal "S" or a nonzero int m standing for T^m.
WordFactor = str | int


class GeneratorWord:
    """A product of S and T-power factors, normalized.

    Zero T-exponents are dropped and adjacent T-powers merged, so the factor
    sequence is canonical.  Evaluating the word reproduces the source matrix
    up to sign.  A T-exponent must be of type int (not a bool).  A word is
    immutable, and equal words have equal hashes.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[WordFactor, ...]):
        merged: list[WordFactor] = []
        for f in factors:
            if f != "S":
                if type(f) is not int:
                    raise ValueError(f"word factor must be 'S' or a T-exponent, got {f!r}")
                if merged and merged[-1] != "S":
                    f += merged.pop()
                if not f:
                    continue
            merged.append(f)
        object.__setattr__(self, "factors", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self):
        return hash((self.factors,))

    def __repr__(self):
        return f"GeneratorWord(factors={self.factors!r})"

    def __reduce__(self):
        return GeneratorWord, (self.factors,)

    def __len__(self):
        return len(self.factors)

    def __str__(self):
        if not self.factors:
            return "I"
        parts = []
        for f in self.factors:
            if f == "S":
                parts.append("S")
            elif f == 1:
                parts.append("T")
            else:
                parts.append(f"T^{f}")
        return " ".join(parts)


def evaluate_word(word: GeneratorWord) -> ModularMatrix:
    """Multiply out a generator word in plain integers (S takes (a, b; c, d) to
    (b, -a; d, -c), T^m to (a, am + b; c, cm + d)); the empty word is I."""
    a, b, c, d = 1, 0, 0, 1
    for f in word.factors:
        if f == "S":
            a, b, c, d = b, -a, d, -c
        else:
            b, d = a * f + b, c * f + d
    return ModularMatrix(a, b, c, d)


def descent_step(a: int, b: int, c: int, d: int) -> tuple[int, ModularMatrix]:
    """One nearest-integer descent step on c >= 1 (Knuth, TAOCP vol. 2,
    sec. 4.5.3): q = floor(d/c + 1/2) gives (a, b; c, d) = M' S T^q with
    M' = +-(aq - b, a; qc - d, c), whose lower-left entry |qc - d| <= c/2."""
    q = (2 * d + c) // (2 * c)
    return q, ModularMatrix(a * q - b, a, q * c - d, c)


def decompose(mat: ModularMatrix) -> GeneratorWord:
    """Write a canonical matrix as a word in S and T-powers: each `descent_step`
    peels S T^q off the right and at least halves c, and at c = 0 what is left
    is the translation T^b."""
    a, b, c, d = mat
    peeled: list[WordFactor] = []
    while c:
        q, (a, b, c, d) = descent_step(a, b, c, d)
        peeled += (q, "S")
    return GeneratorWord((b, *reversed(peeled)))


def apply_mobius(mat: ModularMatrix, tau: complex) -> complex:
    """The fractional linear image (a tau + b) / (c tau + d).

    The imaginary part is computed as im(tau) / |c tau + d|^2, which the
    determinant makes exactly equal to the quotient's; the direct form avoids
    the cancellation complex division suffers when the image sits very close
    to the real axis.  Where |c tau + d|^2 alone leaves the normal float
    range, Im is im(tau) / |c tau + d| / |c tau + d|, so an image that is a
    float is still returned.  Raises NumericDegeneracyError when an entry of
    the matrix is beyond the float range, or when a part of the image leaves
    it, so Im would come out 0 or inf.
    """
    z = _as_tau(tau)
    a, b, c, d = mat
    try:
        den = c * z + d
        w = (a * z + b) / den
    except OverflowError:
        raise NumericDegeneracyError(f"an entry of {mat} lies beyond the float range") from None
    norm = den.real * den.real + den.imag * den.imag
    if sys.float_info.min <= norm < math.inf:
        im = z.imag / norm
    else:
        im = z.imag / abs(den) / abs(den)
    if not (0.0 < im < math.inf and math.isfinite(w.real)):
        raise NumericDegeneracyError(
            f"the image of {z} under {mat} lies beyond the float range"
        )
    return complex(w.real, im)


def reduce_to_fundamental_domain(tau: complex) -> tuple[complex, ModularMatrix]:
    """Move tau into -1/2 <= Re < 1/2, |tau| >= 1; returns (image, matrix M)
    with M tau = image.

    Every step is decided in exact integers.  The float parts of tau are
    dyadic, so tau = (x + iy)/D exactly.  For the running matrix (a, b; c, d)
    the image is (num + iyD)/den with num = PQ + acy^2, den = Q^2 + c^2 y^2,
    P = ax + bD and Q = cx + dD (ad - bc = 1 gives the imaginary part), and
    r2 = P^2 + a^2 y^2 is |image|^2 den.  The translation by
    -n = -floor(Re + 1/2) takes num to num - n den and r2 to
    r2 - n(2 num - n den); the inversion z -> -1/z, taken while r2 < den,
    takes (num, den, r2) to (-num, r2, den).  Each inversion strictly raises
    the imaginary part, so the loop ends.  The image is then rounded once,
    correctly, so only its float Re can land on 1/2.

    Raises NumericDegeneracyError when the image's imaginary part exceeds
    the float range; the image's Im is at most max(Im tau, 1/Im tau), so
    this needs Im tau below 5.6e-309.
    """
    z = _as_tau(tau)
    xn, xd = z.real.as_integer_ratio()
    yn, yd = z.imag.as_integer_ratio()
    # both denominators are powers of two
    D = max(xd, yd)
    x, y = xn * (D // xd), yn * (D // yd)
    a, b, c, d = 1, 0, 0, 1
    num, den, r2 = x * D, D * D, x * x + y * y
    while True:
        n = (2 * num + den) // (2 * den)
        if n:
            r2 -= n * (2 * num - n * den)
            num -= n * den
            a, b = a - n * c, b - n * d
        if r2 >= den:
            break
        a, b, c, d = -c, -d, a, b
        num, den, r2 = -num, r2, den
    try:
        image = complex(num / den, y * D / den)
    except OverflowError:
        raise NumericDegeneracyError(
            f"the reduced point of {z} has imaginary part beyond the float range"
        ) from None
    return image, ModularMatrix(a, b, c, d)
