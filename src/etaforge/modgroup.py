"""Elements of the modular group, their action on the upper half-plane, and
constructive generator words.

Matrices are kept in a canonical sign form (c > 0, or c = 0 and d > 0) so each
object represents a class modulo +-I.  `decompose` rewrites any element as a
word in the generators S: z -> -1/z and T: z -> z + 1 by repeating one
Euclidean descent step on the lower-left entry (`descent_step`), and
`evaluate_word` multiplies a word back out in plain integers.
`reduce_to_fundamental_domain` moves any point of the upper half-plane into
-1/2 <= Re < 1/2, |tau| >= 1, deciding every step in exact integers, and
returns the reduced point correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "ModularMatrix",
    "GeneratorWord",
    "UpperHalfPoint",
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
    """Raised when a reduced point lies beyond the float range."""


@dataclass(frozen=True)
class ModularMatrix:
    """Integer matrix (a, b; c, d) with ad - bc = 1, canonical up to sign.

    Construction normalizes the sign so that c > 0, or c = 0 and d > 0; the
    object therefore names the class {M, -M}.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                f"matrix ({self.a}, {self.b}; {self.c}, {self.d}) must have determinant 1"
            )
        if self.c < 0 or (self.c == 0 and self.d < 0):
            object.__setattr__(self, "a", -self.a)
            object.__setattr__(self, "b", -self.b)
            object.__setattr__(self, "c", -self.c)
            object.__setattr__(self, "d", -self.d)

    def inverse(self) -> "ModularMatrix":
        return ModularMatrix(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __str__(self):
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


IDENTITY = ModularMatrix(1, 0, 0, 1)
S = ModularMatrix(0, -1, 1, 0)
T = ModularMatrix(1, 1, 0, 1)


def t_power(m: int) -> ModularMatrix:
    """The translation matrix T^m = (1, m; 0, 1)."""
    return ModularMatrix(1, m, 0, 1)


@dataclass(frozen=True)
class UpperHalfPoint:
    """A finite point of the upper half-plane; construction rejects Im <= 0
    and a non-finite part."""

    re: float
    im: float

    def __post_init__(self):
        if not (self.im > 0 and math.isfinite(self.im) and math.isfinite(self.re)):
            raise ValueError(
                f"point must be finite with positive imaginary part, got {self.re} + {self.im}i"
            )

    def __complex__(self) -> complex:
        return complex(self.re, self.im)


# A word factor is either the literal "S" or a nonzero int m standing for T^m.
WordFactor = Union[str, int]


@dataclass(frozen=True)
class GeneratorWord:
    """A product of S and T-power factors, normalized.

    Zero T-exponents are dropped and adjacent T-powers merged, so the factor
    sequence is canonical.  Evaluating the word reproduces the source matrix
    up to sign.
    """

    factors: tuple[WordFactor, ...]

    def __post_init__(self):
        merged: list[WordFactor] = []
        for f in self.factors:
            if f != "S":
                if not isinstance(f, int):
                    raise ValueError(f"word factor must be 'S' or a T-exponent, got {f!r}")
                if merged and merged[-1] != "S":
                    f += merged.pop()
                if not f:
                    continue
            merged.append(f)
        object.__setattr__(self, "factors", tuple(merged))

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


def descent_step(a: int, b: int, c: int, d: int) -> tuple[int, tuple[int, int, int, int]]:
    """One Euclidean descent step on c >= 2: the unique r in [1, c-1] with
    -d = r mod c and q = (d + r)/c give (a, b; c, d) = (aq - b, a; r, c) S T^q,
    whose first factor has the smaller lower-left entry r."""
    r = (-d) % c
    if r == 0:
        raise AssertionError(f"r = 0 in descent for ({a}, {b}; {c}, {d}); c, d not coprime?")
    q = (d + r) // c
    return q, (a * q - b, a, r, c)


def decompose(mat: ModularMatrix) -> GeneratorWord:
    """Write a canonical matrix as a word in S and T-powers: each `descent_step`
    peels S T^q off the right until c = 1, where b = ad - 1 gives T^a S T^d
    (at most c steps); c = 0 is the plain translation T^b."""
    a, b, c, d = mat.entries()
    peeled: list[WordFactor] = []
    while c >= 2:
        q, (a, b, c, d) = descent_step(a, b, c, d)
        peeled += (q, "S")
    head = [b] if c == 0 else [a, "S", d]
    return GeneratorWord((*head, *reversed(peeled)))


def apply_mobius(mat: ModularMatrix, tau: UpperHalfPoint) -> UpperHalfPoint:
    """The fractional linear image (a tau + b) / (c tau + d).

    The imaginary part is computed as im(tau) / |c tau + d|^2, which the
    determinant makes exactly equal to the quotient's; the direct form avoids
    the cancellation complex division suffers when the image sits very close
    to the real axis, and stays strictly positive.
    """
    z = complex(tau)
    den = mat.c * z + mat.d
    w = (mat.a * z + mat.b) / den
    im = tau.im / (den.real * den.real + den.imag * den.imag)
    return UpperHalfPoint(w.real, im)


def reduce_to_fundamental_domain(
    tau: UpperHalfPoint,
) -> tuple[UpperHalfPoint, ModularMatrix]:
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
    xn, xd = float(tau.re).as_integer_ratio()
    yn, yd = float(tau.im).as_integer_ratio()
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
        image = UpperHalfPoint(num / den, y * D / den)
    except OverflowError:
        raise NumericDegeneracyError(
            f"the reduced point of {complex(tau)} has imaginary part beyond the float range"
        ) from None
    return image, ModularMatrix(a, b, c, d)
