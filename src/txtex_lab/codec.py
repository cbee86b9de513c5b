"""Arithmetic encodings: pairing, tuples, signed integers, polynomials, set codes.

All codes are plain arbitrary-precision naturals.  The pairing is the Cantor
function pi(a, b) = (a+b)(a+b+1)/2 + b; tuples are right-nested, so
``encode_tuple([x0, x1, x2]) == pair(x0, pair(x1, x2))`` and 1-tuples are the
identity.  Every coordinate of a decoded tuple is bounded by the code itself,
which the rest of the library relies on.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

TupleCode = int
PolyCode = int
CanonicalSetCode = int


def pair(a: int, b: int) -> int:
    """Cantor-pair two naturals."""
    if a < 0 or b < 0:
        raise ValueError("pair needs naturals")
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    """Invert :func:`pair`; total on naturals."""
    if n < 0:
        raise ValueError("unpair needs a natural")
    w = (math.isqrt(8 * n + 1) - 1) // 2
    t = w * (w + 1) // 2
    b = n - t
    return w - b, b


def encode_tuple(xs: Sequence[int]) -> TupleCode:
    """Encode a nonempty sequence of naturals as a single natural.

    Pairs inline, innermost first: ``pair(x, code)`` on each coordinate.
    """
    if not xs:
        raise ValueError("cannot encode an empty tuple")
    code = xs[-1]
    if code < 0:
        raise ValueError("tuple entries must be naturals")
    for x in reversed(xs[:-1]):
        if x < 0:
            raise ValueError("pair needs naturals")
        s = x + code
        code = s * (s + 1) // 2 + code
    return code


def decode_tuple(n: int, k: int) -> tuple[int, ...]:
    """Decode ``n`` as a k-tuple of naturals; total for every n and k >= 1.

    Unpairs inline, as :func:`unpair` does, once per coordinate but the last.
    """
    if k < 1:
        raise ValueError("arity must be >= 1")
    if k == 1:
        return (n,)
    if n < 0:
        raise ValueError("unpair needs a natural")
    out = []
    for _ in range(k - 1):
        w = (math.isqrt(8 * n + 1) - 1) // 2
        b = n - w * (w + 1) // 2
        out.append(w - b)
        n = b
    out.append(n)
    return tuple(out)


def signed_int(n: int) -> int:
    """Bijection from naturals onto all integers: evens map up, odds map down."""
    if n < 0:
        raise ValueError("signed_int needs a natural")
    if n % 2 == 0:
        return n // 2
    return -(n // 2 + 1)


def signed_int_inv(z: int) -> int:
    """Inverse of :func:`signed_int`."""
    if z >= 0:
        return 2 * z
    return -2 * z - 1


def poly_encode(coeffs: Sequence[int]) -> PolyCode:
    """Encode a coefficient list (constant term first) as a natural."""
    if not coeffs:
        raise ValueError("a polynomial needs at least one coefficient")
    if any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be naturals")
    degree = len(coeffs) - 1
    return pair(degree, encode_tuple(list(coeffs)))


def poly_decode(code: PolyCode) -> tuple[int, ...]:
    """Coefficient list of the polynomial coded by ``code``; total on naturals."""
    degree, t = unpair(code)
    return decode_tuple(t, degree + 1)


def poly_eval(code: PolyCode, x: int) -> int:
    """Evaluate the polynomial coded by ``code`` at ``x``.

    All coefficients are naturals, so every coded polynomial is monotone
    nondecreasing on the naturals.
    """
    coeffs = poly_decode(code)
    acc = 0
    power = 1
    for c in coeffs:
        acc += c * power
        power *= x
    return acc


def canonical_encode(s: Iterable[int]) -> CanonicalSetCode:
    """Bitmask code of a finite set of naturals."""
    code = 0
    for x in set(s):
        if x < 0:
            raise ValueError("set elements must be naturals")
        code |= 1 << x
    return code


def canonical_decode(e: CanonicalSetCode) -> frozenset[int]:
    """Finite set coded by bitmask ``e``."""
    if e < 0:
        raise ValueError("canonical codes are naturals")
    out = set()
    x = 0
    while e:
        if e & 1:
            out.add(x)
        e >>= 1
        x += 1
    return frozenset(out)
