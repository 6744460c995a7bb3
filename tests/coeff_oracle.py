"""Reference coefficient arithmetic on tuples by u-degree, for tests only.

A coefficient is the tuple of its integer coefficients of 1, u, u^2, ...
(``CoeffElem.terms``). Sums and differences go slot by slot, a product is
the convolution below u^D, and every result is reduced mod p^N (in finite
mode) with its trailing zeros stripped. None of it reads the stored int
form or ``spec.canon``, which ``CoeffElem`` and ``TruncSeries`` compute
with, so the oracles built on it check that arithmetic independently.
"""

from __future__ import annotations

from itertools import zip_longest

from fgl.coeffring import CoeffRingSpec

Coeffs = tuple[int, ...]


def canonical(spec: CoeffRingSpec, ints) -> Coeffs:
    """``ints`` below u^D, reduced mod p^N in finite mode, trailing zeros stripped."""
    m, out = spec.modulus, list(ints[:spec.width])
    if m is not None:
        out = [c % m for c in out]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def add(spec: CoeffRingSpec, a: Coeffs, b: Coeffs) -> Coeffs:
    return canonical(spec, [x + y for x, y in zip_longest(a, b, fillvalue=0)])


def sub(spec: CoeffRingSpec, a: Coeffs, b: Coeffs) -> Coeffs:
    return canonical(spec, [x - y for x, y in zip_longest(a, b, fillvalue=0)])


def mul(spec: CoeffRingSpec, a: Coeffs, b: Coeffs) -> Coeffs:
    out = [0] * spec.width
    for i, x in enumerate(a[:spec.width]):
        for k, y in enumerate(b[:spec.width - i], i):
            out[k] += x * y
    return canonical(spec, out)
