"""Truncated models of the coefficient rings Z_p[[u]] and Z_p.

A ring is described by a :class:`CoeffRingSpec`: the prime p, a p-precision
N (coefficients are integers mod p^N) or ``None`` for exact unbounded
integers, the number of deformation parameters (0 or 1), and a degree cap D
below which powers of u are kept (u^D = 0).

The paper's Lubin-Tate ring W[[u_1..u_(n-1)]] has n - 1 deformation
parameters at height n. Every law built here has height at most 2 with a
deformation parameter only at height 2, so a ring has no u or exactly one,
and more are rejected rather than half supported.

Exact mode is only allowed with zero deformation parameters; it models
Z_p by honest integers so that division by p can be performed exactly.
Truncated mode deliberately refuses division by p: in Z/p^N that operation
silently loses a digit of precision and would poison downstream equality
tests.

The spec fixes the one-int stored form of a coefficient (``pack``,
``unpack``): without u the coefficient itself, with u the canonical
u-polynomial, u^i in bits [i W, (i + 1) W) for W = 2 bitlen(p^N - 1) + 32. A
slot of a product of two stored ints sums at most D products of coefficients
below p^N, so S such products add without a carry while D S < 2^32
(``check_room``). The spec refuses D >= 2^32, so one product of two stored
ints needs no check. ``canon`` reduces each slot below u^D of such a sum mod
p^N and drops the rest (when p^N = 2^N, by one AND with the mask of N low
bits per slot); ``bias`` holds p^N in every slot, so a + bias - b and
bias - a never borrow.

A :class:`CoeffElem` is immutable and holds one stored int, ``value``, the
form in which series and finite algebras keep their terms: equal elements
are equal ints, zero is 0 and one is 1 in every ring. A sum, difference,
negation or product is ``canon`` of a + b, a + bias - b, bias - a or a b.
``terms`` is the tuple of canonical coefficients of 1, u, u^2, ..., trailing
zeros stripped, for display and serialization.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import lshift

from .errors import InternalInconsistency, NotAUnit, SpecMismatch

# the headroom of a stored-form slot: it sums < 2^SLOT_ROOM_BITS products below p^2N
SLOT_ROOM_BITS = 32


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CoeffRingSpec:
    """Shape of a coefficient ring: (p, p-precision, 0 or 1 u-variable, u-degree cap)."""

    p: int
    p_precision: int | None = None
    deformation_params: int = 0
    u_degree_cap: int = 1
    # set once: p^N (None in exact mode), the longest tuple, the stored form (module docstring)
    modulus: int | None = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)
    pack: Callable[[Sequence[int]], int] = field(init=False, repr=False, compare=False)
    unpack: Callable[[int], tuple[int, ...]] = field(init=False, repr=False, compare=False)
    canon: Callable[[int], int] = field(init=False, repr=False, compare=False)
    bias: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.p_precision is not None and self.p_precision < 1:
            raise ValueError("p-precision must be >= 1")
        if self.deformation_params not in (0, 1):
            raise ValueError("deformation_params must be 0 or 1")
        if self.u_degree_cap < 1:
            raise ValueError("u_degree_cap must be >= 1")
        if self.u_degree_cap >> SLOT_ROOM_BITS:
            raise ValueError(f"u_degree_cap must be < 2^{SLOT_ROOM_BITS}")
        if self.exact and self.deformation_params != 0:
            raise ValueError("exact mode requires deformation_params = 0")
        m = None if self.exact else self.p ** self.p_precision
        width = self.u_degree_cap if self.deformation_params else 1
        if self.deformation_params:  # u^i in bits [i W, (i + 1) W)
            w = 2 * (m - 1).bit_length() + SLOT_ROOM_BITS
            shifts, mask = range(0, w * width, w), (1 << w) - 1
            pack, unpack = (
                lambda t: sum(map(lshift, t, shifts)),
                lambda v: _canonical(self, [v >> s & mask for s in shifts]))
            canon = (pack([m - 1] * width).__and__ if m & (m - 1) == 0 else  # p^N = 2^N
                     lambda v: sum([(v >> s & mask) % m << s for s in shifts]))
            bias = pack([m] * width)
        else:  # the int is the coefficient
            pack, unpack = (lambda t: t[0] if t else 0), (lambda v: (v,) if v else ())
            canon, bias = (int, 0) if m is None else (m.__rmod__, m)
        vars(self).update(modulus=m, width=width, pack=pack, unpack=unpack, canon=canon, bias=bias)

    @property
    def exact(self) -> bool:
        return self.p_precision is None

    @property
    def height(self) -> int:
        return self.deformation_params + 1

    def __reduce__(self):  # pickle by value: the stored-form functions are closures
        return CoeffRingSpec, (self.p, self.p_precision, self.deformation_params, self.u_degree_cap)

    def check_room(self, products: int) -> None:
        """InternalInconsistency unless a slot of the stored form can sum
        ``products`` products of two stored ints (D * products < 2^32)."""
        if self.width * products >> SLOT_ROOM_BITS:
            raise InternalInconsistency(
                f"{products} products per slot overflow the stored coefficient form "
                f"({self.precision_label(None)})")

    def precision_label(self, cap: int | None) -> str:
        """"p=.., N=.., D=..", and ", T=cap" when a series degree cap is given."""
        label = f"p={self.p}, N={self.p_precision}, D={self.u_degree_cap}"
        return label if cap is None else f"{label}, T={cap}"


def _canonical(spec: CoeffRingSpec, ints: Sequence[int]) -> tuple[int, ...]:
    """``ints`` reduced mod p^N (in finite mode), trailing zeros stripped."""
    m = spec.modulus
    if m is not None:
        ints = [c % m for c in ints]
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    return tuple(ints[:n])


class CoeffElem:
    """An element of a coefficient ring: one int in its ring's stored form."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: CoeffRingSpec, coeffs: Sequence[int], *, _clean: bool = False):
        """``coeffs`` lists the integer coefficients by u-degree; with ``_clean``
        it is a stored int (``spec.canon``'s output), kept as given."""
        if not _clean:
            if len(coeffs) > 1 and not spec.deformation_params:
                raise SpecMismatch(f"coefficients {list(coeffs)} need a u-variable")
            coeffs = spec.pack(_canonical(spec, coeffs[:spec.width]))
        self.spec, self.value = spec, coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, spec: CoeffRingSpec, value: int) -> "CoeffElem":
        return cls(spec, (value,))

    @classmethod
    def zero(cls, spec: CoeffRingSpec) -> "CoeffElem":
        return cls(spec, 0, _clean=True)

    @classmethod
    def one(cls, spec: CoeffRingSpec) -> "CoeffElem":
        return cls(spec, 1, _clean=True)  # the stored form of 1 in every ring

    # -- views and predicates -------------------------------------------

    @property
    def terms(self) -> tuple[int, ...]:
        """The canonical coefficients of 1, u, u^2, ..., trailing zeros stripped."""
        return self.spec.unpack(self.value)

    def is_zero(self) -> bool:
        return not self.value

    def constant_part(self) -> int:
        """Coefficient of u^0."""
        terms = self.terms
        return terms[0] if terms else 0

    def is_unit(self) -> bool:
        """Unit in the local ring: constant part not divisible by p."""
        return self.constant_part() % self.spec.p != 0

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "CoeffElem") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "CoeffElem") -> "CoeffElem":
        self._check(other)
        spec = self.spec
        return CoeffElem(spec, spec.canon(self.value + other.value), _clean=True)

    def __neg__(self) -> "CoeffElem":
        spec = self.spec
        return CoeffElem(spec, spec.canon(spec.bias - self.value), _clean=True)

    def __sub__(self, other: "CoeffElem") -> "CoeffElem":
        self._check(other)
        spec = self.spec
        return CoeffElem(spec, spec.canon(self.value + spec.bias - other.value), _clean=True)

    def __mul__(self, other: "CoeffElem") -> "CoeffElem":
        self._check(other)  # a slot sums at most D < 2^32 products: no check_room
        spec = self.spec
        return CoeffElem(spec, spec.canon(self.value * other.value), _clean=True)

    def invert(self) -> "CoeffElem":
        """Multiplicative inverse, exact in the truncated ring.

        The constant term is inverted mod p^N; the u-part is handled by a
        geometric series, which terminates because u^D = 0. In exact mode
        only +-1 are invertible in Z.
        """
        spec = self.spec
        c0 = self.constant_part()
        if c0 % spec.p == 0:
            raise NotAUnit(f"constant term {c0} is divisible by p = {spec.p}")
        if spec.exact:
            if c0 not in (1, -1):
                raise NotAUnit("only +-1 are invertible over exact integers")
            return self
        inv0 = CoeffElem.from_int(spec, pow(c0, -1, spec.modulus))
        if self.value == c0:  # no u-part: the stored int is the constant
            return inv0
        # a = c0 (1 - w) with w supported in u-degree >= 1, so w^D = 0.
        w = CoeffElem.one(spec) - self * inv0
        acc = power = CoeffElem.one(spec)
        for _ in range(1, spec.u_degree_cap):
            power = power * w
            if power.is_zero():
                break
            acc = acc + power
        return acc * inv0

    # -- comparisons / display ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self.value == other.value and (self.spec is other.spec or self.spec == other.spec)

    def __repr__(self) -> str:
        bits = [str(c) if i == 0 else f"{c}*u1" if i == 1 else f"{c}*u1^{i}"
                for i, c in enumerate(self.terms) if c]
        return " + ".join(bits) or "0"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        u = self.spec.deformation_params
        return {"monomials": [{"exps": [i] if u else [], "coeff": str(c)}
                              for i, c in enumerate(self.terms) if c]}
