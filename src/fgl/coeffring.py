"""Truncated models of the coefficient rings Z_p[[u_1..u_{n-1}]].

A ring is described by a :class:`CoeffRingSpec`: the prime p, a p-precision
N (coefficients are integers mod p^N) or ``None`` for exact unbounded
integers, a number of deformation parameters u_1..u_{n-1}, and a degree cap
D below which u-monomials are kept (total degree >= D is discarded).

Exact mode is only allowed with zero deformation parameters; it models
Z_p by honest integers so that division by p can be performed exactly.
Truncated mode deliberately refuses division by p: in Z/p^N that operation
silently loses a digit of precision and would poison downstream equality
tests.

Elements are immutable. Monomials are exponent tuples over the u-variables,
kept in graded-lexicographic order when serialized so equal elements
serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModeError, NotAUnit, NotDivisible, SpecMismatch

Monomial = tuple[int, ...]


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
    """Shape of a coefficient ring: (p, p-precision, #u-vars, u-degree cap)."""

    p: int
    p_precision: int | None = None
    deformation_params: int = 0
    u_degree_cap: int = 1

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.p_precision is not None and self.p_precision < 1:
            raise ValueError("p-precision must be >= 1")
        if self.deformation_params < 0:
            raise ValueError("deformation_params must be >= 0")
        if self.u_degree_cap < 1:
            raise ValueError("u_degree_cap must be >= 1")
        if self.exact and self.deformation_params != 0:
            raise ValueError("exact mode requires deformation_params = 0")

    @property
    def exact(self) -> bool:
        return self.p_precision is None

    @property
    def modulus(self) -> int | None:
        return None if self.exact else self.p ** self.p_precision

    @property
    def height(self) -> int:
        return self.deformation_params + 1

    def zero_monomial(self) -> Monomial:
        return (0,) * self.deformation_params

    def precision_label(self, cap: int | None) -> str:
        """"p=.., N=.., D=..", and ", T=cap" when a series degree cap is given."""
        label = f"p={self.p}, N={self.p_precision}, D={self.u_degree_cap}"
        return label if cap is None else f"{label}, T={cap}"

    def reduce_int(self, value: int) -> int:
        """Canonical representative of an integer coefficient."""
        m = self.modulus
        return value if m is None else value % m


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), tuple(-e for e in mono))


class CoeffElem:
    """An element of a coefficient ring: a finite map u-monomial -> integer.

    Stored monomials always have total degree < u_degree_cap and nonzero
    canonical coefficients; zero is the empty map. Structural equality
    therefore equals semantic equality.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: CoeffRingSpec, terms: dict[Monomial, int], *, _clean: bool = False):
        self.spec = spec
        if _clean:
            self.terms = terms
        else:
            clean: dict[Monomial, int] = {}
            for mono, c in terms.items():
                if len(mono) != spec.deformation_params:
                    raise SpecMismatch(f"monomial {mono} has wrong arity")
                if sum(mono) >= spec.u_degree_cap:
                    continue
                c = spec.reduce_int(c)
                if c != 0:
                    clean[mono] = c
            self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, spec: CoeffRingSpec, value: int) -> "CoeffElem":
        return cls(spec, {spec.zero_monomial(): value})

    @classmethod
    def u_var(cls, spec: CoeffRingSpec, index: int) -> "CoeffElem":
        """The deformation parameter u_{index} (1-based)."""
        if not 1 <= index <= spec.deformation_params:
            raise SpecMismatch(f"no deformation parameter u_{index}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(spec.deformation_params))
        return cls(spec, {mono: 1})

    @classmethod
    def zero(cls, spec: CoeffRingSpec) -> "CoeffElem":
        return cls(spec, {}, _clean=True)

    @classmethod
    def one(cls, spec: CoeffRingSpec) -> "CoeffElem":
        return cls.from_int(spec, 1)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_part(self) -> int:
        """Coefficient of the u-degree-0 monomial."""
        return self.terms.get(self.spec.zero_monomial(), 0)

    def is_unit(self) -> bool:
        """Unit in the local ring: constant part not divisible by p."""
        return self.constant_part() % self.spec.p != 0

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "CoeffElem") -> None:
        if self.spec != other.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "CoeffElem") -> "CoeffElem":
        self._check(other)
        spec = self.spec
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            v = spec.reduce_int(terms.get(mono, 0) + c)
            if v == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = v
        return CoeffElem(spec, terms, _clean=True)

    def __neg__(self) -> "CoeffElem":
        spec = self.spec
        return CoeffElem(spec, {m: spec.reduce_int(-c) for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other: "CoeffElem") -> "CoeffElem":
        return self + (-other)

    def __mul__(self, other: "CoeffElem") -> "CoeffElem":
        self._check(other)
        spec = self.spec
        cap = spec.u_degree_cap
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            d1 = sum(m1)
            for m2, c2 in other.terms.items():
                if d1 + sum(m2) >= cap:
                    continue
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        terms = {}
        for mono, c in out.items():
            c = spec.reduce_int(c)
            if c != 0:
                terms[mono] = c
        return CoeffElem(spec, terms, _clean=True)

    def scale(self, k: int) -> "CoeffElem":
        spec = self.spec
        terms = {}
        for mono, c in self.terms.items():
            v = spec.reduce_int(c * k)
            if v != 0:
                terms[mono] = v
        return CoeffElem(spec, terms, _clean=True)

    def invert(self) -> "CoeffElem":
        """Multiplicative inverse, exact in the truncated ring.

        The constant term is inverted mod p^N; the u-part is handled by a
        geometric series, which terminates because u-monomials of degree
        >= D vanish. In exact mode only +-1 are invertible in Z.
        """
        spec = self.spec
        c0 = self.constant_part()
        if c0 % spec.p == 0:
            raise NotAUnit(f"constant term {c0} is divisible by p = {spec.p}")
        if spec.exact:
            if c0 not in (1, -1) or len(self.terms) > 1:
                raise NotAUnit("only +-1 are invertible over exact integers")
            return CoeffElem.from_int(spec, c0)
        c0_inv = pow(c0, -1, spec.modulus)
        inv0 = CoeffElem.from_int(spec, c0_inv)
        if len(self.terms) == 1:
            return inv0
        # a = c0 (1 - w) with w supported in u-degree >= 1, so w^D = 0.
        w = CoeffElem.one(spec) - self * inv0
        acc = CoeffElem.one(spec)
        power = CoeffElem.one(spec)
        for _ in range(1, spec.u_degree_cap):
            power = power * w
            if power.is_zero():
                break
            acc = acc + power
        return acc * inv0

    def exact_divide_by_p(self) -> "CoeffElem":
        """Coefficientwise division by p; exact mode only."""
        spec = self.spec
        if not spec.exact:
            raise ModeError("division by p is only defined over exact integers")
        out = {}
        for mono, c in self.terms.items():
            if c % spec.p != 0:
                raise NotDivisible(f"coefficient {c} is not divisible by {spec.p}")
            out[mono] = c // spec.p
        return CoeffElem(spec, out, _clean=True)

    # -- comparisons / hashing / display --------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for mono, c in self.sorted_terms():
            us = "*".join(
                f"u{i + 1}^{e}" if e > 1 else f"u{i + 1}"
                for i, e in enumerate(mono)
                if e
            )
            bits.append(f"{c}*{us}" if us else str(c))
        return " + ".join(bits)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "monomials": [
                {"exps": list(mono), "coeff": str(c)} for mono, c in self.sorted_terms()
            ]
        }
