"""Multivariate power series truncated at a total degree cap.

A :class:`TruncSeries` is a finite map from exponent vectors to coefficient
ring elements; every stored exponent vector has total degree < cap. All
arithmetic silently drops terms of total degree >= cap, which makes the
representation a genuine quotient ring of the full power series ring:
identities computed here are exact images of identities over the untruncated
ring. ``cap=None`` disables degree truncation and is used where elements are
honest polynomials (finite algebras, delta-rings).

Each term's coefficient is one int in the stored form of its ring (the
coefficient itself without u, the packed u-polynomial with u; see
``fgl.coeffring``), the ``value`` of a ``CoeffElem``, so a coefficient
enters and leaves a series without conversion. A sum, difference or
negation of terms is ``spec.canon`` of a + b, a + bias - b or bias - a, as
in ``CoeffElem``.

The one product kernel sums A*B over pairs of term dicts (a product is one
pair). In one variable without a cap, and in none (a series in no variables
holds only degree 0, below any cap), no cap cuts: it adds c1*c2 into one int
per exponent k (one int in no variables) and builds {(k,): c}, with no key
list. Otherwise it keys each term by one int per exponent, as in Monagan and
Pearce's packed exponent vectors (CASC 2007): in n >= 2 variables the base-B
digits of deg(e), e_1, ..., e_n, B the cap or, without one, one more than
any coordinate of a product, so a product's key is k1 + k2 and carries no
digit; in one variable the exponent. Under a cap each right operand is
sorted by key, so by degree, and a left term walks only the slice below
cap - deg(e1). It adds every in-cap product of stored ints into one int per
output key, decodes each output's exponent once and applies ``spec.canon``
once to each. A slot then sums at most
D*S products of coefficients below p^N, S the sum over the pairs of
min(|A|, |B|), which ``spec.check_room`` bounds, so no slot carries.
``subst`` groups the terms by their exponent i of the variable o with the
most image terms (Paterson and Stockmeyer's baby and giant steps) into one
sum of R_i * o^i, R_i = sum of c * (other images' powers) in group i (one
term per group in one variable, where no grouping runs); the table of image
powers may be kept by the caller across calls, as ``DeltaRing`` does for
its psi images.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import chain
from operator import itemgetter, mul

from .coeffring import CoeffElem, CoeffRingSpec
from .errors import NonNilpotentArgument, SpecMismatch

Expo = tuple[int, ...]
_KEY = itemgetter(0)  # of a kernel term (key, c)


class TruncSeries:
    __slots__ = ("spec", "variables", "cap", "terms")

    def __init__(
        self,
        spec: CoeffRingSpec,
        variables: tuple[str, ...],
        cap: int | None,
        terms: dict[Expo, CoeffElem] | None = None,
        *,
        _clean: bool = False,
    ):
        """``terms`` maps exponents to CoeffElem values; with ``_clean`` it is
        kept as given, a dict of nonzero stored ints within the cap."""
        self.spec = spec
        self.variables = tuple(variables)
        self.cap = cap
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean: dict[Expo, int] = {}
            for expo, c in terms.items():
                if len(expo) != len(self.variables):
                    raise SpecMismatch(f"exponent {expo} has wrong arity")
                if (cap is None or sum(expo) < cap) and (v := c.value):
                    clean[expo] = v
            self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, spec, variables, cap) -> "TruncSeries":
        return cls(spec, variables, cap, {}, _clean=True)

    @classmethod
    def constant(cls, spec, variables, cap, value: CoeffElem) -> "TruncSeries":
        v = value.value
        return cls(spec, variables, cap, {(0,) * len(variables): v} if v else {}, _clean=True)

    @classmethod
    def one(cls, spec, variables, cap) -> "TruncSeries":
        return cls.constant(spec, variables, cap, CoeffElem.one(spec))

    @classmethod
    def variable(cls, spec, variables, cap, name: str) -> "TruncSeries":
        i = tuple(variables).index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(spec, variables, cap, {expo: 1}, _clean=True)  # 1 is stored as 1

    # -- views -----------------------------------------------------------

    def _compat(self, other: "TruncSeries") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatch("coefficient rings differ")
        if self.variables != other.variables or self.cap != other.cap:
            raise SpecMismatch(
                f"series rings differ: {self.variables}/{self.cap} vs "
                f"{other.variables}/{other.cap}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> CoeffElem:
        return self.coefficient((0,) * len(self.variables))

    def coefficient(self, expo: Expo) -> CoeffElem:
        expo = tuple(expo)
        if len(expo) != len(self.variables):
            raise SpecMismatch(f"exponent {expo} does not fit the variables {self.variables}")
        return CoeffElem(self.spec, self.terms.get(expo, 0), _clean=True)

    def homogeneous_part(self, degree: int) -> "TruncSeries":
        terms = {e: c for e, c in self.terms.items() if sum(e) == degree}
        return TruncSeries(self.spec, self.variables, self.cap, terms, _clean=True)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, False)

    def __neg__(self) -> "TruncSeries":
        canon, bias = self.spec.canon, self.spec.bias
        return TruncSeries(
            self.spec, self.variables, self.cap,
            {e: canon(bias - c) for e, c in self.terms.items()}, _clean=True,
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, True)

    def _combine(self, other: "TruncSeries", subtract: bool) -> "TruncSeries":
        """self + other, or self - other: one canon per common term."""
        self._compat(other)
        spec, terms = self.spec, dict(self.terms)
        canon, bias = spec.canon, spec.bias
        for expo, c in other.terms.items():
            v = terms.get(expo, 0)
            if s := canon(v + bias - c if subtract else v + c):
                terms[expo] = s
            else:
                del terms[expo]
        return TruncSeries(spec, self.variables, self.cap, terms, _clean=True)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._compat(other)
        return _sum_of_products([(self.terms, other.terms)], self.spec, self.variables, self.cap)

    def scale(self, value: CoeffElem) -> "TruncSeries":
        spec, terms = self.spec, {}
        for expo, c in self.terms.items():
            if v := (CoeffElem(spec, c, _clean=True) * value).value:
                terms[expo] = v
        return TruncSeries(spec, self.variables, self.cap, terms, _clean=True)

    # -- substitution -------------------------------------------------------

    def subst(self, images: dict[str, "TruncSeries"],
              powers: dict[str, list["TruncSeries"]] | None = None) -> "TruncSeries":
        """Substitute series for variables.

        ``self`` needs a variable, and every one must be given an image; the
        images must live in one common series ring, and any image substituted
        into a positive power must have zero constant term whenever a degree
        cap is in force (otherwise truncation would not commute with
        substitution; NonNilpotentArgument). ``powers`` maps a variable to
        the table [1, image, image^2, ...]; it is read and extended here, so
        a caller that keeps it pays for each power of an image once. A
        one-variable source skips the grouping (module docstring).
        """
        if not self.variables:
            raise SpecMismatch("a series in no variables has no image ring to substitute into")
        missing = [v for v in self.variables if v not in images]
        if missing:
            raise SpecMismatch(f"no image for variables {missing}")
        model = images[self.variables[0]]
        spec, variables, cap = self.spec, model.variables, model.cap
        ring, zero = TruncSeries(spec, variables, cap), (0,) * len(variables)  # ring: for _compat
        powers = {} if powers is None else powers
        for j, name in enumerate(self.variables):
            ring._compat(images[name])
            top = max(map(itemgetter(j), self.terms), default=0)
            if cap is not None and top and zero in images[name].terms:
                raise NonNilpotentArgument(
                    f"image of {name} has a nonzero constant term ({spec.precision_label(cap)})")
            table = powers.get(name)
            if table is None or table[1] is not images[name]:  # a new image starts a new table
                table = powers[name] = [TruncSeries.one(spec, variables, cap), images[name]]
            while len(table) <= top:
                table.append(table[-1] * images[name])
        powers = [powers[name] for name in self.variables]  # powers[j][k]: image j to the k
        if len(powers) == 1:  # one variable: each group is one term c, its own R_i
            return _sum_of_products([({zero: c}, powers[0][i].terms) for (i,), c in
                                     self.terms.items()], spec, variables, cap)
        o = max(range(len(powers)), key=lambda j: len(images[self.variables[j]].terms))
        one, others = powers[o][0], [(j, powers[j]) for j in range(len(powers)) if j != o]
        groups: dict[int, list] = {}
        for expo, c in self.terms.items():
            rest = [power[expo[j]] for j, power in others if expo[j]]
            groups.setdefault(expo[o], []).append(({zero: c}, reduce(mul, rest or [one]).terms))
        return _sum_of_products(  # a one-term group with no other factor is its own R_i
            [(g[0][0] if len(g) == 1 and g[0][1] is one.terms else
              _sum_of_products(g, spec, variables, cap).terms, powers[o][i].terms)
             for i, g in groups.items()], spec, variables, cap)

    def rename(self, variables: tuple[str, ...], cap: int | None,
               names: dict[str, str] | None = None) -> "TruncSeries":
        """This series in the ring of ``variables`` at ``cap`` (terms at or above
        it dropped; None drops none). Own variable v goes to the slot of
        ``names.get(v, v)``, all at once, so a swap is one rename; injective."""
        variables = tuple(variables)
        targets = [(names or {}).get(v, v) for v in self.variables]
        if len(set(targets)) != len(targets) or not set(targets) <= set(variables):
            raise SpecMismatch(f"cannot rename {self.variables} into {variables} by {names}")
        # slot n of expo + (0,) is the 0 of a variable this series lacks
        n = len(self.variables)
        source = [targets.index(v) if v in targets else n for v in variables]
        key = (itemgetter(*source) if len(source) > 1 else  # one index gives no tuple, a slice does
               itemgetter(slice(source[0], source[0] + 1) if source else slice(0)))
        terms = {key(expo + (0,)): c
                 for expo, c in self.terms.items() if cap is None or sum(expo) < cap}
        return TruncSeries(self.spec, variables, cap, terms, _clean=True)

    # -- comparisons / display ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.variables == other.variables
            and self.cap == other.cap
            and self.terms == other.terms
        )

    def sorted_terms(self) -> list[tuple[Expo, CoeffElem]]:
        return [(e, self.coefficient(e)) for e in sorted(self.terms, key=lambda e: (sum(e), e))]

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for expo, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, expo)
                if e
            )
            cs = repr(c)
            if "+" in cs:
                cs = f"({cs})"
            bits.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "cap": self.cap,
            "terms": [
                {"exps": list(expo), "coeff": c.to_json()} for expo, c in self.sorted_terms()
            ],
        }


def _sum_of_products(pairs: list, spec: CoeffRingSpec, variables: tuple, cap: int | None):
    """The sum of A * B over the term dicts (A, B) in ``pairs``, in (spec, variables, cap)."""
    n, W, products, canon = len(variables), 1, 0, spec.canon  # products: S, sum of min(|A|, |B|)
    if n == 0 or n == 1 and cap is None:  # no cap cuts: in no variables the one term has degree 0
        if n:  # one sum per int exponent
            acc: dict[int, int] = {}
            for left, right in pairs:
                products += min(len(left), len(right))
                right = [(k, c) for (k,), c in right.items()]  # listed once for all left terms
                for (k1,), c1 in left.items():
                    for k2, c2 in right:
                        acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
        else:  # the one term of each side, at ()
            constants = [left[()] * right[()] for left, right in pairs if left and right]
            products = len(constants)
        spec.check_room(products)  # before canon reads the slots
        terms = ({(k,): c for k, v in acc.items() if (c := canon(v))} if n else
                 {(): c} if (c := canon(sum(constants))) else {})
        return TruncSeries(spec, variables, cap, terms, _clean=True)
    if n > 1:  # B: the cap, or without one more than any coordinate of a product
        top = lambda terms: max(chain.from_iterable(terms), default=0)
        B = cap if cap is not None else 1 + max((top(a) + top(b) for a, b in pairs), default=0)
        W, *weights = [B ** i for i in range(n, -1, -1)]
    # each term as (key, c), the key of e the digits deg(e), e_1, ..., e_n in base B (in one
    # variable the exponent), so a key over W is its degree and k1 + k2 a product's
    if n == 1:
        keyed = lambda terms: [(i, c) for (i,), c in terms.items()]
    elif n == 2:
        keyed = lambda terms: [(((i + j) * B + i) * B + j, c) for (i, j), c in terms.items()]
    elif n == 3:
        keyed = lambda terms: [((((i + j + k) * B + i) * B + j) * B + k, c)
                               for (i, j, k), c in terms.items()]
    else:
        keyed = lambda terms: [(sum(e) * W + sum(map(mul, e, weights)), c)
                               for e, c in terms.items()]
    acc: dict[int, int] = {}
    for left, right in pairs:
        products += min(len(left), len(right))
        right = keyed(right)
        if cap:  # by degree, so a left term of degree d walks the slice of degree < cap - d
            right.sort(key=_KEY)
        for k1, c1 in keyed(left):
            for k2, c2 in (right[:bisect_left(right, (cap - k1 // W) * W, key=_KEY)]
                           if cap else right):
                acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
    spec.check_room(products)  # before canon reads the slots
    # each output's exponent, decoded once: the digits below its degree (zip(acc) gives (k,))
    expos = zip(*[[k // w % B for k in acc] for w in weights]) if n > 1 else zip(acc)
    terms = {e: c for e, v in zip(expos, acc.values()) if (c := canon(v))}
    return TruncSeries(spec, variables, cap, terms, _clean=True)
