"""Delta-rings: Frobenius lifts on torsion-free polynomial rings.

A ring here is Z[g_1..g_k] (exact integer coefficients, so p-torsion free)
together with a ring endomorphism psi given on generators and required to
satisfy psi(g) = g^p mod p. The derived operation

    delta(a) = (psi(a) - a^p) / p

is then well defined with exact integer division, and the usual sum and
product rules for delta are theorems, checked here on random samples rather
than assumed. psi is a substitution of the psi images; the ring keeps one
table of their powers for its lifetime, so each power is formed once.

The sheaf evaluation realizes, for a Frobenius power r, the map
psi^r (x) Id_S on the completed tensor A (x) S; it is fixed by the psi^r
images of the generators, whatever the base ring S, so only r is given.
It is the one way to apply psi^r: a value substitutes its images, keeping
their powers. Built from the outside, psi^k(g) = psi(g) at the images of
psi^(k-1), step k forms no product of higher degree than its output.
Composing two evaluations adds the Frobenius powers, which is the
functoriality this module exists to exhibit.
"""

from __future__ import annotations

import ast
import keyword
import random
import re
from dataclasses import dataclass, field

from .coeffring import CoeffElem, CoeffRingSpec
from .errors import NotAFrobeniusLift, NotDivisible
from .series import TruncSeries

# a random sample element: 1 to 4 terms, exponents to 3, coefficients in [-9, 9]
SAMPLE_MAX_DEGREE, SAMPLE_MAX_TERMS, SAMPLE_COEFF_BOUND = 3, 4, 9


class DeltaRing:
    """Z[generators] with a Frobenius lift psi."""

    def __init__(self, generators: tuple[str, ...], psi_images: dict[str, TruncSeries], p: int):
        self.p = p
        self.spec = CoeffRingSpec(p=p, p_precision=None)
        self.generators = tuple(generators)
        self.psi_images = {g: psi_images[g].rename(self.generators, None)
                           for g in self.generators}
        self._psi_powers: dict[str, list[TruncSeries]] = {}  # subst's power table, kept
        for g in self.generators:
            try:
                _divide_terms_by_p(self.psi_images[g] - _power(self.var(g), p))
            except NotDivisible:
                raise NotAFrobeniusLift(f"psi({g}) is not congruent to {g}^{p} mod {p}") from None

    # -- element constructors -------------------------------------------

    def var(self, name: str) -> TruncSeries:
        return TruncSeries.variable(self.spec, self.generators, None, name)

    def constant(self, value: int) -> TruncSeries:
        return TruncSeries.constant(
            self.spec, self.generators, None, CoeffElem.from_int(self.spec, value)
        )

    def random_element(self, rng: random.Random) -> TruncSeries:
        terms = {}
        k = len(self.generators)
        for _ in range(rng.randrange(1, SAMPLE_MAX_TERMS + 1)):
            expo = tuple(rng.randrange(0, SAMPLE_MAX_DEGREE + 1) for _ in range(k))
            terms[expo] = rng.randrange(-SAMPLE_COEFF_BOUND, SAMPLE_COEFF_BOUND + 1)
        terms = {e: c for e, c in terms.items() if c}  # over Z the stored int is the coefficient
        return TruncSeries(self.spec, self.generators, None, terms, _clean=True)

    # -- operations ---------------------------------------------------------

    def psi(self, a: TruncSeries) -> TruncSeries:
        if not self.generators:
            return a  # psi is the identity on Z
        return a.subst(self.psi_images, self._psi_powers)

    def delta(self, a: TruncSeries) -> TruncSeries:
        return _divide_terms_by_p(self.psi(a) - _power(a, self.p))

    def check_axioms(self, sample_pairs: list[tuple[TruncSeries, TruncSeries]]) -> dict:
        """Verify the delta-ring laws on the given pairs; returns a report."""
        p = self.p
        failures = []
        if not self.delta(self.constant(1)).is_zero():
            failures.append("delta(1) != 0")
        for i, (a, b) in enumerate(sample_pairs):
            s = a + b
            psi_a, psi_b, psi_sum, psi_prod = map(self.psi, (a, b, s, a * b))
            ap, bp, sum_p = _power(a, p), _power(b, p), _power(s, p)
            lift, rules = True, []
            try:  # a and b lift Frobenius when their defects divide by p
                da, db = _divide_terms_by_p(psi_a - ap), _divide_terms_by_p(psi_b - bp)
            except NotDivisible:
                lift = False
            if lift:  # the product and sum rules divide by p
                prod_rule = _divide_terms_by_p(psi_prod - ap * bp) == \
                    da * bp + ap * db + (da * db).scale(CoeffElem.from_int(self.spec, p))
                binom = _divide_terms_by_p(ap + bp - sum_p)
                sum_rule = _divide_terms_by_p(psi_sum - sum_p) == da + db + binom
                rules = [("product rule", prod_rule), ("sum rule", sum_rule)]
            for name, ok in rules + [("psi additive", psi_sum == psi_a + psi_b),
                                     ("psi multiplicative", psi_prod == psi_a * psi_b),
                                     ("frobenius lift", lift)]:
                if not ok:
                    failures.append(f"pair {i}: {name}")
        return {"passed": not failures, "checked": len(sample_pairs), "failures": failures}

    def __repr__(self) -> str:
        gens = ",".join(self.generators) or ""
        return f"DeltaRing(Z[{gens}], p={self.p})"


def _power(a: TruncSeries, n: int) -> TruncSeries:
    """a^n by repeated squaring (1 for n <= 0); no product by 1."""
    out = None if n > 0 else TruncSeries.one(a.spec, a.variables, a.cap)
    while n > 0:
        if n & 1:
            out = a if out is None else out * a
        n >>= 1
        if n:
            a = a * a
    return out


def _divide_terms_by_p(a: TruncSeries) -> TruncSeries:
    """a / p in one divmod pass over its integer coefficients; NotDivisible unless exact."""
    p, terms = a.spec.p, {}
    for expo, c in a.terms.items():
        terms[expo], r = divmod(c, p)
        if r:
            raise NotDivisible(f"coefficient {c} is not divisible by {p}")
    return TruncSeries(a.spec, a.variables, a.cap, terms, _clean=True)


def parse_delta_ring(text: str, default_p: int | None = None) -> DeltaRing:
    """Parse e.g. "Z[t]; psi t -> t^2; p 2" or "Z; psi id" with default_p.

    The head is ``Z`` or ``Z[g1, ..., gk]`` with distinct identifiers, none a
    Python keyword, as generators, and at most one ``p`` clause may follow.
    The polynomial expressions allow integers, generators, + - * and ^.
    """
    parts = [part.strip() for part in text.split(";") if part.strip()] or [""]
    head = parts[0]
    match = re.fullmatch(r"Z(?:\s*\[(.*)\])?", head)
    inner = match[1] if match else None
    generators = () if inner is None else tuple(g.strip() for g in inner.split(","))
    if not match or not all(g.isidentifier() and not keyword.iskeyword(g) for g in generators) \
            or len(set(generators)) < len(generators):
        raise ValueError(f"clause {head!r}: expected 'Z' or 'Z[g1, ..., gk]' with distinct "
                         "generator names")
    p, p_clause = default_p, None
    clauses: dict[str, tuple[str, str]] = {}  # generator -> (its psi clause, the image)
    for part in parts[1:]:
        if part.startswith("p "):
            if p_clause:
                raise ValueError(f"clause {part!r}: a second p clause after {p_clause!r}")
            if not re.fullmatch(r"p\s+[+-]?\d+", part):
                raise ValueError(f"clause {part!r}: {part[2:].strip()!r} is not an integer")
            p, p_clause = int(part[2:]), part
        elif part.startswith("psi"):
            body = part[3:].strip()
            if body == "id" or not body:
                continue
            lhs, arrow, rhs = (s.strip() for s in body.partition("->"))
            if not arrow:
                raise ValueError(f"clause {part!r}: expected 'psi <generator> -> <image>'")
            if lhs not in generators:
                raise ValueError(f"clause {part!r}: {lhs!r} is not a generator of {head}")
            if lhs in clauses:
                raise ValueError(f"clause {part!r}: a second psi clause for {lhs}")
            clauses[lhs] = (part, rhs)
        else:
            raise ValueError(f"clause {part!r}: expected 'p <prime>' or 'psi ...'")
    if p is None:
        raise ValueError("missing 'p <prime>' clause (or pass --p)")
    spec = CoeffRingSpec(p=p, p_precision=None)
    images = {g: TruncSeries.variable(spec, generators, None, g) for g in generators}
    for g, (part, rhs) in clauses.items():
        try:
            images[g] = _parse_poly(rhs, generators, spec)
        except ValueError as exc:
            raise ValueError(f"clause {part!r}: {exc}") from None
    return DeltaRing(generators, images, p)


# the operators outside the polynomial syntax, as an error names them (others by ast class)
_OPERATORS = {ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.UAdd: "unary +"}


def _parse_poly(text: str, generators: tuple[str, ...], spec: CoeffRingSpec) -> TruncSeries:
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError:
        raise ValueError(f"{text!r} is not a polynomial expression") from None

    def ev(node) -> TruncSeries:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Pow):
                if not isinstance(node.right, ast.Constant):
                    raise ValueError("exponent must be a literal integer")
                return _power(left, node.right.value)  # an int: ev(node.right) checked it
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            op = type(node.op)
            raise ValueError(f"unsupported operator {_OPERATORS.get(op, op.__name__)}")
        if isinstance(node, ast.Constant):
            if type(node.value) is not int:  # a float or a bool is not an integer literal
                raise ValueError(f"{node.value!r} is not an integer literal")
            value = CoeffElem.from_int(spec, node.value)
            return TruncSeries.constant(spec, generators, None, value)
        if isinstance(node, ast.Name):
            if node.id not in generators:
                raise ValueError(f"unknown generator {node.id}")
            return TruncSeries.variable(spec, generators, None, node.id)
        raise ValueError(f"unsupported syntax {ast.unparse(node)!r}")

    return ev(tree)


# -- sheaf evaluation ------------------------------------------------------------


@dataclass
class SheafValue:
    """A (x) S with the map psi^r (x) Id_S, given by generator images."""

    ring: DeltaRing
    frobenius_power: int
    generator_images: dict[str, TruncSeries]
    _powers: dict = field(default_factory=dict, repr=False, compare=False)  # subst's power table

    def __call__(self, a: TruncSeries) -> TruncSeries:
        """psi^r(a): a at the generator images (a itself on Z)."""
        return a.subst(self.generator_images, self._powers) if self.ring.generators else a

    def compose(self, other: "SheafValue") -> "SheafValue":
        """self after other: Frobenius powers add."""
        images = {g: self(img) for g, img in other.generator_images.items()}
        return SheafValue(self.ring, self.frobenius_power + other.frobenius_power, images)


def sheaf_eval(ring: DeltaRing, r: int) -> SheafValue:
    """Evaluate the deformation sheaf of ``ring`` on Frob^r, from the outside."""
    if r < 0:
        raise ValueError("Frobenius power must be >= 0")
    value = SheafValue(ring, 0, {g: ring.var(g) for g in ring.generators})
    for k in range(1, r + 1):  # psi^k(g) is psi(g) at the images of psi^(k-1)
        value = SheafValue(ring, k, {g: value(ring.psi_images[g]) for g in ring.generators})
    return value


def congruence_check(value: SheafValue, samples: list[TruncSeries]) -> dict:
    """Over a characteristic-p base, psi^r (x) Id must equal a -> a^(p^r).

    Realized on elementary tensors: a (x) s mod p only sees the coefficients
    of a mod p, uniformly in s. Mod p, Frobenius is additive and fixes F_p, so

        (sum c_e g^e)^(p^r) = sum c_e g^(e p^r)  mod p:

    the right side is a with every exponent multiplied by p^r, and psi^r(a)
    must agree with it mod p at every monomial.
    """
    p, r = value.ring.p, value.frobenius_power
    failures = []
    for i, a in enumerate(samples):
        lhs = value(a).terms
        rhs = {tuple(k * p ** r for k in expo): c for expo, c in a.terms.items()}
        for expo in {**lhs, **rhs}:
            if (lhs.get(expo, 0) - rhs.get(expo, 0)) % p:
                failures.append(f"sample {i} at monomial {expo}")
                break
    return {"passed": not failures, "checked": len(samples),
            "frobenius_power": r, "failures": failures}


def frobenius_chain_check(expected: SheafValue, chains: dict[str, list[str]]) -> dict:
    """Every index-p chain from the trivial group assigns psi^m, m = order exp.

    A chain is a sequence of index-p steps; each step contributes one psi.
    The composite is composed on generators one psi at a time, from the inside,
    and compared against ``expected``, which sheaf_eval built from the outside.
    """
    ring, order_exponent = expected.ring, expected.frobenius_power
    failures, results = [], {}
    for name, chain in chains.items():
        steps = len(chain)
        if steps != order_exponent:
            failures.append(f"{name}: {steps} steps for order exponent {order_exponent}")
            results[name] = False
            continue
        images = {g: ring.var(g) for g in ring.generators}
        for _ in range(steps):
            images = {g: ring.psi(img) for g, img in images.items()}
        ok = images == expected.generator_images
        results[name] = ok
        if not ok:
            failures.append(f"{name}: composite differs from psi^{order_exponent}")
    return {"passed": not failures, "chains": results, "failures": failures}


def cyclic_chains(exponent: int) -> dict[str, list[str]]:
    """The unique maximal subgroup chain of C_{p^exponent}."""
    chain = [f"C^{i - 1} < C^{i}" for i in range(1, exponent + 1)]
    return {f"cyclic({exponent})": chain}


def elementary_rank2_chains(p: int) -> dict[str, list[str]]:
    """All maximal chains of C_p x C_p: one per order-p subgroup (p + 1)."""
    out = {}
    lines = [f"span(0,1)"] + [f"span(1,{a})" for a in range(p)]
    for line in lines:
        out[f"via {line}"] = [f"1 < {line}", f"{line} < full"]
    return out
