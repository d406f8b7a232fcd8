"""Exact symmetric functions in the power-sum, complete homogeneous and
elementary bases.

Everything is a finite Q-linear combination of basis elements indexed by
integer partitions.  Coefficients are exact: integers stay ``int``, and
``fractions.Fraction`` enters only where 1/z_lambda does, in the expansion
of h in power sums.  All three bases are multiplicative, so products merge
index partitions by sorted concatenation.  Conversions run through the Newton
recurrence (p <-> h), the integer recurrence e_m = sum_i (-1)^(i-1) h_i e_{m-i}
(e -> h) and the omega involution (h -> e, e -> p) and are exact in both
directions; e <-> h never leaves the integers.

Conventions (used consistently by callers):
  * ``h(m) == 0`` for m < 0 and ``h(0) == 1``,
  * ``p(0) == 1`` (the empty power sum acts as the unit).
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

BASES = ("p", "h", "e")
_EXACT = (int, Fraction)


class Partition(tuple):
    """Integer partition: a weakly decreasing tuple of positive integers.

    The constructor sorts its input, so equal partitions always compare
    (and hash) equal.  The empty partition is ``Partition()``.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(sorted((int(x) for x in parts), reverse=True))
        if parts and parts[-1] <= 0:
            raise ValueError("partition parts must be positive: %r" % (parts,))
        return super().__new__(cls, parts)

    @property
    def size(self):
        return sum(self)

    @property
    def length(self):
        return len(self)

    def multiplicities(self):
        """Map part value -> number of occurrences."""
        return Counter(self)

    def __repr__(self):
        return "Partition(%s)" % (tuple(self),)


def partition_sort_key(lam):
    """Canonical term order: by size, then reverse-lexicographically.

    Within one degree this puts (4) before (3,1) before (2,2) before
    (2,1,1) before (1,1,1,1).
    """
    return (sum(lam), tuple(-p for p in lam))


def partitions_of(n, max_part=None):
    """Yield all partitions of n (parts bounded by max_part), largest first."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield Partition()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + tuple(rest))


def z_value(lam):
    """Centralizer size z_lambda = prod_i i^{d_i} d_i! (d_i = multiplicity of i)."""
    z = 1
    for part, d in Partition(lam).multiplicities().items():
        z *= part**d * factorial(d)
    return z


class SymFun:
    """Sparse basis-tagged symmetric function with exact coefficients.

    The constructor is the one place that fixes a coefficient's type and
    merges terms: ``int`` and ``Fraction`` are kept as given, anything else
    (a float, a string such as "1/3") is made exact with ``Fraction``, and
    terms on equal partitions are summed with zeros dropped.

    Immutable by convention: no method mutates ``self``; do not modify the
    mapping returned by ``coefficients()``.  Results whose table is already
    merged skip the constructor through ``_trusted``, so two functions may
    share one table: negation, scalar multiples, the retags of ``omega``,
    the basis-change expansion ``_expand`` (merged in one table, zeros
    dropped once), ``oracle.ch_gamma``, and in ``diagrams`` the coloring
    sum ``diagram_csf``, the full trace ``trace_to_symfun`` and the
    reduction's steps.  Pickling goes through ``_trusted`` too, so a copy
    keeps its Partition keys and coefficient types and stays immutable;
    this is how the sweep's workers hand back their verdicts.
    """

    __slots__ = ("basis", "_terms")

    def __init__(self, basis, terms=()):
        if basis not in BASES:
            raise ValueError("unknown basis %r (expected one of %s)" % (basis, BASES))
        table = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for lam, coeff in items:
            lam = lam if type(lam) is Partition else Partition(lam)
            if type(coeff) not in _EXACT:
                coeff = Fraction(coeff)
            if coeff:
                new = table.get(lam, 0) + coeff
                if new:
                    table[lam] = new
                elif lam in table:
                    del table[lam]
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_terms", table)

    def __setattr__(self, name, value):
        raise AttributeError("SymFun is immutable")

    def __reduce__(self):
        return (_trusted, (self.basis, self._terms))

    # -- inspection ------------------------------------------------------

    def terms(self):
        """Term list [(partition, coeff)] in canonical order."""
        return sorted(self._terms.items(), key=lambda kv: partition_sort_key(kv[0]))

    def coefficients(self):
        """The raw partition -> coefficient table (do not mutate)."""
        return self._terms

    def coefficient(self, lam):
        return self._terms.get(Partition(lam), 0)

    def is_zero(self):
        return not self._terms

    def homogeneous_degree(self):
        """Common degree of all terms; None for zero, ValueError if mixed."""
        degrees = {lam.size for lam in self._terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError("inhomogeneous symmetric function: degrees %s" % sorted(degrees))
        return degrees.pop()

    # -- ring structure --------------------------------------------------

    def _require_same_basis(self, other):
        if self.basis != other.basis:
            raise ValueError("basis mismatch: %s vs %s" % (self.basis, other.basis))

    def __add__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
        self._require_same_basis(other)
        return SymFun(self.basis, [*self._terms.items(), *other._terms.items()])

    def __neg__(self):
        return _trusted(self.basis, {lam: -c for lam, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SymFun):
            self._require_same_basis(other)
            return SymFun(
                self.basis,
                [
                    (Partition(lam + mu), a * b)
                    for lam, a in self._terms.items()
                    for mu, b in other._terms.items()
                ],
            )
        if isinstance(other, _EXACT):
            if not other:
                return _trusted(self.basis, {})
            return _trusted(self.basis, {lam: c * other for lam, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, SymFun)
            and self.basis == other.basis
            and self._terms == other._terms
        )

    def __repr__(self):
        if not self._terms:
            return "SymFun(%r, 0)" % self.basis
        body = " + ".join(
            "%s*%s[%s]" % (c, self.basis, ",".join(map(str, lam)))
            for lam, c in self.terms()
        )
        return "SymFun(%s)" % body

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, basis):
        return cls(basis, ())

    @classmethod
    def one(cls, basis):
        return cls(basis, {Partition(): 1})


def _trusted(basis, table):
    """The SymFun on ``table`` as it stands: a merged {Partition: nonzero
    int or Fraction} mapping, in a valid basis, that nothing mutates later.
    Nothing is checked, sorted or copied."""
    f = object.__new__(SymFun)
    object.__setattr__(f, "basis", basis)
    object.__setattr__(f, "_terms", table)
    return f


def _trusted_partition(parts):
    """The Partition on a tuple of positive parts that is already weakly
    decreasing; nothing is checked or sorted."""
    return tuple.__new__(Partition, parts)


def p(index):
    """p_index.  An int means a single part; p(0) is the unit (p_0 = 1)."""
    return _single("p", index)


def h(index):
    """h_index.  An int means a single part; h(0) = 1 and h(m) = 0 for m < 0."""
    return _single("h", index)


def e(index):
    """e_index, same index conventions as h."""
    return _single("e", index)


def _single(basis, index):
    if isinstance(index, int):
        if index < 0:
            if basis == "p":
                raise ValueError("negative power sum index %d" % index)
            return SymFun.zero(basis)
        index = (index,) if index > 0 else ()
    return SymFun(basis, {Partition(index): 1})


# -- basis conversion ----------------------------------------------------


@lru_cache(maxsize=None)
def _h_part_in_p(m):
    """h_m expanded in the power-sum basis: sum over lambda |- m of p_lambda / z_lambda."""
    return SymFun("p", {lam: Fraction(1, z_value(lam)) for lam in partitions_of(m)})


@lru_cache(maxsize=None)
def _p_part_in_h(m):
    """p_m expanded in the h basis via p_m = m h_m - sum_{j<m} h_{m-j} p_j."""
    acc = SymFun("h", {Partition((m,)): m})
    for j in range(1, m):
        acc = acc - h(m - j) * _p_part_in_h(j)
    return acc


@lru_cache(maxsize=None)
def _e_part_in_h(m):
    """e_m expanded in the h basis via e_m = sum_{i=1}^{m} (-1)^(i-1) h_i e_{m-i}."""
    acc = SymFun.one("h") if m == 0 else SymFun.zero("h")
    for i in range(1, m + 1):
        acc = acc + (-1) ** (i - 1) * (h(i) * _e_part_in_h(m - i))
    return acc


@lru_cache(maxsize=None)
def _h_index_in_p(mu):
    out = SymFun.one("p")
    for m in mu:
        out = out * _h_part_in_p(m)
    return out


@lru_cache(maxsize=None)
def _p_index_in_h(mu):
    out = SymFun.one("h")
    for m in mu:
        out = out * _p_part_in_h(m)
    return out


@lru_cache(maxsize=None)
def _e_index_in_h(mu):
    out = SymFun.one("h")
    for m in mu:
        out = out * _e_part_in_h(m)
    return out


def _expand(f, index_expansion, target):
    """sum_lam c_lam * index_expansion(lam) over f's coefficients, whatever
    f's basis tag, merged in one table; terms may cancel, so zeros are
    dropped once at the end."""
    acc = {}
    for lam, c in f.coefficients().items():
        for mu, d in index_expansion(lam).coefficients().items():
            acc[mu] = acc.get(mu, 0) + c * d
    return _trusted(target, {mu: c for mu, c in acc.items() if c})


def _omega_sign(lam):
    return -1 if (lam.size - lam.length) % 2 else 1


def omega(f):
    """The involution omega: swaps the h and e tags; on the p basis it
    scales p_lambda by (-1)^(|lambda| - l(lambda))."""
    if f.basis == "p":
        return _trusted("p", {lam: _omega_sign(lam) * c for lam, c in f.coefficients().items()})
    return _trusted("e" if f.basis == "h" else "h", f.coefficients())


def _to_p(f):
    if f.basis == "p":
        return f
    if f.basis == "h":
        return _expand(f, _h_index_in_p, "p")
    # e_mu = omega(h_mu), so expand the coefficients on h_mu and flip signs
    return omega(_expand(f, _h_index_in_p, "p"))


def _to_h(f):
    if f.basis == "h":
        return f
    if f.basis == "p":
        return _expand(f, _p_index_in_h, "h")
    return _expand(f, _e_index_in_h, "h")


def to_basis(f, target):
    """Rewrite f exactly in the target basis ("p", "h" or "e")."""
    if target not in BASES:
        raise ValueError("unknown basis %r" % (target,))
    if target == f.basis:
        return f
    if target == "p":
        return _to_p(f)
    if target == "h":
        return _to_h(f)
    # f = omega(omega(f)), and omega retags an h expansion as e
    return omega(_to_h(omega(f)))


# -- positivity, evaluation, identities -----------------------------------


class HPositivity:
    """Verdict of an h-positivity check.

    ``coefficients`` is the full h-basis expansion; ``witness`` is the
    lexicographically smallest partition carrying a negative coefficient
    (with that coefficient), or None when positive.
    """

    __slots__ = ("positive", "coefficients", "witness")

    def __init__(self, positive, coefficients, witness):
        self.positive = positive
        self.coefficients = coefficients
        self.witness = witness

    def __bool__(self):
        return self.positive

    def __repr__(self):
        if self.positive:
            return "HPositivity(positive)"
        return "HPositivity(negative at %r -> %s)" % (self.witness[0], self.witness[1])


def is_h_positive(f):
    """Convert to the h basis and certify nonnegativity of all coefficients."""
    fh = to_basis(f, "h")
    negatives = [lam for lam, c in fh.coefficients().items() if c < 0]
    if not negatives:
        return HPositivity(True, fh, None)
    worst = min(negatives, key=tuple)
    return HPositivity(False, fh, (worst, fh.coefficient(worst)))


def specialize_ones(f, m):
    """Evaluate at x_1 = ... = x_m = 1, all other variables 0.

    Converts to the power-sum basis first; there p_lambda |-> m^(l(lambda)).
    """
    if m <= 0:
        raise ValueError("m must be positive")
    fp = _to_p(f)
    return sum(c * m**lam.length for lam, c in fp.coefficients().items())


def double_sum_identity_check(a, b):
    """Check sum_{i<=a, j<=b} h_{a-i} h_{b-j} p_{i+j}
    == (b+1) h_a h_b + sum_{i=1}^{a} (b-a+2i) h_{a-i} h_{b+i}
    symbolically in the p basis (with p_0 = 1)."""
    if a < 0 or b < 0:
        raise ValueError("a, b must be nonnegative")
    lhs = SymFun.zero("p")
    for i in range(a + 1):
        for j in range(b + 1):
            term = _to_p(h(a - i)) * _to_p(h(b - j))
            if i + j > 0:
                term = term * p(i + j)
            lhs = lhs + term
    rhs = (b + 1) * (_to_p(h(a)) * _to_p(h(b)))
    for i in range(1, a + 1):
        rhs = rhs + (b - a + 2 * i) * (_to_p(h(a - i)) * _to_p(h(b + i)))
    return lhs == rhs


# -- serialization ---------------------------------------------------------


def to_json_dict(f):
    """Canonical JSON form: terms in canonical order, coefficients as exact
    fraction strings ("4" for both 4 and Fraction(4))."""
    return {
        "basis": f.basis,
        "terms": [
            {"partition": list(lam), "coeff": str(c)} for lam, c in f.terms()
        ],
    }


def _json_coeff(text):
    """A coefficient string back as a number: whole numbers ("4") as int,
    the rest ("1/3") as Fraction."""
    value = Fraction(text)
    return value.numerator if value.denominator == 1 else value


def from_json_dict(d):
    return SymFun(d["basis"], [(t["partition"], _json_coeff(t["coeff"])) for t in d["terms"]])
