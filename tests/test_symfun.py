import pickle
import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandtrace import (
    Partition,
    SymFun,
    double_sum_identity_check,
    e,
    h,
    is_h_positive,
    omega,
    p,
    partitions_of,
    specialize_ones,
    to_basis,
    z_value,
)
from strandtrace.kernels import restricted_census
from strandtrace.symfun import BASES, from_json_dict, to_json_dict

EXAMPLE_213_P = (
    p((1, 1, 1, 1)) + 3 * p((2, 1, 1)) + 2 * p((3, 1)) + p((2, 2)) + p(4)
)
EXAMPLE_213_H = 2 * h((2, 2)) + 2 * h((3, 1)) + 4 * h(4)


# -- Partition -------------------------------------------------------------


def test_partition_canonicalizes():
    assert Partition((1, 3, 2)) == Partition((3, 2, 1))
    assert tuple(Partition((1, 3, 2))) == (3, 2, 1)
    assert Partition().size == 0 and Partition().length == 0
    assert Partition((3, 3, 1)).size == 7


def test_partition_rejects_nonpositive():
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_partitions_of_counts():
    # partition numbers 1, 1, 2, 3, 5, 7, 11, 15, 22
    counts = [len(list(partitions_of(n))) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


# -- z_value ---------------------------------------------------------------


def test_z_value_examples():
    assert z_value(Partition((1, 1))) == 2
    assert z_value(Partition((2, 1))) == 2
    assert z_value(Partition((3, 3, 1))) == 18


@pytest.mark.parametrize("n", range(1, 9))
def test_z_value_mass(n):
    # sum over lambda |- n of n!/z_lambda counts all of S_n
    assert sum(factorial(n) // z_value(lam) for lam in partitions_of(n)) == factorial(n)


# -- multiplication --------------------------------------------------------


def test_multiply_multiplicative_basis():
    assert h(2) * h(1) == h((2, 1))
    ff = p((1, 1)) + p(2)
    assert ff * ff == p((1, 1, 1, 1)) + 2 * p((2, 1, 1)) + p((2, 2))
    assert EXAMPLE_213_P * SymFun.one("p") == EXAMPLE_213_P


def test_multiply_basis_mismatch():
    with pytest.raises(ValueError):
        h(2) * p(2)


def test_multiply_random_commutative_associative():
    rng = random.Random(7)

    def random_fun():
        lams = [Partition(lam) for d in range(0, 5) for lam in partitions_of(d)]
        return SymFun("p", {lam: rng.randint(-3, 3) for lam in rng.sample(lams, 4)})

    for _ in range(25):
        f, g, k = random_fun(), random_fun(), random_fun()
        assert f * g == g * f
        assert (f * g) * k == f * (g * k)


def test_degree_additive():
    f = p((3, 1))
    g = p((2, 2, 1))
    assert (f * g).homogeneous_degree() == 9


# -- conversions -----------------------------------------------------------


def test_to_basis_examples():
    assert to_basis(p(1), "h") == h(1)
    assert to_basis(EXAMPLE_213_P, "h") == EXAMPLE_213_H
    assert to_basis(h(2), "p") == SymFun(
        "p", {Partition((1, 1)): Fraction(1, 2), Partition((2,)): Fraction(1, 2)}
    )


def test_round_trip_random():
    rng = random.Random(20240901)
    lams = [Partition(lam) for d in range(0, 11) for lam in partitions_of(d)]
    for _ in range(20):
        f = SymFun(
            "h",
            {lam: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for lam in rng.sample(lams, 6)},
        )
        assert to_basis(to_basis(f, "p"), "h") == f
        assert to_basis(to_basis(f, "e"), "h") == f


def test_prop_power_sum_census():
    # n! h_n = sum of p_{cycletype} over S_n, by explicit enumeration
    for n in range(1, 7):
        table = {}
        for sigma in permutations(range(1, n + 1)):
            lam = _cycle_type(sigma)
            table[lam] = table.get(lam, 0) + 1
        assert SymFun("p", table) == factorial(n) * to_basis(h(n), "p")


def _cycle_type(sigma):
    n = len(sigma)
    seen = [False] * (n + 1)
    out = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        ln, cur = 0, s
        while not seen[cur]:
            seen[cur] = True
            cur = sigma[cur - 1]
            ln += 1
        out.append(ln)
    return Partition(out)


@pytest.mark.parametrize("i", range(1, 21))
def test_prop_newton_recurrence(i):
    lhs = i * to_basis(h(i), "p")
    rhs = SymFun.zero("p")
    for j in range(1, i + 1):
        rhs = rhs + to_basis(h(i - j), "p") * p(j)
    assert lhs == rhs


# -- omega -----------------------------------------------------------------


def test_omega_examples():
    assert omega(h((2, 1))) == e((2, 1))
    assert omega(p(2)) == -1 * p(2)
    assert omega(omega(EXAMPLE_213_H)) == EXAMPLE_213_H


def test_omega_tag_swap_preserves_positivity():
    flipped = omega(EXAMPLE_213_H)
    assert flipped.basis == "e"
    assert all(c > 0 for _, c in flipped.terms())


def test_omega_involution_on_p():
    f = to_basis(EXAMPLE_213_H, "p")
    assert omega(omega(f)) == f


# -- h-positivity ----------------------------------------------------------


def test_h_positive_examples():
    verdict = is_h_positive(EXAMPLE_213_H)
    assert verdict.positive and verdict.witness is None
    assert verdict.coefficients == EXAMPLE_213_H

    verdict = is_h_positive(p(2))
    assert not verdict.positive
    assert verdict.witness == (Partition((1, 1)), Fraction(-1))

    assert is_h_positive(SymFun.zero("p")).positive


def test_h_positive_witness_is_lex_smallest():
    f = -1 * h((3, 1)) - h((2, 1, 1))
    assert is_h_positive(f).witness[0] == Partition((2, 1, 1))


# -- specialization --------------------------------------------------------


def test_specialize_ones_examples():
    assert specialize_ones(p((2, 1)), 3) == 9
    assert specialize_ones(omega(EXAMPLE_213_P), 2) == 2
    assert specialize_ones(SymFun.one("p") * 5, 4) == 5


def test_specialize_ones_powers():
    for d in range(0, 9):
        for lam in partitions_of(d):
            for m in range(1, 6):
                assert specialize_ones(SymFun("p", {lam: 1}), m) == m ** lam.length


# -- the double-sum identity -----------------------------------------------


def test_double_sum_trivial_and_value():
    assert double_sum_identity_check(0, 0)
    # for (a, b) = (1, 1) both sides equal 2 h_{11} + 2 h_2
    lhs = SymFun.zero("p")
    for i in range(2):
        for j in range(2):
            term = to_basis(h(1 - i), "p") * to_basis(h(1 - j), "p")
            if i + j:
                term = term * p(i + j)
            lhs = lhs + term
    assert to_basis(lhs, "h") == 2 * h((1, 1)) + 2 * h(2)
    assert double_sum_identity_check(1, 1)


def test_double_sum_small_grid():
    for a in range(0, 6):
        for b in range(0, 6):
            assert double_sum_identity_check(a, b)


# -- serialization ---------------------------------------------------------


def test_json_round_trip_and_order():
    d = to_json_dict(EXAMPLE_213_H)
    assert d["basis"] == "h"
    assert [t["partition"] for t in d["terms"]] == [[4], [3, 1], [2, 2]]
    assert all(isinstance(t["coeff"], str) for t in d["terms"])
    assert from_json_dict(d) == EXAMPLE_213_H


def test_fraction_strings_exact():
    f = SymFun("p", {Partition((2,)): Fraction(1, 3)})
    d = to_json_dict(f)
    assert d["terms"][0]["coeff"] == "1/3"
    assert from_json_dict(d) == f


def test_symfun_immutable():
    f = h(2)
    with pytest.raises(AttributeError):
        f.basis = "p"


# -- coefficient types -------------------------------------------------------


def int_only(f):
    return all(type(c) is int for c in f.coefficients().values())


def test_integer_results_hold_int_coefficients():
    for n in range(1, 7):
        census = SymFun("p", restricted_census(n, [0] * n))
        assert int_only(census)
        in_h = to_basis(census, "h")
        assert in_h == factorial(n) * h(n) and int_only(in_h)
    assert int_only(EXAMPLE_213_P * EXAMPLE_213_P - EXAMPLE_213_P)
    assert int_only(to_basis(EXAMPLE_213_P, "e"))


def test_e_h_basis_change_stays_integer():
    # e <-> h directly, against the route through the power sums
    for n in range(7):
        for lam in partitions_of(n):
            for source, target in ((e, "h"), (h, "e")):
                f = source(lam)
                direct = to_basis(f, target)
                assert int_only(direct), (f, direct)
                assert direct == to_basis(to_basis(f, "p"), target)
    assert to_basis(e(3), "h") == h(3) - 2 * h((2, 1)) + h((1, 1, 1))


def test_inexact_input_is_made_exact():
    half = SymFun("p", {(1,): 0.5}).coefficient((1,))
    assert half == Fraction(1, 2) and type(half) is Fraction
    third = SymFun("p", {(2,): "1/3"}).coefficient((2,))
    assert third == Fraction(1, 3) and type(third) is Fraction
    assert SymFun("h", {(1,): 0.25, (2,): "-3"}) == SymFun(
        "h", {(1,): Fraction(1, 4), (2,): -3}
    )


# -- properties over mixed int and Fraction coefficients -----------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

SMALL_PARTITIONS = [lam for d in range(0, 5) for lam in partitions_of(d)]
COEFFICIENTS = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def symfuns(basis):
    return st.dictionaries(
        st.sampled_from(SMALL_PARTITIONS), COEFFICIENTS, max_size=4
    ).map(lambda table: SymFun(basis, table))


@st.composite
def same_basis_triples(draw):
    basis = draw(st.sampled_from(BASES))
    return draw(symfuns(basis)), draw(symfuns(basis)), draw(symfuns(basis))


@PROPERTY
@given(same_basis_triples())
def test_prop_ring_laws(fgk):
    f, g, k = fgk
    zero, one = SymFun.zero(f.basis), SymFun.one(f.basis)
    assert f + g == g + f
    assert (f + g) + k == f + (g + k)
    assert f * g == g * f
    assert (f * g) * k == f * (g * k)
    assert f * (g + k) == f * g + f * k
    assert f + zero == f and f * one == f
    assert (f - f).is_zero() and (f * zero).is_zero()


@PROPERTY
@given(st.sampled_from(BASES).flatmap(symfuns), st.sampled_from(BASES))
def test_prop_basis_round_trips(f, via):
    assert to_basis(to_basis(f, via), f.basis) == f
    assert to_basis(to_basis(to_basis(f, via), "p"), f.basis) == f


@PROPERTY
@given(
    st.sampled_from(BASES),
    st.dictionaries(st.sampled_from(SMALL_PARTITIONS), st.integers(-9, 9), max_size=5),
)
def test_prop_json_same_for_int_and_fraction(basis, table):
    as_int = SymFun(basis, table)
    as_fraction = SymFun(basis, {lam: Fraction(c) for lam, c in table.items()})
    assert as_int == as_fraction
    assert to_json_dict(as_int) == to_json_dict(as_fraction)


@PROPERTY
@given(st.sampled_from(BASES).flatmap(symfuns))
def test_prop_json_round_trip(f):
    d = to_json_dict(f)
    back = from_json_dict(d)
    assert back == f
    assert to_json_dict(back) == d
    # whole numbers come back as int, whatever type they were written from
    for c in back.coefficients().values():
        assert type(c) is (int if c.denominator == 1 else Fraction), c


def _same_table(a, b):
    """Equal tables whose keys are Partitions and whose coefficients keep
    their types."""
    assert a == b
    for lam, c in a.coefficients().items():
        assert type(lam) is Partition, lam
        assert type(c) is type(b.coefficients()[lam]), (lam, c)


@PROPERTY
@given(st.sampled_from(BASES).flatmap(symfuns))
def test_prop_pickle_round_trip(f):
    back = pickle.loads(pickle.dumps(f))
    _same_table(back, f)
    with pytest.raises(AttributeError, match="immutable"):
        back.basis = "p"
    # the sweep's workers hand back is_h_positive verdicts this way
    verdict = is_h_positive(f)
    copy = pickle.loads(pickle.dumps(verdict))
    assert copy.positive == verdict.positive
    _same_table(copy.coefficients, verdict.coefficients)
    assert copy.witness == verdict.witness
    if copy.witness is not None:
        assert type(copy.witness[0]) is Partition
        assert type(copy.witness[1]) is type(verdict.witness[1])


def merged(f):
    """f rebuilt through the merging constructor."""
    return SymFun(f.basis, f.coefficients())


@PROPERTY
@given(st.sampled_from(BASES).flatmap(symfuns), COEFFICIENTS)
def test_prop_negation_scalars_and_omega_stay_canonical(f, scalar):
    # these results skip the merging constructor; they must equal what it
    # would have built, with no zero coefficients and Partition keys
    for g in (-f, scalar * f, f * scalar, omega(f)):
        assert g == merged(g)
        assert all(type(lam) is Partition and c for lam, c in g.coefficients().items())
    assert -f == SymFun(f.basis, {lam: -c for lam, c in f.coefficients().items()})
    assert scalar * f == SymFun(f.basis, {lam: scalar * c for lam, c in f.coefficients().items()})
    assert omega(omega(f)) == f
    assert (0 * f).is_zero() and (f * Fraction(0)).is_zero()
