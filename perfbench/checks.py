"""Independent output checks for the strandtrace benchmark.

Nothing here imports strandtrace.  Every expected value is computed from
first principles (Fibonacci counts, chromatic polynomials read off a perfect
elimination order, Ferrers-board rook products, the symmetries of strand
diagrams) or is a property every correct output must have (h-nonnegativity,
which holds for every natural unit interval order since the proof of the
Stanley-Stembridge conjecture).  Values arrive as plain data: partitions are
tuples of ints, coefficients are ints or Fractions.

Each check returns a list of error messages; an empty list means it passed.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod


def fibonacci(k):
    """F_k with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _part(lam, i):
    """lambda_i, zero-padded (1-based)."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def chromatic_product(n, lam, m):
    """Proper m-colorings of the incomparability graph of P(lambda).

    Vertex v is below exactly the elements a <= lambda_{n+1-v}, so its
    earlier neighbours are the v-1-lambda_{n+1-v} elements above that bound;
    they form a clique, so 1..n is a perfect elimination order and each
    vertex has that many colors ruled out.
    """
    return prod(m - (v - 1 - _part(lam, n + 1 - v)) for v in range(1, n + 1))


def rook_product(n, lam):
    """Permutations sigma of [n] with sigma(k) > lambda_{n+1-k} for all k:
    place the most constrained positions first (bounds in decreasing order)."""
    bounds = sorted((_part(lam, n + 1 - k) for k in range(1, n + 1)), reverse=True)
    return prod(max(0, n - b - i) for i, b in enumerate(bounds))


def check_shape_counts(counts):
    """counts: {n: number of 2+1+1-avoiding shapes inside stair(n)}."""
    return [
        "n=%d: %d shapes, expected F_%d = %d" % (n, got, 2 * n - 1, fibonacci(2 * n - 1))
        for n, got in sorted(counts.items())
        if got != fibonacci(2 * n - 1)
    ]


def check_h_expansion(n, lam, coeffs):
    """The h-expansion of the symmetric function of P(lambda).

    It is h-nonnegative and homogeneous of degree n, and under
    h_lambda -> prod_i C(m, lambda_i) (omega, then m ones) it evaluates to the
    chromatic polynomial at m = 1..n+1.
    """
    errors = []
    for mu, c in coeffs.items():
        if c < 0:
            errors.append("lambda=%s: h%s has negative coefficient %s" % (lam, mu, c))
        if sum(mu) != n:
            errors.append("lambda=%s: h%s is not of degree %d" % (lam, mu, n))
    for m in range(1, n + 2):
        got = sum(c * prod(comb(m, part) for part in mu) for mu, c in coeffs.items())
        want = chromatic_product(n, lam, m)
        if got != want:
            errors.append("lambda=%s: evaluation at m=%d is %s, expected %d" % (lam, m, got, want))
    return errors


def check_reduction_steps(n, lam, steps):
    """Every intermediate state sum_b coeff_b * partial_b(D) of the reduction.

    steps: list of states, each a list of (strands, b, {partition: coeff}).
    Each coefficient is nonnegative, and deg(coeff) + b + strands == n.
    """
    errors = []
    for index, state in enumerate(steps):
        for strands, b, coeffs in state:
            for mu, c in coeffs.items():
                if c < 0:
                    errors.append(
                        "lambda=%s step %d: h%s * partial_%d has coefficient %s"
                        % (lam, index, mu, b, c)
                    )
                if sum(mu) + b + strands != n:
                    errors.append(
                        "lambda=%s step %d: h%s * partial_%d on %d strands has degree %d"
                        % (lam, index, mu, b, strands, sum(mu) + b + strands)
                    )
    return errors


def check_p_expansion(n, lam, coeffs):
    """The p-expansion of the symmetric function of P(lambda).

    Its coefficients count restricted permutations by cycle type, so they
    sum to the rook product; and sum_mu a_mu (-1)^(n-l(mu)) m^l(mu) is the
    chromatic polynomial at m = 1..n+1.
    """
    errors = []
    total = sum(coeffs.values())
    if total != rook_product(n, lam):
        errors.append(
            "lambda=%s: p-coefficients sum to %s, expected %d" % (lam, total, rook_product(n, lam))
        )
    for m in range(1, n + 2):
        got = sum(c * (-1) ** (n - len(mu)) * m ** len(mu) for mu, c in coeffs.items())
        want = chromatic_product(n, lam, m)
        if got != want:
            errors.append("lambda=%s: evaluation at m=%d is %s, expected %d" % (lam, m, got, want))
    return errors


def check_agree(lam, named):
    """named: {label: {partition: coeff}}; all must be equal."""
    labels = sorted(named)
    first = named[labels[0]]
    return [
        "lambda=%s: %s and %s disagree" % (lam, labels[0], label)
        for label in labels[1:]
        if named[label] != first
    ]


def sweep_sequences(strands, max_crossings):
    """Crossing sequences of the exhaustive sweep, in generation order:
    shorter first, then lexicographic over the sorted alphabet."""
    alphabet = [(i, j) for i in range(1, strands) for j in range(i + 1, strands + 1)]
    return [
        seq
        for length in range(1, max_crossings + 1)
        for seq in product(alphabet, repeat=length)
    ]


def check_sweep(strands, max_crossings, records):
    """records: parsed JSONL records of `search`, in file order."""
    expected = sweep_sequences(strands, max_crossings)
    if len(records) != len(expected):
        return ["%d records, expected %d" % (len(records), len(expected))]
    errors = []
    values = {}
    for record, seq in zip(records, expected):
        got = tuple(tuple(c) for c in record["crossings"])
        if got != seq or record["n"] != strands:
            errors.append("record %s out of generation order (expected %s)" % (got, seq))
            continue
        coeffs = {tuple(t["partition"]): Fraction(t["coeff"]) for t in record["h"]}
        values[seq] = coeffs
        colorings = prod(factorial(j - i + 1) for i, j in seq)
        if sum(coeffs.values()) != colorings:
            errors.append("%s: h-coefficients sum to %s, expected %d" % (seq, sum(coeffs.values()), colorings))
        if record["positive"] is not True or any(c < 0 for c in coeffs.values()):
            errors.append("%s: h-negative" % (seq,))
        if len(seq) == 1:
            size = seq[0][1] - seq[0][0] + 1
            single = {(size,) + (1,) * (strands - size): factorial(size)}
            if coeffs != single:
                errors.append("%s: expected %d! h_%d h_1^%d" % (seq, size, size, strands - size))
    for seq, coeffs in values.items():
        reflected = tuple((strands + 1 - j, strands + 1 - i) for i, j in seq)
        for image in (reflected, seq[::-1]):
            if image in values and values[image] != coeffs:
                errors.append("%s and its image %s differ" % (seq, image))
    return errors


def _corners_avoid_211(n, lam):
    """Corner criterion for 2+1+1 avoidance: the corner of each distinct
    part value, at its topmost row n+1-i, lies in row col+1 or col+2."""
    for i in range(1, len(lam) + 1):
        if lam[i - 1] > _part(lam, i + 1) and n + 1 - i not in (lam[i - 1] + 1, lam[i - 1] + 2):
            return False
    return True


def canonical_key(lam):
    """Shape order: by size, then reverse-lexicographically."""
    return (sum(lam), tuple(-part for part in lam))


def check_shapes(n, shapes, crossings):
    """shapes: partitions in yield order; crossings: their diagrams'
    bottom-to-top (i, j) lists."""
    errors = []
    if len(shapes) != fibonacci(2 * n - 1):
        errors.append("%d shapes, expected F_%d = %d" % (len(shapes), 2 * n - 1, fibonacci(2 * n - 1)))
    for before, after in zip(shapes, shapes[1:]):
        if not canonical_key(before) < canonical_key(after):
            errors.append("%s is not before %s in canonical order" % (before, after))
    for lam, diagram in zip(shapes, crossings):
        inside = all(part <= n - i for i, part in enumerate(lam, start=1))
        if not inside or not _corners_avoid_211(n, lam):
            errors.append("%s is not a 2+1+1-avoiding shape in stair(%d)" % (lam, n))
        fits = all(1 <= i < j <= n for i, j in diagram)
        rising = all(a[0] < b[0] and a[1] < b[1] for a, b in zip(diagram, diagram[1:]))
        if not (fits and rising):
            errors.append("%s: diagram %s is not staircase-like" % (lam, diagram))
    return errors
