"""The kernels against brute force written out here: the coset-by-coset
coloring census against composing every choice of window bijections, the
cycle-type census against cycle-typing that census, the joined-cycles table
against every way of joining its paths, the
restricted-permutation census against all of S_n and its total against the
Ferrers-board product, and the proper-coloring count against all of
[m]^n."""

from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strandtrace import StrandDiagram, diagrams, kernels, oracle, orders, symfun

CENSUS_CASES = [
    (1, []),
    (3, []),
    (4, [(1, 4)]),
    (4, [(1, 2), (2, 3), (3, 4)]),
    (4, [(1, 3), (2, 4)]),
    (4, [(2, 3), (1, 2), (3, 4), (2, 3)]),
    (5, [(1, 2), (3, 5)]),
    (6, [(1, 4), (3, 6)]),
    (11, [(1, 3), (9, 11)]),
    # stacked wide crossings: many colorings share a composite, so the
    # layer-by-layer census merges states at every crossing
    (6, [(1, 4), (3, 6), (1, 4)]),
    (5, [(1, 5), (1, 5)]),
    (5, [(1, 3), (2, 5), (1, 3), (3, 5)]),
    # consecutive windows sharing two or more strands, and a window inside
    # the one before it: cosets merge and carry |W & W'|! per placement
    (5, [(1, 4), (2, 5)]),
    (5, [(2, 5), (1, 4), (2, 4)]),
    (6, [(1, 5), (2, 6), (3, 4)]),
    (6, [(2, 5), (1, 6), (3, 5), (1, 3)]),
    # the digit width n.bit_length() of the packed cycle-length keys grows
    # to 4 bits at n = 8 and to 5 at n = 16, where the identity's n fixed
    # points first fill the 1-cycle digit past the narrower width
    (8, []),
    (8, [(1, 2), (7, 8)]),
    (16, [(1, 3), (14, 16)]),
]

RESTRICTED_CASES = [
    (1, [0]),
    (4, [0, 0, 1, 2]),
    (4, [0, 0, 0, 0]),
    (5, [0, 0, 1, 3, 3]),
    (6, [0, 0, 0, 1, 3, 4]),
    (6, [0, 1, 2, 3, 4, 5]),
    (4, [0, 0, 4, 0]),  # unsatisfiable bound
    (3, [-1, 0, 0]),  # negative bounds restrict nothing
    (4, [-5, 1, -1, 2]),
]

COLORING_CASES = [
    (1, [], 3),
    (4, [(1, 2), (2, 3), (3, 4)], 2),
    (4, [(1, 2), (2, 3), (3, 4)], 3),
    (3, [(1, 2), (1, 3), (2, 3)], 3),
    (5, [], 4),
    (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 3),
]


def census_reference(n, crossings):
    """Compose every choice of one bijection per crossing."""
    windows = [
        [dict(zip(range(i, j + 1), sigma)) for sigma in permutations(range(i, j + 1))]
        for i, j in crossings
    ]
    counts = {}
    for choice in product(*windows):
        comp = tuple(range(1, n + 1))
        for move in choice:
            comp = tuple(move.get(v, v) for v in comp)
        counts[comp] = counts.get(comp, 0) + 1
    return counts


def cycle_type_reference(images):
    left = set(range(1, len(images) + 1))
    lengths = []
    while left:
        k, size = min(left), 0
        while k in left:
            left.remove(k)
            k = images[k - 1]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def restricted_reference(n, bounds):
    counts = {}
    for sigma in permutations(range(1, n + 1)):
        if all(sigma[k] > bounds[k] for k in range(n)):
            ct = cycle_type_reference(sigma)
            counts[ct] = counts.get(ct, 0) + 1
    return counts


def coloring_reference(n, edges, m):
    return sum(
        1
        for colors in product(range(m), repeat=n)
        if all(colors[a - 1] != colors[b - 1] for a, b in edges)
    )


def test_python_census_hand_values():
    # no crossing: the identity alone, also where it has no slot or one
    assert kernels.colored_census(0, []) == {(): 1}
    assert kernels.colored_census(1, []) == {(1,): 1}
    assert kernels.colored_census(3, []) == {(1, 2, 3): 1}
    assert kernels.colored_census(2, [(1, 2)]) == {(1, 2): 1, (2, 1): 1}
    two = kernels.colored_census(2, [(1, 2), (1, 2)])
    assert two == {(1, 2): 2, (2, 1): 2}


@pytest.mark.parametrize("n,crossings", CENSUS_CASES)
def test_census_against_product(n, crossings):
    assert kernels.colored_census(n, crossings) == census_reference(n, crossings)


def test_census_against_product_exhaustively_on_small_diagrams():
    alphabet = [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
    for length in range(0, 3):
        for crossings in product(alphabet, repeat=length):
            assert kernels.colored_census(4, list(crossings)) == census_reference(
                4, crossings
            ), crossings


def test_colored_census_is_the_walk_one_step_past_its_crossings(monkeypatch):
    """colored_census makes one _next_cosets step per crossing and one
    more, to the empty window, whose cosets are single permutations."""
    real = kernels._next_cosets
    steps = []

    def step(n, cosets, held, crossing):
        layer = real(n, cosets, held, crossing)
        steps.append((crossing, layer[1]))
        return layer

    monkeypatch.setattr(kernels, "_next_cosets", step)
    for n, crossings in CENSUS_CASES:
        steps.clear()
        census = kernels.colored_census(n, crossings)
        if crossings:
            windows = [tuple(range(i, j + 1)) for i, j in crossings]
            assert steps == [*zip(crossings, windows), (kernels.EMPTY, ())]
        else:
            assert steps == []
        assert census == census_reference(n, crossings)


@st.composite
def small_diagrams(draw):
    n = draw(st.integers(2, 5))
    window = st.tuples(st.integers(1, n - 1), st.integers(2, n)).filter(lambda c: c[0] < c[1])
    return n, draw(st.lists(window, max_size=3))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_diagrams())
def test_census_against_product_on_random_diagrams(diagram):
    n, crossings = diagram
    assume(prod(factorial(j - i + 1) for i, j in crossings) <= 20_000)
    assert kernels.colored_census(n, crossings) == census_reference(n, crossings)


def cycle_types_of_census(n, crossings, distinct=False):
    """The expanding route: cycle-type every composite of colored_census,
    with its count or, with ``distinct``, once."""
    counts = {}
    for images, count in kernels.colored_census(n, crossings).items():
        lam = kernels.cycle_type(images)
        counts[lam] = counts.get(lam, 0) + (1 if distinct else count)
    return counts


def test_cycle_type_census_hand_values():
    assert kernels.cycle_type_census(0, []) == {(): 1}
    assert kernels.cycle_type_census(3, []) == {(1, 1, 1): 1}
    assert kernels.cycle_type_census(2, [(1, 2)]) == {(1, 1): 1, (2,): 1}
    assert kernels.cycle_type_census(2, [(1, 2), (1, 2)]) == {(1, 1): 2, (2,): 2}
    # S_3: one identity, three transpositions, two 3-cycles
    assert kernels.cycle_type_census(3, [(1, 3)]) == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}


@pytest.mark.parametrize("n,crossings", CENSUS_CASES)
def test_cycle_type_census_against_the_expanding_census(n, crossings):
    assert kernels.cycle_type_census(n, crossings) == cycle_types_of_census(n, crossings)
    assert kernels.cycle_type_census(n, crossings, distinct=True) == (
        cycle_types_of_census(n, crossings, distinct=True)
    )


def test_joined_cycles_against_every_tau():
    """Every sorted tuple of at most 5 path lengths in 1..3: each tau in
    S_k joins the paths of each of its cycles into one cycle, whose length
    is their sum.  The packed table, decoded, counts exactly those cycle
    types, and its counts sum to k!."""
    for k in range(6):
        for paths in combinations_with_replacement(range(1, 4), k):
            width = sum(paths).bit_length()
            expected = {}
            for tau in permutations(range(k)):
                left, lengths = set(range(k)), []
                while left:
                    a, length = min(left), 0
                    while a in left:
                        left.remove(a)
                        length += paths[a]
                        a = tau[a]
                    lengths.append(length)
                lam = tuple(sorted(lengths, reverse=True))
                expected[lam] = expected.get(lam, 0) + 1
            table = kernels._joined_cycles(paths, width)
            assert all(type(key) is int for key in table), paths
            assert sum(table.values()) == factorial(k), paths
            decoded = {kernels._descending_digits(key, width): c for key, c in table.items()}
            assert decoded == expected, paths


@st.composite
def sweep_diagrams(draw):
    n = draw(st.integers(1, 7))
    if n == 1:
        return n, []
    window = st.tuples(st.integers(1, n - 1), st.integers(2, n)).filter(lambda c: c[0] < c[1])
    return n, draw(st.lists(window, max_size=5))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sweep_diagrams())
def test_cycle_type_census_against_the_expanding_census_on_random_diagrams(diagram):
    n, crossings = diagram
    assume(kernels.census_work(n, crossings) <= 50_000)
    assert kernels.cycle_type_census(n, crossings) == cycle_types_of_census(n, crossings)


def test_last_cosets_start_from_the_identity_layer():
    for n in range(2, 6):
        identity = tuple(range(1, n + 1))
        assert kernels.coset_walk(n, [], []) == ({identity: 1}, ())
        for i, j in combinations(range(1, n + 1), 2):
            # the one coset of S_W through the identity, W = [i, j]
            coset = tuple(0 if i <= v <= j else v for v in identity)
            assert kernels.coset_walk(n, [(i, j)], []) == ({coset: 1}, tuple(range(i, j + 1)))


def test_a_shared_walk_steps_like_fresh_ones():
    """Every sequence of up to 3 crossings on 4 strands, walked in turn on
    one stack, forward and backward: each reaches the layer a fresh walk
    reaches, and its bound splits a fresh bound into the shared prefix and
    the steps past it, charging |W|! for each last-window width once."""
    n = 4
    alphabet = list(combinations(range(1, n + 1), 2))
    sequences = [seq for k in range(4) for seq in product(alphabet, repeat=k)]
    for order in (sequences, sequences[::-1]):
        walked, bounded, widths = [], [], set()
        for crossings in order:
            assert kernels.coset_walk(n, crossings, walked) == kernels.coset_walk(n, crossings, [])
            assert kernels.cycle_type_census(n, crossings, stack=walked) == (
                kernels.cycle_type_census(n, crossings)
            )
            steps, cosets, table, shared = kernels.walk_bound(n, crossings, bounded)
            fresh_steps, fresh_cosets, _, fresh_shared = kernels.walk_bound(n, crossings, [])
            assert fresh_shared == 0
            assert (steps + shared, cosets) == (fresh_steps, fresh_cosets)
            width = crossings[-1][1] - crossings[-1][0] + 1 if crossings else 0
            assert table == (0 if width in widths else factorial(width))
            widths.add(width)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sweep_diagrams())
def test_layer_bound_covers_every_step(diagram):
    """Chained from the identity coset, each step's bound is at least the
    cosets it starts from times its distinct fills, and its coset bound at
    least the cosets it leaves."""
    n, crossings = diagram
    assume(kernels.census_work(n, crossings, expand=False) <= 50_000)
    cosets, held = {tuple(range(1, n + 1)): 1}, ()
    bound, previous = 1, (1, 0)
    for i, j in crossings:
        placed = [v for v in held if not i <= v <= j]
        fills = set(permutations(placed + [0] * (len(held) - len(placed))))
        cost, bound = kernels.layer_bound(n, bound, previous, (i, j))
        assert cost >= len(cosets) * len(fills)
        cosets, held = kernels._next_cosets(n, cosets, held, (i, j))
        assert bound >= len(cosets)
        previous = (i, j)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sweep_diagrams())
def test_a_kept_plan_steps_like_a_freshly_built_one(diagram):
    """The last step of a random diagram, once on an empty plan table and
    once more: the plan is kept exactly when its previous window holds at
    most 4 values, it equals a plan built anew, and the step that reads it
    gives the layer the step that built it gave."""
    n, crossings = diagram
    assume(crossings and kernels.census_work(n, crossings, expand=False) <= 50_000)
    *prefix, crossing = crossings
    cosets, held = kernels.coset_walk(n, prefix, [])
    kept = kernels._PLANS
    kernels._PLANS = {}
    try:
        built = kernels._next_cosets(n, cosets, held, crossing)
        plans = dict(kernels._PLANS)
        reused = kernels._next_cosets(n, cosets, held, crossing)
    finally:
        kernels._PLANS = kept
    assert list(plans) == ([(n, held, crossing)] if len(held) <= 4 else [])
    assert reused == built
    for fills, weight, mask, window in plans.values():
        fresh = kernels._plan(n, held, crossing)
        assert (fills, weight, window) == (fresh[0], fresh[1], fresh[3])
        assert list(map(mask, range(n + 1))) == list(map(fresh[2], range(n + 1)))


def test_sweeps_keep_no_plan_past_the_placement_bound(monkeypatch):
    """After 6 x 3 and 8 x 2 sweeps every kept plan comes from a window of
    at most 4 values and has at most 4! placements, while the steps from
    wider windows were planned and not kept."""
    monkeypatch.setenv("STRAND_TRACE_THREADS", "1")
    monkeypatch.setattr(kernels, "_PLANS", {})
    real = kernels._plan
    wide = []

    def plan(n, held, crossing):
        if len(held) > kernels._KEPT_WINDOW:
            wide.append(held)
        return real(n, held, crossing)

    monkeypatch.setattr(kernels, "_plan", plan)
    for strands, max_crossings in ((6, 3), (8, 2)):
        for _ in diagrams.search_general(strands, max_crossings):
            pass
    assert kernels._PLANS and wide
    for (n, held, crossing), (fills, _, _, _) in kernels._PLANS.items():
        assert len(held) <= 4 and len(fills) <= factorial(4)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(sweep_diagrams())
def test_multiset_csf_matches_cycle_typing_every_composite(diagram):
    n, crossings = diagram
    assume(kernels.census_work(n, crossings) <= 50_000)
    d = StrandDiagram(n, crossings)
    table = {}
    for images, count in diagrams.colored_permutations(d).items():
        lam = diagrams.cycle_type(images)
        table[lam] = table.get(lam, 0) + count
    assert diagrams.diagram_csf(d, "multiset") == symfun.SymFun("p", table)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sweep_diagrams())
def test_census_work_is_the_bound_of_the_walk_to_the_empty_window(diagram):
    """With the expansion, census_work is walk_bound's step cost for the
    walk one step past the last crossing, to the empty window, whose step
    costs |W|! per last coset of the last window W."""
    n, crossings = diagram
    work = kernels.census_work(n, crossings)
    assert work == kernels.walk_bound(n, (*crossings, kernels.EMPTY), [])[0]
    steps, cosets, table, _ = kernels.walk_bound(n, crossings, [])
    assert work == steps + cosets * table


def test_census_work_bounds_the_census():
    assert kernels.census_work(4, []) == 1
    assert kernels.census_work(11, [(1, 11)]) == 1 + factorial(11)
    # one coset after [1,2], two placements of its values for [3,4], 2! each
    assert kernels.census_work(4, [(1, 2), (3, 4)]) == 1 + 2 + 2 * 2
    # without the expansion, one state per last coset and |W|! for the
    # joined-cycles table of the last window W
    assert kernels.census_work(4, [], expand=False) == 1 + factorial(0)
    assert kernels.census_work(11, [(1, 11)], expand=False) == 1 + 1 + factorial(11)
    assert kernels.census_work(4, [(1, 2), (3, 4)], expand=False) == 1 + 2 + 2 + factorial(2)
    for n, crossings in CENSUS_CASES:
        assert kernels.census_work(n, crossings) >= len(kernels.colored_census(n, crossings))


@pytest.mark.parametrize("n,bounds", RESTRICTED_CASES)
def test_restricted_census_against_itertools(n, bounds):
    assert kernels.restricted_census(n, bounds) == restricted_reference(n, bounds)


def test_python_restricted_against_itertools():
    """Every bounds vector with entries in -1..n, for n <= 4; a negative
    bound restricts nothing.  n <= 1 is answered directly, and at n = 2 only
    the two-position finish runs."""
    for n in range(0, 5):
        for bounds in product(range(-1, n + 1), repeat=n):
            assert kernels.restricted_census(n, bounds) == restricted_reference(
                n, bounds
            ), bounds


def test_restricted_census_on_every_bounds_vector_below_n_at_n_5():
    for bounds in product(range(5), repeat=5):
        assert kernels.restricted_census(5, bounds) == restricted_reference(5, bounds), bounds


@pytest.mark.parametrize("n", [7, 8, 15, 16])
def test_restricted_census_at_the_digit_width_boundaries(n):
    """The full staircase admits the identity alone, whose n fixed points
    fill the 1-cycle digit of the packed key to its largest value; the
    digit width n.bit_length() grows from 7 to 8 and from 15 to 16."""
    assert kernels.restricted_census(n, list(range(n))) == {(1,) * n: 1}


def ferrers_board_count(n, bounds):
    """Permutations with sigma(k) > bounds[k-1], counted without enumeration:
    fill the positions from the largest bound down; the idx-th of them has
    n - B[idx] values above its bound, idx of them taken by the positions
    before it, whose values all lie above it too."""
    ranked = sorted((max(b, 0) for b in bounds), reverse=True)
    factors = [n - b - idx for idx, b in enumerate(ranked)]
    return 0 if any(f <= 0 for f in factors) else prod(factors)


def test_restricted_census_total_is_the_ferrers_board_product():
    shapes = 0
    for n in range(1, 9):
        for shape in orders.enumerate_shapes(n, "all"):
            bounds = oracle.position_bounds(shape)
            census = kernels.restricted_census(n, bounds)
            assert sum(census.values()) == ferrers_board_count(n, bounds), shape
            shapes += 1
    # every shape inside the staircase: C_1 + ... + C_8
    assert shapes == sum(comb(2 * n, n) // (n + 1) for n in range(1, 9))
    # the product needs no enumeration, so it counts past the oracle's guard
    assert ferrers_board_count(12, [0] * 12) == factorial(12)
    assert ferrers_board_count(4, [0, 0, 4, 0]) == 0
    bounds = [max(k - 2, 0) for k in range(12)]
    assert ferrers_board_count(12, bounds) == 2 * 3**10
    assert sum(kernels.restricted_census(12, bounds).values()) == 2 * 3**10


def test_cycle_type_against_the_reference_on_every_permutation():
    for n in range(8):
        for images in permutations(range(1, n + 1)):
            assert kernels.cycle_type(images) == cycle_type_reference(images), images


@pytest.mark.parametrize("n,edges,m", COLORING_CASES)
def test_count_colorings_against_product(n, edges, m):
    assert kernels.count_colorings(n, edges, m) == coloring_reference(n, edges, m)


def test_python_coloring_against_product():
    """Every graph on four vertices, with one to three colors."""
    pairs = list(combinations(range(1, 5), 2))
    for mask in range(1 << len(pairs)):
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        for m in range(1, 4):
            assert kernels.count_colorings(4, edges, m) == coloring_reference(
                4, edges, m
            ), (edges, m)
