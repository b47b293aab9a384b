"""The small-group container and isomorphism search."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from finsite.groups import (
    FiniteGroup,
    find_group_isomorphism,
    finite_group,
    group_law_violations,
)
from finsite.isotropy import _isomorphism_failures
from finsite.standard import quaternion_group_category

from oracles import oracle_is_group


def cyclic(n):
    return finite_group(range(n), lambda a, b: (a + b) % n)


def klein():
    elements = [(0, 0), (1, 0), (0, 1), (1, 1)]
    return finite_group(
        elements, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
    )


def test_builder_finds_unit_and_inverses():
    g = cyclic(6)
    assert g.unit == 0
    assert g.invert(2) == 4
    assert group_law_violations(g) == []


def test_builder_rejects_non_groups():
    with pytest.raises(ValueError):
        finite_group([0, 1], lambda a, b: min(a + b, 1))  # no inverses
    with pytest.raises(ValueError):
        finite_group([0, 1], lambda a, b: a + b)  # not closed


def test_law_violations_diagnose_tables_that_are_not_closed():
    # Z2's table with one product missing or out of range, and with no
    # inverses listed: each is reported, and associativity, which needs a
    # closed table, is not checked.
    z2 = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    missing = {k: v for k, v in z2.items() if k != (1, 1)}
    assert group_law_violations(FiniteGroup((0, 1), missing, 0, (0, 1))) == [
        "closure fails at (1, 1)",
        "inverse fails at 1",
    ]
    assert group_law_violations(FiniteGroup((0, 1), {**z2, (1, 1): 5}, 0, (0, 1))) == [
        "closure fails at (1, 1)",
        "inverse fails at 1",
    ]
    assert group_law_violations(FiniteGroup((0, 1), z2, 0, ())) == [
        "inverse fails at 0",
        "inverse fails at 1",
    ]
    assert group_law_violations(FiniteGroup((0, 1), z2, 0, (0, 1))) == []


def test_isomorphism_found_between_equal_groups():
    assert find_group_isomorphism(cyclic(4), cyclic(4)) is not None
    assert find_group_isomorphism(klein(), klein()) is not None


def test_isomorphism_rejects_z4_vs_klein():
    assert find_group_isomorphism(cyclic(4), klein()) is None
    assert find_group_isomorphism(cyclic(3), cyclic(4)) is None


def test_abelian_flag():
    assert cyclic(5).is_abelian()


# -- the group laws against the exhaustive oracle -------------------------------

def permutation_group(perms):
    """Permutations of range(k), indexed in the given order, under composition."""
    perms = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    return len(perms), lambda a, b: index[tuple(perms[a][x] for x in perms[b])]


Q8 = quaternion_group_category()

SMALL_GROUPS = {
    "Z1": (1, lambda a, b: 0),
    "Z2": (2, lambda a, b: a ^ b),
    "Z3": (3, lambda a, b: (a + b) % 3),
    "Z4": (4, lambda a, b: (a + b) % 4),
    "Z5": (5, lambda a, b: (a + b) % 5),
    "Z6": (6, lambda a, b: (a + b) % 6),
    "Z2xZ2": (4, lambda a, b: a ^ b),
    "Z2^3": (8, lambda a, b: a ^ b),
    "Z2xZ4": (8, lambda a, b: (a ^ b) & 1 | ((a >> 1) + (b >> 1)) % 4 << 1),
    "S3": permutation_group(permutations(range(3))),
    "D4": permutation_group(
        [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
         (3, 2, 1, 0), (0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3)]
    ),
    "Q8": (8, lambda a, b: Q8.comp[(a, b)]),
}


def accepts(n, table):
    try:
        group = finite_group(range(n), lambda a, b: table[(a, b)])
    except ValueError:
        return False
    assert group.table == table and group_law_violations(group) == []
    return True


@st.composite
def near_groups(draw):
    """A relabelled small group's table with up to two entries overwritten,
    so most draws fail associativity in only a few triples."""
    n, multiply = SMALL_GROUPS[draw(st.sampled_from(sorted(SMALL_GROUPS)))]
    label = draw(st.permutations(range(n)))
    table = {(label[a], label[b]): label[multiply(a, b)] for a in range(n) for b in range(n)}
    for _ in range(draw(st.integers(0, 2))):
        table[(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))] = draw(
            st.integers(0, n - 1)
        )
    return n, table


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 4))
    return n, {(a, b): draw(st.integers(0, n - 1)) for a in range(n) for b in range(n)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(near_groups(), random_tables()))
def test_finite_group_accepts_exactly_the_oracle_groups(drawn):
    n, table = drawn
    assert accepts(n, table) == oracle_is_group(n, table)


def reduced_latin_squares(n):
    """Every loop on range(n) with unit 0: Latin squares whose first row and
    column are 0, 1, …, n − 1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield {(i, j): rows[i][j] for i in range(n) for j in range(n)}
            return
        i, j = cells[k]
        for v in range(n):
            if v not in rows[i][:j] and all(rows[r][j] != v for r in range(i)):
                rows[i][j] = v
                yield from fill(k + 1)
        rows[i][j] = None

    yield from fill(0)


def test_finite_group_refuses_exactly_the_non_associative_loops():
    # Order 5 is the least order of a non-associative loop.
    outcomes = []
    for n in range(1, 6):
        for table in reduced_latin_squares(n):
            assert accepts(n, table) == oracle_is_group(n, table)
            outcomes.append((n, accepts(n, table)))
    assert len(outcomes) == 1 + 1 + 1 + 4 + 56
    assert (5, True) in outcomes and (5, False) in outcomes


def test_finite_group_matches_the_oracle_on_every_unital_table_of_order_3():
    # Among these, [[0, 1, 2], [1, 0, 2], [2, 2, 0]] has unit 0 and
    # two-sided inverses but is not associative.
    free = [(i, j) for i in (1, 2) for j in (1, 2)]
    outcomes = set()
    for values in product(range(3), repeat=len(free)):
        table = {(0, i): i for i in range(3)} | {(i, 0): i for i in range(3)}
        table.update(zip(free, values))
        assert accepts(3, table) == oracle_is_group(3, table)
        outcomes.add(accepts(3, table))
    assert outcomes == {True, False}


# -- generating sets ------------------------------------------------------------

def relabelled(name, rng=None):
    """SMALL_GROUPS[name] on range(n), as given or under a random
    relabelling, so the unit is not always index 0."""
    n, multiply = SMALL_GROUPS[name]
    label = list(range(n))
    if rng is not None:
        rng.shuffle(label)
    back = {v: k for k, v in enumerate(label)}
    return finite_group(range(n), lambda a, b: label[multiply(back[a], back[b])])


def closure(table, start):
    """Everything the bare product reaches from ``start``, in any bracketing."""
    reached = set(start)
    while True:
        more = {table[(a, b)] for a in reached for b in reached} - reached
        if not more:
            return reached
        reached |= more


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_generators_close_to_the_whole_group(name):
    rng = random.Random(name)
    for group in [relabelled(name)] + [relabelled(name, rng) for _ in range(3)]:
        assert closure(group.table, group.generators) == set(range(group.order))
        assert group.unit not in group.generators or group.order == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(near_groups(), random_tables()))
def test_generators_of_a_directly_built_table_close_to_it(drawn):
    # Built without finite_group and mostly not associative: the set is
    # still never empty and still reaches every index.
    n, table = drawn
    group = FiniteGroup(tuple(range(n)), table)
    assert group.generators
    assert closure(table, group.generators) == set(range(n))


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_is_abelian_matches_the_pairwise_definition(name):
    # Q8 as given lists -1, which is central, first among its generators.
    rng = random.Random(name)
    for group in [relabelled(name)] + [relabelled(name, rng) for _ in range(3)]:
        n = group.order
        assert group.is_abelian() == all(
            group.table[(i, j)] == group.table[(j, i)] for i in range(n) for j in range(n)
        )
    assert group.is_abelian() == (name not in ("S3", "D4", "Q8"))


def pairwise_failures(source, images, target):
    """``_isomorphism_failures`` with the homomorphism law on all n² pairs."""
    n = source.order
    if sorted(images) != sorted(target.elements):
        return ["not bijective"]
    if any(
        target.multiply(images[i], images[j]) != images[source.table[(i, j)]]
        for i in range(n)
        for j in range(n)
    ):
        return ["not homomorphic"]
    return []


def test_isomorphism_failures_match_the_pairwise_check_on_every_bijection():
    # Every group up to order 6, against each one of its order, relabelled.
    rng = random.Random(0)
    small = [relabelled(name, rng) for name in sorted(SMALL_GROUPS) if SMALL_GROUPS[name][0] <= 6]
    assert sorted(g.order for g in small) == [1, 2, 3, 4, 4, 5, 6, 6]
    outcomes = set()
    for source in small:
        for target in small:
            if source.order != target.order:
                continue
            maps = [list(p) for p in permutations(target.elements)]
            maps.append([target.unit] * source.order)
            for images in maps:
                want = pairwise_failures(source, images, target)
                got = _isomorphism_failures(
                    source, images, target, "not bijective", "not homomorphic"
                )
                assert got == want, (source.table, target.table, images)
                outcomes.add(tuple(want))
    assert outcomes == {(), ("not bijective",), ("not homomorphic",)}


def brute_force_isomorphic(g, h):
    """Whether some bijection of indices respects the whole product table."""
    n = g.order
    return n == h.order and any(
        all(h.table[(p[i], p[j])] == p[g.table[(i, j)]] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


SAME_ORDER_PAIRS = [
    (a, b)
    for a in sorted(SMALL_GROUPS)
    for b in sorted(SMALL_GROUPS)
    if SMALL_GROUPS[a][0] == SMALL_GROUPS[b][0] and SMALL_GROUPS[a][0] in (4, 6, 8)
]


@pytest.mark.parametrize("pair", SAME_ORDER_PAIRS, ids="-".join)
def test_isomorphism_search_matches_brute_force(pair):
    rng = random.Random("-".join(pair))
    g, h = relabelled(pair[0], rng), relabelled(pair[1], rng)
    found = find_group_isomorphism(g, h)
    assert (found is not None) == brute_force_isomorphic(g, h) == (pair[0] == pair[1])
    if found is not None:
        assert sorted(found) == sorted(found.values()) == list(range(g.order))
        assert pairwise_failures(g, [found[i] for i in range(g.order)], h) == []
