"""The small-group container and isomorphism search."""

from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from finsite.groups import (
    FiniteGroup,
    find_group_isomorphism,
    finite_group,
    group_law_violations,
)


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


SMALL_GROUPS = {
    "Z1": (1, lambda a, b: 0),
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
}


def oracle_is_group(n, table):
    """Closed tables only: a two-sided unit, then ``group_law_violations``
    on every triple, unit and inverse."""
    units = [e for e in range(n) if all(table[(e, i)] == i == table[(i, e)] for i in range(n))]
    if not units:
        return False
    u = units[0]
    inverse = tuple(
        next((j for j in range(n) if table[(i, j)] == u == table[(j, i)]), u) for i in range(n)
    )
    return group_law_violations(FiniteGroup(tuple(range(n)), table, u, inverse)) == []


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
