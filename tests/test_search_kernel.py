"""The propagating search kernel and the amalgamation index against oracles.

The oracles are the straightforward backtrackers the kernel replaced: a
matching-family search that rescans every chosen member against each
candidate, and a natural-transformation search that copies its whole
assignment per branch.  Both must agree with the kernel list for list,
in the same order, and the index must agree with a linear scan.
"""

import pytest
from hypothesis import given, settings, strategies as st

from finsite import presheaf as presheaf_module
from finsite.errors import SizeLimitError
from finsite.fincat import validate_category
from finsite.presheaf import (
    MatchingFamily,
    PresheafMap,
    amalgamations,
    ayc_category,
    coproduct,
    coproduct_many,
    empty_presheaf,
    matching_families,
    nat_transformations,
    quotient_presheaf,
    representable,
    sheafify,
    terminal_presheaf,
    validate_presheaf,
)
from finsite.site import Sieve, all_sieves, maximal_sieve
from finsite.standard import (
    cyclic_group_category,
    discrete_two_space_opens_poset,
    sierpinski_poset,
)

from conftest import small_catalogue


# -- oracles ------------------------------------------------------------------


def oracle_matching_families(f_, sieve):
    cat = f_.cat
    members = sieve.sorted_members()
    out = []
    chosen = {}

    def consistent(f, v):
        for a, va in chosen.items():
            for g in cat.cone(cat.dom(a)):
                if cat.comp[(a, g)] == f and f_.act(g, va) != v:
                    return False
            for g in cat.cone(cat.dom(f)):
                if cat.comp[(f, g)] == a and f_.act(g, v) != va:
                    return False
        for g in cat.cone(cat.dom(f)):
            if cat.comp[(f, g)] == f and f_.act(g, v) != v:
                return False
        return True

    def rec(i):
        if i == len(members):
            out.append(MatchingFamily(sieve, tuple((f, chosen[f]) for f in members)))
            return
        f = members[i]
        for v in f_.sets[cat.dom(f)]:
            if consistent(f, v):
                chosen[f] = v
                rec(i + 1)
                del chosen[f]

    rec(0)
    return out


def oracle_nat_transformations(f_, g_):
    cat = f_.cat
    slots = [(x, e) for x in range(len(cat.objects)) for e in f_.sets[x]]
    assignment = {}
    results = []

    def propagate(queue):
        while queue:
            (x, e) = queue.pop()
            v = assignment[(x, e)]
            for f in range(len(cat.morphisms)):
                m = cat.morphisms[f]
                if m.cod != x:
                    continue
                key = (m.dom, f_.act(f, e))
                fv = g_.act(f, v)
                if key in assignment:
                    if assignment[key] != fv:
                        return False
                else:
                    assignment[key] = fv
                    queue.append(key)
        return True

    def rec(i):
        if i == len(slots):
            results.append(
                PresheafMap(
                    f_,
                    g_,
                    {
                        x: {e: assignment[(x, e)] for e in f_.sets[x]}
                        for x in range(len(cat.objects))
                    },
                )
            )
            return
        key = slots[i]
        if key in assignment:
            rec(i + 1)
            return
        for candidate in g_.sets[key[0]]:
            before = dict(assignment)
            assignment[key] = candidate
            if propagate([key]):
                rec(i + 1)
            assignment.clear()
            assignment.update(before)

    rec(0)
    return results


def oracle_amalgamations(f_, sieve, values):
    members = sieve.sorted_members()
    return tuple(
        y
        for y in f_.sets[sieve.target]
        if all(f_.act(f, y) == v for f, v in zip(members, values))
    )


# -- fixtures -----------------------------------------------------------------

SITE_FIXTURES = [
    "bz2_site",
    "bz4_site",
    "bs3_site",
    "sierpinski_site",
    "opens_site",
    "opens_d_site",
    "bz2_all_sieves_site",
    "diamond_site",
]


@pytest.fixture(scope="module")
def fixture_sites(request, group_sites):
    sites = {name: request.getfixturevalue(name) for name in SITE_FIXTURES}
    sites.update(group_sites)
    return sites


def kernel_presheaves(site):
    """The small catalogue, a non-separated presheaf and the empty one."""
    cat = site.category
    one = terminal_presheaf(cat)
    two, _, _ = coproduct(one, one)
    return small_catalogue(site) + [
        ("1 + 1", two),
        ("y first", representable(cat, 0)),
        ("empty", empty_presheaf(cat)),
    ]


def test_non_separated_presheaf_is_covered(bz2_all_sieves_site):
    # The empty sieve covers, so 1 + 1 has two amalgamations of the empty family.
    _, two = kernel_presheaves(bz2_all_sieves_site)[-3]
    (family,) = matching_families(two, Sieve(0, frozenset()))
    assert amalgamations(two, family) == ["0:*", "1:*"]


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_matching_families_match_oracle_on_every_cover(fixture_sites, name):
    site = fixture_sites[name]
    for _, f_ in kernel_presheaves(site):
        for x in range(len(site.category.objects)):
            for cover in site.topology.covers_of(x):
                assert matching_families(f_, cover) == oracle_matching_families(f_, cover)


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_nat_transformations_match_oracle_between_sheafified_representables(
    fixture_sites, name
):
    site = fixture_sites[name]
    cat = site.category
    sheaves = [sheafify(representable(cat, x), site.topology)[0] for x in range(len(cat.objects))]
    for f_ in sheaves:
        for g_ in sheaves:
            assert nat_transformations(f_, g_) == oracle_nat_transformations(f_, g_)


def test_nat_transformations_match_oracle_on_the_catalogue(fixture_sites):
    for name in ("sierpinski_site", "opens_site", "bz2_all_sieves_site", "diamond_site", "Z3"):
        presheaves = [p for _, p in kernel_presheaves(fixture_sites[name])]
        for f_ in presheaves:
            for g_ in presheaves:
                assert nat_transformations(f_, g_) == oracle_nat_transformations(f_, g_)


# -- random presheaves ----------------------------------------------------------

def left_zero_monoid():
    """One object; a and b are left zeros, so a∘b = a: a member can be its
    own composite along a non-identity morphism."""
    zeros = ("a", "b")
    return validate_category(
        ["*"],
        [("1", "*", "*"), ("a", "*", "*"), ("b", "*", "*")],
        {"*": "1"},
        [(g, f, g) for g in zeros for f in zeros],
    )


RANDOM_SITES = {
    "BZ2": cyclic_group_category(2),
    "BZ3": cyclic_group_category(3),
    "Sierpinski": sierpinski_poset(),
    "opens(2)": discrete_two_space_opens_poset(),
    "left zeros": left_zero_monoid(),
}


@st.composite
def presheaves_on(draw, cat):
    """A quotient of a coproduct of representables."""
    n = len(cat.objects)
    objects = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    total, _ = coproduct_many([representable(cat, x) for x in objects])
    relations = []
    for _ in range(draw(st.integers(0, 2))):
        x = draw(st.integers(0, n - 1))
        if total.sets[x]:
            a = draw(st.sampled_from(total.sets[x]))
            b = draw(st.sampled_from(total.sets[x]))
            relations.append((x, a, b))
    quotient, _ = quotient_presheaf(total, relations)
    return quotient


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RANDOM_SITES)), st.data())
def test_kernel_matches_oracles_on_random_presheaves(name, data):
    cat = RANDOM_SITES[name]
    f_ = data.draw(presheaves_on(cat))
    g_ = data.draw(presheaves_on(cat))
    for x in range(len(cat.objects)):
        for sieve in all_sieves(cat, x):
            assert matching_families(f_, sieve) == oracle_matching_families(f_, sieve)
    assert nat_transformations(f_, g_) == oracle_nat_transformations(f_, g_)


# -- amalgamation index ---------------------------------------------------------


def _chain_presheaf(cat=None):
    # On 0 < 1: a and c restrict to u, b to v, nothing restricts to w.
    cat = cat or sierpinski_poset()
    presheaf = validate_presheaf(
        cat,
        {"0": ["u", "v", "w"], "1": ["a", "b", "c"]},
        {
            "id_0": {"u": "u", "v": "v", "w": "w"},
            "id_1": {"a": "a", "b": "b", "c": "c"},
            "0<=1": {"a": "u", "b": "v", "c": "u"},
        },
    )
    return cat, presheaf


def test_amalgamation_index_zero_one_several():
    cat, p = _chain_presheaf()
    sieve = Sieve(1, frozenset({cat.morphism_id("0<=1")}))
    assert p.amalgamations_of(sieve, ("w",)) == ()
    assert p.amalgamations_of(sieve, ("v",)) == ("b",)
    assert p.amalgamations_of(sieve, ("u",)) == ("a", "c")
    for values in (("u",), ("v",), ("w",)):
        assert p.amalgamations_of(sieve, values) == oracle_amalgamations(p, sieve, values)
    # The empty sieve: every element restricts to the empty tuple.
    assert p.amalgamations_of(Sieve(1, frozenset()), ()) == ("a", "b", "c")
    top = maximal_sieve(cat, 1)
    assert p.amalgamations_of(top, ("u", "c")) == ("c",)


@pytest.mark.parametrize("name", ["sierpinski_site", "opens_site", "bz2_all_sieves_site", "diamond_site", "Z3"])
def test_amalgamation_index_agrees_with_linear_scan(fixture_sites, name):
    site = fixture_sites[name]
    cat = site.category
    for _, f_ in kernel_presheaves(site):
        for x in range(len(cat.objects)):
            for sieve in all_sieves(cat, x):
                for family in matching_families(f_, sieve):
                    values = tuple(v for _, v in family.assignment)
                    expected = oracle_amalgamations(f_, sieve, values)
                    assert f_.amalgamations_of(sieve, values) == expected
                    assert amalgamations(f_, family) == list(expected)


def test_equal_presheaves_do_not_share_an_index():
    cat, p = _chain_presheaf()
    _, q = _chain_presheaf(cat)
    assert p == q and p is not q
    sieve = Sieve(1, frozenset({cat.morphism_id("0<=1")}))
    p.amalgamations_of(sieve, ("u",))
    assert p._amalgamation_index and not q._amalgamation_index
    assert p == q
    assert "_amalgamation_index" not in repr(p)


# -- guards ----------------------------------------------------------------------


def test_matching_family_guard_names_search_object_and_limit(bz4_site):
    cat = bz4_site.category
    y = representable(cat, 0)
    with pytest.raises(SizeLimitError, match=r"more than 3 matching families at '\*'"):
        matching_families(y, maximal_sieve(cat, 0), max_families=3)
    assert len(matching_families(y, maximal_sieve(cat, 0), max_families=4)) == 4


def test_matching_family_try_guard():
    # Each of the 11 values at 0<=1 is tried, then a at id_1, which
    # conflicts with all but u0: 22 tries for a single family.
    cat = sierpinski_poset()
    bottom = [f"u{i}" for i in range(11)]
    p = validate_presheaf(
        cat,
        {"0": bottom, "1": ["a"]},
        {"id_0": {u: u for u in bottom}, "id_1": {"a": "a"}, "0<=1": {"a": "u0"}},
    )
    top = maximal_sieve(cat, 1)
    with pytest.raises(
        SizeLimitError,
        match=r"search for matching families at '1' tried more than 20 candidates "
        r"\(20 x the limit of 1\)",
    ):
        matching_families(p, top, max_families=1)
    assert len(matching_families(p, top, max_families=2)) == 1


def test_nat_transformation_guard_names_search_object_and_limit(bz4_site):
    cat = bz4_site.category
    y = representable(cat, 0)
    with pytest.raises(SizeLimitError, match=r"more than 2 natural transformations over '\*'"):
        nat_transformations(y, y, max_families=2)
    assert len(nat_transformations(y, y, max_families=4)) == 4


def test_ayc_category_passes_its_guard_to_nat_transformations(bz4_site, monkeypatch):
    seen = []

    def spy(f_, g_, max_families):
        seen.append(max_families)
        return nat_transformations(f_, g_, max_families)

    monkeypatch.setattr(presheaf_module, "nat_transformations", spy)
    ayc_category(bz4_site.category, bz4_site.topology, max_families=7)
    assert seen == [7]
