"""The search kernel, the amalgamation index, the plus-construction and
the point questions about a sheafification against the oracles in
``oracles.py``, the straightforward versions the library replaced.

Each must agree with the library list for list, in the same order (the
plus-construction through the bijection that keys each class by its
values on the least cover, the sieve extension up to its unique
isomorphism, the category's morphisms through the element each map sends
the canonical point to), and the index must agree with a linear scan.
The direct reflection check is in turn the oracle for the one that reads
the shared a(F + R) through each candidate's inverse.  What a topology
keeps of the plus-constructions it has built is held to a build on a
fresh topology with nothing kept.  The tables read instead of evaluating
maps (a sheafification's level-zero preimages, substitutions read through
them) are held to the amalgamation-only extension, and the isotropy group
and the centre, whose tables are built over component tuples, to the same
groups built over the element objects.
"""

import gc
import json
import random
import weakref
from dataclasses import FrozenInstanceError, fields
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from finsite import fincat as fincat_module
from finsite import freeext as freeext_module
from finsite import isotropy as isotropy_module
from finsite import presheaf as presheaf_module
from finsite.cli import RunConfig, main
from finsite.errors import InvalidSieveError, NoAmalgamationError, SizeLimitError
from finsite.fincat import centre, natural_endomorphism_families, validate_category
from finsite.freeext import (
    _sieve_extension,
    free_extension,
    normal_form,
    reamalgamate,
    subst_at,
    subst_map,
)
from finsite.isotropy import (
    IsotropyContext,
    IsotropyElement,
    _check_reflect,
    _check_sigma,
    _commuting_candidates,
    _enumerate_members,
    auto_catalogue,
    check_membership,
    dense_extension,
    isotropy_group,
    verify_main_theorem,
)
from finsite.phl import structure_from_presheaf
from finsite.io import site_to_dict
from finsite.presheaf import (
    DEFAULT_MAX_FAMILIES,
    PlusConstruction,
    Presheaf,
    PresheafMap,
    SheafStatus,
    Sheafification,
    amalgamations,
    ayc_category,
    build_plus,
    coproduct,
    coproduct_many,
    identity_map,
    locally_equal,
    matching_families,
    nat_transformations,
    quotient_presheaf,
    representable,
    sheaf_check,
    sheafification,
    sheafify,
    terminal_presheaf,
    validate_presheaf,
)
from finsite.site import (
    Site,
    Sieve,
    Topology,
    all_sieves,
    generated_sieve,
    generating_members,
    maximal_sieve,
    saturate_topology,
    validate_topology,
)
from finsite.standard import (
    cyclic_cylinder_category,
    cyclic_group_category,
    cylinder_cover_site,
    discrete_two_space_site,
    discrete_two_space_opens_poset,
    open_cover_topology,
    poset_category,
    sierpinski_poset,
    trivial_site,
)

from conftest import (
    antichain_below_top,
    chain_site,
    plus_builds,
    pure_hypotheses,
    small_catalogue,
)
from oracles import (
    check_presheaf_map,
    empty_presheaf,
    is_sheaf,
    oracle_all_sieves,
    oracle_amalgamations,
    oracle_ayc_category,
    oracle_build_plus,
    oracle_centre,
    oracle_check_reflect,
    oracle_dense_extension,
    oracle_enumerate_members,
    oracle_extend_at,
    oracle_invertibles,
    oracle_invertibles_by_injectivity,
    oracle_isotropy_group,
    oracle_level0_map,
    oracle_matching_families,
    oracle_nat_transformations,
    oracle_natural_endomorphism_families,
    oracle_saturate_topology,
    oracle_sheaf_check,
    oracle_sheafification_extend,
    oracle_sheafification_extend_at,
    oracle_sieve_extension,
    oracle_sigma_steps,
    oracle_structure_from_presheaf,
    oracle_validate_topology,
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


def assert_centre_search_matches_oracle(cat):
    assert natural_endomorphism_families(cat) == oracle_natural_endomorphism_families(cat)


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_centre_search_matches_oracle(fixture_sites, name):
    # The site's category and the category of its sheafified representables,
    # the two whose centres the theorem check compares.
    site = fixture_sites[name]
    assert_centre_search_matches_oracle(site.category)
    assert_centre_search_matches_oracle(ayc_category(site.category, site.topology).category)


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_isotropy_candidates_match_oracle(fixture_sites, name):
    # The one enumeration matches the definitional oracle everywhere and,
    # where the pure hypotheses hold, the oracle over generator images too:
    # the same members in the same order.  The group inverts each member
    # componentwise, by substitutional inverses.
    site = fixture_sites[name]
    oracles = (False, True) if pure_hypotheses(site) else (False,)
    for sheaf_name, sheaf in small_catalogue(site):
        ctx = IsotropyContext(sheaf, site)
        got = _enumerate_members(ctx)
        for pure_only in oracles:
            assert got == oracle_enumerate_members(ctx, pure_only), (sheaf_name, pure_only)
        group = isotropy_group(sheaf, site, ctx=ctx)
        for m in got:
            assert group.invert(m).components == tuple(
                ctx.invertibles(c)[e] for c, e in enumerate(m.components)
            ), sheaf_name


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


@st.composite
def transformation_categories(draw):
    """The category generated by a few random maps between small sets.

    Objects are sets of size 1-3 (1-2 when there are several), morphisms
    the maps the generators and identities compose to, so endomorphism
    monoids and the morphisms between objects both vary.
    """
    n = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 3 if n == 1 else 2)) for _ in range(n)]
    maps = {(x, x, tuple(range(sizes[x]))) for x in range(n)}
    for _ in range(draw(st.integers(1, 6))):
        dom, cod = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        image = draw(st.lists(st.integers(0, sizes[cod] - 1), min_size=sizes[dom], max_size=sizes[dom]))
        maps.add((dom, cod, tuple(image)))

    def compose(g, f):
        return (f[0], g[1], tuple(g[2][a] for a in f[2]))

    while True:
        new = {compose(g, f) for f in maps for g in maps if f[1] == g[0]} - maps
        if not new:
            break
        maps |= new
    order = sorted(maps)
    name = {m: f"m{i}" for i, m in enumerate(order)}
    return validate_category(
        [f"o{x}" for x in range(n)],
        [(name[m], f"o{m[0]}", f"o{m[1]}") for m in order],
        {f"o{x}": name[(x, x, tuple(range(sizes[x])))] for x in range(n)},
        [(name[g], name[f], name[compose(g, f)]) for f in order for g in order if f[1] == g[0]],
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transformation_categories())
def test_centre_search_matches_oracle_on_random_categories(cat):
    assert_centre_search_matches_oracle(cat)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transformation_categories())
def test_all_sieves_matches_brute_force_on_random_categories(cat):
    # The oracle tries 2^cone subsets, so larger cones are left out.
    for x in range(len(cat.objects)):
        if len(cat.cone(x)) <= 12:
            assert all_sieves(cat, x) == oracle_all_sieves(cat, x)


def assert_generating_members_generate_the_sieve(cat, sieve):
    gens = generating_members(cat, sieve)
    assert generated_sieve(cat, sieve.target, gens) == sieve
    assert list(gens) == [f for f in sieve.sorted_members() if f in gens]
    for i, f in enumerate(gens):
        assert f not in generated_sieve(cat, sieve.target, gens[:i]).members
        assert f not in generated_sieve(cat, sieve.target, gens[i + 1 :]).members
    if not sieve.members:
        assert gens == ()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transformation_categories())
def test_generating_members_generate_without_redundancy_on_random_categories(cat):
    for x in range(len(cat.objects)):
        for sieve in all_sieves(cat, x):
            assert_generating_members_generate_the_sieve(cat, sieve)


def test_generating_members_on_fixture_sites(fixture_sites, group_sites):
    for site in fixture_sites.values():
        cat = site.category
        for x in range(len(cat.objects)):
            for sieve in all_sieves(cat, x):
                assert_generating_members_generate_the_sieve(cat, sieve)
    # A group's maximal sieve is generated by any one member, and a
    # poset's by the identity alone, although its smaller arrows sort first.
    for site in group_sites.values():
        assert len(generating_members(site.category, maximal_sieve(site.category, 0))) == 1
    cat = fixture_sites["diamond_site"].category
    x = cat.object_id("X")
    assert generating_members(cat, maximal_sieve(cat, x)) == (cat.identity[x],)


# -- plus-construction ------------------------------------------------------------


def assert_plus_matches_oracle(f_, topology):
    """Both plus layers agree with the union-find oracle through the J-key
    bijection.

    Each oracle class goes to the class whose family on J(X) is its
    representative's restriction to J(X).  That map must be a bijection
    commuting with every action and with the unit.  Where J(X) is the
    first cover in sorted order the names must agree exactly, since the
    oracle names a class after its first pair.
    """
    cat = f_.cat
    for _ in range(2):
        got, want = build_plus(f_, topology), oracle_build_plus(f_, topology)
        to_got = {}
        for x in range(len(cat.objects)):
            least = topology.least_cover(x, cat)
            assert all(cover == least for cover, _ in got.pairs[x].values())
            assert tuple(got.pairs[x]) == got.presheaf.sets[x]
            by_key = {
                family.assignment: elem for elem, (_, family) in got.pairs[x].items()
            }
            assert len(by_key) == len(got.pairs[x])
            to_got[x] = {}
            for elem, (_, family) in want.pairs[x].items():
                values = family.as_dict()
                key = tuple((g, values[g]) for g in least.sorted_members())
                to_got[x][elem] = by_key[key]
            assert sorted(to_got[x].values()) == sorted(got.presheaf.sets[x])
            if least == topology.covers_of(x)[0]:
                assert all(elem == image for elem, image in to_got[x].items())
            for d in f_.sets[x]:
                assert to_got[x][want.unit.apply(x, d)] == got.unit.apply(x, d)
        for h, m in enumerate(cat.morphisms):
            for elem in want.presheaf.sets[m.cod]:
                assert to_got[m.dom][want.presheaf.act(h, elem)] == got.presheaf.act(
                    h, to_got[m.cod][elem]
                )
        f_ = got.presheaf


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_plus_matches_union_find_oracle(fixture_sites, name):
    site = fixture_sites[name]
    for _, f_ in kernel_presheaves(site):
        assert_plus_matches_oracle(f_, site.topology)


PLUS_SITES = {**RANDOM_SITES, "cyl2": cyclic_cylinder_category(2)}


@st.composite
def topologies_on(draw, cat):
    """The topology generated by a random basis of up to two sieves per object."""
    basis = {
        x: draw(st.lists(st.sampled_from(all_sieves(cat, x)), max_size=2))
        for x in range(len(cat.objects))
    }
    return saturate_topology(cat, basis)


def identities_first(cat):
    """The same category with its identities numbered before the other
    morphisms.

    A topology lists its covers in the order of their sorted morphism ids.
    With the identities first, the maximal sieve, which holds the identity,
    is listed before a least cover that is not maximal.  On the fixture
    sites the least cover always comes first.
    """
    order = sorted(cat.morphisms, key=lambda m: cat.morphism_id(m.name) not in cat.identity)
    return validate_category(
        cat.objects,
        [(m.name, cat.objects[m.dom], cat.objects[m.cod]) for m in order],
        {cat.objects[x]: cat.name(f) for x, f in enumerate(cat.identity)},
        [(cat.name(g), cat.name(f), cat.name(gf)) for (g, f), gf in cat.comp.items()],
    )


# One-object groups are left out: their only sieves are empty or maximal,
# and the empty sieve always comes first.
RELABELLED_SITES = {
    name: identities_first(PLUS_SITES[name])
    for name in ("Sierpinski", "opens(2)", "left zeros", "cyl2")
}


def least_cover_not_first(cat):
    """Random topologies on ``cat`` where some least cover is not the first."""
    return topologies_on(cat).filter(
        lambda topology: any(
            topology.least_cover(x, cat) != topology.covers_of(x)[0]
            for x in range(len(cat.objects))
        )
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_plus_matches_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    topology = data.draw(topologies_on(cat))
    assert_plus_matches_oracle(data.draw(presheaves_on(cat)), topology)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_structure_matches_family_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    topology = data.draw(topologies_on(cat))
    f_ = data.draw(presheaves_on(cat))
    assert structure_from_presheaf(f_, topology) == oracle_structure_from_presheaf(f_, topology)


def discrete_three_space_site():
    """The opens of the discrete three-point space, the eight subsets of
    {0, 1, 2} under inclusion, with the open-cover topology."""
    points = {
        "".join(map(str, subset)) or "O": frozenset(subset)
        for size in range(4)
        for subset in combinations(range(3), size)
    }
    cat = poset_category(list(points), lambda a, b: points[a] <= points[b])
    return Site(cat, open_cover_topology(cat, points))


OPEN_COVER_SITES = {"disc3": discrete_three_space_site(), "chain4": chain_site(4)}


def assert_saturation_matches_oracle(cat, basis):
    got = saturate_topology(cat, basis)
    # Read first, so the least covers come from the fixpoint saturation
    # keeps, not from a fresh intersection.
    for x in range(len(cat.objects)):
        meet = frozenset.intersection(*(s.members for s in got.covers_of(x)))
        assert got.least_cover(x, cat) == Sieve(x, meet)
    assert got == oracle_saturate_topology(cat, basis)
    assert validate_topology(cat, got) == []


@st.composite
def bases_on(draw, cat):
    """Up to three sieves per object."""
    return {
        x: draw(st.lists(st.sampled_from(all_sieves(cat, x)), max_size=3))
        for x in range(len(cat.objects))
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_saturation_matches_closure_oracle_on_random_bases(name, data):
    cat = PLUS_SITES[name]
    assert_saturation_matches_oracle(cat, data.draw(bases_on(cat)))


@pytest.mark.parametrize(
    "name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"] + sorted(OPEN_COVER_SITES)
)
def test_saturation_matches_closure_oracle_on_fixture_sites(fixture_sites, name):
    site = OPEN_COVER_SITES.get(name) or fixture_sites[name]
    cat, topology = site.category, site.topology
    least = {x: [topology.least_cover(x, cat)] for x in range(len(cat.objects))}
    for basis in ({}, least, topology.covers):
        assert_saturation_matches_oracle(cat, basis)
    assert saturate_topology(cat, least) == topology


@st.composite
def hand_built_topologies(draw, cat):
    """Up to three covers per object, each a random subset of its cone, so
    the axioms may fail in every way but sieve closure stays in the cone."""
    return Topology(
        {
            x: tuple(
                Sieve(x, frozenset(members))
                for members in draw(
                    st.lists(st.sets(st.sampled_from(cat.cone(x))), max_size=3)
                )
            )
            for x in range(len(cat.objects))
        }
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_validate_topology_matches_oracle_on_hand_built_covers(name, data):
    cat = PLUS_SITES[name]
    topology = data.draw(hand_built_topologies(cat))
    assert validate_topology(cat, topology) == oracle_validate_topology(cat, topology)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transformation_categories(), st.data())
def test_validate_topology_matches_oracle_on_random_categories(cat, data):
    # Hand-built covers break the axioms; saturated ones satisfy them.
    # The oracle builds every sieve, so larger cones are left out.
    assume(all(len(cat.cone(x)) <= 10 for x in range(len(cat.objects))))
    for topology in (
        data.draw(hand_built_topologies(cat)),
        saturate_topology(cat, data.draw(bases_on(cat))),
    ):
        assert validate_topology(cat, topology) == oracle_validate_topology(cat, topology)


def test_validate_topology_reads_a_misfiled_cover_as_the_oracle_does():
    # Filed under 'top', the sieve {u0} on a0 is not a cover of 'top', so
    # the sieve {u0} on 'top' does not cover; yet its members lie inside
    # the arrows along which that sieve covers, so transitivity fails.
    cat = antichain_below_top(1)
    a0, top, u0 = cat.object_id("a0"), cat.object_id("top"), cat.morphism_id("u0")
    topology = Topology(
        {a0: (maximal_sieve(cat, a0),), top: (maximal_sieve(cat, top), Sieve(a0, frozenset({u0})))}
    )
    got = validate_topology(cat, topology)
    assert got == oracle_validate_topology(cat, topology)
    assert [(v.axiom, v.sieve) for v in got] == [
        ("sieve-closure", ("u0",)),
        ("transitivity", ("u0",)),
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RELABELLED_SITES)), st.data())
def test_plus_matches_oracle_on_relabelled_sites(name, data):
    cat = RELABELLED_SITES[name]
    topology = data.draw(least_cover_not_first(cat))
    assert_plus_matches_oracle(data.draw(presheaves_on(cat)), topology)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RELABELLED_SITES)), st.data())
def test_normal_forms_round_trip_on_random_sites(name, data):
    cat = RELABELLED_SITES[name]
    site = Site(cat, data.draw(least_cover_not_first(cat)))
    sheaf, _ = sheafify(data.draw(presheaves_on(cat)), site.topology)
    c = data.draw(st.integers(0, len(cat.objects) - 1))
    ext = free_extension(sheaf, site, [("x", c)])
    for x in range(len(cat.objects)):
        for e in ext.carrier.sets[x]:
            assert reamalgamate(ext, x, normal_form(ext, x, e)) == e


def test_plus_refuses_covers_that_meet_in_a_non_cover(diamond_site):
    # <a> and <b> cover X by hand, but their intersection <O> does not.
    cat = diamond_site.category
    x = cat.object_id("X")
    a, b = (generated_sieve(cat, x, [cat.morphism_id(f"{p}<=X")]) for p in "ab")
    covers = dict(diamond_site.topology.covers)
    covers[x] = (maximal_sieve(cat, x), a, b)
    with pytest.raises(
        InvalidSieveError,
        match=r"the covers of 'X' intersect in \['O<=X'\], which does not cover",
    ):
        build_plus(terminal_presheaf(cat), Topology(covers))


def test_plus_refuses_an_object_without_covers(diamond_site):
    cat = diamond_site.category
    covers = dict(diamond_site.topology.covers)
    del covers[cat.object_id("X")]
    with pytest.raises(InvalidSieveError, match=r"no covering sieve at 'X'"):
        build_plus(terminal_presheaf(cat), Topology(covers))


def test_plus_refuses_covers_not_stable_under_pullback():
    # The empty sieve covers 1 by hand, but its pullback to 0 does not cover.
    cat = sierpinski_poset()
    top, bottom = cat.object_id("1"), cat.object_id("0")
    covers = {
        top: (maximal_sieve(cat, top), Sieve(top, frozenset())),
        bottom: (maximal_sieve(cat, bottom),),
    }
    topology = Topology(covers)
    # A failed build keeps nothing, so the refusal comes again, and the
    # family guard still comes before it.
    for _ in range(2):
        with pytest.raises(
            InvalidSieveError,
            match=r"the least cover of '1' pulls back along '0<=1' to \[\], "
            r"which does not cover '0'",
        ):
            build_plus(terminal_presheaf(cat), topology)
        with pytest.raises(SizeLimitError, match=r"matching families at .0."):
            build_plus(terminal_presheaf(cat), topology, max_families=0)


# -- the plus-construction's plan and memo ------------------------------------


def copied(f_):
    """A presheaf equal to ``f_`` that shares none of its dicts."""
    return Presheaf(f_.cat, dict(f_.sets), {h: dict(t) for h, t in f_.actions.items()})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_plus_memo_matches_a_fresh_topology_on_random_sites(name, data):
    # Equal inputs get records built on their own base and sharing one
    # carrier, equal to what a topology with an empty memo and no plan
    # builds, on both layers.
    cat = PLUS_SITES[name]
    topology = data.draw(topologies_on(cat))
    f_ = data.draw(presheaves_on(cat))
    for _ in range(2):
        fresh = build_plus(f_, Topology(dict(topology.covers)))
        first, second = copied(f_), copied(f_)
        got = [build_plus(first, topology), build_plus(second, topology)]
        for base, plus in zip((first, second), got):
            assert plus.base is base and plus.unit.source is base
            assert plus.presheaf == fresh.presheaf
            assert plus.unit.components == fresh.unit.components
            assert plus.pairs == fresh.pairs
        assert got[1].presheaf is got[0].presheaf
        f_ = fresh.presheaf


def test_plus_memo_tells_equal_sets_with_other_actions_apart():
    # Two Z2-sets on the same two points: swapped by the generator, or fixed.
    cat = cyclic_group_category(2)
    topology = trivial_site(cat).topology
    one, g = cat.identity[0], 1 - cat.identity[0]
    still = {"a": "a", "b": "b"}
    swap = Presheaf(cat, {0: ("a", "b")}, {one: still, g: {"a": "b", "b": "a"}})
    fixed = Presheaf(cat, {0: ("a", "b")}, {one: still, g: still})
    for f_ in (swap, fixed):
        plus = build_plus(f_, topology)
        assert plus.presheaf == build_plus(f_, Topology(dict(topology.covers))).presheaf
        assert plus.base is f_


def test_plus_memo_keeps_the_family_limit():
    # y(*) on BZ4 has four families on its least cover: a build under a
    # larger limit leaves a smaller one refusing an equal input.
    site = trivial_site(cyclic_group_category(4))
    y = representable(site.category, 0)
    assert len(build_plus(y, site.topology, max_families=4).presheaf.sets[0]) == 4
    for f_ in (y, copied(y)):
        with pytest.raises(SizeLimitError, match=r"more than 3 matching families at '\*'"):
            build_plus(f_, site.topology, max_families=3)


def test_a_dropped_site_frees_its_topology_without_the_cycle_collector():
    # A stored entry holds no reference back to the topology, so plain
    # reference counting frees both once the site goes.
    site = cylinder_cover_site(2)
    ref = weakref.ref(site.topology)
    gc.collect()
    gc.disable()
    try:
        sheafify(representable(site.category, 0), site.topology)
        assert site.topology._plus_memo
        del site
        assert ref() is None
    finally:
        gc.enable()


def test_check_theorem_searches_families_once_per_distinct_plus_input(tmp_path, monkeypatch, capsys):
    # The discrete two-point space repeats plus inputs across sheaves and
    # layers.  Each distinct input runs its family search, one per object,
    # and every repeat is served from the memo.
    site = discrete_two_space_site()
    path = tmp_path / "site.json"
    path.write_text(json.dumps(site_to_dict(site)), encoding="utf-8")
    real_build, real_search = presheaf_module.build_plus, presheaf_module.matching_families
    inputs, searched, building = [], [], []

    def build(f_, topology, max_families=DEFAULT_MAX_FAMILIES):
        inputs.append(f_)
        building.append(f_)
        try:
            return real_build(f_, topology, max_families)
        finally:
            building.pop()

    def search(f_, sieve, max_families=DEFAULT_MAX_FAMILIES):
        if building:
            searched.append(building[-1])
        return real_search(f_, sieve, max_families)

    monkeypatch.setattr(presheaf_module, "build_plus", build)
    monkeypatch.setattr(presheaf_module, "matching_families", search)
    assert main(["check-theorem", str(path), "--method", "full", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []
    distinct = []
    for f_ in inputs:
        if not any(f_ == seen for seen in distinct):
            distinct.append(f_)
    assert len(inputs) > len(distinct)
    assert len(searched) == len(distinct) * len(site.category.objects)


# -- point questions about a sheafification ---------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_locally_equal_is_equality_in_the_sheafification(name, data):
    cat = PLUS_SITES[name]
    topology = data.draw(topologies_on(cat))
    f_ = data.draw(presheaves_on(cat))
    _, unit = sheafify(f_, topology)
    for x in range(len(cat.objects)):
        for a in f_.sets[x]:
            for b in f_.sets[x]:
                same = unit.apply(x, a) == unit.apply(x, b)
                assert locally_equal(f_, topology, x, a, b) == same


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_sheafify_gives_a_sheaf_and_its_unit_detects_sheaves(name, data):
    cat = PLUS_SITES[name]
    topology = data.draw(topologies_on(cat))
    f_ = data.draw(presheaves_on(cat))
    sheaf, unit = sheafify(f_, topology)
    assert is_sheaf(sheaf, topology)
    assert unit.is_bijective() == is_sheaf(f_, topology)
    _, again = sheafify(sheaf, topology)
    assert again.is_bijective()


def assert_sheaf_check_matches_oracle(f_, topology):
    report = sheaf_check(f_, topology)
    assert (report.status, report.missing, report.ambiguous) == oracle_sheaf_check(
        f_, topology
    )
    return report.status


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_sheaf_check_matches_the_all_covers_oracle_on_random_sites(name, data):
    # A random presheaf, its plus-construction (separated) and its
    # sheafification (a sheaf), and 1 + 1, not separated wherever the
    # empty sieve covers.
    cat = PLUS_SITES[name]
    topology = data.draw(topologies_on(cat))
    f_ = data.draw(presheaves_on(cat))
    one = terminal_presheaf(cat)
    two, _ = coproduct_many([one, one])
    for presheaf in (f_, build_plus(f_, topology).presheaf, sheafify(f_, topology)[0], two):
        assert_sheaf_check_matches_oracle(presheaf, topology)


def test_sheaf_check_matches_the_all_covers_oracle_on_fixture_sites(fixture_sites):
    seen = set()
    for site in fixture_sites.values():
        for _, f_ in kernel_presheaves(site):
            seen.add(assert_sheaf_check_matches_oracle(f_, site.topology))
    assert seen == set(SheafStatus)


def test_sheaf_check_searches_no_maximal_cover(bz4_site):
    # y(*) on BZ4 has four matching families on the maximal sieve, its only
    # cover, so a limit of 3 no longer stops the check.
    y = representable(bz4_site.category, "*")
    report = sheaf_check(y, bz4_site.topology, max_families=3)
    assert report.status is SheafStatus.SHEAF
    with pytest.raises(SizeLimitError):
        matching_families(y, maximal_sieve(bz4_site.category, 0), max_families=3)


def test_sheafify_needs_both_plus_layers(diamond_site):
    # y(X) + y(X) is not separated at O, which the empty sieve covers, so
    # one plus-construction leaves a separated presheaf that is no sheaf:
    # the two copies over a and over b glue four ways at X.  The property
    # above drew such a case in about 6 of 3000 examples.
    cat = diamond_site.category
    topology = diamond_site.topology
    f_, _ = coproduct_many([representable(cat, cat.object_id("X"))] * 2)
    assert not is_sheaf(build_plus(f_, topology).presheaf, topology)
    sheaf, unit = sheafify(f_, topology)
    assert is_sheaf(sheaf, topology) and not unit.is_bijective()
    assert len(sheaf.sets[cat.object_id("X")]) == 4


def test_locally_equal_reads_the_least_cover():
    # {a, b} covers * and the maximal sieve sorts before it.  Two copies of
    # y(*) glued along a and b agree on {a, b} but not at the identity.
    cat = left_zero_monoid()
    zeros = generated_sieve(cat, 0, [cat.morphism_id("a"), cat.morphism_id("b")])
    topology = saturate_topology(cat, {0: [zeros]})
    assert topology.covers_of(0)[0] != topology.least_cover(0, cat) == zeros
    total, _ = coproduct_many([representable(cat, 0)] * 2)
    glued, _ = quotient_presheaf(total, [(0, "0:a", "1:a"), (0, "0:b", "1:b")])
    _, unit = sheafify(glued, topology)
    assert unit.apply(0, "0:1") == unit.apply(0, "1:1")
    assert locally_equal(glued, topology, 0, "0:1", "1:1")


def test_check_reflect_matches_sheafify_oracle(fixture_sites):
    # Every tuple of the carrier product, not only the survivors of the
    # commutation pruning, so failing candidates are compared too.
    outcomes = set()
    for name, site in fixture_sites.items():
        n = len(site.category.objects)
        for sheaf_name, sheaf in small_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            carriers = [ctx.extensions[c].carrier.sets[c] for c in range(n)]
            for components in product(*carriers):
                got = _check_reflect(ctx, components)
                assert got == oracle_check_reflect(ctx, components), (name, sheaf_name)
                outcomes.add(got is None)
    assert outcomes == {True, False}


def assert_commuting_candidates_pass_the_amalgamation_checks(ctx):
    # The proof in _enumerate_members: invertibility and commutation imply
    # conditions (iii) and (iv), so the σ filter rejects nothing and the
    # enumeration can leave (iv) to check_membership.
    for components in _commuting_candidates(ctx):
        assert _check_sigma(ctx, components) is None, components
        assert _check_reflect(ctx, components) is None, components


def test_commuting_candidates_pass_the_direct_reflect_check(fixture_sites):
    # The direct check rejects some invertible family, and no commuting one.
    outcomes = set()
    for site in fixture_sites.values():
        n = len(site.category.objects)
        for _, sheaf in small_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            for components in product(*(ctx.invertibles(c) for c in range(n))):
                outcomes.add(_check_reflect(ctx, components) is None)
            assert_commuting_candidates_pass_the_amalgamation_checks(ctx)
    assert outcomes == {True, False}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_reflect_checks_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    for _, sheaf in small_catalogue(site):
        assert_commuting_candidates_pass_the_amalgamation_checks(IsotropyContext(sheaf, site))


def test_sigma_check_matches_the_two_step_oracle(fixture_sites):
    # Arbitrary families, most neither invertible nor commuting: each must
    # fail σ at the same cover as the oracle, whichever step fails.
    rng = random.Random(0)
    steps = set()
    for site in fixture_sites.values():
        n = len(site.category.objects)
        for _, sheaf in small_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            families = [tuple(ctx.extensions[c].generic["x"] for c in range(n))] + [
                tuple(rng.choice(ctx.extensions[c].carrier.sets[c]) for c in range(n))
                for _ in range(12)
            ]
            for components in families:
                witness, step = oracle_sigma_steps(ctx, components)
                assert _check_sigma(ctx, components) == witness, components
                steps.add(step)
    assert steps == {None, "matching", "amalgam"}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_sigma_check_matches_the_two_step_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    for _, sheaf in small_catalogue(site):
        ctx = IsotropyContext(sheaf, site)
        components = tuple(
            data.draw(st.sampled_from(ctx.extensions[c].carrier.sets[c]))
            for c in range(len(cat.objects))
        )
        assert _check_sigma(ctx, components) == oracle_sigma_steps(ctx, components)[0]


def test_full_isotropy_builds_one_reflect_quotient_per_cover(bz4_site, monkeypatch):
    calls = []

    def counting(f_, relations):
        calls.append(f_)
        return quotient_presheaf(f_, relations)

    # Four candidates survive on the one cover; its quotient is built once,
    # by _sieve_extension.
    monkeypatch.setattr(freeext_module, "quotient_presheaf", counting)
    monkeypatch.setattr(isotropy_module, "quotient_presheaf", counting)
    sheaf = representable(bz4_site.category, 0)
    ctx = IsotropyContext(sheaf, bz4_site)
    assert isotropy_group(sheaf, bz4_site, "full", ctx).order == 4
    assert len(calls) == len(ctx._reflect_data) == len(bz4_site.topology.covers_of(0)) == 1


def unrelated_generator(cat, cover):
    """The cover's one generating member f when f∘g = f∘g′ only for g = g′,
    so that F + R is literally F + y(dom f); otherwise None."""
    gens = generating_members(cat, cover)
    if len(gens) != 1:
        return None
    (f,) = gens
    cone = cat.cone(cat.dom(f))
    return f if len({cat.comp[(f, g)] for g in cone}) == len(cone) else None


def unshared_records(ctx):
    """The records whose F + R presentation is no free extension's level
    zero, so that the record needs a plus-construction of its own."""
    cat = ctx.site.category
    return sum(
        unrelated_generator(cat, cover) is None
        for c in range(len(cat.objects))
        for cover in ctx.site.topology.covers_of(c)
        if (c, cover.key()) in ctx._reflect_data
    )


def test_full_isotropy_adjoins_one_generator_and_one_sheaf_per_cover(monkeypatch):
    # The enumeration path reads one a(F + R) per (c, cover) and never the
    # k-generator extension of the direct check.  A record whose F + R is
    # literally an extension's level zero gets that extension's carrier
    # from the plus-construction memo; every other record builds its first
    # plus layer once.  The sites are fresh, because the session fixtures
    # keep their memo across tests.
    unshared = {}
    sites = (
        ("BZ4", trivial_site(cyclic_group_category(4))),
        ("cyl2", cylinder_cover_site(2)),
        ("disc2", discrete_two_space_site()),
    )
    for name, site in sites:
        cat = site.category
        sheaf, _ = sheafify(representable(cat, 0), site.topology)
        before = {id(base) for base, _ in plus_builds(site.topology)}
        generator_counts = []

        def spy_free_extension(f_, site_, generators, max_families):
            generator_counts.append(len(generators))
            return free_extension(f_, site_, generators, max_families)

        monkeypatch.setattr(isotropy_module, "free_extension", spy_free_extension)
        ctx = IsotropyContext(sheaf, site)
        assert isotropy_group(sheaf, site, "full", ctx).order >= 1
        monkeypatch.undo()
        n = len(cat.objects)
        covers = sum(len(site.topology.covers_of(c)) for c in range(n))
        assert generator_counts == [1] * n
        assert 0 < len(ctx._reflect_data) <= covers and not ctx._direct_reflect_data
        builds = plus_builds(site.topology)
        first_layer = [
            base
            for base, _ in builds
            if id(base) not in before and not any(base is plus for _, plus in builds)
        ]
        unshared[name] = unshared_records(ctx)
        assert len(first_layer) == n + unshared[name]
    assert unshared["BZ4"] == unshared["cyl2"] == 0 < unshared["disc2"]


def test_sieve_extension_adjoins_one_representable_per_generator(
    bz4_site, diamond_site, monkeypatch
):
    # BZ4's maximal sieve has one generator, each member one factorization
    # through it, so nothing is left to identify.  {a<=X, b<=X} on the
    # discrete two-point space has two, and O<=X factors through both.
    part_counts, relation_lists = [], []

    def spy_coproduct_many(parts):
        part_counts.append(len(parts))
        return coproduct_many(parts)

    def spy_quotient_presheaf(f_, relations):
        relation_lists.append(list(relations))
        return quotient_presheaf(f_, relation_lists[-1])

    monkeypatch.setattr(freeext_module, "coproduct_many", spy_coproduct_many)
    monkeypatch.setattr(freeext_module, "quotient_presheaf", spy_quotient_presheaf)
    cat = bz4_site.category
    _sieve_extension(representable(cat, 0), bz4_site, maximal_sieve(cat, 0))
    assert part_counts == [2] and relation_lists == [[]]

    cat = diamond_site.category
    x = cat.object_id("X")
    cover = generated_sieve(cat, x, [cat.morphism_id("a<=X"), cat.morphism_id("b<=X")])
    assert diamond_site.topology.is_cover(cover)
    _sieve_extension(terminal_presheaf(cat), diamond_site, cover)
    assert part_counts[1:] == [3]
    assert relation_lists[1:] == [[(cat.object_id("O"), "1:O<=a", "2:O<=b")]]


def assert_sieve_extension_matches_oracle(sheaf, site, cover):
    """The unique map out of the oracle's a(F + R) through the quotient
    route's insert and generic family is bijective and keeps the generic
    family and its amalgam."""
    cat = site.category
    extended, insert, generic, amalgam = _sieve_extension(sheaf, site, cover)
    o_bundle, o_insert, o_generic, o_amalgam = oracle_sieve_extension(sheaf, site, cover)
    level0 = PresheafMap(
        o_bundle.presheaf,
        extended,
        {
            x: {
                **{f"0:{e}": insert.apply(x, e) for e in sheaf.sets[x]},
                **{f"1:{cat.name(m)}": generic[m] for m in cover.members if cat.dom(m) == x},
            }
            for x in range(len(cat.objects))
        },
    )
    check_presheaf_map(level0)
    iso = oracle_sheafification_extend(o_bundle, level0)
    check_presheaf_map(iso)
    assert iso.is_bijective()
    assert o_insert.then(iso).components == insert.components
    assert all(iso.apply(cat.dom(f), o_generic[f]) == generic[f] for f in cover.members)
    assert iso.apply(cover.target, o_amalgam) == amalgam


def test_sieve_extension_matches_oracle(fixture_sites):
    for site in fixture_sites.values():
        for _, sheaf in small_catalogue(site):
            for c in range(len(site.category.objects)):
                for cover in site.topology.covers_of(c):
                    assert_sieve_extension_matches_oracle(sheaf, site, cover)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_sieve_extension_matches_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    for _, sheaf in small_catalogue(site):
        for c in range(len(cat.objects)):
            for cover in site.topology.covers_of(c):
                assert_sieve_extension_matches_oracle(sheaf, site, cover)


def assert_records_match_sieve_extension(ctx):
    """Every cover record is what ``_sieve_extension`` builds from the
    presentation."""
    cat = ctx.site.category
    for c in range(len(cat.objects)):
        for cover in ctx.site.topology.covers_of(c):
            data = ctx.reflect_data(c, cover)
            sheaf, insert, generic, amalgam = _sieve_extension(
                ctx.sheaf, ctx.site, cover, ctx.max_families
            )
            assert data["sheaf"] == sheaf
            assert data["insert"].components == insert.components
            assert data["generic"] == generic
            assert data["amalgam"] == amalgam


def assert_unrelated_records_share_the_carrier(ctx):
    """Every record whose cover has one generating member f and no relation
    holds the very carrier of the free extension at dom f, handed back by
    the plus-construction memo."""
    cat = ctx.site.category
    for c in range(len(cat.objects)):
        for cover in ctx.site.topology.covers_of(c):
            f = unrelated_generator(cat, cover)
            if f is not None:
                data = ctx.reflect_data(c, cover)
                assert data["sheaf"] is ctx.extensions[cat.dom(f)].carrier


def test_cover_records_match_sieve_extension(fixture_sites):
    for site in fixture_sites.values():
        for _, sheaf in small_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            assert_records_match_sieve_extension(ctx)
            assert_unrelated_records_share_the_carrier(ctx)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_cover_records_match_sieve_extension_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    for _, sheaf in small_catalogue(site):
        assert_records_match_sieve_extension(IsotropyContext(sheaf, site))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_records_without_relations_share_the_extension_carrier_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    for _, sheaf in small_catalogue(site):
        assert_unrelated_records_share_the_carrier(IsotropyContext(sheaf, site))


def assert_member_maps_are_the_substitutions(ctx):
    """Each member map, composed or not, is the substitution of r_f at
    dom f, and the top map is the substitution of the amalgam at c."""
    cat = ctx.site.category
    for c in range(len(cat.objects)):
        for cover in ctx.site.topology.covers_of(c):
            data = ctx.reflect_data(c, cover)
            assert set(data["member_maps"]) == set(cover.members)
            for f in cover.members:
                assert data["member_maps"][f] == subst_map(
                    ctx.extensions[cat.dom(f)],
                    data["sheaf"],
                    data["insert"],
                    {"x": data["generic"][f]},
                ).components[cat.dom(f)]
            assert data["top_map"] == subst_map(
                ctx.extensions[c], data["sheaf"], data["insert"], {"x": data["amalgam"]}
            ).components[c]


def assert_subst_is_the_substitution_component(ctx):
    """``subst(c, d, p)`` is the component at c of the whole substitution
    map, for every pair of objects and every point p at c of the extension
    at d.  ``subst_at`` gives that map's component at every object x, and
    it is what the amalgamation-only oracle makes of the level-zero map.
    Returns the routes of the extensions' sheafifications."""
    n = len(ctx.site.category.objects)
    routes = set()
    for c in range(n):
        ext_c = ctx.extensions[c]
        routes |= sheafification_routes(ext_c.bundle)
        for d in range(n):
            ext_d = ctx.extensions[d]
            for point in ext_d.carrier.sets[c]:
                args = (ext_c, ext_d.carrier, ext_d.insert, {"x": point})
                whole = subst_map(*args)
                assert ctx.subst(c, d, point) == whole.components[c], (c, d, point)
                level0 = oracle_level0_map(*args)
                apply = freeext_module._level0_reader(*args)
                assert {
                    x: {e: apply(x, e) for e in elems} for x, elems in ext_c.bundle.presheaf.sets.items()
                } == level0.components
                for x in range(n):
                    got = subst_at(*args, x)
                    assert got == whole.components[x], (c, d, point, x)
                    assert got == {
                        e: oracle_sheafification_extend_at(ext_c.bundle, level0, x, e)
                        for e in ext_c.carrier.sets[x]
                    }, (c, d, point, x)
    return routes


def test_subst_is_the_substitution_component(fixture_sites):
    routes = set()
    for site in fixture_sites.values():
        for _, sheaf in small_catalogue(site):
            routes |= assert_subst_is_the_substitution_component(IsotropyContext(sheaf, site))
    assert routes == {"table", "unwound", "shared"}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_subst_is_the_substitution_component_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    for _, sheaf in small_catalogue(site):
        assert_subst_is_the_substitution_component(IsotropyContext(sheaf, site))


def first_layer_shares_a_class(cat):
    """Random topologies on ``cat`` under which the first plus layer of some
    representable y(c) is not injective, so the free extension at c has
    classes that several level-zero elements share."""
    return topologies_on(cat).filter(
        lambda topology: any(
            "shared" in sheafification_routes(sheafification(representable(cat, c), topology))
            for c in range(len(cat.objects))
        )
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_subst_at_is_the_substitution_component_where_first_layers_share(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(first_layer_shares_a_class(cat)))
    for _, sheaf in small_catalogue(site):
        routes = assert_subst_is_the_substitution_component(IsotropyContext(sheaf, site))
        assert "shared" in routes


def assert_two_generator_substitutions_match_oracle(sheaf, site, generators):
    """Every substitution out of ``free_extension(sheaf, site, generators)``
    for two generators, into the sheaf itself and into the carrier, is what
    the amalgamation-only oracle makes of ``oracle_level0_map``, whole
    (``subst_map``) and at every object (``subst_at``)."""
    ext = free_extension(sheaf, site, generators)
    (x_name, x_obj), (y_name, y_obj) = ext.generators
    for target, base in ((sheaf, identity_map(sheaf)), (ext.carrier, ext.insert)):
        for p, q in product(target.sets[x_obj], target.sets[y_obj]):
            points = {x_name: p, y_name: q}
            level0 = oracle_level0_map(ext, target, base, points)
            whole = subst_map(ext, target, base, points)
            assert whole.source is ext.carrier and whole.target is target
            for x, elems in ext.carrier.sets.items():
                want = {e: oracle_sheafification_extend_at(ext.bundle, level0, x, e) for e in elems}
                assert whole.components[x] == want, (points, x)
                assert subst_at(ext, target, base, points, x) == want, (points, x)


def test_two_generator_substitution_matches_oracle(fixture_sites):
    for site in map(fixture_sites.get, SITE_FIXTURES):
        last = len(site.category.objects) - 1
        for _, sheaf in small_catalogue(site):
            assert_two_generator_substitutions_match_oracle(sheaf, site, [("x", 0), ("y", last)])
            if last:
                assert_two_generator_substitutions_match_oracle(sheaf, site, [("x", 0), ("y", 1)])


def test_member_maps_match_substitution_oracle(fixture_sites):
    for site in fixture_sites.values():
        for _, sheaf in small_catalogue(site):
            assert_member_maps_are_the_substitutions(IsotropyContext(sheaf, site))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_member_maps_match_substitution_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    for _, sheaf in small_catalogue(site):
        assert_member_maps_are_the_substitutions(IsotropyContext(sheaf, site))


def test_reflect_data_substitutes_only_for_generators_and_the_amalgam(
    fixture_sites, monkeypatch
):
    calls = []

    def counting(real):
        return lambda *args: calls.append(args) or real(*args)

    composed = 0
    for site in fixture_sites.values():
        cat = site.category
        for _, sheaf in small_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            # The enumeration reads every alpha map before any record;
            # warm them here so the count is the record's own.
            for g in range(len(cat.morphisms)):
                ctx.alpha_map(g)
            monkeypatch.setattr(isotropy_module, "subst_map", counting(subst_map))
            monkeypatch.setattr(isotropy_module, "subst_at", counting(subst_at))
            for c in range(len(cat.objects)):
                for cover in site.topology.covers_of(c):
                    calls.clear()
                    ctx.reflect_data(c, cover)
                    gens = generating_members(cat, cover)
                    assert len(calls) == len(gens) + 1
                    composed += len(cover.members) - len(gens)
            monkeypatch.undo()
    assert composed > 0


def assert_top_map_is_an_isomorphism(ctx):
    """R ↪ y(c) is dense and a preserves coproducts, so a(F + R) is
    a(F + y(c)), the one-generator extension at c.  The map substituting
    the amalgam for x is that isomorphism, and sends x·f to r_f."""
    cat = ctx.site.category
    for c in range(len(cat.objects)):
        ext = ctx.extensions[c]
        for cover in ctx.site.topology.covers_of(c):
            data = ctx.reflect_data(c, cover)
            top = subst_map(ext, data["sheaf"], data["insert"], {"x": data["amalgam"]})
            assert top.is_bijective()
            for f in cover.members:
                restricted = ext.carrier.act(f, ext.generic["x"])
                assert top.apply(cat.dom(f), restricted) == data["generic"][f]


def test_cover_extension_is_the_extension_at_the_cover_target(fixture_sites):
    for site in fixture_sites.values():
        for _, sheaf in small_catalogue(site):
            assert_top_map_is_an_isomorphism(IsotropyContext(sheaf, site))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_cover_extension_is_the_extension_at_the_cover_target_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    for _, sheaf in small_catalogue(site):
        assert_top_map_is_an_isomorphism(IsotropyContext(sheaf, site))


def _classifying_map(bundle, sheaf, c, e):
    # The map y(c) -> sheaf sending the identity to e.
    cat = sheaf.cat
    return PresheafMap(
        bundle.presheaf,
        sheaf,
        {
            d: {cat.name(g): sheaf.act(g, e) for g in cat.hom_ids(d, c)}
            for d in range(len(cat.objects))
        },
    )


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_sheafification_extend_at_matches_extend(fixture_sites, name):
    site = fixture_sites[name]
    cat = site.category
    for c in range(len(cat.objects)):
        bundle = sheafification(representable(cat, c), site.topology)
        for _, sheaf in small_catalogue(site):
            for e in sheaf.sets[c]:
                v = _classifying_map(bundle, sheaf, c, e)
                whole = oracle_sheafification_extend(bundle, v)
                for x in range(len(cat.objects)):
                    for elem in bundle.sheaf.sets[x]:
                        assert bundle.extend_at(v.apply, sheaf, x, elem) == whole.apply(x, elem)


def test_extend_at_refuses_a_target_that_is_not_separated(bz2_all_sieves_site):
    # The empty sieve covers, and 1 + 1 has two amalgamations of the empty family.
    _, two = kernel_presheaves(bz2_all_sieves_site)[-3]
    plus = build_plus(two, bz2_all_sieves_site.topology)
    ident = PresheafMap(two, two, {0: {e: e for e in two.sets[0]}})
    for elem in plus.presheaf.sets[0]:
        with pytest.raises(NoAmalgamationError, match=r"at '\*', found 2"):
            plus.extend_at(ident.apply, two, 0, elem)
    # Both elements of 1 + 1 reach the one class, so the sheafification
    # finds no level-zero preimage for it, and its unwinding refuses in turn.
    bundle = sheafification(two, bz2_all_sieves_site.topology)
    for elem in bundle.sheaf.sets[0]:
        assert bundle.level0_preimage(0, elem) is None
        with pytest.raises(NoAmalgamationError, match=r"at '\*', found 2"):
            bundle.extend_at(ident.apply, two, 0, elem)


def assert_extend_at_matches_oracle(bundle, v):
    """Both layers and the whole sheafification send every element where the
    amalgamation-only oracle does, for v a map from the base into a sheaf:
    each layer (``extend_at``; the second layer reads the oracle's first)
    and the sheafification (``extend_at``).  Returns the routes taken at
    the layers (True for the unit shortcut)."""
    cat = bundle.presheaf.cat
    target = v.target
    routes = set()
    layer_apply = v.apply
    for plus in (bundle.plus1, bundle.plus2):
        for x, elems in plus.presheaf.sets.items():
            for elem in elems:
                want = oracle_extend_at(plus, layer_apply, target, x, elem)
                assert plus.extend_at(layer_apply, target, x, elem) == want
                routes.add(elem in plus._unit_preimages[x])
        layer_apply = partial(oracle_extend_at, bundle.plus1, v.apply, target)
    for x in range(len(cat.objects)):
        for elem in bundle.sheaf.sets[x]:
            want = oracle_sheafification_extend_at(bundle, v, x, elem)
            assert bundle.extend_at(v.apply, target, x, elem) == want
    return routes


def sheafification_routes(bundle):
    """"table" or "unwound" for each sheaf element, by whether it has a
    level-zero preimage, and "shared" when some class of the first layer is
    the unit image of several base elements."""
    routes = {
        "table" if bundle.level0_preimage(x, elem) is not None else "unwound"
        for x, elems in bundle.sheaf.sets.items()
        for elem in elems
    }
    if any(len(set(comp.values())) < len(comp) for comp in bundle.plus1.unit.components.values()):
        routes.add("shared")
    return routes


def maps_into_sheaves(f_, g_, topology):
    """The unit of F's sheafification, and up to three maps from F into the
    sheafification of G."""
    bundle = sheafification(f_, topology)
    sheaf, _ = sheafify(g_, topology)
    return bundle, [bundle.unit] + nat_transformations(f_, sheaf)[:3]


def test_extend_at_matches_amalgamation_oracle(fixture_sites):
    routes = set()
    sheaf_routes = set()
    for site in fixture_sites.values():
        presheaves = [f_ for _, f_ in kernel_presheaves(site)]
        for f_ in presheaves:
            bundle, maps = maps_into_sheaves(f_, presheaves[0], site.topology)
            sheaf_routes |= sheafification_routes(bundle)
            for v in maps:
                routes |= assert_extend_at_matches_oracle(bundle, v)
    assert routes == {True, False}
    assert sheaf_routes == {"table", "unwound", "shared"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_extend_at_matches_amalgamation_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    topology = data.draw(topologies_on(cat))
    bundle, maps = maps_into_sheaves(
        data.draw(presheaves_on(cat)), data.draw(presheaves_on(cat)), topology
    )
    for v in maps:
        assert_extend_at_matches_oracle(bundle, v)


def test_unit_preimages_are_the_unique_ones(bz2_all_sieves_site, bz4_site):
    # Every element of 1 + 1 goes to the one class over the empty cover.
    _, two = kernel_presheaves(bz2_all_sieves_site)[-3]
    assert build_plus(two, bz2_all_sieves_site.topology)._unit_preimages == {0: {}}
    # With the trivial topology the unit is a bijection.
    y = representable(bz4_site.category, 0)
    plus = build_plus(y, bz4_site.topology)
    assert plus._unit_preimages == {
        0: {elem: d for d, elem in plus.unit.components[0].items()}
    }


def test_level0_preimages_compose_the_unique_unit_preimages(fixture_sites):
    # An element has a level-zero preimage exactly when it has one preimage
    # at each layer, and that is the level-zero element that the two units
    # carry onto it.
    for site in fixture_sites.values():
        for _, f_ in kernel_presheaves(site):
            bundle = sheafification(f_, site.topology)
            for x, elems in bundle.sheaf.sets.items():
                outer = bundle.plus2._unit_preimages[x]
                inner = bundle.plus1._unit_preimages[x]
                for elem in elems:
                    d = bundle.level0_preimage(x, elem)
                    if elem in outer and outer[elem] in inner:
                        assert d == inner[outer[elem]] and bundle.unit.apply(x, d) == elem
                    else:
                        assert d is None


def test_dense_extension_reads_no_amalgamation_index(bz4_site, monkeypatch):
    # On BZ4 with the trivial topology every class is a unit image, so the
    # twists are relabellings and never amalgamate.
    cat = bz4_site.category
    ayc = ayc_category(cat, bz4_site.topology)
    betas = centre(ayc.category).elements
    sheaves = [sheaf for _, sheaf in small_catalogue(bz4_site)]
    sheaves.append(free_extension(sheaves[0], bz4_site, [("x", 0)]).carrier)
    reads = []
    real = Presheaf.amalgamation_index

    def spy(self, sieve):
        reads.append(sieve)
        return real(self, sieve)

    monkeypatch.setattr(Presheaf, "amalgamation_index", spy)
    twists = [dense_extension(ayc, beta, sheaf) for beta in betas for sheaf in sheaves]
    assert reads == [] and len(twists) == 4 * len(sheaves)
    for sheaf in sheaves:
        sheaf.amalgamations_of(maximal_sieve(cat, 0), tuple(sheaf.sets[0][:1]) * 4)
    assert len(reads) == len(sheaves)


def assert_ayc_category_matches_oracle(cat, topology):
    """Same names, dom/cod, identities and composition as the
    natural-transformation oracle, and each oracle map sends the canonical
    point to the morphism's element."""
    ayc = ayc_category(cat, topology)
    oracle = oracle_ayc_category(cat, topology)
    assert ayc.category.objects == oracle.category.objects
    assert ayc.category.morphisms == oracle.category.morphisms
    assert ayc.category.identity == oracle.category.identity
    assert ayc.category.comp == oracle.category.comp
    assert len(ayc.elements) == len(oracle.maps)
    for m, theta in oracle.maps.items():
        x, y = ayc.category.dom(m), ayc.category.cod(m)
        canonical = ayc.sheafifications[x].unit.apply(x, cat.name(cat.identity[x]))
        assert theta.apply(x, canonical) == ayc.elements[m]
        assert ayc.morphism_for(x, y, ayc.elements[m]) == m
    return ayc, oracle


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_ayc_category_matches_nat_transformation_oracle(fixture_sites, name):
    site = fixture_sites[name]
    assert_ayc_category_matches_oracle(site.category, site.topology)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_ayc_category_matches_nat_transformation_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    assert_ayc_category_matches_oracle(cat, data.draw(topologies_on(cat)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RELABELLED_SITES)), st.data())
def test_ayc_category_matches_nat_transformation_oracle_on_relabelled_sites(name, data):
    cat = RELABELLED_SITES[name]
    assert_ayc_category_matches_oracle(cat, data.draw(least_cover_not_first(cat)))


def dense_extension_cases(site, sheaves):
    ayc, oracle = assert_ayc_category_matches_oracle(site.category, site.topology)
    for beta in centre(ayc.category).elements:
        for sheaf in sheaves:
            yield ayc, oracle, beta, sheaf


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_dense_extension_matches_whole_map_oracle(fixture_sites, name):
    site = fixture_sites[name]
    sheaves = [sheaf for _, sheaf in small_catalogue(site)]
    sheaves.append(free_extension(sheaves[0], site, [("x", 0)]).carrier)
    for ayc, oracle, beta, sheaf in dense_extension_cases(site, sheaves):
        assert dense_extension(ayc, beta, sheaf) == oracle_dense_extension(oracle, beta, sheaf)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_dense_extension_matches_whole_map_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    sheaf, _ = sheafify(data.draw(presheaves_on(cat)), site.topology)
    carrier = free_extension(sheaf, site, [("x", data.draw(st.sampled_from(range(len(cat.objects)))))]).carrier
    for ayc, oracle, beta, sheaf in dense_extension_cases(site, [sheaf, carrier]):
        assert dense_extension(ayc, beta, sheaf) == oracle_dense_extension(oracle, beta, sheaf)


def test_dense_extension_classifies_only_twists_off_level_zero(
    bz4_site, bz2_all_sieves_site, monkeypatch
):
    # On BZ4 every twist of the canonical point is the unit image of one
    # g : * -> *, so each component is g's action and nothing is
    # classified.  On BZ2 with the empty cover, a(y *) is one point that
    # both elements of y(*) reach, so the twist has no level-zero preimage
    # and every element is classified.
    calls = []
    real = isotropy_module.classify_at
    monkeypatch.setattr(
        isotropy_module, "classify_at", lambda *args: calls.append(args) or real(*args)
    )
    for site, classified in ((bz4_site, False), (bz2_all_sieves_site, True)):
        ayc = ayc_category(site.category, site.topology)
        sheaf = small_catalogue(site)[0][1]
        for beta in centre(ayc.category).elements:
            twisted = ayc.elements[beta.components[0]]
            level0 = ayc.sheafifications[0].level0_preimage(0, twisted)
            assert (level0 is None) is classified
            calls.clear()
            dense_extension(ayc, beta, sheaf)
            assert len(calls) == (len(sheaf.sets[0]) if classified else 0)


# -- group tables over component tuples -------------------------------------------


def assert_same_group(got, want):
    assert got.elements == want.elements
    assert got.table == want.table
    assert (got.unit, got.inverse) == (want.unit, want.inverse)


def assert_group_tables_match_element_objects(site):
    cat = site.category
    assert_same_group(centre(cat), oracle_centre(cat))
    assert_same_group(
        centre(ayc_category(cat, site.topology).category),
        oracle_centre(ayc_category(cat, site.topology).category),
    )
    for _, sheaf in small_catalogue(site):
        ctx = IsotropyContext(sheaf, site)
        group = isotropy_group(sheaf, site, ctx=ctx)
        assert all(type(m) is IsotropyElement for m in group.elements)
        assert_same_group(group, oracle_isotropy_group(ctx))


def test_group_tables_match_element_objects(fixture_sites):
    for site in fixture_sites.values():
        assert_group_tables_match_element_objects(site)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_group_tables_match_element_objects_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    assert_group_tables_match_element_objects(Site(cat, data.draw(topologies_on(cat))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transformation_categories())
def test_centre_table_matches_element_objects_on_random_categories(cat):
    assert_same_group(centre(cat), oracle_centre(cat))


# -- invertibles ----------------------------------------------------------------


def assert_invertibles_match_oracle(site):
    """The same inverses in the same order as both oracles, the pair loop and
    the injective substitutions, for every catalogue sheaf; returns whether
    some carrier element was not invertible."""
    some_not_invertible = False
    for _, sheaf in small_catalogue(site):
        ctx = IsotropyContext(sheaf, site)
        for c in range(len(site.category.objects)):
            got = ctx.invertibles(c)
            assert list(got.items()) == list(oracle_invertibles(ctx, c).items())
            assert list(got.items()) == list(oracle_invertibles_by_injectivity(ctx, c).items())
            some_not_invertible |= len(got) < len(ctx.extensions[c].carrier.sets[c])
    return some_not_invertible


@pytest.mark.parametrize("name", SITE_FIXTURES + ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_invertibles_match_pair_loop_oracle(fixture_sites, name):
    assert_invertibles_match_oracle(fixture_sites[name])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_invertibles_match_pair_loop_oracle_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    assert_invertibles_match_oracle(Site(cat, data.draw(topologies_on(cat))))


def test_invertibles_skip_the_substitutions_of_found_inverses(fixture_sites):
    # Once e·m = 1 is found, m's inverse is e, so each pair of distinct
    # mutual inverses costs one substitution, not two.  A base element
    # other than the generic one is never invertible and costs none.
    skipped_pairs = skipped_base = 0
    for site in fixture_sites.values():
        for _, sheaf in small_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            for c in range(len(site.category.objects)):
                ext = ctx.extensions[c]
                inverse = ctx.invertibles(c)
                built = {key[2] for key in ctx._subst if key[:2] == (c, c)}
                pairs = sum(e != m for e, m in inverse.items()) // 2
                base = set(ext.insert.components[c].values()) - {ext.generic["x"]}
                assert len(built) == len(ext.carrier.sets[c]) - len(base) - pairs
                assert not built & base
                skipped_pairs += pairs
                skipped_base += len(base)
    assert skipped_pairs > 0 and skipped_base > 0


def test_invertibles_of_a_monoid_that_is_not_a_group():
    # In the left-zero monoid x·a and x·b are idempotent and not the
    # identity, so substituting them is not injective: only the generic
    # element of 1 + y(*) is invertible.
    site = trivial_site(left_zero_monoid())
    ctx = IsotropyContext(terminal_presheaf(site.category), site)
    generic = ctx.extensions[0].generic["x"]
    assert len(ctx.extensions[0].carrier.sets[0]) == 4
    assert ctx.invertibles(0) == oracle_invertibles(ctx, 0) == {generic: generic}
    assert assert_invertibles_match_oracle(site)


# -- frozen plus-construction and sheafification --------------------------------


def test_plus_construction_and_sheafification_are_frozen(bz4_site):
    y = representable(bz4_site.category, 0)
    plus, bundle = build_plus(y, bz4_site.topology), sheafification(y, bz4_site.topology)
    with pytest.raises(FrozenInstanceError):
        plus.unit = bundle.unit
    with pytest.raises(FrozenInstanceError):
        plus._unit_preimages = {}
    with pytest.raises(FrozenInstanceError):
        bundle.sheaf = y


def test_records_hold_only_their_layers(bz4_site, bz2_all_sieves_site):
    # A plus-construction holds its unit and pairs, and a sheafification
    # its two layers; everything else is read off them, and the
    # sheafification's unit is composed on its first read only.
    assert [f.name for f in fields(PlusConstruction)] == ["unit", "pairs"]
    assert [f.name for f in fields(Sheafification)] == ["plus1", "plus2"]
    for site in (bz4_site, bz2_all_sieves_site):
        for _, f_ in kernel_presheaves(site):
            bundle = sheafification(f_, site.topology)
            plus1, plus2 = bundle.plus1, bundle.plus2
            assert plus1.base is f_ and plus1.presheaf is plus1.unit.target
            assert plus2.base is plus1.presheaf and plus2.presheaf is plus2.unit.target
            assert bundle.presheaf is f_ and bundle.sheaf is plus2.presheaf
            assert "unit" not in vars(bundle)
            unit = bundle.unit
            assert unit is bundle.unit and unit == plus1.unit.then(plus2.unit)
            assert unit.source is f_ and unit.target is bundle.sheaf


def test_auto_catalogue_composes_no_unit(bz4_site, monkeypatch):
    calls = []
    real = PresheafMap.then
    monkeypatch.setattr(PresheafMap, "then", lambda *args: calls.append(args) or real(*args))
    site = Site(bz4_site.category, Topology(dict(bz4_site.topology.covers)))
    assert len(auto_catalogue(site)) == 1 + 1 + 3
    assert calls == []


def test_extensions_compose_maps_only_over_the_base(diamond_site, bz2_all_sieves_site, monkeypatch):
    # ``insert`` is composed at F's elements alone, through each layer's
    # unit in turn; the sheafification's unit, over the whole level zero,
    # is never composed.
    calls = []
    real = PresheafMap.then
    cases = [
        (site, sheaf)
        for site in (diamond_site, bz2_all_sieves_site)
        for _, sheaf in small_catalogue(site)
    ]
    monkeypatch.setattr(PresheafMap, "then", lambda *args: calls.append(args) or real(*args))
    for site, sheaf in cases:
        calls.clear()
        ext = free_extension(sheaf, site, [("x", 0)])
        assert "unit" not in vars(ext.bundle)
        assert len(calls) == 2 and all(first.source is sheaf for first, _ in calls)
        for c in range(len(site.category.objects)):
            for cover in site.topology.covers_of(c):
                calls.clear()
                _sieve_extension(sheaf, site, cover)
                assert len(calls) == 3 and all(first.source is sheaf for first, _ in calls)


def test_free_extension_and_ayc_category_are_frozen(bz4_site):
    ext = free_extension(representable(bz4_site.category, 0), bz4_site, [("x", 0)])
    ayc = ayc_category(bz4_site.category, bz4_site.topology)
    for record in (ext, ayc):
        for field in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field.name, None)


def test_result_records_and_run_config_are_frozen(bz4_site):
    y = representable(bz4_site.category, 0)
    ctx = IsotropyContext(y, bz4_site)
    ext = ctx.extensions[0]
    records = [
        structure_from_presheaf(y, bz4_site.topology),
        sheaf_check(y, bz4_site.topology),
        check_membership(y, bz4_site, {0: ext.generic["x"]}, ctx),
        normal_form(ext, 0, ext.generic["x"]),
        RunConfig(),
    ]
    for record in records:
        for field in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field.name, None)


def test_plus_equality_and_repr_ignore_the_unit_preimages(bz4_site):
    y = representable(bz4_site.category, 0)
    plus, other = build_plus(y, bz4_site.topology), build_plus(y, bz4_site.topology)
    object.__setattr__(other, "_unit_preimages", {})
    assert plus == other and plus._unit_preimages != other._unit_preimages
    assert "_unit_preimages" not in repr(plus)
    bundle, other_bundle = sheafification(y, bz4_site.topology), sheafification(y, bz4_site.topology)
    object.__setattr__(other_bundle.plus1, "_unit_preimages", {})
    assert bundle == other_bundle


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


def test_ayc_category_passes_its_guard_to_its_sheafifications(bz4_site, monkeypatch):
    # y(*) on BZ4 has four matching families on the maximal sieve.
    with pytest.raises(SizeLimitError, match=r"more than 3 matching families at '\*'"):
        ayc_category(bz4_site.category, bz4_site.topology, max_families=3)
    seen = []
    real = presheaf_module.sheafification

    def spy(f_, topology, max_families):
        seen.append(max_families)
        return real(f_, topology, max_families)

    monkeypatch.setattr(presheaf_module, "sheafification", spy)
    ayc_category(bz4_site.category, bz4_site.topology, max_families=7)
    assert seen == [7]


def test_verify_main_theorem_searches_no_natural_transformations(
    bz4_site, sierpinski_site, monkeypatch
):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return nat_transformations(*args, **kwargs)

    monkeypatch.setattr(presheaf_module, "nat_transformations", spy)
    for site in (bz4_site, sierpinski_site, cylinder_cover_site(2)):
        assert verify_main_theorem(site)["violations"] == []
    assert calls == []


def test_centre_guard_names_the_search(bz4_site, monkeypatch):
    # Every endomorphism of the abelian group Z4 is natural: four families.
    monkeypatch.setattr(fincat_module, "DEFAULT_MAX_FAMILIES", 3)
    with pytest.raises(
        SizeLimitError, match=r"more than 3 natural endomorphisms of the identity over '\*'"
    ):
        centre(bz4_site.category)
    monkeypatch.setattr(fincat_module, "DEFAULT_MAX_FAMILIES", 4)
    assert centre(bz4_site.category).order == 4


def test_isotropy_candidate_guard_reads_max_families():
    # Three disjoint copies of BZ2: each extension of the terminal sheaf
    # needs only 3 families, but 2^3 candidate families survive commutation.
    objects = ["a", "b", "c"]
    cat = validate_category(
        objects,
        [(f"{p}{o}", o, o) for o in objects for p in ("id_", "s_")],
        {o: f"id_{o}" for o in objects},
        [(f"s_{o}", f"s_{o}", f"id_{o}") for o in objects],
    )
    site = trivial_site(cat)
    sheaf = terminal_presheaf(cat)
    # Every method runs the one enumeration, so each meets the same guard.
    ctx = IsotropyContext(sheaf, site, max_families=3)
    for method in ("auto", "full", "pure"):
        with pytest.raises(
            SizeLimitError, match=r"more than 3 isotropy candidates over 'a', 'b', 'c'"
        ):
            isotropy_group(sheaf, site, method, ctx)
    ctx = IsotropyContext(sheaf, site, max_families=8)
    assert isotropy_group(sheaf, site, "full", ctx).order == 8
