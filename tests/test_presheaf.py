"""Presheaf validation, Yoneda, amalgamation, plus-construction, ayC."""

from dataclasses import FrozenInstanceError

import pytest

from finsite.errors import NotMatchingError, PresheafInvalidError, SizeLimitError
from finsite.presheaf import (
    SheafStatus,
    amalgamations,
    ayc_category,
    build_plus,
    coproduct,
    identity_map,
    is_subcanonical,
    matching_families,
    nat_transformations,
    plus_construction,
    quotient_presheaf,
    representable,
    sheaf_check,
    sheaf_status,
    sheafify,
    terminal_presheaf,
    validate_presheaf,
)
from finsite.io import presheaf_to_dict
from finsite.site import Sieve, maximal_sieve, pullback_sieve
from finsite.standard import cyclic_group_category

from conftest import small_catalogue
from oracles import (
    check_presheaf_map,
    empty_presheaf,
    find_isomorphism,
    make_matching_family,
    sieve_subpresheaf,
)


def test_validate_representable_data(sierpinski_site):
    cat = sierpinski_site.category
    y1 = representable(cat, "1")
    data = presheaf_to_dict(y1)
    again = validate_presheaf(cat, data["sets"], data["actions"])
    assert again == y1


def test_validate_terminal(bz4_site):
    cat = bz4_site.category
    one = terminal_presheaf(cat)
    data = presheaf_to_dict(one)
    assert validate_presheaf(cat, data["sets"], data["actions"]) == one


def test_validate_rejects_non_action():
    bz4 = cyclic_group_category(4)
    sets = {"*": ["a", "b"]}
    # g1 swaps, but g2 = g1∘g1 must then be the identity; make it not so.
    actions = {
        "g0": {"a": "a", "b": "b"},
        "g1": {"a": "b", "b": "a"},
        "g2": {"a": "b", "b": "a"},
        "g3": {"a": "a", "b": "b"},
    }
    with pytest.raises(PresheafInvalidError) as err:
        validate_presheaf(bz4, sets, actions)
    assert any(v.kind == "functoriality" for v in err.value.violations)


def test_validate_rejects_missing_action():
    bz4 = cyclic_group_category(4)
    with pytest.raises(PresheafInvalidError) as err:
        validate_presheaf(bz4, {"*": ["a"]}, {"g0": {"a": "a"}})
    assert any(v.kind == "missing-action" for v in err.value.violations)


def test_representable_sizes(sierpinski_site, bz4_site):
    cat = sierpinski_site.category
    y1 = representable(cat, "1")
    assert {cat.objects[x]: len(v) for x, v in y1.sets.items()} == {"0": 1, "1": 1}
    ybz4 = representable(bz4_site.category, "*")
    assert len(ybz4.sets[0]) == 4
    for x in range(len(cat.objects)):
        yx = representable(cat, x)
        assert len(yx.sets[x]) == len(cat.endomorphisms(x))


def test_yoneda_counts(bz4_site, bs3_site, sierpinski_site):
    for site in (bz4_site, bs3_site, sierpinski_site):
        cat = site.category
        for x in range(len(cat.objects)):
            yx = representable(cat, x)
            for target in (
                representable(cat, 0),
                terminal_presheaf(cat),
            ):
                assert len(nat_transformations(yx, target)) == len(target.sets[x])


def test_nat_transformations_to_terminal_and_s3(bs3_site):
    cat = bs3_site.category
    y = representable(cat, "*")
    assert len(nat_transformations(y, terminal_presheaf(cat))) == 1
    assert len(nat_transformations(y, y)) == 6


def test_amalgamations_sheaf_unique(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    top = maximal_sieve(cat, 0)
    for family in matching_families(y, top):
        assert len(amalgamations(y, family)) == 1


def test_amalgamation_contains_restriction_point(bs3_site):
    cat = bs3_site.category
    y = representable(cat, "*")
    top = maximal_sieve(cat, 0)
    for d in y.sets[0]:
        family = make_matching_family(
            y, top, {f: y.act(f, d) for f in top.members}
        )
        assert d in amalgamations(y, family)


def test_mixed_coproduct_family_has_no_amalgamation(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    total, inl, inr = coproduct(y, terminal_presheaf(cat))
    top = maximal_sieve(cat, 0)
    id_m = cat.identity[0]
    values = {}
    for f in top.members:
        if f == id_m:
            values[f] = "0:g0"
        else:
            values[f] = total.act(f, "0:g0")
    # A family entirely inside the left part, then corrupt one slot into the
    # right part: no longer matching, so build the mixed family directly.
    mixed = {f: "1:*" for f in top.members}
    family = make_matching_family(total, top, mixed)
    left_family = make_matching_family(total, top, values)
    assert amalgamations(total, family) == ["1:*"]
    assert amalgamations(total, left_family) == ["0:g0"]


def test_matching_family_invariant_rejected(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    top = maximal_sieve(cat, 0)
    bad = {f: "g0" for f in top.members}
    with pytest.raises(NotMatchingError):
        make_matching_family(y, top, bad)


def test_sheaf_status_trivial_topology_always_sheaf(bs3_site):
    cat = bs3_site.category
    y = representable(cat, "*")
    arbitrary, _, _ = coproduct(y, y)
    for presheaf in (y, terminal_presheaf(cat), arbitrary):
        assert sheaf_status(presheaf, bs3_site.topology) is SheafStatus.SHEAF


def test_coproduct_of_sheaves_on_no_empty_cover_site_is_separated(
    subcanonical_sites,
):
    for site in subcanonical_sites.values():
        sheaves = [sheaf for _, sheaf in small_catalogue(site)]
        for f_ in sheaves:
            for g_ in sheaves:
                total, _, _ = coproduct(f_, g_)
                assert (
                    sheaf_status(total, site.topology)
                    is not SheafStatus.NOT_SEPARATED
                )


def test_terminal_is_the_only_sheaf_on_all_sieves_bz2(bz2_all_sieves_site):
    site = bz2_all_sieves_site
    cat = site.category
    assert sheaf_status(terminal_presheaf(cat), site.topology) is SheafStatus.SHEAF
    y = representable(cat, "*")
    assert sheaf_status(y, site.topology) is SheafStatus.NOT_SEPARATED
    sheaf, _ = sheafify(y, site.topology)
    assert find_isomorphism(sheaf, terminal_presheaf(cat)) is not None


def test_coproduct_sizes_and_unit(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    one = terminal_presheaf(cat)
    total, inl, inr = coproduct(y, one)
    assert len(total.sets[0]) == len(y.sets[0]) + len(one.sets[0])
    check_presheaf_map(inl)
    check_presheaf_map(inr)
    with_empty, _, _ = coproduct(y, empty_presheaf(cat))
    iso = find_isomorphism(with_empty, y)
    assert iso is not None and iso.is_bijective()


def test_plus_of_sheaf_is_bijective(bz4_site, sierpinski_site):
    for site in (bz4_site, sierpinski_site):
        cat = site.category
        y = representable(cat, 0)
        plus, unit = plus_construction(y, site.topology)
        assert unit.is_bijective()
        check_presheaf_map(unit)
        for x in range(len(cat.objects)):
            assert len(plus.sets[x]) == len(y.sets[x])


def test_plus_separated_and_double_plus_sheaf_on_catalogue(
    bz4_site, bz2_all_sieves_site, opens_site
):
    for site in (bz4_site, bz2_all_sieves_site, opens_site):
        cat = site.category
        presheaves = [
            representable(cat, 0),
            terminal_presheaf(cat),
            coproduct(representable(cat, 0), terminal_presheaf(cat))[0],
        ]
        for presheaf in presheaves:
            plus, _ = plus_construction(presheaf, site.topology)
            assert sheaf_status(plus, site.topology) is not SheafStatus.NOT_SEPARATED
            double, unit = sheafify(presheaf, site.topology)
            assert sheaf_status(double, site.topology) is SheafStatus.SHEAF
            was_sheaf = sheaf_status(presheaf, site.topology) is SheafStatus.SHEAF
            assert unit.is_bijective() == was_sheaf


def test_plus_restriction_representative_independent(bz2_all_sieves_site, opens_site):
    # F+(X) is the colimit over every cover, not just J(X): each (cover,
    # family) pair has a class, found by its values on J(X), and restricting
    # the pair along h must land in the class of the pulled-back pair.
    for site in (bz2_all_sieves_site, opens_site):
        cat = site.category
        presheaf, _, _ = coproduct(representable(cat, 0), terminal_presheaf(cat))
        plus = build_plus(presheaf, site.topology)

        def class_of(cover, family):
            least = site.topology.least_cover(cover.target, cat)
            values = family.as_dict()
            key = tuple((g, values[g]) for g in least.sorted_members())
            [elem] = [
                e for e, (_, f) in plus.pairs[cover.target].items() if f.assignment == key
            ]
            return elem

        for x in range(len(cat.objects)):
            for cover in site.topology.covers_of(x):
                for family in matching_families(presheaf, cover):
                    elem = class_of(cover, family)
                    values = family.as_dict()
                    for h in cat.cone(x):
                        pulled = pullback_sieve(cat, cover, h)
                        restricted = make_matching_family(
                            presheaf,
                            pulled,
                            {g: values[cat.comp[(h, g)]] for g in pulled.members},
                        )
                        assert class_of(pulled, restricted) == plus.presheaf.act(h, elem)


def test_plus_guard_counts_families_on_the_least_cover(bz4_site, bz2_all_sieves_site):
    y = representable(bz4_site.category, "*")
    assert len(build_plus(y, bz4_site.topology, max_families=4).presheaf.sets[0]) == 4
    with pytest.raises(SizeLimitError, match=r"more than 3 matching families at '\*'"):
        build_plus(y, bz4_site.topology, max_families=3)
    # Every sieve covers in BZ2, so J(*) is empty and holds one family, though
    # the maximal sieve alone holds two.
    cat = bz2_all_sieves_site.category
    topology = bz2_all_sieves_site.topology
    y = representable(cat, "*")
    assert len(matching_families(y, maximal_sieve(cat, 0))) == 2
    assert build_plus(y, topology, max_families=1).presheaf.sets[0] == ("p0",)


def test_sheafify_empty_presheaf(bz4_site, opens_site):
    cat = bz4_site.category
    sheaf, _ = sheafify(empty_presheaf(cat), bz4_site.topology)
    assert all(len(v) == 0 for v in sheaf.sets.values())
    # With an empty cover the empty presheaf gains the forced point there.
    cat2 = opens_site.category
    sheaf2, _ = sheafify(empty_presheaf(cat2), opens_site.topology)
    assert {cat2.objects[x]: len(v) for x, v in sheaf2.sets.items()} == {
        "O": 1,
        "U": 0,
        "X": 0,
    }


def test_subcanonical_judgements(bz4_site, opens_site, bz2_all_sieves_site):
    assert is_subcanonical(bz4_site.category, bz4_site.topology)[0]
    assert is_subcanonical(opens_site.category, opens_site.topology)[0]
    ok, witness = is_subcanonical(
        bz2_all_sieves_site.category, bz2_all_sieves_site.topology
    )
    assert not ok and witness[0] == "*"


def test_quotient_presheaf_empty_relations(bz4_site):
    y = representable(bz4_site.category, "*")
    quotient, projection = quotient_presheaf(y, [])
    assert projection.is_bijective()
    assert quotient.sets == y.sets


def test_quotient_presheaf_without_relations_returns_its_input(bz4_site, diamond_site):
    for site in (bz4_site, diamond_site):
        f_, _, _ = coproduct(representable(site.category, 0), terminal_presheaf(site.category))
        for relations in ([], iter(())):
            quotient, projection = quotient_presheaf(f_, relations)
            assert quotient is f_
            assert projection == identity_map(f_)


def test_quotient_presheaf_collapse_all(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    relations = [(0, "g0", e) for e in y.sets[0]]
    quotient, projection = quotient_presheaf(y, relations)
    assert len(quotient.sets[0]) == 1
    check_presheaf_map(projection)


def test_quotient_propagates_along_actions(sierpinski_site):
    cat = sierpinski_site.category
    y1 = representable(cat, "1")
    two, _, _ = coproduct(y1, y1)
    one = cat.object_id("1")
    zero = cat.object_id("0")
    a, b = two.sets[one]
    quotient, projection = quotient_presheaf(two, [(one, a, b)])
    arrow = cat.morphism_id("0<=1")
    fa, fb = two.act(arrow, a), two.act(arrow, b)
    assert projection.apply(zero, fa) == projection.apply(zero, fb)
    data = presheaf_to_dict(quotient)
    assert validate_presheaf(cat, data["sets"], data["actions"]) == quotient


def test_sieve_subpresheaf_matches_hom_membership(bs3_site):
    cat = bs3_site.category
    top = maximal_sieve(cat, 0)
    sub = sieve_subpresheaf(cat, top)
    assert sub == representable(cat, 0)
    half = Sieve(0, frozenset())
    assert all(len(v) == 0 for v in sieve_subpresheaf(cat, half).sets.values())


def test_ayc_subcanonical_recovers_the_site(bz4_site, sierpinski_site):
    for site in (bz4_site, sierpinski_site):
        cat = site.category
        ayc = ayc_category(cat, site.topology)
        assert len(ayc.category.objects) == len(cat.objects)
        for x in range(len(cat.objects)):
            for y in range(len(cat.objects)):
                ayc_hom = [
                    m
                    for m in range(len(ayc.category.morphisms))
                    if ayc.category.dom(m) == x and ayc.category.cod(m) == y
                ]
                assert len(ayc_hom) == len(cat.hom_ids(x, y))


def test_ayc_of_all_sieves_bz2_is_trivial(bz2_all_sieves_site):
    ayc = ayc_category(
        bz2_all_sieves_site.category, bz2_all_sieves_site.topology
    )
    assert len(ayc.category.objects) == 1
    assert len(ayc.category.morphisms) == 1


def test_sheaf_check_reports_witnesses(bz2_all_sieves_site):
    site = bz2_all_sieves_site
    y = representable(site.category, "*")
    report = sheaf_check(y, site.topology)
    assert report.status is SheafStatus.NOT_SEPARATED
    assert report.ambiguous
    x, cover, family, ams = report.ambiguous[0]
    assert len(ams) > 1


def test_sheafification_glues_locally_constant_sections(diamond_site):
    # On the opens of the two-point discrete space, sheafifying a constant
    # presheaf must produce the locally constant sections: 2 points with 2
    # values give 2^2 of them on the whole space and 1 on the empty open.
    site = diamond_site
    cat = site.category
    two, _, _ = coproduct(
        terminal_presheaf(cat), terminal_presheaf(cat)
    )
    glued, unit = sheafify(two, site.topology)
    assert glued.size() == {"O": 1, "a": 2, "b": 2, "X": 4}
    assert sheaf_status(glued, site.topology) is SheafStatus.SHEAF
    assert not unit.is_bijective()


@pytest.mark.parametrize("field", ["sets", "actions"])
def test_a_presheaf_cannot_be_reassigned(field):
    y = representable(cyclic_group_category(2), "*")
    with pytest.raises(FrozenInstanceError):
        setattr(y, field, {})


def test_a_presheaf_map_is_frozen_unhashable_and_compares_by_value():
    y = representable(cyclic_group_category(2), "*")
    ident = identity_map(y)
    with pytest.raises(FrozenInstanceError):
        ident.components = {}
    with pytest.raises(TypeError):
        hash(ident)
    assert ident == identity_map(y)


def test_a_presheaf_is_not_hashable_and_compares_by_value():
    cat = cyclic_group_category(2)
    y = representable(cat, "*")
    with pytest.raises(TypeError):
        hash(y)
    y.amalgamation_index(maximal_sieve(cat, 0))
    assert y == representable(cat, "*")
