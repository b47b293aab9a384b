"""Membership checks, isotropy groups, centre embedding, dense extension."""

import pytest
from hypothesis import given, settings, strategies as st

from finsite import isotropy as isotropy_module
from finsite.fincat import CentreElement, centre
from finsite.groups import find_group_isomorphism, group_law_violations
from finsite.isotropy import (
    IsotropyContext,
    auto_catalogue,
    centre_embedding,
    check_membership,
    dense_extension,
    extended_action,
    is_inner,
    isotropy_group,
    verify_main_theorem,
)
from finsite.errors import HypothesisViolationError, UnknownObjectError
from finsite.presheaf import (
    PresheafMap,
    ayc_category,
    identity_map,
    nat_transformations,
    representable,
    terminal_presheaf,
)
from finsite.site import Site
from finsite.standard import (
    cyclic_group_category,
    cylinder_cover_site,
    discrete_two_space_site,
    sierpinski_space_site,
    trivial_site,
)

from conftest import plus_builds, pure_hypotheses, small_catalogue
from oracles import check_presheaf_map, oracle_enumerate_members
from test_search_kernel import PLUS_SITES, topologies_on


def test_generic_family_is_a_member(bz4_site):
    y = representable(bz4_site.category, "*")
    ctx = IsotropyContext(y, bz4_site)
    report = check_membership(
        y, bz4_site, {"*": ctx.extensions[0].generic["x"]}, ctx
    )
    assert report.member and report.inverse is not None


def test_alpha_maps_of_endomorphisms_are_the_substitution_endomaps(bz4_site, monkeypatch):
    # One cache keyed by (c, d, point): an endomorphism's α map is the
    # substitution that invertibles built, or builds it once if invertibles
    # skipped it as an inverse already found.  On BZ4 that is x·g3 alone,
    # the inverse of x·g1.
    y = representable(bz4_site.category, "*")
    ctx = IsotropyContext(y, bz4_site)
    ext = ctx.extensions[0]
    inverse = ctx.invertibles(0)
    calls = []
    real = isotropy_module.subst_at
    monkeypatch.setattr(
        isotropy_module,
        "subst_at",
        lambda *args: calls.append(args[3]["x"]) or real(*args),
    )
    points = [ext.carrier.act(f, ext.generic["x"]) for f in range(4)]
    for _ in range(2):
        for f, point in enumerate(points):
            assert ctx.alpha_map(f) is ctx.subst(0, 0, point)
    assert calls == [points[3]] and inverse[points[1]] == points[3]


def test_translation_family_is_a_member_on_bz4(bz4_site):
    y = representable(bz4_site.category, "*")
    ctx = IsotropyContext(y, bz4_site)
    ext = ctx.extensions[0]
    g = bz4_site.category.morphism_id("g1")
    report = check_membership(
        y, bz4_site, {"*": ext.carrier.act(g, ext.generic["x"])}, ctx
    )
    assert report.member


def test_non_central_family_fails_alpha_with_witness(bs3_site):
    y = representable(bs3_site.category, "*")
    ctx = IsotropyContext(y, bs3_site)
    ext = ctx.extensions[0]
    transposition = bs3_site.category.morphism_id("p102")
    report = check_membership(
        y,
        bs3_site,
        {"*": ext.carrier.act(transposition, ext.generic["x"])},
        ctx,
    )
    assert not report.member
    assert not report.alpha_commutes
    assert "alpha_commutes" in report.witnesses


def test_constant_family_fails_every_condition(bz4_site):
    # A family of base constants is not invertible, moves under no
    # restriction, breaks amalgamation commutation, and fails to reflect
    # definedness; all four detectors must fire.
    y = representable(bz4_site.category, "*")
    ctx = IsotropyContext(y, bz4_site)
    ext = ctx.extensions[0]
    report = check_membership(
        y, bz4_site, {"*": ext.insert.apply(0, "g0")}, ctx
    )
    assert not report.member
    assert not report.invertible
    assert not report.alpha_commutes
    assert not report.sigma_commutes
    assert not report.reflects_definedness
    assert set(report.witnesses) == {
        "invertible",
        "alpha_commutes",
        "sigma_commutes",
        "reflects_definedness",
    }


def test_family_missing_an_object_is_refused():
    site = cylinder_cover_site(2)
    cat = site.category
    sheaf = terminal_presheaf(cat)
    ctx = IsotropyContext(sheaf, site)
    family = {cat.objects[0]: ctx.extensions[0].generic["x"]}
    with pytest.raises(HypothesisViolationError, match=r"no component at 'B'"):
        check_membership(sheaf, site, family, ctx)


def test_family_key_that_names_no_object_is_refused(bz4_site):
    y = representable(bz4_site.category, "*")
    ctx = IsotropyContext(y, bz4_site)
    family = {0: ctx.extensions[0].generic["x"], 7: "junk"}
    with pytest.raises(UnknownObjectError, match=r"unknown object id 7"):
        check_membership(y, bz4_site, family, ctx)


def test_family_with_two_keys_for_one_object_is_refused(bz4_site):
    y = representable(bz4_site.category, "*")
    ctx = IsotropyContext(y, bz4_site)
    ext = ctx.extensions[0]
    g1 = ext.carrier.act(bz4_site.category.morphism_id("g1"), ext.generic["x"])
    family = {0: ext.generic["x"], "*": g1}
    with pytest.raises(HypothesisViolationError, match=r"two components at '\*'"):
        check_membership(y, bz4_site, family, ctx)


def test_isotropy_orders(bz4_site, bs3_site, bz2_all_sieves_site):
    y4 = representable(bz4_site.category, "*")
    assert isotropy_group(y4, bz4_site, method="full").order == 4
    y3 = representable(bs3_site.category, "*")
    assert isotropy_group(y3, bs3_site, method="full").order == 1
    one = terminal_presheaf(bz2_all_sieves_site.category)
    assert isotropy_group(one, bz2_all_sieves_site, method="full").order == 1


def test_isotropy_group_laws_exhaustively(bz4_site, sierpinski_site):
    for site in (bz4_site, sierpinski_site):
        for _, sheaf in small_catalogue(site):
            group = isotropy_group(sheaf, site, method="full")
            assert group_law_violations(group) == []


def test_fast_path_equals_definitional(bz4_site, sierpinski_site, opens_d_site):
    # Every method is one enumeration.  On these sites the pure hypotheses
    # hold, and the group lists the generator-image families that the pure
    # oracle finds, in its order.
    for site in (bz4_site, sierpinski_site, opens_d_site):
        assert pure_hypotheses(site)
        for _, sheaf in small_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            want = [m.components for m in oracle_enumerate_members(ctx, True)]
            for method in ("auto", "full", "pure"):
                group = isotropy_group(sheaf, site, method, ctx)
                assert [m.components for m in group.elements] == want


def test_pure_method_requires_hypotheses(bz2_all_sieves_site):
    one = terminal_presheaf(bz2_all_sieves_site.category)
    with pytest.raises(HypothesisViolationError):
        isotropy_group(one, bz2_all_sieves_site, method="pure")


def test_centre_embedding_identity_is_generic(bz4_site):
    y = representable(bz4_site.category, "*")
    ctx = IsotropyContext(y, bz4_site)
    cat = bz4_site.category
    identity = CentreElement(tuple(cat.identity))
    family = centre_embedding(bz4_site, y, identity, ctx)
    assert family.components == (ctx.extensions[0].generic["x"],)


def test_centre_embedding_is_group_isomorphism(bz4_site):
    y = representable(bz4_site.category, "*")
    ctx = IsotropyContext(y, bz4_site)
    group = isotropy_group(y, bz4_site, method="full", ctx=ctx)
    centre_group = centre(bz4_site.category)
    mapping = {
        psi: centre_embedding(bz4_site, y, psi, ctx)
        for psi in centre_group.elements
    }
    assert {m.components for m in mapping.values()} == {
        m.components for m in group.elements
    }
    for a in centre_group.elements:
        for b in centre_group.elements:
            ab = centre_group.multiply(a, b)
            left = mapping[ab].components
            ga = next(m for m in group.elements if m.components == mapping[a].components)
            gb = next(m for m in group.elements if m.components == mapping[b].components)
            assert group.multiply(ga, gb).components == left
    assert find_group_isomorphism(centre_group, group) is not None


def test_membership_of_each_embedded_centre_element(subcanonical_sites):
    for site in subcanonical_sites.values():
        sheaf = small_catalogue(site)[0][1]
        ctx = IsotropyContext(sheaf, site)
        for psi in centre(site.category).elements:
            family = centre_embedding(site, sheaf, psi, ctx)
            assert check_membership(sheaf, site, family, ctx).member


def test_is_inner_identity(bz4_site):
    y = representable(bz4_site.category, "*")
    psi = is_inner(y, identity_map(y), bz4_site)
    assert psi is not None
    assert psi.components == tuple(bz4_site.category.identity)


def test_is_inner_translation(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    g = cat.morphism_id("g2")
    gamma = PresheafMap(y, y, {0: {e: y.act(g, e) for e in y.sets[0]}})
    psi = is_inner(y, gamma, bz4_site)
    assert psi is not None and psi.components == (g,)


def test_left_translation_on_bs3_is_not_inner(bs3_site):
    cat = bs3_site.category
    y = representable(cat, "*")
    g = cat.morphism_id("p102")
    # Left translation h |-> g∘h is a sheaf endomorphism (it commutes with
    # the right-translation actions) but corresponds to no centre element.
    gamma = PresheafMap(
        y, y, {0: {e: cat.name(cat.comp[(g, cat.morphism_id(e))]) for e in y.sets[0]}}
    )
    check_presheaf_map(gamma)
    assert is_inner(y, gamma, bs3_site) is None


def test_is_inner_needs_subcanonical(bz2_all_sieves_site):
    one = terminal_presheaf(bz2_all_sieves_site.category)
    with pytest.raises(HypothesisViolationError):
        is_inner(one, identity_map(one), bz2_all_sieves_site)


def test_extended_action_identity(bz4_site):
    y = representable(bz4_site.category, "*")
    identity = CentreElement(tuple(bz4_site.category.identity))
    action = extended_action(identity, identity_map(y))
    assert action == identity_map(y)


def test_extended_action_naturality_square(bz4_site):
    # For any second map, acting after it equals it after acting.
    site = bz4_site
    cat = site.category
    sheaves = [sheaf for _, sheaf in small_catalogue(site)]
    centre_group = centre(cat)
    for psi in centre_group.elements:
        for f_ in sheaves:
            for g_ in sheaves:
                for theta in nat_transformations(f_, g_):
                    left = theta.then(extended_action(psi, theta))
                    right = extended_action(psi, identity_map(f_)).then(theta)
                    assert left == right


def test_extended_action_recovers_inner(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    for psi in centre(cat).elements:
        action = extended_action(psi, identity_map(y))
        assert is_inner(y, action, bz4_site) is not None


def test_dense_extension_identity(bz4_site):
    cat = bz4_site.category
    ayc = ayc_category(cat, bz4_site.topology)
    identity = CentreElement(tuple(ayc.category.identity))
    y = representable(cat, "*")
    assert dense_extension(ayc, identity, y) == identity_map(y)


def test_dense_extension_matches_extended_action_on_subcanonical(bz4_site):
    cat = bz4_site.category
    ayc = ayc_category(cat, bz4_site.topology)
    ayc_centre = centre(ayc.category)
    site_centre = centre(cat)
    y = representable(cat, "*")
    # Match each ayc centre element with a site centre element through the
    # componentwise action and compare the two extensions.
    matched = 0
    for beta in ayc_centre.elements:
        twist = dense_extension(ayc, beta, y)
        for psi in site_centre.elements:
            if extended_action(psi, identity_map(y)) == twist:
                matched += 1
                break
    assert matched == ayc_centre.order == site_centre.order


def test_dense_extension_is_natural_and_iso(bz4_site):
    cat = bz4_site.category
    ayc = ayc_category(cat, bz4_site.topology)
    sheaves = [sheaf for _, sheaf in small_catalogue(bz4_site)]
    for beta in centre(ayc.category).elements:
        twists = [dense_extension(ayc, beta, sheaf) for sheaf in sheaves]
        for twist in twists:
            assert twist.is_bijective()
        for i, f_ in enumerate(sheaves):
            for j, g_ in enumerate(sheaves):
                for theta in nat_transformations(f_, g_):
                    assert twists[i].then(theta) == theta.then(twists[j])


def test_verify_main_theorem_bz4(bz4_site):
    report = verify_main_theorem(bz4_site)
    assert report["violations"] == []
    assert report["centre_order"] == 4
    assert report["ayc_centre_order"] == 4
    assert all(e["isotropy_order"] == 4 for e in report["per_sheaf"])


@pytest.mark.parametrize(
    "build, order",
    [(lambda: trivial_site(cyclic_group_category(32)), 32), (lambda: cylinder_cover_site(16), 16)],
    ids=["bz32", "cyl16"],
)
def test_verify_main_theorem_on_heavy_sites(build, order):
    # Centres and isotropy groups of order 16 and 32, where the group laws
    # and the isomorphisms are checked on generators only.
    report = verify_main_theorem(build())
    assert report["violations"] == []
    assert report["centre_order"] == report["ayc_centre_order"] == order
    assert all(e["isotropy_order"] == order for e in report["per_sheaf"])


def test_verify_main_theorem_opens(opens_site):
    report = verify_main_theorem(opens_site)
    assert report["violations"] == []
    assert report["centre_order"] == 1
    assert report["restricted_centre_order"] == 1
    assert report["empty_cover_objects"] == ["O"]
    assert all(e["isotropy_order"] == 1 for e in report["per_sheaf"])


def test_verify_main_theorem_non_subcanonical_gap(bz2_all_sieves_site):
    report = verify_main_theorem(bz2_all_sieves_site)
    assert report["violations"] == []
    assert report["centre_order"] == 2
    assert report["ayc_centre_order"] == 1
    assert all(e["isotropy_order"] == 1 for e in report["per_sheaf"])


def test_auto_catalogue_contents(bz4_site):
    names = [name for name, _ in auto_catalogue(bz4_site)]
    assert names[0] == "a(y *)"
    assert "terminal" in names
    assert any(name.startswith("a(a(y *) + ") for name in names)


def test_verify_main_theorem_on_gluing_site(diamond_site):
    # Two-legged covers make amalgamation genuinely binary; the theorem
    # must still hold with trivial centres everywhere.
    report = verify_main_theorem(diamond_site)
    assert report["violations"] == []
    assert report["centre_order"] == report["ayc_centre_order"] == 1
    assert report["empty_cover_objects"] == ["O"]
    assert all(e["isotropy_order"] == 1 for e in report["per_sheaf"])


def test_verify_main_theorem_multi_object_nontrivial_centre():
    # The cylinder couples two endomorphism groups through cross arrows;
    # its centre is the diagonal, and every sheaf's isotropy matches it.
    from finsite.standard import cyclic_cylinder_category, trivial_site

    site = trivial_site(cyclic_cylinder_category(2))
    report = verify_main_theorem(site)
    assert report["violations"] == []
    assert report["centre_order"] == report["ayc_centre_order"] == 2
    assert all(e["isotropy_order"] == 2 for e in report["per_sheaf"])


def test_verify_main_theorem_non_subcanonical_without_empty_covers():
    # Covering the far cylinder object by the cross arrows breaks
    # subcanonicity while keeping every cover inhabited; the comparison
    # must route through the sheafified representables and still verify.
    from finsite.presheaf import is_subcanonical
    from finsite.site import empty_cover_objects
    from finsite.standard import cylinder_cover_site

    site = cylinder_cover_site(2)
    assert not is_subcanonical(site.category, site.topology)[0]
    assert empty_cover_objects(site.category, site.topology) == []
    report = verify_main_theorem(site)
    assert report["violations"] == []
    assert report["centre_order"] == 2
    assert report["ayc_centre_order"] == 2
    assert all(e["isotropy_order"] == 2 for e in report["per_sheaf"])


def test_isotropy_matches_group_centre_on_nonabelian_groups():
    from finsite.standard import (
        dihedral_group_category_order8,
        quaternion_group_category,
        trivial_site,
    )

    for builder in (dihedral_group_category_order8, quaternion_group_category):
        site = trivial_site(builder())
        y = representable(site.category, "*")
        group = isotropy_group(y, site, method="full")
        assert group.order == centre(site.category).order == 2


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_verify_main_theorem_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    site = Site(cat, data.draw(topologies_on(cat)))
    assert verify_main_theorem(site, method="full")["violations"] == []


def test_a_theorem_violation_is_reported_once(bz4_site, monkeypatch):
    # Swapping the dense-extension images of two centre elements keeps a
    # bijection onto isotropy but breaks many products at once.
    real = isotropy_module.dense_extension

    def swapped(ayc, beta, carrier):
        elements = centre(ayc.category).elements
        i = elements.index(beta)
        return real(ayc, elements[{1: 2, 2: 1}.get(i, i)], carrier)

    monkeypatch.setattr(isotropy_module, "dense_extension", swapped)
    y = representable(bz4_site.category, "*")
    report = verify_main_theorem(bz4_site, [("y", y)])
    assert report["violations"] == ["sheaf 'y': dense extension is not a homomorphism"]


def swap_centre_elements(cat, psi):
    """psi with the centre's elements 1 and 2 exchanged: a bijection of the
    centre of BZ4 that is not an automorphism."""
    elements = centre(cat).elements
    i = elements.index(psi)
    return elements[{1: 2, 2: 1}.get(i, i)]


def test_a_transfer_that_is_not_a_homomorphism_is_reported_once(bz4_site, monkeypatch):
    real = isotropy_module._transfer
    monkeypatch.setattr(
        isotropy_module,
        "_transfer",
        lambda cat, ayc, psi: real(cat, ayc, swap_centre_elements(cat, psi)),
    )
    y = representable(bz4_site.category, "*")
    report = verify_main_theorem(bz4_site, [("y", y)])
    assert report["violations"] == [
        "the centre transfer onto the sheafified-representable category is not a homomorphism"
    ]


def test_an_embedding_that_is_not_a_homomorphism_is_reported_once(bz4_site, monkeypatch):
    real = isotropy_module.centre_embedding
    monkeypatch.setattr(
        isotropy_module,
        "centre_embedding",
        lambda site, sheaf, psi, ctx: real(
            site, sheaf, swap_centre_elements(site.category, psi), ctx
        ),
    )
    y = representable(bz4_site.category, "*")
    report = verify_main_theorem(bz4_site, [("y", y)])
    assert report["violations"] == ["sheaf 'y': the centre embedding is not a homomorphism"]


FRESH_SITES = {
    "bz4_site": lambda: trivial_site(cyclic_group_category(4)),
    "opens_site": sierpinski_space_site,
    "diamond_site": discrete_two_space_site,
}


@pytest.mark.parametrize("name", sorted(FRESH_SITES))
def test_verify_main_theorem_sheafifies_each_representable_once(name, monkeypatch):
    # A fresh site, because the session fixtures keep their memo across
    # tests.  ayc_category builds each a(y x); the catalogue's own
    # sheafification of y(x) is a memo hit that returns that very sheaf.
    site = FRESH_SITES[name]()
    cat = site.category
    results = {}
    for fn in ("ayc_category", "auto_catalogue"):

        def spy(*args, real=getattr(isotropy_module, fn), fn=fn):
            results[fn] = real(*args)
            return results[fn]

        monkeypatch.setattr(isotropy_module, fn, spy)
    report = verify_main_theorem(site, method="full")
    assert report["violations"] == []
    inputs = [base for base, _ in plus_builds(site.topology)]
    for x in range(len(cat.objects)):
        y = representable(cat, x)
        assert sum(base == y for base in inputs) == 1
        assert results["auto_catalogue"][x][1] is results["ayc_category"].sheaves[x]
