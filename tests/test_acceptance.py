"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact because all structures are finite.
"""

import time

import pytest

from finsite.fincat import centre, full_subcategory
from finsite.groups import find_group_isomorphism, group_law_violations
from finsite.errors import NotAModelError
from finsite.freeext import free_extension, normal_form, reamalgamate, subst_map, as_generator
from finsite.isotropy import (
    IsotropyContext,
    auto_catalogue,
    centre_embedding,
    isotropy_group,
    verify_main_theorem,
)
from finsite.phl import (
    PartialStructure,
    satisfies,
    sheaf_theory,
    sheaf_to_model,
    model_to_sheaf,
    sigma_symbol,
)
from finsite.presheaf import (
    SheafStatus,
    coproduct,
    coproduct_many,
    plus_construction,
    representable,
    sheaf_status,
    sheafify,
    terminal_presheaf,
)

from conftest import pure_hypotheses
from oracles import oracle_enumerate_members, oracle_group_centre


def test_acceptance_1_centre_oracle(group_sites):
    start = time.monotonic()
    for name, site in group_sites.items():
        cat = site.category
        elements = [m.name for m in cat.morphisms]

        def multiply(a, b):
            return cat.name(cat.comp[(cat.morphism_id(a), cat.morphism_id(b))])

        oracle = oracle_group_centre(elements, multiply)
        assert centre(cat).order == len(oracle), name
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"centre oracle took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 PASS: centre matches the group-centre oracle on 7 groups ({elapsed:.2f}s)")


def test_acceptance_2_main_theorem_subcanonical(subcanonical_sites):
    assert len(subcanonical_sites) >= 4
    for name, site in subcanonical_sites.items():
        start = time.monotonic()
        centre_group = centre(site.category)
        for sheaf_name, sheaf in auto_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            group = isotropy_group(sheaf, site, method="full", ctx=ctx)
            embedded = {}
            for psi in centre_group.elements:
                family = centre_embedding(site, sheaf, psi, ctx)
                embedded[psi] = family
                assert any(
                    member.components == family.components
                    for member in group.elements
                ), (name, sheaf_name, psi)
            images = {family.components for family in embedded.values()}
            assert len(images) == centre_group.order, (name, sheaf_name)
            assert images == {m.components for m in group.elements}, (name, sheaf_name)
            for a in centre_group.elements:
                for b in centre_group.elements:
                    ab = centre_group.multiply(a, b)
                    ga = next(
                        m for m in group.elements if m.components == embedded[a].components
                    )
                    gb = next(
                        m for m in group.elements if m.components == embedded[b].components
                    )
                    assert (
                        group.multiply(ga, gb).components == embedded[ab].components
                    ), (name, sheaf_name)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
    print("ACCEPTANCE 2 PASS: isotropy = centre via the embedding on "
          f"{len(subcanonical_sites)} subcanonical sites, element by element")


def test_acceptance_3_empty_cover_case(opens_site):
    site = opens_site
    cat = site.category
    centre_c = centre(cat)
    sub = full_subcategory(cat, ["U", "X"])
    centre_d = centre(sub)
    assert centre_c.order == centre_d.order == 1
    assert find_group_isomorphism(centre_c, centre_d) is not None
    for _, sheaf in auto_catalogue(site):
        assert isotropy_group(sheaf, site, method="full").order == 1
    print("ACCEPTANCE 3 PASS: empty-covered site has matching centres and trivial isotropy")


def test_acceptance_4_non_subcanonical_gap(bz2_all_sieves_site):
    report = verify_main_theorem(bz2_all_sieves_site, method="full")
    assert report["centre_order"] == 2
    assert report["ayc_centre_order"] == 1
    assert all(entry["isotropy_order"] == 1 for entry in report["per_sheaf"])
    assert report["violations"] == []
    print("ACCEPTANCE 4 PASS: all-sieves site shows the non-subcanonical gap 2 vs 1")


def test_acceptance_5_free_extension_structure_suites(subcanonical_sites):
    checked = 0
    for name, site in subcanonical_sites.items():
        cat = site.category
        catalogue = auto_catalogue(site)
        sheaves = [sheaf for _, sheaf in catalogue]
        # (a) coproducts of sheaves are never non-separated.
        for f_ in sheaves:
            for g_ in sheaves:
                total, _, _ = coproduct(f_, g_)
                assert sheaf_status(total, site.topology) is not SheafStatus.NOT_SEPARATED
                checked += 1
        for _, sheaf in catalogue:
            for c in range(len(cat.objects)):
                ext = free_extension(sheaf, site, [("x", c)])
                for d in range(len(cat.objects)):
                    # (b) generator images are injective on each hom-set.
                    images = [
                        ext.carrier.act(f, ext.generic["x"]) for f in cat.hom_ids(d, c)
                    ]
                    assert len(set(images)) == len(images), (name, c, d)
                    # (c) no generator image equals a constant image.
                    inserted = set(ext.insert.components[d].values())
                    assert not (set(images) & inserted), (name, c, d)
                    # (d) normal forms cover the whole carrier and rebuild it.
                    for e in ext.carrier.sets[d]:
                        nf = normal_form(ext, d, e)
                        assert reamalgamate(ext, d, nf) == e, (name, c, d, e)
                        checked += 1
                # (e) right-invertible elements are pure.
                elems = ext.carrier.sets[c]
                substs = {
                    s: subst_map(ext, ext.carrier, ext.insert, {"x": s}) for s in elems
                }
                for e in elems:
                    if any(substs[s].apply(c, e) == ext.generic["x"] for s in elems):
                        assert as_generator(ext, c, e) is not None, (name, c, e)
                        checked += 1
    print(
        "ACCEPTANCE 5 PASS: free-extension structure suites a-e hold with "
        f"zero violations ({checked} checks)"
    )


def test_acceptance_6_plus_construction(
    subcanonical_sites, opens_site, bz2_all_sieves_site
):
    sites = list(subcanonical_sites.values()) + [opens_site, bz2_all_sieves_site]
    saw_non_bijective = False
    for site in sites:
        cat = site.category
        presheaves = [representable(cat, x) for x in range(len(cat.objects))]
        presheaves.append(terminal_presheaf(cat))
        presheaves.append(coproduct_many(presheaves[:2] or presheaves)[0])
        for presheaf in presheaves:
            plus, _ = plus_construction(presheaf, site.topology)
            assert sheaf_status(plus, site.topology) is not SheafStatus.NOT_SEPARATED
            double, unit = sheafify(presheaf, site.topology)
            assert sheaf_status(double, site.topology) is SheafStatus.SHEAF
            was_sheaf = sheaf_status(presheaf, site.topology) is SheafStatus.SHEAF
            assert unit.is_bijective() == was_sheaf
            saw_non_bijective |= not was_sheaf
    assert saw_non_bijective, "catalogue never exercised a non-sheaf input"
    print("ACCEPTANCE 6 PASS: plus gives separated, double plus gives sheaves, "
          "unit bijective exactly on sheaves")


def test_acceptance_7_model_dictionary(subcanonical_sites, bz2_all_sieves_site):
    for name, site in subcanonical_sites.items():
        theory = sheaf_theory(site.category, site.topology)
        for sheaf_name, sheaf in auto_catalogue(site):
            model = sheaf_to_model(sheaf, site.topology)
            for axiom in theory:
                ok, env = satisfies(model, axiom)
                assert ok, (name, sheaf_name, axiom.label, env)
            assert model_to_sheaf(model, site.category, site.topology) == sheaf
    # Terminal sheaf on the all-sieves site.
    one = terminal_presheaf(bz2_all_sieves_site.category)
    model = sheaf_to_model(one, bz2_all_sieves_site.topology)
    for axiom in sheaf_theory(bz2_all_sieves_site.category, bz2_all_sieves_site.topology):
        assert satisfies(model, axiom)[0]
    # A deliberately corrupted model fails with a witness.
    site = subcanonical_sites["BZ4-trivial"]
    y = representable(site.category, "*")
    model = sheaf_to_model(y, site.topology)
    cover = site.topology.covers_of(0)[0]
    symbol = sigma_symbol(site.category, cover)
    operations = dict(model.operations)
    table = dict(operations[symbol])
    key = next(iter(table))
    table[key] = "g1" if table[key] == "g0" else "g0"
    operations[symbol] = table
    broken = PartialStructure(model.signature, model.carriers, operations)
    with pytest.raises(NotAModelError) as err:
        model_to_sheaf(broken, site.category, site.topology)
    assert err.value.witness is not None
    failures = [
        (axiom.label, env)
        for axiom in sheaf_theory(site.category, site.topology)
        for ok, env in [satisfies(broken, axiom)]
        if not ok
    ]
    assert failures and all(env is not None for _, env in failures)
    print("ACCEPTANCE 7 PASS: sheaf models satisfy the theory, round trips are "
          "identities, corruption is caught with witnesses")


def test_acceptance_8_group_laws_and_fast_path(bz4_site, sierpinski_site, opens_d_site):
    # The one enumeration, on sites where the pure hypotheses hold, lists
    # exactly the generator-image families the pure oracle finds, in order.
    pure_sites = 0
    for site in (bz4_site, sierpinski_site, opens_d_site):
        assert pure_hypotheses(site)
        for _, sheaf in auto_catalogue(site):
            ctx = IsotropyContext(sheaf, site)
            group = isotropy_group(sheaf, site, method="full", ctx=ctx)
            assert group_law_violations(group) == []
            assert [m.components for m in group.elements] == [
                m.components for m in oracle_enumerate_members(ctx, True)
            ]
        pure_sites += 1
    assert pure_sites >= 2
    print("ACCEPTANCE 8 PASS: isotropy group laws hold; the group equals the "
          f"pure-family oracle on {pure_sites} sites")
