"""Free extensions: denotation, substitution, normal forms, purity."""

import pytest

from finsite import freeext as freeext_module
from finsite import phl as phl_module
from finsite.errors import HypothesisViolationError, ParseError, SortMismatchError
from finsite.freeext import (
    _sieve_extension,
    alpha,
    as_generator,
    decide_equal,
    denote,
    free_extension,
    gen,
    normal_form,
    parse_term,
    reamalgamate,
    subst_at,
    subst_map,
)
from finsite.presheaf import (
    coproduct,
    representable,
    sheaf_status,
    SheafStatus,
    terminal_presheaf,
)
from finsite.site import maximal_sieve
from finsite.standard import (
    cyclic_group_category,
    sierpinski_poset,
    sierpinski_space_site,
    trivial_site,
)

from conftest import small_catalogue
from oracles import find_isomorphism


@pytest.fixture(scope="module")
def bz4_ext():
    site = trivial_site(cyclic_group_category(4))
    y = representable(site.category, "*")
    return site, y, free_extension(y, site, [("x", "*")])


def test_free_extension_rejects_non_sheaf_base(bz2_all_sieves_site):
    from finsite.errors import NotASheafError

    y = representable(bz2_all_sieves_site.category, "*")
    with pytest.raises(NotASheafError):
        free_extension(y, bz2_all_sieves_site, [("x", "*")])


def test_free_extension_builds_one_sheaf_signature(monkeypatch):
    # The extended signature reuses the carrier structure's signature, and
    # the carrier structures of every free extension on one site share one
    # signature, kept on the topology.  The site is fresh, so its cache
    # starts empty.  Patched in both modules, so a copy imported by name is
    # counted too.
    site = sierpinski_space_site()
    calls = []
    real = phl_module.sheaf_signature

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(phl_module, "sheaf_signature", counting)
    monkeypatch.setattr(freeext_module, "sheaf_signature", counting, raising=False)
    extensions = [
        free_extension(sheaf, site, [("x", 0), ("y", 1)])
        for _, sheaf in small_catalogue(site)
    ]
    assert len(extensions) > 1 and len(calls) == 1
    base = real(site.category, site.topology).functions
    for ext in extensions:
        assert ext.signature.functions[: len(base)] == base


def test_carrier_size_is_base_plus_group(bz4_ext):
    site, y, ext = bz4_ext
    assert len(ext.carrier.sets[0]) == len(y.sets[0]) + len(site.category.morphisms)
    assert sheaf_status(ext.carrier, site.topology) is SheafStatus.SHEAF


def test_no_generators_is_isomorphic_to_base(bz4_ext):
    site, y, _ = bz4_ext
    ext0 = free_extension(y, site, [])
    assert ext0.insert.is_bijective()
    assert find_isomorphism(ext0.carrier, y) is not None


def test_all_sieves_extension_is_terminal(bz2_all_sieves_site):
    site = bz2_all_sieves_site
    one = terminal_presheaf(site.category)
    ext = free_extension(one, site, [("x", "*")])
    assert all(len(v) == 1 for v in ext.carrier.sets.values())


def test_denote_identity_action(bz4_ext):
    _, _, ext = bz4_ext
    assert decide_equal(ext, parse_term(ext, "(alpha g0 x)"), parse_term(ext, "x"))


def test_denote_composite_action(bz4_ext):
    site, _, ext = bz4_ext
    cat = site.category
    # comp(g, f) applied contravariantly: restricting along the composite
    # equals restricting along g then along f.
    for g in range(len(cat.morphisms)):
        for f in range(len(cat.morphisms)):
            gf = cat.comp[(g, f)]
            t1 = alpha(cat, cat.name(gf), gen("x"))
            t2 = alpha(cat, cat.name(f), alpha(cat, cat.name(g), gen("x")))
            assert decide_equal(ext, t1, t2)


def test_denote_sigma_on_non_matching_tuple_is_undefined(bz4_ext):
    site, _, ext = bz4_ext
    cat = site.category
    cover = site.topology.covers_of(0)[0]
    from finsite.freeext import sigma

    args = tuple(gen("x") for _ in cover.sorted_members())
    assert denote(ext, sigma(cat, cover, args)) is None


def test_decide_equal_requires_same_sort(opens_site):
    y = representable(opens_site.category, "X")
    ext = free_extension(y, opens_site, [("x", "X")])
    u_elem = ext.carrier.sets[opens_site.category.object_id("U")]
    t1 = parse_term(ext, "x")
    t2 = alpha(opens_site.category, "U<=X", gen("x"))
    with pytest.raises(SortMismatchError):
        decide_equal(ext, t1, t2)


def test_generator_not_equal_to_constants(bz4_ext):
    _, y, ext = bz4_ext
    for a in y.sets[0]:
        assert not decide_equal(ext, gen("x"), parse_term(ext, f"(c {a})"))


def test_partial_reflexivity(bz4_ext):
    site, _, ext = bz4_ext
    cat = site.category
    cover = site.topology.covers_of(0)[0]
    from finsite.freeext import sigma

    bad = sigma(cat, cover, tuple(gen("x") for _ in cover.sorted_members()))
    assert not decide_equal(ext, bad, bad)
    good = parse_term(ext, "x")
    assert decide_equal(ext, good, good)


def test_subst_identity_points(bz4_ext):
    _, _, ext = bz4_ext
    u = subst_map(ext, ext.carrier, ext.insert, {"x": ext.generic["x"]})
    for x, elems in ext.carrier.sets.items():
        for e in elems:
            assert u.apply(x, e) == e


def test_subst_sends_tagged_elements_by_translation(bz4_ext):
    site, y, ext = bz4_ext
    cat = site.category
    point = ext.insert.apply(0, "g2")
    u = subst_map(ext, ext.carrier, ext.insert, {"x": point})
    for f in range(len(cat.morphisms)):
        image = u.apply(0, ext.carrier.act(f, ext.generic["x"]))
        assert image == ext.carrier.act(f, point)


def test_subst_composition_agrees_with_sequential(bz4_ext):
    _, _, ext = bz4_ext
    elems = ext.carrier.sets[0]
    for s in elems[:4]:
        for r in elems[:4]:
            u_s = subst_map(ext, ext.carrier, ext.insert, {"x": s})
            u_r = subst_map(ext, ext.carrier, ext.insert, {"x": r})
            u_sr = subst_map(ext, ext.carrier, ext.insert, {"x": u_r.apply(0, s)})
            for e in elems:
                assert u_r.apply(0, u_s.apply(0, e)) == u_sr.apply(0, e)


@pytest.fixture(scope="module")
def sierpinski_two_generators():
    # Generator x at 0 and y at 1 of the poset 0 <= 1; nothing maps 1 to 0,
    # so x has no level-zero element at 1.
    site = trivial_site(sierpinski_poset())
    return site, free_extension(representable(site.category, "1"), site, [("x", "0"), ("y", "1")])


def test_subst_refuses_points_that_are_not_exactly_the_generators(sierpinski_two_generators):
    _, ext = sierpinski_two_generators
    x, y = ext.generic["x"], ext.generic["y"]
    for points in ({}, {"x": x}, {"x": x, "z": y}, {"x": x, "y": y, "z": y}):
        with pytest.raises(SortMismatchError, match="points must cover exactly the generators"):
            subst_map(ext, ext.carrier, ext.insert, points)
        for obj in (0, 1):
            with pytest.raises(SortMismatchError, match="points must cover exactly the generators"):
                subst_at(ext, ext.carrier, ext.insert, points, obj)


def test_subst_refuses_a_point_that_is_not_an_element_at_its_generator(sierpinski_two_generators):
    site, ext = sierpinski_two_generators
    x, y = ext.generic["x"], ext.generic["y"]
    for points, message in (
        ({"x": "nowhere", "y": y}, "point for generator 'x' is not an element at '0'"),
        ({"x": x, "y": "nowhere"}, "point for generator 'y' is not an element at '1'"),
    ):
        with pytest.raises(SortMismatchError, match=message):
            subst_map(ext, ext.carrier, ext.insert, points)
        for obj in (0, 1):
            with pytest.raises(SortMismatchError, match=message):
                subst_at(ext, ext.carrier, ext.insert, points, obj)
    # Every element at 1 is read off a level-zero element at 1, none of
    # them x's, so the refusal of x's point at 1 is the up-front check.
    assert not site.category.hom_ids(1, 0)
    preimages = {
        e: d for e in ext.carrier.sets[1]
        if (d := ext.bundle.level0_preimage(1, e)) is not None
    }
    assert set(preimages) == set(ext.carrier.sets[1])
    assert not any(d.startswith("1:") for d in preimages.values())
    assert subst_at(ext, ext.carrier, ext.insert, {"x": x, "y": y}, 1) == {
        e: e for e in ext.carrier.sets[1]
    }


def test_normal_form_of_insert_is_constant_components(bz4_ext):
    site, y, ext = bz4_ext
    elem = ext.insert.apply(0, "g1")
    nf = normal_form(ext, 0, elem)
    assert nf.cover == maximal_sieve(site.category, 0)
    assert all(c.kind == "const" for c in nf.components.values())
    assert reamalgamate(ext, 0, nf) == elem


def test_normal_form_of_generic_is_generator_components(bz4_ext):
    site, _, ext = bz4_ext
    nf = normal_form(ext, 0, ext.generic["x"])
    assert all(c.kind == "generator" for c in nf.components.values())
    assert reamalgamate(ext, 0, nf) == ext.generic["x"]


def test_normal_form_total_on_gluing_site(diamond_site):
    # Free extension over a sheaf that glues: every element of every
    # carrier set must unwind to a cover-indexed normal form and rebuild.
    site = diamond_site
    cat = site.category
    two, _, _ = coproduct(terminal_presheaf(cat), terminal_presheaf(cat))
    from finsite.presheaf import sheafify

    glued, _ = sheafify(two, site.topology)
    x_obj = cat.object_id("X")
    ext = free_extension(glued, site, [("x", "a")])
    for d in range(len(cat.objects)):
        for e in ext.carrier.sets[d]:
            nf = normal_form(ext, d, e)
            assert site.topology.is_cover(nf.cover)
            assert reamalgamate(ext, d, nf) == e
    # At X some elements must amalgamate a constant leg with a generator leg.
    kinds_seen = set()
    for e in ext.carrier.sets[x_obj]:
        nf = normal_form(ext, x_obj, e)
        kinds = {c.kind for c in nf.components.values()}
        if len(kinds) == 2:
            kinds_seen = kinds
    assert kinds_seen == {"const", "generator"}


def test_normal_form_mixed_on_two_object_cover(opens_d_site):
    # On the restricted chain the maximal sieve on X has two members with
    # different domains, so families can mix constants and generator images.
    site = opens_d_site
    cat = site.category
    y = representable(cat, "X")
    ext = free_extension(y, site, [("x", "X")])
    kinds = set()
    x_obj = cat.object_id("X")
    for e in ext.carrier.sets[x_obj]:
        nf = normal_form(ext, x_obj, e)
        kinds |= {c.kind for c in nf.components.values()}
        assert reamalgamate(ext, x_obj, nf) == e
    assert kinds == {"const", "generator"}


def test_as_generator_examples(bz4_ext):
    site, y, ext = bz4_ext
    cat = site.category
    assert as_generator(ext, 0, ext.generic["x"]) == "g0"
    assert as_generator(ext, 0, ext.insert.apply(0, "g0")) is None
    images = {}
    for f in range(len(cat.morphisms)):
        e = ext.carrier.act(f, ext.generic["x"])
        assert as_generator(ext, 0, e) == cat.name(f)
        images[cat.name(f)] = e
    assert len(set(images.values())) == len(images)


def test_as_generator_needs_hypotheses(bz2_all_sieves_site):
    site = bz2_all_sieves_site
    one = terminal_presheaf(site.category)
    ext = free_extension(one, site, [("x", "*")])
    with pytest.raises(HypothesisViolationError):
        as_generator(ext, 0, ext.carrier.sets[0][0])


# -- exhaustive suites over the subcanonical catalogue -----------------------


def test_generator_image_injective_on_every_hom_set(subcanonical_sites):
    for site in subcanonical_sites.values():
        cat = site.category
        for _, sheaf in small_catalogue(site):
            for c in range(len(cat.objects)):
                ext = free_extension(sheaf, site, [("x", c)])
                for d in range(len(cat.objects)):
                    images = [
                        ext.carrier.act(f, ext.generic["x"])
                        for f in cat.hom_ids(d, c)
                    ]
                    assert len(set(images)) == len(images)


def test_generator_images_never_hit_constants(subcanonical_sites):
    for site in subcanonical_sites.values():
        cat = site.category
        for _, sheaf in small_catalogue(site):
            for c in range(len(cat.objects)):
                ext = free_extension(sheaf, site, [("x", c)])
                for d in range(len(cat.objects)):
                    inserted = set(ext.insert.components[d].values())
                    for f in cat.hom_ids(d, c):
                        assert ext.carrier.act(f, ext.generic["x"]) not in inserted


def test_normal_form_covers_every_carrier_element(subcanonical_sites, opens_site):
    sites = list(subcanonical_sites.values()) + [opens_site]
    for site in sites:
        cat = site.category
        for _, sheaf in small_catalogue(site):
            for c in range(len(cat.objects)):
                ext = free_extension(sheaf, site, [("x", c)])
                for d in range(len(cat.objects)):
                    for e in ext.carrier.sets[d]:
                        nf = normal_form(ext, d, e)
                        assert site.topology.is_cover(nf.cover)
                        assert reamalgamate(ext, d, nf) == e


def test_right_invertible_elements_are_pure(subcanonical_sites):
    for site in subcanonical_sites.values():
        cat = site.category
        for _, sheaf in small_catalogue(site):
            for c in range(len(cat.objects)):
                ext = free_extension(sheaf, site, [("x", c)])
                elems = ext.carrier.sets[c]
                substs = {
                    s: subst_map(ext, ext.carrier, ext.insert, {"x": s})
                    for s in elems
                }
                for e in elems:
                    if any(
                        substs[s].apply(c, e) == ext.generic["x"] for s in elems
                    ):
                        assert as_generator(ext, c, e) is not None


def test_initiality_on_axiom_instances(bz4_ext):
    # Instantiating the amalgamation axioms with the generic family must
    # produce provable equalities.
    site, _, ext = bz4_ext
    cat = site.category
    cover = site.topology.covers_of(0)[0]
    from finsite.freeext import sigma

    members = cover.sorted_members()
    family = tuple(alpha(cat, cat.name(f), gen("x")) for f in members)
    glued = sigma(cat, cover, family)
    assert decide_equal(ext, glued, gen("x"))
    for f, arg in zip(members, family):
        assert decide_equal(ext, alpha(cat, cat.name(f), glued), arg)


def test_sieve_extension_generic_family(bs3_site):
    y = representable(bs3_site.category, "*")
    cover = bs3_site.topology.covers_of(0)[0]
    sheaf, insert, generic, amalgam = _sieve_extension(y, bs3_site, cover)
    for f in cover.members:
        assert sheaf.act(f, amalgam) == generic[f]
    assert sheaf_status(sheaf, bs3_site.topology) is SheafStatus.SHEAF


def test_parse_term_reads_each_generator_by_name(sierpinski_two_generators):
    _, ext = sierpinski_two_generators
    for name in ("x", "y"):
        term = parse_term(ext, name)
        assert term == gen(name) and denote(ext, term) == ext.generic[name]


def test_parse_term_reads_the_empty_cover_of_its_one_object():
    # On the Sierpinski space only the empty open O is covered by the empty
    # sieve, and a sheaf has one element there.
    site = sierpinski_space_site()
    ext = free_extension(representable(site.category, "X"), site, [("x", "X")])
    term = parse_term(ext, "(sigma ())")
    assert (denote(ext, term),) == ext.carrier.sets[site.category.object_id("O")]


def test_parse_term_errors(bz4_ext):
    _, _, ext = bz4_ext
    with pytest.raises(ParseError):
        parse_term(ext, "(alpha nope x)")
    with pytest.raises(ParseError):
        parse_term(ext, "(c missing)")
    with pytest.raises(ParseError):
        parse_term(ext, "(sigma (g0) x)")
    with pytest.raises(ParseError):
        parse_term(ext, "((")
    with pytest.raises(ParseError):
        parse_term(ext, "x x")


def test_parse_term_qualified_constant(opens_site):
    one = terminal_presheaf(opens_site.category)
    ext = free_extension(one, opens_site, [("x", "X")])
    # "*" appears at every object, so the unqualified form is ambiguous.
    with pytest.raises(ParseError):
        parse_term(ext, "(c *)")
    term = parse_term(ext, "(c X *)")
    assert denote(ext, term) == ext.insert.apply(opens_site.category.object_id("X"), "*")
