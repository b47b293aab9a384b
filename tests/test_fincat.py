"""Category validation, hom-sets, centres, subcategories."""

from dataclasses import FrozenInstanceError, fields

import pytest

from finsite.errors import CategoryInvalidError, UnknownObjectError
from finsite.fincat import (
    centre,
    full_subcategory,
    hom_set,
    initial_objects,
    validate_category,
)
from finsite.groups import group_law_violations
from finsite.standard import (
    cyclic_group_category,
    sierpinski_opens_poset,
    sierpinski_poset,
    symmetric_group_category,
)

from oracles import oracle_group_centre


def bz4_description():
    objects = ["*"]
    morphisms = [(f"g{i}", "*", "*") for i in range(4)]
    identities = {"*": "g0"}
    composition = [
        (f"g{i}", f"g{j}", f"g{(i + j) % 4}") for i in range(4) for j in range(4)
    ]
    return objects, morphisms, identities, composition


def test_validate_bz4_group_table():
    cat = validate_category(*bz4_description())
    assert len(cat.morphisms) == 4
    assert cat.comp[(cat.morphism_id("g2"), cat.morphism_id("g3"))] == cat.morphism_id("g1")


def test_a_category_is_frozen_and_unhashable():
    cat = validate_category(*bz4_description())
    for field in fields(cat):
        with pytest.raises(FrozenInstanceError):
            setattr(cat, field.name, None)
    with pytest.raises(FrozenInstanceError):
        cat._obj_index = {}
    with pytest.raises(TypeError):
        hash(cat)
    assert cat == validate_category(*bz4_description())
    assert cat.object_id("*") == 0 and cat.hom_ids(0, 0) == (0, 1, 2, 3)


def test_validate_sierpinski_poset():
    cat = validate_category(
        ["0", "1"],
        [("id_0", "0", "0"), ("id_1", "1", "1"), ("a", "0", "1")],
        {"0": "id_0", "1": "id_1"},
        [],
    )
    assert hom_set(cat, "0", "1") == ["a"]


def test_corrupted_composition_reports_associativity_triple():
    objects, morphisms, identities, composition = bz4_description()
    # Corrupt g1∘g1: should be g2.
    composition = [
        (g, f, "g1") if (g, f) == ("g1", "g1") else (g, f, gf)
        for g, f, gf in composition
    ]
    with pytest.raises(CategoryInvalidError) as err:
        validate_category(objects, morphisms, identities, composition)
    kinds = {v.kind for v in err.value.violations}
    assert "associativity" in kinds
    witnesses = {v.witnesses for v in err.value.violations if v.kind == "associativity"}
    assert any("g1" in w for w in witnesses)


def test_missing_composite_is_a_gap():
    objects, morphisms, identities, composition = bz4_description()
    composition = [t for t in composition if t[:2] != ("g1", "g2")]
    with pytest.raises(CategoryInvalidError) as err:
        validate_category(objects, morphisms, identities, composition)
    assert any(v.kind == "composition-gap" for v in err.value.violations)


def test_dangling_reference():
    with pytest.raises(CategoryInvalidError) as err:
        validate_category(["A"], [("f", "A", "B")], {"A": "f"}, [])
    assert any(v.kind == "dangling-reference" for v in err.value.violations)


def test_hom_sets():
    sp = sierpinski_poset()
    assert hom_set(sp, "0", "1") == ["0<=1"]
    assert hom_set(sp, "1", "0") == []
    bz4 = cyclic_group_category(4)
    assert len(hom_set(bz4, "*", "*")) == 4
    with pytest.raises(UnknownObjectError):
        hom_set(sp, "0", "2")


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_centre_matches_group_centre_oracle(group_sites, name):
    site = group_sites[name]
    cat = site.category
    elements = [m.name for m in cat.morphisms]

    def multiply(a, b):
        return cat.name(cat.comp[(cat.morphism_id(a), cat.morphism_id(b))])

    oracle = oracle_group_centre(elements, multiply)
    assert centre(cat).order == len(oracle)


def test_centre_of_poset_is_trivial():
    assert centre(sierpinski_poset()).order == 1
    assert centre(sierpinski_opens_poset()).order == 1


def test_centre_naturality_and_group_laws():
    cat = cyclic_group_category(4)
    group = centre(cat)
    assert group_law_violations(group) == []
    for psi in group.elements:
        for f in range(len(cat.morphisms)):
            m = cat.morphisms[f]
            assert cat.comp[(f, psi.components[m.dom])] == cat.comp[(psi.components[m.cod], f)]
    identity_family = tuple(cat.identity)
    assert any(psi.components == identity_family for psi in group.elements)


def test_centre_of_bs3_is_trivial():
    assert centre(symmetric_group_category(3)).order == 1


def test_centre_of_cylinder_is_diagonal():
    from finsite.standard import cyclic_cylinder_category

    for n in (2, 3):
        cat = cyclic_cylinder_category(n)
        group = centre(cat)
        assert group.order == n
        for psi in group.elements:
            a_component = cat.name(psi.components[cat.object_id("A")])
            b_component = cat.name(psi.components[cat.object_id("B")])
            assert a_component[1:] == b_component[1:]


def test_full_subcategory():
    sp = sierpinski_poset()
    sub = full_subcategory(sp, ["1"])
    assert sub.objects == ("1",)
    assert len(sub.morphisms) == 1

    whole = full_subcategory(sp, ["0", "1"])
    assert whole.objects == sp.objects
    assert len(whole.morphisms) == len(sp.morphisms)

    opens = sierpinski_opens_poset()
    two = full_subcategory(opens, ["U", "X"])
    assert two.objects == ("U", "X")
    assert len(two.morphisms) == 3

    with pytest.raises(UnknownObjectError):
        full_subcategory(sp, ["no-such"])


def test_initial_objects():
    assert initial_objects(sierpinski_opens_poset()) == ["O"]
    assert initial_objects(sierpinski_poset()) == ["0"]
    assert initial_objects(cyclic_group_category(4)) == []
