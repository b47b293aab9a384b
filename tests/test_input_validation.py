"""Every input-validation rule, one table per validator.

Files and terms go through ``main``: a category that breaks a law makes
``validate --format json`` exit 1 with the violation listed, a presheaf
that is no functor exits 1 with ``invalid input:``, a malformed file exits
3 with ``error:``, and a malformed term given to ``normal-form --term``
exits 3.  A model of the sheaf theory whose restriction tables are no
presheaf, that lacks a symbol, or whose presheaf is no sheaf is refused
by ``model_to_sheaf`` with a typed witness.
"""

import json

import pytest

from finsite.cli import main
from finsite.errors import NotAModelError
from finsite.io import presheaf_to_dict, site_to_dict
from finsite.phl import PartialStructure, model_to_sheaf, sheaf_to_model, structure_from_presheaf
from finsite.presheaf import (
    MatchingFamily,
    coproduct,
    representable,
    sheafification,
    terminal_presheaf,
)
from finsite.site import Sieve
from finsite.standard import (
    cyclic_group_category,
    cylinder_cover_site,
    sierpinski_space_site,
    trivial_site,
)


def write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# -- categories ----------------------------------------------------------------

ARROWS = [("id_U", "U", "U"), ("id_X", "X", "X"), ("u", "U", "X")]
IDENTITIES = {"U": "id_U", "X": "id_X"}


def category(objects=("U", "X"), arrows=ARROWS, identities=IDENTITIES, composition=()):
    return {
        "objects": list(objects),
        "morphisms": [{"name": n, "dom": d, "cod": c} for n, d, c in arrows],
        "identities": dict(identities),
        "composition": [list(entry) for entry in composition],
    }


CATEGORY_VIOLATIONS = {
    "duplicate object": (
        category(objects=("U", "X", "U")), "duplicate-id", "duplicate object name"
    ),
    "duplicate morphism": (
        category(arrows=ARROWS + [("u", "U", "X")]), "duplicate-id", "duplicate morphism 'u'"
    ),
    "morphism to an undeclared object": (
        category(arrows=ARROWS + [("v", "U", "Y")]),
        "dangling-reference",
        "morphism 'v' references undeclared object",
    ),
    "identity of an undeclared object": (
        category(identities={**IDENTITIES, "Y": "id_U"}),
        "dangling-reference",
        "identity entry 'Y': 'id_U' references undeclared id",
    ),
    "identity that is no endomorphism": (
        category(identities={"U": "id_U", "X": "u"}),
        "identity-law",
        "identity of 'X' must be an endomorphism of it",
    ),
    "object without identity": (
        category(identities={"U": "id_U"}), "dangling-reference", "object 'X' has no identity"
    ),
    "composite of an undeclared morphism": (
        category(composition=[("u", "w", "u")]),
        "dangling-reference",
        "composition entry references undeclared morphism 'w'",
    ),
    "entry that is not composable": (
        category(composition=[("u", "u", "u")]),
        "composition-gap",
        "entry ('u', 'u') is not composable",
    ),
    "composite with the wrong ends": (
        category(composition=[("u", "id_U", "id_X")]),
        "composition-gap",
        "composite of ('u', 'id_U') has wrong dom/cod",
    ),
    "identity composite overridden": (
        category(arrows=ARROWS + [("v", "U", "X")], composition=[("u", "id_U", "v")]),
        "identity-law",
        "comp('u', 'id_U') must be 'u', got 'v'",
    ),
    "pair given two composites": (
        category(
            arrows=ARROWS + [("e", "U", "U"), ("v", "U", "X")],
            composition=[("e", "e", "e"), ("u", "e", "u"), ("u", "e", "v"), ("v", "e", "v")],
        ),
        "duplicate-id",
        "two composites for ('u', 'e'): 'u' and 'v'",
    ),
}


def test_a_repeated_identical_composite_is_accepted(tmp_path, capsys):
    data = category(
        arrows=ARROWS + [("e", "U", "U")],
        composition=[("e", "e", "e"), ("u", "e", "u"), ("u", "e", "u")],
    )
    assert main(["validate", write(tmp_path, "site.json", data), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


@pytest.mark.parametrize("case", sorted(CATEGORY_VIOLATIONS))
def test_every_category_law_violation_is_reported(case, tmp_path, capsys):
    data, kind, message = CATEGORY_VIOLATIONS[case]
    assert main(["validate", write(tmp_path, "site.json", data), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["valid"] is False
    assert {"kind": kind, "message": message} in report["violations"]


# -- presheaves ----------------------------------------------------------------

Y_BZ2 = {"g0": {"g0": "g0", "g1": "g1"}, "g1": {"g0": "g1", "g1": "g0"}}

PRESHEAF_VIOLATIONS = {
    "duplicate element": (
        {"*": ["g0", "g1", "g0"]}, Y_BZ2, "duplicate element id at '*'"
    ),
    "action that is not total": (
        {"*": ["g0", "g1"]},
        {**Y_BZ2, "g1": {"g0": "g1"}},
        "action of 'g1' is not total on its codomain set",
    ),
    "action to an undeclared element": (
        {"*": ["g0", "g1"]},
        {**Y_BZ2, "g1": {"g0": "g1", "g1": "zzz"}},
        "action of 'g1' sends 'g1' to undeclared 'zzz'",
    ),
    "identity that moves an element": (
        {"*": ["g0", "g1"]},
        {**Y_BZ2, "g0": {"g0": "g1", "g1": "g0"}},
        "identity action at '*' moves 'g0'",
    ),
}


@pytest.mark.parametrize("case", sorted(PRESHEAF_VIOLATIONS))
def test_every_presheaf_violation_is_invalid_input(case, tmp_path, capsys):
    sets, actions, message = PRESHEAF_VIOLATIONS[case]
    site = write(tmp_path, "site.json", site_to_dict(trivial_site(cyclic_group_category(2))))
    presheaf = write(tmp_path, "f.json", {"sets": sets, "actions": actions})
    assert main(["sheaf-check", site, presheaf]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: invalid presheaf:")
    assert message in captured.err


# -- files ---------------------------------------------------------------------

FILE_ERRORS = {
    "top level not an object": ("site", lambda d: [d], "top level must be an object"),
    "site without objects": (
        "site",
        lambda d: {k: v for k, v in d.items() if k != "objects"},
        "site file is missing 'objects'",
    ),
    "morphism with an extra field": (
        "site",
        lambda d: {**d, "morphisms": [{**d["morphisms"][0], "kind": "iso"}]},
        "each morphism needs exactly the fields name/dom/cod",
    ),
    "topology not an object": (
        "site", lambda d: {**d, "topology": []}, "topology must be an object"
    ),
    "unknown topology field": (
        "site",
        lambda d: {**d, "topology": {**d["topology"], "closed": True}},
        "unknown topology fields: ['closed']",
    ),
    "unknown presheaf field": (
        "presheaf", lambda d: {**d, "extra": 1}, "unknown presheaf fields: ['extra']"
    ),
    "presheaf without actions": (
        "presheaf", lambda d: {"sets": d["sets"]}, "presheaf file is missing 'actions'"
    ),
}


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_every_malformed_file_is_a_parse_error(case, tmp_path, capsys):
    site = trivial_site(cyclic_group_category(2))
    files = {
        "site": site_to_dict(site),
        "presheaf": presheaf_to_dict(representable(site.category, "*")),
    }
    which, corrupt, message = FILE_ERRORS[case]
    files[which] = corrupt(files[which])
    paths = [write(tmp_path, f"{name}.json", data) for name, data in files.items()]
    assert main(["sheaf-check", *paths]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


# -- terms ---------------------------------------------------------------------

# (site, term) -> message; BZ4 with y(*) has one element id per base element
# and no empty cover, and the Sierpinski space's terminal sheaf has the
# element '*' at every object.
TERM_ERRORS = {
    ("bz4", ""): "empty term",
    ("bz4", "(alpha g1 x"): "unbalanced parentheses",
    ("bz4", ")"): "unexpected ')'",
    ("bz4", "x x"): "trailing input after term",
    ("bz4", "y"): "unknown atom 'y'",
    ("bz4", "()"): "empty application",
    ("bz4", "(c nope)"): "no base element named 'nope'",
    ("sierpinski", "(c *)"): "element '*' is ambiguous; qualify as (c OBJECT *)",
    ("bz4", "(c Nope g1)"): "unknown object 'Nope'",
    ("bz4", "(c * g9)"): "no element 'g9' at '*'",
    ("bz4", "(c)"): "constant needs (c ELEMENT) or (c OBJECT ELEMENT)",
    ("bz4", "(c (g1))"): "constant needs (c ELEMENT) or (c OBJECT ELEMENT)",
    ("bz4", "(alpha x)"): "restriction needs (alpha MORPHISM term)",
    ("bz4", "(alpha nope x)"): "unknown morphism 'nope'",
    ("bz4", "(sigma)"): "amalgamation needs (sigma (MORPHISM...) term...)",
    ("bz4", "(sigma x)"): "amalgamation needs (sigma (MORPHISM...) term...)",
    ("bz4", "(sigma ((g0)) x)"): "cover members must be morphism names",
    ("bz4", "(sigma (nope) x)"): "unknown morphism 'nope'",
    ("bz4", "(sigma ())"): "empty cover is ambiguous; no unique empty-covered object",
    ("bz4", "(sigma () x)"): "sigma needs at least one morphism or a unique empty cover",
    ("bz4", "(sigma (g1) x)"): "the listed morphisms are not a covering sieve",
    ("bz4", "(sigma (g0 g1 g2 g3) x)"): "sigma arity does not match the cover",
    ("bz4", "(beta x)"): "unknown operator 'beta'",
}
TERM_SITES = {
    "bz4": (lambda: trivial_site(cyclic_group_category(4)), "*", representable),
    "sierpinski": (sierpinski_space_site, "U", lambda cat, _: terminal_presheaf(cat)),
}


@pytest.mark.parametrize("case", sorted(TERM_ERRORS), ids=":".join)
def test_every_malformed_term_is_a_parse_error(case, tmp_path, capsys):
    site_name, term = case
    make, at, sheaf_at = TERM_SITES[site_name]
    site = make()
    site_path = write(tmp_path, "site.json", site_to_dict(site))
    sheaf_path = write(tmp_path, "f.json", presheaf_to_dict(sheaf_at(site.category, at)))
    assert main(["normal-form", site_path, sheaf_path, "--at", at, "--term", term]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {TERM_ERRORS[case]}\n"


# -- models of the sheaf theory ------------------------------------------------


@pytest.fixture(scope="module")
def cyl2_model():
    """The model of a(y B) on the two-point cylinder, whose restrictions
    along a0, b0 (the identities) and u0 fix p0 and p1 and along a1, b1
    and u1 swap them."""
    site = cylinder_cover_site(2)
    sheaf = sheafification(representable(site.category, "B"), site.topology).sheaf
    return site, sheaf_to_model(sheaf, site.topology)


FIX = {("p0",): "p0", ("p1",): "p1"}
SWAP = {("p0",): "p1", ("p1",): "p0"}

# name -> (replaced alpha tables, None for a dropped one; replaced
# carriers; message; witness).  A dropped table reads as one defined nowhere.
MODEL_VIOLATIONS = {
    "value outside its carrier": (
        {"alpha:u0": {**FIX, ("p0",): "zzz"}},
        {},
        "action of 'u0' sends 'p0' to undeclared 'zzz'",
        ("u0", "p0", "zzz"),
    ),
    "value outside its carrier, restricted again": (
        {"alpha:b1": {**SWAP, ("p0",): "zzz"}},
        {},
        "action of 'b1' sends 'p0' to undeclared 'zzz'",
        ("b1", "p0", "zzz"),
    ),
    "table that is not total": (
        {"alpha:u0": {("p0",): "p0"}},
        {},
        "action of 'u0' is not total on its codomain set",
        ("u0",),
    ),
    "key that is not unary": (
        {"alpha:u0": {**FIX, ("p0", "p1"): "p0"}},
        {},
        "restriction along 'u0' is not total",
        "u0",
    ),
    "identity that moves an element": (
        {"alpha:b0": SWAP}, {}, "identity action at 'B' moves 'p0'", ("B", "p0")
    ),
    "composite that disagrees": (
        {"alpha:u1": FIX},
        {},
        "action of 'u1' disagrees with 'u0' after 'b1' on 'p0'",
        ("b1", "u0", "p0"),
    ),
    "carrier element listed twice": (
        {}, {"B": ("p0", "p1", "p0")}, "duplicate element id at 'B'", ("B",)
    ),
    "restriction symbol dropped": (
        {"alpha:u0": None}, {}, "action of 'u0' is not total on its codomain set", ("u0",)
    ),
}


@pytest.mark.parametrize("case", sorted(MODEL_VIOLATIONS))
def test_a_model_whose_restrictions_are_no_presheaf_is_refused(case, cyl2_model):
    site, model = cyl2_model
    operations, carriers, message, witness = MODEL_VIOLATIONS[case]
    tables = {**model.operations, **operations}
    broken = PartialStructure(
        model.signature,
        {**model.carriers, **carriers},
        {name: table for name, table in tables.items() if table is not None},
    )
    with pytest.raises(NotAModelError) as caught:
        model_to_sheaf(broken, site.category, site.topology)
    assert str(caught.value) == message
    assert caught.value.witness == witness


def test_a_model_without_an_amalgamation_symbol_is_refused(cyl2_model):
    # The table reads as one defined nowhere, so the matching tuple (p0, p1)
    # of the cover {a0, a1} has no amalgamation in the model.
    site, model = cyl2_model
    symbol = "sigma:A:[a0,a1]"
    operations = {name: table for name, table in model.operations.items() if name != symbol}
    with pytest.raises(NotAModelError) as caught:
        model_to_sheaf(
            PartialStructure(model.signature, model.carriers, operations),
            site.category,
            site.topology,
        )
    assert str(caught.value) == "amalgamation symbol defined on the wrong tuples"
    assert caught.value.witness == (symbol, ("p0", "p1"))


def test_a_model_of_a_presheaf_that_is_no_sheaf_is_refused(bz2_all_sieves_site):
    # On BZ2 with all sieves the empty sieve covers, and 1 + 1 gives the
    # empty family two amalgamations.
    cat, topology = bz2_all_sieves_site.category, bz2_all_sieves_site.topology
    one = terminal_presheaf(cat)
    two, _, _ = coproduct(one, one)
    with pytest.raises(NotAModelError) as caught:
        model_to_sheaf(structure_from_presheaf(two, topology), cat, topology)
    assert str(caught.value) == "a matching family lacks a unique amalgamation"
    assert caught.value.witness == ("*", MatchingFamily(Sieve(0, frozenset()), ()))
