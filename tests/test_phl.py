"""Term interpretation, satisfaction, quotients, the sheaf-model dictionary."""

import pytest

from finsite.errors import (
    NotACongruenceError,
    NotAModelError,
    NotASheafError,
    SizeLimitError,
    SortMismatchError,
)
from finsite.phl import (
    App,
    Equation,
    FunctionSymbol,
    PartialStructure,
    Sequent,
    Signature,
    Var,
    alpha_symbol,
    definedness,
    interpret_term,
    model_to_sheaf,
    quotient_structure,
    satisfies,
    sheaf_signature,
    sheaf_theory,
    sheaf_to_model,
    sigma_symbol,
    structure_from_presheaf,
)
from finsite.presheaf import representable, terminal_presheaf

from conftest import small_catalogue


@pytest.fixture()
def tiny_magma():
    sig = Signature(
        ("s",), (FunctionSymbol("f", ("s",), "s"), FunctionSymbol("k", (), "s"))
    )
    return PartialStructure(
        sig,
        {"s": ("a", "b")},
        {"f": {("a",): "b"}, "k": {(): "a"}},
    )


def test_interpret_variable_projection(tiny_magma):
    assert interpret_term(tiny_magma, Var("x", "s"), {"x": "a"}) == "a"


def test_interpret_strictness(tiny_magma):
    inner = App("f", (Var("x", "s"),))
    outer = App("f", (inner,))
    # f(b) is undefined, so f(f(a)) is too.
    assert interpret_term(tiny_magma, inner, {"x": "a"}) == "b"
    assert interpret_term(tiny_magma, outer, {"x": "a"}) is None
    assert interpret_term(tiny_magma, outer, {"x": "b"}) is None


def test_interpret_presheaf_action(sierpinski_site):
    cat = sierpinski_site.category
    y1 = representable(cat, "1")
    model = sheaf_to_model(y1, sierpinski_site.topology)
    arrow = cat.morphism_id("0<=1")
    term = App(alpha_symbol(cat, arrow), (Var("d", "1"),))
    for d in y1.sets[cat.object_id("1")]:
        assert interpret_term(model, term, {"d": d}) == y1.act(arrow, d)


def test_satisfies_top(tiny_magma):
    seq = Sequent((Var("x", "s"),), (), (), label="top")
    assert satisfies(tiny_magma, seq) == (True, None)


def test_satisfies_counterexample_is_least(tiny_magma):
    seq = Sequent(
        (Var("x", "s"),),
        (),
        (definedness(App("f", (Var("x", "s"),))),),
        label="f-total",
    )
    ok, env = satisfies(tiny_magma, seq)
    assert not ok and env == {"x": "b"}


def test_satisfies_closed_premise(tiny_magma):
    # Premise k = f(a) is false (k=a, f(a)=b), so anything follows.
    seq = Sequent(
        (),
        (Equation(App("k", ()), App("f", (App("k", ()),))),),
        (Equation(App("k", ()), App("k", ())),),
        label="closed",
    )
    assert satisfies(tiny_magma, seq)[0]


@pytest.mark.parametrize("side", ["premise", "conclusion"])
def test_sequent_rejects_variables_outside_its_context(side):
    stray = (Equation(Var("y", "s"), Var("y", "s")),)
    formulas = {"premise": (), "conclusion": (), side: stray}
    message = "sequent 'stray' uses variables outside its context"
    with pytest.raises(SortMismatchError, match=message):
        Sequent((Var("x", "s"),), formulas["premise"], formulas["conclusion"], label="stray")


def test_satisfaction_search_counts_one_node_per_value():
    n = 5
    sig = Signature(("s",), ())
    m = PartialStructure(sig, {"s": tuple(f"e{i}" for i in range(n))}, {})
    seq = Sequent((Var("x", "s"),), (), (), label="all")
    assert satisfies(m, seq, max_envs=n) == (True, None)
    message = f"^satisfaction search for 'all' exceeded {n - 1} nodes$"
    with pytest.raises(SizeLimitError, match=message):
        satisfies(m, seq, max_envs=n - 1)


def test_sheaf_models_satisfy_every_axiom(subcanonical_sites):
    for site in subcanonical_sites.values():
        theory = sheaf_theory(site.category, site.topology)
        for _, sheaf in small_catalogue(site):
            model = sheaf_to_model(sheaf, site.topology)
            for axiom in theory:
                ok, env = satisfies(model, axiom)
                assert ok, (axiom.label, env)


def test_non_sheaf_fails_amalgamation_axiom(bz2_all_sieves_site):
    site = bz2_all_sieves_site
    y = representable(site.category, "*")
    model = structure_from_presheaf(y, site.topology)
    failing = [
        ax.label
        for ax in sheaf_theory(site.category, site.topology)
        if not satisfies(model, ax)[0]
    ]
    assert any(label.startswith("amalgamation:") for label in failing)
    with pytest.raises(NotASheafError):
        sheaf_to_model(y, site.topology)


def test_signature_counts(bz4_site, sierpinski_site):
    sig = sheaf_signature(bz4_site.category, bz4_site.topology)
    assert len(sig.sorts) == 1
    alphas = [f for f in sig.functions if f.name.startswith("alpha:")]
    sigmas = [f for f in sig.functions if f.name.startswith("sigma:")]
    assert len(alphas) == 4 and len(sigmas) == 1
    sig2 = sheaf_signature(sierpinski_site.category, sierpinski_site.topology)
    alphas2 = [f for f in sig2.functions if f.name.startswith("alpha:")]
    sigmas2 = [f for f in sig2.functions if f.name.startswith("sigma:")]
    assert len(sig2.sorts) == 2 and len(alphas2) == 3 and len(sigmas2) == 2
    # Amalgamation arity equals the cover size.
    for x in range(len(sierpinski_site.category.objects)):
        for cover in sierpinski_site.topology.covers_of(x):
            symbol = sigma_symbol(sierpinski_site.category, cover)
            f = sig2.function(symbol)
            assert len(f.argument_sorts) == len(cover.members)


def test_theory_axiom_count(bz4_site, opens_site):
    for site in (bz4_site, opens_site):
        cat = site.category
        covers = sum(len(site.topology.covers_of(x)) for x in range(len(cat.objects)))
        expected = len(cat.morphisms) + len(cat.objects) + len(cat.comp) + 2 * covers
        assert len(sheaf_theory(cat, site.topology)) == expected


def test_uniqueness_axiom_context_size(bz4_site):
    theory = sheaf_theory(bz4_site.category, bz4_site.topology)
    uniq = [ax for ax in theory if ax.label.startswith("uniqueness:")]
    assert uniq and all(
        len(ax.context)
        == len(bz4_site.topology.covers_of(0)[0].members) + 1
        for ax in uniq
    )


def test_round_trip_identity(bz4_site, sierpinski_site):
    for site in (bz4_site, sierpinski_site):
        for _, sheaf in small_catalogue(site):
            model = sheaf_to_model(sheaf, site.topology)
            assert model_to_sheaf(model, site.category, site.topology) == sheaf


def test_model_with_sigma_on_non_matching_tuple_rejected(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    model = sheaf_to_model(y, bz4_site.topology)
    cover = bz4_site.topology.covers_of(0)[0]
    symbol = sigma_symbol(cat, cover)
    corrupted = dict(model.operations)
    table = dict(corrupted[symbol])
    bad_tuple = tuple("g0" for _ in cover.sorted_members())
    if bad_tuple in table:
        bad_tuple = ("g0", "g0", "g0", "g1")
    table[bad_tuple] = "g0"
    corrupted[symbol] = table
    broken = PartialStructure(model.signature, model.carriers, corrupted)
    with pytest.raises(NotAModelError) as err:
        model_to_sheaf(broken, cat, bz4_site.topology)
    assert err.value.witness is not None


def test_corrupted_model_fails_uniqueness_with_witness(bz4_site):
    cat = bz4_site.category
    y = representable(cat, "*")
    model = sheaf_to_model(y, bz4_site.topology)
    cover = bz4_site.topology.covers_of(0)[0]
    symbol = sigma_symbol(cat, cover)
    corrupted = dict(model.operations)
    table = dict(corrupted[symbol])
    key = next(iter(table))
    table[key] = "g1" if table[key] == "g0" else "g0"
    corrupted[symbol] = table
    broken = PartialStructure(model.signature, model.carriers, corrupted)
    failing = [
        (ax.label, env)
        for ax in sheaf_theory(cat, bz4_site.topology)
        for ok, env in [satisfies(broken, ax)]
        if not ok
    ]
    assert failing and all(env is not None for _, env in failing)


def test_terminal_sheaf_model_all_sigma_defined(bz4_site):
    model = sheaf_to_model(terminal_presheaf(bz4_site.category), bz4_site.topology)
    for name, table in model.operations.items():
        if name.startswith("sigma:"):
            assert len(table) == 1


def test_quotient_structure_identity_and_total(tiny_magma):
    q = quotient_structure(tiny_magma, {})
    assert q.carriers == tiny_magma.carriers
    sig = tiny_magma.signature
    swap = PartialStructure(
        sig,
        {"s": ("a", "b")},
        {"f": {("a",): "b", ("b",): "a"}, "k": {(): "a"}},
    )
    total = quotient_structure(swap, {"s": [["a", "b"]]})
    assert total.carriers["s"] == ("a",)
    assert total.operations["f"] == {("a",): "a"}


def test_quotient_structure_domain_violation():
    sig = Signature(("s",), (FunctionSymbol("f", ("s",), "s"),))
    m = PartialStructure(sig, {"s": ("a", "b")}, {"f": {("a",): "a"}})
    with pytest.raises(NotACongruenceError) as err:
        quotient_structure(m, {"s": [["a", "b"]]})
    assert err.value.witness is not None


def test_quotient_respects_interpretation(tiny_magma):
    # Collapsing nothing, closed terms evaluate identically.
    q = quotient_structure(tiny_magma, {})
    for term in (App("k", ()), App("f", (App("k", ()),))):
        assert interpret_term(q, term, {}) == interpret_term(tiny_magma, term, {})
    # With a genuine collapse, interpretation lands in the class of the
    # original value whenever that was defined.
    sig = tiny_magma.signature
    swap = PartialStructure(
        sig,
        {"s": ("a", "b")},
        {"f": {("a",): "b", ("b",): "a"}, "k": {(): "a"}},
    )
    collapsed = quotient_structure(swap, {"s": [["a", "b"]]})
    rep = {"a": "a", "b": "a"}
    for term in (App("k", ()), App("f", (App("k", ()),)), App("f", (App("f", (App("k", ()),)),))):
        original = interpret_term(swap, term, {})
        assert interpret_term(collapsed, term, {}) == rep[original]
