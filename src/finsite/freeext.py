"""Free sheaf extensions: generic elements, denotation, substitution.

Adjoining fresh generators to a sheaf is realized as the sheafification of
its coproduct with the representables at the generators' objects.  The
resulting sheaf is the initial model of the sheaf theory extended by the
base elements and the generators, so a closed term is provably defined (or
two terms provably equal) exactly when denotation here says so; no proof
search is involved.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import (
    HypothesisViolationError,
    InvalidSieveError,
    NoAmalgamationError,
    NotASheafError,
    ParseError,
    SortMismatchError,
    UnknownObjectError,
)
from .fincat import FinCategory
from .phl import (
    App,
    FunctionSymbol,
    PartialStructure,
    Signature,
    Term,
    alpha_symbol,
    interpret_term,
    sigma_symbol,
    structure_from_presheaf,
    term_sort,
)
from .presheaf import (
    DEFAULT_MAX_FAMILIES,
    Presheaf,
    PresheafMap,
    Sheafification,
    SheafStatus,
    coproduct_many,
    is_subcanonical,
    quotient_presheaf,
    representable,
    sheaf_status,
    sheafification,
)
from .site import Sieve, Site, empty_cover_objects, generating_members


def constant_symbol(obj_name: str, element: str) -> str:
    return f"c:{obj_name}:{element}"


def generator_symbol(name: str) -> str:
    return f"x:{name}"


@dataclass(frozen=True)
class FreeExtension:
    """A sheaf with freely adjoined generators, with full provenance.

    ``carrier`` is the sheafified coproduct of the base with one
    representable per generator; ``insert`` embeds the base and
    ``generic`` locates each generator's image.  ``bundle`` keeps both
    plus-construction layers for unwinding (its ``presheaf`` is the
    coproduct), and ``structure`` interprets the extended signature
    (restrictions, amalgamations, base constants, generator constants) in
    the carrier.
    """

    site: Site
    base: Presheaf
    generators: tuple[tuple[str, int], ...]
    bundle: Sheafification
    carrier: Presheaf
    insert: PresheafMap
    generic: dict[str, str]
    signature: Signature
    structure: PartialStructure


def _extended_signature(
    cat: FinCategory, sig: Signature, base: Presheaf, generators
) -> Signature:
    constants = [
        FunctionSymbol(constant_symbol(cat.objects[x], e), (), cat.objects[x])
        for x in range(len(cat.objects))
        for e in base.sets[x]
    ]
    gens = [
        FunctionSymbol(generator_symbol(name), (), cat.objects[obj])
        for name, obj in generators
    ]
    return Signature(sig.sorts, sig.functions + tuple(constants) + tuple(gens))


def free_extension(
    f_: Presheaf,
    site: Site,
    generators,
    max_families: int = DEFAULT_MAX_FAMILIES,
) -> FreeExtension:
    """Freely adjoin named generators at the given objects to a sheaf.

    ``generators`` is a sequence of (name, object name or id) pairs.  The
    base must be a sheaf: the carrier answers provability questions only
    because it is the initial model over the base's elements.
    """
    status = sheaf_status(f_, site.topology, max_families)
    if status is not SheafStatus.SHEAF:
        raise NotASheafError(
            f"free extensions need a sheaf base; this presheaf is {status.value}"
        )
    cat = site.category
    gens: list[tuple[str, int]] = []
    for name, obj in generators:
        obj_id = cat.object_id(obj) if isinstance(obj, str) else obj
        gens.append((name, obj_id))
    parts = [f_] + [representable(cat, obj) for _, obj in gens]
    level0, injections = coproduct_many(parts)
    bundle = sheafification(level0, site.topology, max_families)
    carrier = bundle.sheaf
    unit1, unit2 = bundle.plus1.unit, bundle.plus2.unit
    insert = injections[0].then(unit1).then(unit2)
    generic = {}
    for i, (name, obj) in enumerate(gens):
        ident = cat.name(cat.identity[obj])
        generic[name] = unit2.apply(obj, unit1.apply(obj, injections[i + 1].apply(obj, ident)))
    structure = structure_from_presheaf(carrier, site.topology)
    signature = _extended_signature(cat, structure.signature, f_, gens)
    operations = dict(structure.operations)
    for x in range(len(cat.objects)):
        for e in f_.sets[x]:
            operations[constant_symbol(cat.objects[x], e)] = {
                (): insert.apply(x, e)
            }
    for name, obj in gens:
        operations[generator_symbol(name)] = {(): generic[name]}
    structure = PartialStructure(signature, structure.carriers, operations)
    return FreeExtension(
        site,
        f_,
        tuple(gens),
        bundle,
        carrier,
        insert,
        generic,
        signature,
        structure,
    )


# -- term construction helpers ----------------------------------------------


def alpha(cat: FinCategory, morphism: str, arg: Term) -> Term:
    return App(alpha_symbol(cat, cat.morphism_id(morphism)), (arg,))


def sigma(cat: FinCategory, cover: Sieve, args) -> Term:
    return App(sigma_symbol(cat, cover), tuple(args))


def const(cat: FinCategory, obj: str, element: str) -> Term:
    return App(constant_symbol(obj, element), ())


def gen(name: str = "x") -> Term:
    return App(generator_symbol(name), ())


def denote(ext: FreeExtension, term: Term) -> str | None:
    """The carrier element a closed term denotes, or None when undefined.

    By initiality of the carrier among models of the extended theory, a
    term is provably defined exactly when this returns an element.
    """
    term_sort(ext.signature, term)
    return interpret_term(ext.structure, term, {})


def decide_equal(ext: FreeExtension, t1: Term, t2: Term) -> bool:
    """Provable equality of two closed terms: both defined and equal."""
    s1 = term_sort(ext.signature, t1)
    s2 = term_sort(ext.signature, t2)
    if s1 != s2:
        raise SortMismatchError(f"terms have different sorts {s1!r} and {s2!r}")
    d1 = denote(ext, t1)
    d2 = denote(ext, t2)
    return d1 is not None and d1 == d2


def _level0_reader(
    ext: FreeExtension, target: Presheaf, base: PresheafMap, points: dict[str, str]
) -> Callable[[int, str], str]:
    """The level-zero map of a substitution, as ``apply(y, elem)`` on the
    element ids of ``coproduct_many``: ``0:e`` goes through ``base``, and
    ``i:f`` to generator i's point restricted along f.  The points are
    checked here, before any element is read."""
    cat = ext.site.category
    if set(points) != {name for name, _ in ext.generators}:
        raise SortMismatchError("points must cover exactly the generators")
    for name, obj in ext.generators:
        if points[name] not in target.sets[obj]:
            raise SortMismatchError(
                f"point for generator {name!r} is not an element at "
                f"{cat.objects[obj]!r} of the target"
            )
    values = [points[name] for name, _ in ext.generators]

    def apply(y: int, elem: str) -> str:
        tag, _, value = elem.partition(":")
        if tag == "0":
            return base.components[y][value]
        return target.actions[cat.morphism_id(value)][values[int(tag) - 1]]

    return apply


def subst_map(
    ext: FreeExtension, target: Presheaf, base: PresheafMap, points: dict[str, str]
) -> PresheafMap:
    """The unique sheaf map off the carrier through the base and the points.

    ``base`` maps the underlying sheaf into the target, ``points`` picks a
    target element for every generator.  Underlying and representable
    elements are mapped via ``base`` and the points' restriction actions
    (the level-zero map), and the sheafification's evaluator extends that
    map to every carrier element; the amalgamations it reads exist
    uniquely because the target is a sheaf.
    """
    apply = _level0_reader(ext, target, base, points)
    components = {
        x: {e: ext.bundle.extend_at(apply, target, x, e) for e in elems}
        for x, elems in ext.carrier.sets.items()
    }
    return PresheafMap(ext.carrier, target, components)


def subst_at(
    ext: FreeExtension, target: Presheaf, base: PresheafMap, points: dict[str, str], x: int
) -> dict[str, str]:
    """``subst_map(ext, target, base, points).components[x]``, with the
    sheafification's evaluator read only at the carrier's elements at x."""
    apply = _level0_reader(ext, target, base, points)
    return {e: ext.bundle.extend_at(apply, target, x, e) for e in ext.carrier.sets[x]}


@dataclass(frozen=True)
class NormalFormComponent:
    """Either a base constant or a generator image along a morphism."""

    kind: str  # "const" | "generator"
    object: int
    value: str


@dataclass(frozen=True)
class NormalForm:
    cover: Sieve
    components: dict[int, NormalFormComponent]


def normal_form(ext: FreeExtension, obj: int, element: str) -> NormalForm:
    """Present a carrier element as an amalgamation of level-zero pieces.

    Each plus layer holds every element as its one matching family on the
    least cover J(X), which is cofinal among the covers of X.  Unwinding
    both layers gives a family of level-zero pieces on the composite of
    J(X) with the J(dom h) of its members h, a cover by transitivity.
    Every component is either a base constant or the generator restricted
    along a morphism, and re-amalgamating the components over the composed
    cover reproduces the element.  Requires a single-generator extension.
    """
    if len(ext.generators) != 1:
        raise SortMismatchError("normal forms are defined for one generator")
    cat = ext.site.category
    plus1, plus2 = ext.bundle.plus1, ext.bundle.plus2
    cover2, family2 = plus2.pairs[obj][element]
    fam2 = family2.as_dict()
    composed_members: set[int] = set()
    chosen: dict[int, tuple[int, int]] = {}
    for h in cover2.sorted_members():
        cover1, _ = plus1.pairs[cat.dom(h)][fam2[h]]
        for k in cover1.sorted_members():
            m = cat.comp[(h, k)]
            composed_members.add(m)
            if m not in chosen:
                chosen[m] = (h, k)
    cover = Sieve(obj, frozenset(composed_members))
    if not ext.site.topology.is_cover(cover):
        raise InvalidSieveError(
            "composed cover is not covering; the topology is not saturated"
        )
    components: dict[int, NormalFormComponent] = {}
    for m in cover.sorted_members():
        h, k = chosen[m]
        _, family1 = plus1.pairs[cat.dom(h)][fam2[h]]
        piece = family1.as_dict()[k]
        tag, _, value = piece.partition(":")  # the id ``coproduct_many`` wrote
        if tag == "0":
            components[m] = NormalFormComponent("const", cat.dom(m), value)
        else:
            components[m] = NormalFormComponent(
                "generator", cat.dom(m), value
            )
    return NormalForm(cover, components)


def reamalgamate(ext: FreeExtension, obj: int, nf: NormalForm) -> str:
    """Denote a normal form back into the carrier; the unique amalgamation."""
    cat = ext.site.category
    gen_name = ext.generators[0][0]
    values = []
    for m in nf.cover.sorted_members():
        comp = nf.components[m]
        if comp.kind == "const":
            values.append(ext.insert.apply(cat.dom(m), comp.value))
        else:
            f = cat.morphism_id(comp.value)
            values.append(ext.carrier.act(f, ext.generic[gen_name]))
    candidates = ext.carrier.amalgamations_of(nf.cover, tuple(values))
    if len(candidates) != 1:
        raise NoAmalgamationError("re-amalgamation did not find a unique element")
    return candidates[0]


def as_generator(ext: FreeExtension, obj: int, element: str) -> str | None:
    """The unique morphism presenting the element as a pure generator image.

    Only meaningful on subcanonical sites without empty covers, where the
    assignment f |-> generator restricted along f is injective; returns the
    morphism name or None when the element is not a generator image.
    """
    site = ext.site
    ok, _ = is_subcanonical(site.category, site.topology)
    if not ok:
        raise HypothesisViolationError("the site is not subcanonical")
    if empty_cover_objects(site.category, site.topology):
        raise HypothesisViolationError("the site has empty covers")
    if len(ext.generators) != 1:
        raise SortMismatchError("generator recovery needs one generator")
    gen_name, gen_obj = ext.generators[0]
    cat = site.category
    hits = [
        f
        for f in cat.hom_ids(obj, gen_obj)
        if ext.carrier.act(f, ext.generic[gen_name]) == element
    ]
    if len(hits) > 1:
        raise HypothesisViolationError(
            "generator images along distinct morphisms coincide"
        )
    return cat.name(hits[0]) if hits else None


def matching_relations(cat: FinCategory, carrier: Presheaf, cover: Sieve, points: dict):
    """The triples (dom g, points[f]·g, points[f∘g]) over the cover's members
    f and the morphisms g into dom f: the relations that make ``points`` a
    matching family for the cover."""
    return [
        (cat.dom(g), carrier.act(g, points[f]), points[cat.comp[(f, g)]])
        for f in cover.members
        for g in cat.cone(cat.dom(f))
    ]


def _sieve_extension(
    f_: Presheaf, site: Site, cover: Sieve, max_families: int = DEFAULT_MAX_FAMILIES
):
    """a(F + R), which freely adjoins a generic matching family for the
    cover to F, with ``insert``, the generic family and its amalgam.

    R is the cover as a subpresheaf of the representable: maps out of R are
    the matching families for the cover, so a(F + R) is the initial model
    of the theory extended by base constants plus a matching tuple of fresh
    constants.  F + R is presented as the quotient of the level-zero
    coproduct F + Σ_{f ∈ gens(R)} y(dom f), one generator x_f per
    generating member f (``generating_members``), by x_f·g ~ x_{f′}·g′
    whenever f∘g = f′∘g′.  Each member m is some f∘g, so x_f·g ↦ f∘g maps
    the sum onto R, and these relations are its kernel.  When R has one
    generating member f and f∘g = f∘g′ only for g = g′ (the maximal sieve,
    or a sieve generated by one such arrow), there is no relation and F + R
    is literally F + y(dom f), the level zero of ``free_extension`` at
    dom f; the plus-construction memo then hands back that extension's
    carrier.  Since a is a left adjoint, a(K/G) ≅ a(F + R) for
    K = a(F + Σ_f y(dom f)), the free extension by one generator per member
    and G = {(x_f·g, x_{f∘g})}: equality in a(F + R) is local equality
    modulo G in K, without building K.

    Returns the sheaf, the map ``insert`` of F into it, the generic family
    (each member m's class at its first factorization f∘g, where r_m is
    read) and the family's one amalgam.
    """
    cat = site.category
    gens = generating_members(cat, cover)
    parts = [f_] + [representable(cat, cat.dom(f)) for f in gens]
    level0, injections = coproduct_many(parts)
    first: dict[int, str] = {}
    relations = []
    for i, f in enumerate(gens):
        for g in cat.cone(cat.dom(f)):
            m = cat.comp[(f, g)]
            e = injections[i + 1].apply(cat.dom(g), cat.name(g))
            if m in first:
                relations.append((cat.dom(g), first[m], e))
            else:
                first[m] = e
    quotient, projection = quotient_presheaf(level0, relations)
    bundle = sheafification(quotient, site.topology, max_families)
    unit1, unit2 = bundle.plus1.unit, bundle.plus2.unit
    insert = injections[0].then(projection).then(unit1).then(unit2)
    members = cover.sorted_members()
    generic = {}
    for m in members:
        y = cat.dom(m)
        generic[m] = unit2.apply(y, unit1.apply(y, projection.apply(y, first[m])))
    candidates = bundle.sheaf.amalgamations_of(
        cover, tuple(generic[m] for m in members)
    )
    if len(candidates) != 1:
        raise NoAmalgamationError(
            "generic matching family has no unique amalgamation"
        )
    return bundle.sheaf, insert, generic, candidates[0]


# -- term syntax --------------------------------------------------------------


def parse_term(ext: FreeExtension, text: str) -> Term:
    """Parse the s-expression term syntax against an extension.

    Grammar::

        term   := 'x'                          the generator
                | '(c ELEMENT)'                base constant, unique element id
                | '(c OBJECT ELEMENT)'         base constant, qualified
                | '(alpha MORPHISM term)'      restriction along a morphism
                | '(sigma (MORPHISM...) term...)'  amalgamation over a cover

    The morphism list of a ``sigma`` must be a covering sieve; its terms
    line up with the listed morphisms.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ParseError("empty term")

    def read(i: int):
        if tokens[i] == "(":
            items = []
            i += 1
            while i < len(tokens) and tokens[i] != ")":
                node, i = read(i)
                items.append(node)
            if i >= len(tokens):
                raise ParseError("unbalanced parentheses")
            return items, i + 1
        if tokens[i] == ")":
            raise ParseError("unexpected ')'")
        return tokens[i], i + 1

    tree, end = read(0)
    if end != len(tokens):
        raise ParseError("trailing input after term")
    cat = ext.site.category

    def build(node) -> Term:
        if isinstance(node, str):
            if node == "x" and len(ext.generators) == 1:
                return gen(ext.generators[0][0])
            names = [name for name, _ in ext.generators if name == node]
            if names:
                return gen(node)
            raise ParseError(f"unknown atom {node!r}")
        if not node:
            raise ParseError("empty application")
        head = node[0]
        if head == "c":
            if len(node) == 2 and isinstance(node[1], str):
                element = node[1]
                owners = [
                    x
                    for x in range(len(cat.objects))
                    if element in ext.base.sets[x]
                ]
                if not owners:
                    raise ParseError(f"no base element named {element!r}")
                if len(owners) > 1:
                    raise ParseError(
                        f"element {element!r} is ambiguous; qualify as (c OBJECT {element})"
                    )
                return const(cat, cat.objects[owners[0]], element)
            if len(node) == 3 and all(isinstance(n, str) for n in node[1:]):
                obj, element = node[1], node[2]
                try:
                    x = cat.object_id(obj)
                except UnknownObjectError as exc:
                    raise ParseError(str(exc)) from exc
                if element not in ext.base.sets[x]:
                    raise ParseError(f"no element {element!r} at {obj!r}")
                return const(cat, obj, element)
            raise ParseError("constant needs (c ELEMENT) or (c OBJECT ELEMENT)")
        if head == "alpha":
            if len(node) != 3 or not isinstance(node[1], str):
                raise ParseError("restriction needs (alpha MORPHISM term)")
            try:
                return alpha(cat, node[1], build(node[2]))
            except UnknownObjectError as exc:
                raise ParseError(str(exc)) from exc
        if head == "sigma":
            if len(node) < 2 or not isinstance(node[1], list):
                raise ParseError("amalgamation needs (sigma (MORPHISM...) term...)")
            member_names = node[1]
            if not all(isinstance(n, str) for n in member_names):
                raise ParseError("cover members must be morphism names")
            try:
                members = [cat.morphism_id(n) for n in member_names]
            except UnknownObjectError as exc:
                raise ParseError(str(exc)) from exc
            if not members and len(node) == 2:
                targets = [
                    x
                    for x in range(len(cat.objects))
                    if ext.site.topology.is_cover(Sieve(x, frozenset()))
                ]
                if len(targets) != 1:
                    raise ParseError(
                        "empty cover is ambiguous; no unique empty-covered object"
                    )
                cover = Sieve(targets[0], frozenset())
            else:
                if not members:
                    raise ParseError("sigma needs at least one morphism or a unique empty cover")
                target = cat.cod(members[0])
                cover = Sieve(target, frozenset(members))
            if not ext.site.topology.is_cover(cover):
                raise ParseError("the listed morphisms are not a covering sieve")
            args = [build(n) for n in node[2:]]
            if len(args) != len(member_names) and cover.members:
                raise ParseError("sigma arity does not match the cover")
            by_name = dict(zip(member_names, args))
            ordered = [by_name[cat.name(f)] for f in cover.sorted_members()]
            return sigma(cat, cover, ordered)
        raise ParseError(f"unknown operator {head!r}")

    return build(tree)
