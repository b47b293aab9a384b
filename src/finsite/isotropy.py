"""Extended inner automorphisms of sheaves and the main verification.

A candidate is a family picking, for every object C, an element of the
sheaf's free extension by one generator at C.  Membership asks for
substitutional invertibility, generic commutation with every restriction
and amalgamation symbol, and reflection of definedness; the group product
is substitution.  The verifier compares these groups against the centre of
the site and the centre of the category of sheafified representables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import HypothesisViolationError, UnknownObjectError
from .fincat import CentreElement, FinCategory, centre, full_subcategory
from .groups import FiniteGroup, finite_group
from .presheaf import (
    AycCategory,
    Presheaf,
    PresheafMap,
    ayc_category,
    classify_at,
    coproduct_many,
    is_subcanonical,
    locally_equal,
    quotient_presheaf,
    representable,
    sheafification,
    terminal_presheaf,
)
from .freeext import (
    FreeExtension,
    _sieve_extension,
    free_extension,
    matching_relations,
    subst_at,
    subst_map,
)
from .search import DEFAULT_MAX_FAMILIES, natural_search
from .site import Site, empty_cover_objects, generating_members


@dataclass(frozen=True)
class IsotropyElement:
    """One free-extension element per object, aligned with object order."""

    components: tuple[str, ...]

    def display(self, cat: FinCategory) -> dict[str, str]:
        return {cat.objects[x]: e for x, e in enumerate(self.components)}


@dataclass(frozen=True)
class MembershipReport:
    invertible: bool
    alpha_commutes: bool
    sigma_commutes: bool
    reflects_definedness: bool
    witnesses: dict[str, object]
    inverse: tuple[str, ...] | None = None

    @property
    def member(self) -> bool:
        return (
            self.invertible
            and self.alpha_commutes
            and self.sigma_commutes
            and self.reflects_definedness
        )


class IsotropyContext:
    """Caches the per-object free extensions and candidate-independent maps
    used by membership checks over a fixed sheaf."""

    def __init__(self, sheaf: Presheaf, site: Site, max_families: int = DEFAULT_MAX_FAMILIES):
        self.sheaf = sheaf
        self.site = site
        self.max_families = max_families
        cat = site.category
        self.extensions: dict[int, FreeExtension] = {
            c: free_extension(sheaf, site, [("x", c)], max_families)
            for c in range(len(cat.objects))
        }
        self._subst: dict[tuple[int, int, str], dict[str, str]] = {}
        self._reflect_data: dict[tuple[int, tuple], dict] = {}
        self._direct_reflect_data: dict[tuple[int, tuple], dict] = {}

    def subst(self, c: int, d: int, point: str) -> dict[str, str]:
        """The component at c of carrier(x at c) -> carrier(x at d),
        substituting ``point``, an element at c of the extension at d, for
        the generator: the one component every check reads.  A cache over
        ``freeext.subst_at``."""
        key = (c, d, point)
        if key not in self._subst:
            ext_d = self.extensions[d]
            self._subst[key] = subst_at(
                self.extensions[c], ext_d.carrier, ext_d.insert, {"x": point}, c
            )
        return self._subst[key]

    def alpha_map(self, f: int) -> dict[str, str]:
        """The substitution of the restricted generator, at dom f;
        candidate-independent.  For an endomorphism it is the substitution
        that ``invertibles`` builds."""
        cat = self.site.category
        ext_d = self.extensions[cat.cod(f)]
        return self.subst(cat.dom(f), cat.cod(f), ext_d.carrier.act(f, ext_d.generic["x"]))

    def invertibles(self, c: int) -> dict[str, str]:
        """Every substitutionally invertible element at c with its inverse.

        The carrier M at c is a finite monoid under a·b = a[x := b], with
        the generic element as unit, and ``subst(c, c, e)`` is t ↦ t·e.
        If that map is injective it is onto, so some m has m·e = 1; then
        (e·m)·e = e = 1·e, and injectivity gives e·m = 1.
        Conversely an inverse u of e makes t ↦ t·u undo it.  So e is
        invertible iff its map is injective, and its inverse, unique in a
        monoid, is the one m sent to the generic element.  Then m is
        invertible with inverse e, so m's own substitution is never built
        here.  Nor is the substitution of a base element e ≠ x, one in
        insert(F)(c): substitution fixes the base, so x·e = e = e·e and
        t ↦ t·e is not injective.  The result lists the invertible
        elements in carrier order.  It is not cached: the pipeline reads
        each object once, and a second read reuses ``subst``'s cache.
        """
        ext = self.extensions[c]
        elements, generic = ext.carrier.sets[c], ext.generic["x"]
        base = set(ext.insert.components[c].values())
        base.discard(generic)
        inverse: dict[str, str] = {}
        for e in elements:
            if e in inverse or e in base:
                continue
            times_e = self.subst(c, c, e)
            preimage = dict(zip(times_e.values(), times_e))
            if len(preimage) == len(times_e):
                m = preimage[generic]
                inverse[e], inverse[m] = m, e
        return {e: inverse[e] for e in elements if e in inverse}

    def reflect_data(self, c: int, cover) -> dict:
        """The candidate-independent record both amalgamation checks read.

        ``sheaf`` is a(F + R) for the cover's sieve R, built by
        ``_sieve_extension``: the sheafified quotient of
        F + Σ_{f ∈ gens(R)} y(dom f) by x_f·g ~ x_{f′}·g′ whenever
        f∘g = f′∘g′, which is F + R.  When R has one generating member f
        and no relation applies (the maximal sieve, or a sieve generated by
        one arrow f with f∘g = f∘g′ only for g = g′), that quotient equals
        F + y(dom f), the level zero of ``extensions[dom f]``, so the
        plus-construction memo returns that extension's carrier as
        ``sheaf`` instead of building an equal one.  ``insert`` embeds F,
        ``generic`` maps each member f to its image r_f, and ``amalgam`` is
        the one amalgamation of that family.  ``member_maps[f]``
        substitutes r_f for the generator at dom f, and ``top_map``
        substitutes the amalgam for the generator at c; each is held as its
        component at that object, the one the checks read; ``top_map`` is
        evaluated there alone (``subst_at``), but a generator's map whole
        (``subst_map``), as its composites read it elsewhere.  Only the
        generators' member maps and ``top_map`` are substitutions; every
        other member is f∘g for a generator f, and r_{f∘g} = r_f·g, so its
        map is ``alpha_map(g)`` followed by f's, read at dom g: both send
        the generator to r_{f∘g} and agree on F, and a map off a free
        extension is fixed by those.

        Let K = a(F + Σ_f y(dom f)), the free extension by one generator
        x_f per member, and G = {(x_f·g, x_{f∘g})}.  Because a is a left
        adjoint, a(K/G) ≅ a(F + R) with x_f ↦ r_f, and the unique map
        K → a(F + R) through insert and r carries K's member maps onto
        ``member_maps``.  So "locally equal modulo G in K" is plain equality
        here, which ``_enumerate_members`` uses to show that condition (iv)
        follows from the others.
        """
        key = (c, cover.key())
        if key not in self._reflect_data:
            cat = self.site.category
            generators = generating_members(cat, cover)
            sheaf, insert, generic, amalgam = _sieve_extension(
                self.sheaf, self.site, cover, self.max_families
            )
            gen_maps = {
                f: subst_map(self.extensions[cat.dom(f)], sheaf, insert, {"x": generic[f]})
                for f in generators
            }
            member_maps = {f: gen_maps[f].components[cat.dom(f)] for f in generators}
            for f in generators:
                for g in cat.cone(cat.dom(f)):
                    m = cat.comp[(f, g)]
                    if m not in member_maps:
                        at_g = gen_maps[f].components[cat.dom(g)]
                        member_maps[m] = {e: at_g[v] for e, v in self.alpha_map(g).items()}
            self._reflect_data[key] = {
                "sheaf": sheaf,
                "insert": insert,
                "generic": generic,
                "amalgam": amalgam,
                "member_maps": member_maps,
                "top_map": subst_at(self.extensions[c], sheaf, insert, {"x": amalgam}, c),
            }
        return self._reflect_data[key]

    def direct_reflect_data(self, c: int, cover) -> dict:
        """The k-generator free extension the direct reflect check reads.

        ``extension`` adjoins one generator x_f at dom f for each member f
        of the cover, ``generic`` maps f to x_f, and ``member_maps[f]`` is
        the component at dom f of substituting x_f for the generator,
        evaluated there alone (``subst_at``).  Only
        ``check_membership`` builds it; the enumeration path never does.
        """
        key = (c, cover.key())
        if key not in self._direct_reflect_data:
            cat = self.site.category
            members = cover.sorted_members()
            gens = [(f"x_{cat.name(f)}", cat.dom(f)) for f in members]
            ext = free_extension(self.sheaf, self.site, gens, self.max_families)
            generic = {f: ext.generic[f"x_{cat.name(f)}"] for f in members}
            self._direct_reflect_data[key] = {
                "extension": ext,
                "generic": generic,
                "member_maps": {
                    f: subst_at(self.extensions[y], ext.carrier, ext.insert, {"x": generic[f]}, y)
                    for f, (_, y) in zip(members, gens)
                },
            }
        return self._direct_reflect_data[key]


def _check_alpha(ctx: IsotropyContext, components: tuple[str, ...]):
    # For f : C -> D, substituting the restricted generator into the C
    # component must agree with restricting the D component; both sides
    # live at object C of the extension at D.
    cat = ctx.site.category
    for f in range(len(cat.morphisms)):
        c, d = cat.dom(f), cat.cod(f)
        ext_d = ctx.extensions[d]
        left = ctx.alpha_map(f)[components[c]]
        right = ext_d.carrier.act(f, components[d])
        if left != right:
            return cat.name(f)
    return None


def _images(cat: FinCategory, data: dict, cover, components) -> dict:
    """Each member's image, under a record's member map, of the component at
    its domain."""
    return {f: data["member_maps"][f][components[cat.dom(f)]] for f in cover.members}


def _check_sigma(ctx: IsotropyContext, components: tuple[str, ...]):
    """Condition (iii): per cover, the member images match and their one
    amalgamation is the substituted top.  Only restrictions of an element
    are listed as amalgamations, and those always match, so images that do
    not match have none and fail the one comparison."""
    cat = ctx.site.category
    for c in range(len(cat.objects)):
        for cover in ctx.site.topology.covers_of(c):
            data = ctx.reflect_data(c, cover)
            images = _images(cat, data, cover, components)
            candidates = data["sheaf"].amalgamations_of(
                cover, tuple(images[f] for f in cover.sorted_members())
            )
            if candidates != (data["top_map"][components[c]],):
                return (cat.objects[c], cover)
    return None


def _check_reflect(ctx: IsotropyContext, components: tuple[str, ...]):
    """Condition (iv): x_f·g and x_{f∘g} meet in the sheafification of the
    k-generator carrier K modulo ψ(G), where ψ substitutes the components
    for the generators and G = {(x_f·g, x_{f∘g})}.

    The check builds the quotient of K by ψ(G) per cover, from
    ``direct_reflect_data``, and decides the meeting with ``locally_equal``
    without sheafifying.  It also judges families that are not invertible.
    Only ``check_membership`` and the tests run it: on the enumeration path
    (iv) follows from the other conditions (see ``_enumerate_members``).
    """
    cat = ctx.site.category
    topology = ctx.site.topology
    for c in range(len(cat.objects)):
        for cover in topology.covers_of(c):
            data = ctx.direct_reflect_data(c, cover)
            carrier = data["extension"].carrier
            quotient, projection = quotient_presheaf(
                carrier,
                matching_relations(cat, carrier, cover, _images(cat, data, cover, components)),
            )
            if not all(
                locally_equal(
                    quotient, topology, x, projection.apply(x, a), projection.apply(x, b)
                )
                for x, a, b in matching_relations(cat, carrier, cover, data["generic"])
            ):
                return (cat.objects[c], cover)
    return None


def check_membership(
    sheaf: Presheaf, site: Site, family, ctx: IsotropyContext | None = None
) -> MembershipReport:
    """Run the four membership conditions on a candidate family.

    ``family`` maps object names (or ids) to free-extension carrier
    elements; witnesses name the failing morphism or cover.  A key that
    names no object raises :class:`UnknownObjectError`, and two keys that
    name one object, such as its name and its id, are refused.
    """
    ctx = ctx or IsotropyContext(sheaf, site)
    cat = site.category
    if isinstance(family, IsotropyElement):
        components = family.components
    else:
        resolved = {}
        for key, value in family.items():
            if isinstance(key, str):
                x = cat.object_id(key)
            elif isinstance(key, int) and 0 <= key < len(cat.objects):
                x = key
            else:
                raise UnknownObjectError(f"unknown object id {key!r}")
            if x in resolved:
                raise HypothesisViolationError(f"family has two components at {cat.objects[x]!r}")
            resolved[x] = value
        missing = [cat.objects[x] for x in range(len(cat.objects)) if x not in resolved]
        if missing:
            raise HypothesisViolationError(f"family has no component at {missing[0]!r}")
        components = tuple(resolved[x] for x in range(len(cat.objects)))
    for x, e in enumerate(components):
        if e not in ctx.extensions[x].carrier.sets[x]:
            raise HypothesisViolationError(
                f"family component at {cat.objects[x]!r} is not a carrier element"
            )
    witnesses: dict[str, object] = {}
    inverse: list[str] | None = []
    for x in range(len(cat.objects)):
        inv = ctx.invertibles(x).get(components[x])
        if inv is None:
            witnesses["invertible"] = cat.objects[x]
            inverse = None
            break
        inverse.append(inv)
    alpha_witness = _check_alpha(ctx, components)
    if alpha_witness is not None:
        witnesses["alpha_commutes"] = alpha_witness
    sigma_witness = _check_sigma(ctx, components)
    if sigma_witness is not None:
        witnesses["sigma_commutes"] = sigma_witness
    reflect_witness = _check_reflect(ctx, components)
    if reflect_witness is not None:
        witnesses["reflects_definedness"] = reflect_witness
    return MembershipReport(
        invertible="invertible" not in witnesses,
        alpha_commutes=alpha_witness is None,
        sigma_commutes=sigma_witness is None,
        reflects_definedness=reflect_witness is None,
        witnesses=witnesses,
        inverse=tuple(inverse) if inverse is not None else None,
    )


def _commuting_candidates(ctx: IsotropyContext) -> list[tuple[str, ...]]:
    """Search over per-object candidates with commutation pruning.

    The candidates at C are its invertible elements, in carrier order; the
    commutation condition along every morphism f : C -> D, substituting the
    restricted generator into the C component against restricting the D
    component, prunes the product space.  The search runs under the
    context's ``max_families`` guard.
    """
    cat = ctx.site.category
    what = "isotropy candidates over " + ", ".join(repr(o) for o in cat.objects)
    return natural_search(
        cat,
        [list(ctx.invertibles(c)) for c in range(len(cat.objects))],
        ctx.alpha_map,
        lambda f: ctx.extensions[cat.cod(f)].carrier.actions[f],
        ctx.max_families,
        what,
    )


def _enumerate_members(ctx: IsotropyContext) -> list[IsotropyElement]:
    """The commuting candidates that pass the σ check.

    Number the conditions as in ``MembershipReport``: (i) invertible, (ii)
    α-commuting, (iii) σ-commuting, (iv) reflecting definedness.  The
    candidates pass (i) and (ii).  Only (iii) is run, and it rejects
    nothing; (iv) is left to the direct check of ``check_membership``.

    Write σ_C for substituting s_C for the generator at C, τ_C for
    substituting its inverse t_C, and α_f for ``alpha_map(f)``.  Maps out
    of a free extension agree when they agree on its generic element, so
    (ii) says α_f∘σ_C = σ_D∘α_f, and then t passes (ii) too:
    τ_D∘α_f = τ_D∘α_f∘σ_C∘τ_C = τ_D∘σ_D∘α_f∘τ_C = α_f∘τ_C.
    Both (iii) and (iv) can be read in one sheaf per (c, cover), the
    a(F + R) of ``reflect_data``: with K the k-generator free extension and
    G the generic matching relation, a(K/G) ≅ a(F + R) with x_f sent to the
    generic family r_f.  The images of s under the member maps match by
    (ii) for s, and s_C[x := amalgam] restricts to them, so it is their one
    amalgamation in a(F + R): that is (iii).

    For (iv), φ : x_f ↦ t[x := x_f] is a two-sided inverse of ψ, the map
    substituting s for the generators, so the congruence generated by ψ(G)
    is ψ of the one generated by G, and x_f·g ≡ x_{f∘g} locally mod ψ(G)
    iff φ(x_f)·g ≡ φ(x_{f∘g}) locally mod G, that is, iff the images
    t_{dom f}[x := r_f] match in a(F + R).  By (ii) for t along
    g : E -> dom f they do:
    t_{dom f}[x := r_f]·g = α_g(t_E)[x := r_f] = t_E[x := r_{f∘g}].
    """
    return [
        IsotropyElement(components)
        for components in _commuting_candidates(ctx)
        if _check_sigma(ctx, components) is None
    ]


def isotropy_group(
    sheaf: Presheaf,
    site: Site,
    method: str = "auto",
    ctx: IsotropyContext | None = None,
) -> FiniteGroup:
    """The group of membership-passing families under substitution.

    Every method enumerates the invertible, commuting families, in
    lexicographic order of their components.  The group table is built
    over the component tuples, which hash in C, and the elements are then
    the members themselves.  "auto" and "full" are the same computation.
    "pure" is too, but first refuses a site that is not subcanonical or
    has an empty cover: only there is every member a family of generator
    images, which ``verify_main_theorem`` checks through the centre
    embedding.
    """
    ctx = ctx or IsotropyContext(sheaf, site)
    if method not in ("auto", "full", "pure"):
        raise ValueError(f"unknown method {method!r}")
    if method == "pure" and (
        not is_subcanonical(site.category, site.topology, ctx.max_families)[0]
        or empty_cover_objects(site.category, site.topology)
    ):
        raise HypothesisViolationError(
            "the pure-family fast path needs a subcanonical site without empty covers"
        )
    members = _enumerate_members(ctx)
    components = [m.components for m in members]
    # a·b substitutes b's component for the generator in a's, per object.
    times = {b: [ctx.subst(c, c, q) for c, q in enumerate(b)] for b in components}

    def multiply(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(map(dict.__getitem__, times[b], a))

    group = finite_group(components, multiply)
    return replace(group, elements=tuple(members))


def centre_embedding(
    site: Site, sheaf: Presheaf, psi: CentreElement, ctx: IsotropyContext | None = None
) -> IsotropyElement:
    """The family sending each object to the generator moved by the centre.

    Component at C is the generator at C restricted along psi's component;
    on subcanonical sites without empty covers this lands bijectively on
    the isotropy group.
    """
    ctx = ctx or IsotropyContext(sheaf, site)
    components = []
    for c in range(len(site.category.objects)):
        ext = ctx.extensions[c]
        components.append(ext.carrier.act(psi.components[c], ext.generic["x"]))
    return IsotropyElement(tuple(components))


def is_inner(
    sheaf: Presheaf, gamma: PresheafMap, site: Site
) -> CentreElement | None:
    """A centre element acting as the given endomorphism, if one exists."""
    ok, _ = is_subcanonical(site.category, site.topology)
    if not ok:
        raise HypothesisViolationError("inner recognition needs a subcanonical site")
    cat = site.category
    for psi in centre(cat).elements:
        if all(
            gamma.components[c] == {e: sheaf.act(psi.components[c], e) for e in sheaf.sets[c]}
            for c in range(len(cat.objects))
        ):
            return psi
    return None


def extended_action(psi: CentreElement, gamma: PresheafMap) -> PresheafMap:
    """The automorphism of gamma's target with components along the centre."""
    target = gamma.target
    cat = target.cat
    components = {
        c: {e: target.act(psi.components[c], e) for e in target.sets[c]}
        for c in range(len(cat.objects))
    }
    return PresheafMap(target, target, components)


def dense_extension(ayc: AycCategory, beta: CentreElement, sheaf: Presheaf) -> PresheafMap:
    """Extend a centre element of the sheafified-representable category.

    Every sheaf is a canonical colimit of sheafified representables, so a
    natural automorphism of their identity functor determines a unique
    compatible endomorphism here: the component at C sends e to the image
    of beta's twist of the canonical point, the element of beta's
    component at C, under the map classifying e.  That map sends the
    unit image of g : C -> C in y(C) to e·g, so when the twisted element
    has a level-zero preimage g (looked up through both plus layers' unit
    indexes, ``Sheafification.level0_preimage``) the component is the
    sheaf's action of g, read from its table.  Only other twists are
    classified element by element.
    """
    cat = sheaf.cat
    components: dict[int, dict[str, str]] = {}
    for c in range(len(cat.objects)):
        bundle = ayc.sheafifications[c]
        twisted = ayc.elements[beta.components[c]]
        g = bundle.level0_preimage(c, twisted)
        if g is not None:
            action = sheaf.actions[cat.morphism_id(g)]
            components[c] = {e: action[e] for e in sheaf.sets[c]}
        else:
            components[c] = {
                e: classify_at(bundle, sheaf, e, c, twisted) for e in sheaf.sets[c]
            }
    return PresheafMap(sheaf, sheaf, components)


def auto_catalogue(site: Site, max_families: int = DEFAULT_MAX_FAMILIES) -> list[tuple[str, Presheaf]]:
    """Sheafified representables, the terminal sheaf, and sheafified binary
    coproducts of those, named deterministically."""
    cat, topology = site.category, site.topology
    named = [
        (f"a(y {name})", sheafification(representable(cat, x), topology, max_families).sheaf)
        for x, name in enumerate(cat.objects)
    ]
    named.append(("terminal", terminal_presheaf(cat)))
    base = list(named)
    for i in range(len(base)):
        for j in range(i, len(base)):
            total, _ = coproduct_many([base[i][1], base[j][1]])
            sheaf = sheafification(total, topology, max_families).sheaf
            named.append((f"a({base[i][0]} + {base[j][0]})", sheaf))
    return named


def _catalogue_isotropy(
    site: Site,
    catalogue: list[tuple[str, Presheaf]],
    method: str,
    max_families: int,
    more=lambda ctx: None,
):
    """Yield each catalogue entry's name with its sheaf's isotropy group and
    ``more(ctx)``, computed once per distinct sheaf.

    Entries hold the same sheaf when their presheaves are equal: same
    category, same ordered sets, same actions.  Isomorphic sheaves with other
    element ids are computed apart.  Each entry reuses the results of its
    first equal predecessor, found by a linear scan because presheaves are
    unhashable.  Only the results are kept; each context is dropped once its
    sheaf is done.
    """
    done: list[tuple[Presheaf, tuple]] = []
    for name, sheaf in catalogue:
        for seen, results in done:
            if seen == sheaf:
                break
        else:
            ctx = IsotropyContext(sheaf, site, max_families)
            group = isotropy_group(sheaf, site, method, ctx)
            results = (group, more(ctx))
            done.append((sheaf, results))
        yield (name, *results)


def _transfer(cat: FinCategory, ayc: AycCategory, psi: CentreElement) -> CentreElement:
    """psi in the sheafified-representable category: ψ_x∘- on y(x) extends
    to the sheaf map sending the canonical point to unit_x(ψ_x)."""
    return CentreElement(
        tuple(
            ayc.morphism_for(x, x, ayc.sheafifications[x].unit.apply(x, cat.name(f)))
            for x, f in enumerate(psi.components)
        )
    )


def _isomorphism_failures(
    source: FiniteGroup, images: list, target: FiniteGroup, not_bijective: str, not_homomorphic: str
) -> list[str]:
    """The first of the two messages that applies to sending each element
    of ``source`` to its image, listed in element order, onto ``target``.

    A map that respects every product with a generator respects every
    product (induct on word length), so only those products are checked,
    by reading each image's index in ``target`` once and the products off
    the two tables.
    """
    if len(set(images)) != source.order or set(images) != set(target.elements):
        return [not_bijective]
    at = list(map(target.index, images))
    if any(
        target.table[(at[i], at[s])] != at[source.table[(i, s)]]
        for i in range(source.order)
        for s in source.generators
    ):
        return [not_homomorphic]
    return []


def verify_main_theorem(
    site: Site,
    catalogue: list[tuple[str, Presheaf]] | None = None,
    method: str = "full",
    max_families: int = DEFAULT_MAX_FAMILIES,
) -> dict:
    """Check that every sheaf's isotropy group is the relevant centre.

    Computes the centre of the site's category, the centre of the category
    of sheafified representables, and the isotropy group of every catalogue
    sheaf; asserts the dense-extension map is a group isomorphism from the
    former onto each of the latter, plus the subcanonical comparisons
    (restriction to objects without empty covers, and the embedding of the
    site centre itself).  Violations are collected, not raised.

    A sheaf listed under several names (equal sets and actions) has its
    isotropy group, dense-extension images and centre embedding computed
    once (see ``_catalogue_isotropy``).  Each name still gets its own
    ``per_sheaf`` entry and its own checks, and its violations carry its
    name, in catalogue order.
    """
    cat = site.category
    violations: list[str] = []
    centre_group = centre(cat)
    subcanonical, _ = is_subcanonical(cat, site.topology, max_families)
    empties = empty_cover_objects(cat, site.topology)
    ayc = ayc_category(cat, site.topology, max_families)
    ayc_centre = centre(ayc.category)
    if catalogue is None:
        catalogue = auto_catalogue(site, max_families)

    restricted_order = None
    if subcanonical:
        keep = [o for o in cat.objects if o not in empties]
        sub = full_subcategory(cat, keep)
        sub_centre = centre(sub)
        restricted_order = sub_centre.order

        def restrict(psi: CentreElement) -> CentreElement:
            return CentreElement(
                tuple(
                    sub.morphism_id(cat.name(psi.components[cat.object_id(o)]))
                    for o in sub.objects
                )
            )

        violations += _isomorphism_failures(
            centre_group,
            [restrict(psi) for psi in centre_group.elements],
            sub_centre,
            "restricting the centre to objects without empty covers is not bijective",
            "centre restriction is not a homomorphism",
        )
        violations += _isomorphism_failures(
            centre_group,
            [_transfer(cat, ayc, psi) for psi in centre_group.elements],
            ayc_centre,
            "the centre does not transfer bijectively onto the "
            "sheafified-representable category",
            "the centre transfer onto the sheafified-representable "
            "category is not a homomorphism",
        )

    def shared(ctx: IsotropyContext):
        dense_images = []
        for beta in ayc_centre.elements:
            components = []
            for c in range(len(cat.objects)):
                ext = ctx.extensions[c]
                twist = dense_extension(ayc, beta, ext.carrier)
                components.append(twist.components[c][ext.generic["x"]])
            dense_images.append(IsotropyElement(tuple(components)))
        embedded = None
        if subcanonical and not empties:
            embedded = [
                centre_embedding(site, ctx.sheaf, psi, ctx) for psi in centre_group.elements
            ]
        return dense_images, embedded

    per_sheaf = []
    for name, group, (dense_images, embedded) in _catalogue_isotropy(
        site, catalogue, method, max_families, shared
    ):
        entry = {
            "name": name,
            "isotropy_order": group.order,
            "bijection": [
                [beta.display(ayc.category), image.display(cat)]
                for beta, image in zip(ayc_centre.elements, dense_images)
            ],
        }
        if group.order != ayc_centre.order:
            violations.append(
                f"sheaf {name!r}: isotropy order {group.order} differs from "
                f"the sheafified-representable centre order {ayc_centre.order}"
            )
        if not set(dense_images) <= set(group.elements):
            violations.append(
                f"sheaf {name!r}: a dense extension image is not an isotropy member"
            )
        else:
            violations += _isomorphism_failures(
                ayc_centre,
                dense_images,
                group,
                f"sheaf {name!r}: dense extension is not a bijection onto isotropy",
                f"sheaf {name!r}: dense extension is not a homomorphism",
            )
        if embedded is not None:
            violations += _isomorphism_failures(
                centre_group,
                embedded,
                group,
                f"sheaf {name!r}: the centre embedding does not land "
                "bijectively on the isotropy group",
                f"sheaf {name!r}: the centre embedding is not a homomorphism",
            )
        per_sheaf.append(entry)

    return {
        "centre_order": centre_group.order,
        "ayc_centre_order": ayc_centre.order,
        "subcanonical": subcanonical,
        "empty_cover_objects": list(empties),
        "restricted_centre_order": restricted_order,
        "per_sheaf": per_sheaf,
        "violations": violations,
    }
