"""Reference implementations the suite holds ``finsite`` to: the oracles.

Each ``oracle_*`` is the straightforward version of one library function,
named on the first line of its docstring: a matching-family search that
rescans every chosen member against each candidate, a
natural-transformation search that copies its whole assignment per
branch, backtrackers for the centre and the isotropy candidates that
recheck naturality against every assigned object, a plus-construction
that joins related (cover, family) pairs over every cover by union-find, a
definedness-reflection check that sheafifies each quotient, a sieve
extension that sheafifies the coproduct with the sieve subpresheaf, an
extension of maps into sheaves that amalgamates every class, an
invertibility test that tries every pair of carrier elements, a dense
extension that builds each classifying map whole, a σ check that tests
matching at every member before the amalgamation, a category of
sheafified representables whose hom-sets come from a
natural-transformation search, saturation by closing the whole sieve
lattice, topology validation that pulls each non-covering sieve back along
every cover's members, a sheaf check over every cover, maximal sieves
included, group tables built over the element objects, and the group laws
checked on every triple.  ``tests/test_oracles.py`` keeps every oracle
here and every named function importable.

The helpers before the oracles (``check_presheaf_map``,
``sieve_subpresheaf``, ``empty_presheaf``, ``find_isomorphism``,
``make_matching_family`` and ``is_sheaf``) are direct definitions that
only the tests read.
"""

from functools import partial
from itertools import combinations
from types import SimpleNamespace

from finsite.errors import NoAmalgamationError, NotMatchingError
from finsite.fincat import CentreElement, natural_endomorphism_families, validate_category
from finsite.freeext import subst_map
from finsite.groups import FiniteGroup, finite_group, group_law_violations
from finsite.isotropy import IsotropyElement, _check_reflect, _check_sigma, _enumerate_members
from finsite.phl import PartialStructure, alpha_symbol, sheaf_signature, sigma_symbol
from finsite.presheaf import (
    DEFAULT_MAX_FAMILIES,
    MatchingFamily,
    PlusConstruction,
    Presheaf,
    PresheafMap,
    SheafStatus,
    amalgamations,
    coproduct_many,
    identity_map,
    matching_families,
    nat_transformations,
    quotient_presheaf,
    representable,
    sheaf_status,
    sheafification,
    sheafify,
)
from finsite.site import (
    Sieve,
    Topology,
    TopologyViolation,
    all_sieves,
    is_sieve,
    maximal_sieve,
    pullback_sieve,
)


# -- direct definitions -------------------------------------------------------


def check_presheaf_map(m):
    """Raise if components are ill-typed or naturality fails."""
    f_, g_ = m.source, m.target
    for x in range(len(f_.cat.objects)):
        comp = m.components.get(x)
        if comp is None or set(comp) != set(f_.sets[x]):
            raise NotMatchingError(
                f"map component at {f_.cat.objects[x]!r} does not cover the source"
            )
        for e, v in comp.items():
            if v not in g_.sets[x]:
                raise NotMatchingError(
                    f"component at {f_.cat.objects[x]!r} sends {e!r} outside the target"
                )
    for f in range(len(f_.cat.morphisms)):
        mor = f_.cat.morphisms[f]
        for e in f_.sets[mor.cod]:
            if m.components[mor.dom][f_.act(f, e)] != g_.act(
                f, m.components[mor.cod][e]
            ):
                raise NotMatchingError(
                    f"naturality fails along {f_.cat.name(f)!r} at {e!r}"
                )


def sieve_subpresheaf(cat, sieve):
    """The subpresheaf of the representable at the target spanned by a sieve."""
    sets = {
        y: tuple(
            cat.name(f)
            for f in cat.hom_ids(y, sieve.target)
            if f in sieve.members
        )
        for y in range(len(cat.objects))
    }
    actions = {}
    for f in range(len(cat.morphisms)):
        m = cat.morphisms[f]
        actions[f] = {
            cat.name(g): cat.name(cat.comp[(g, f)])
            for g in cat.hom_ids(m.cod, sieve.target)
            if g in sieve.members
        }
    return Presheaf(cat, sets, actions)


def empty_presheaf(cat):
    """The presheaf with no elements at any object."""
    sets = {x: () for x in range(len(cat.objects))}
    actions = {f: {} for f in range(len(cat.morphisms))}
    return Presheaf(cat, sets, actions)


def find_isomorphism(f_, g_):
    """The first bijective natural transformation, or None."""
    for t in nat_transformations(f_, g_):
        if t.is_bijective():
            return t
    return None


def make_matching_family(f_, sieve, assignment):
    """The matching family with the given value at each member; raise if
    the values do not cover the sieve or do not match."""
    if set(assignment) != set(sieve.members):
        raise NotMatchingError("assignment does not cover the sieve")
    cat = f_.cat
    for f in sieve.members:
        if assignment[f] not in f_.sets[cat.dom(f)]:
            raise NotMatchingError(
                f"value at {cat.name(f)!r} is not an element of the right set"
            )
        for g in cat.cone(cat.dom(f)):
            if f_.act(g, assignment[f]) != assignment[cat.comp[(f, g)]]:
                raise NotMatchingError(
                    f"family not matching at {cat.name(f)!r} along {cat.name(g)!r}"
                )
    items = tuple((f, assignment[f]) for f in sieve.sorted_members())
    return MatchingFamily(sieve, items)


def is_sheaf(f_, topology, max_families=DEFAULT_MAX_FAMILIES):
    """Whether ``sheaf_status`` reports a sheaf."""
    return sheaf_status(f_, topology, max_families) is SheafStatus.SHEAF


# -- oracles ------------------------------------------------------------------


def oracle_matching_families(f_, sieve):
    """Guards ``finsite.presheaf.matching_families``.

    Every matching family on the sieve, rescanning each chosen member
    against every candidate value."""
    cat = f_.cat
    members = sieve.sorted_members()
    out = []
    chosen = {}

    def consistent(f, v):
        for a, va in chosen.items():
            for g in cat.cone(cat.dom(a)):
                if cat.comp[(a, g)] == f and f_.act(g, va) != v:
                    return False
            for g in cat.cone(cat.dom(f)):
                if cat.comp[(f, g)] == a and f_.act(g, v) != va:
                    return False
        for g in cat.cone(cat.dom(f)):
            if cat.comp[(f, g)] == f and f_.act(g, v) != v:
                return False
        return True

    def rec(i):
        if i == len(members):
            out.append(MatchingFamily(sieve, tuple((f, chosen[f]) for f in members)))
            return
        f = members[i]
        for v in f_.sets[cat.dom(f)]:
            if consistent(f, v):
                chosen[f] = v
                rec(i + 1)
                del chosen[f]

    rec(0)
    return out


def oracle_nat_transformations(f_, g_):
    """Guards ``finsite.presheaf.nat_transformations``.

    Every natural transformation, copying the whole assignment per
    branch."""
    cat = f_.cat
    slots = [(x, e) for x in range(len(cat.objects)) for e in f_.sets[x]]
    assignment = {}
    results = []

    def propagate(queue):
        while queue:
            (x, e) = queue.pop()
            v = assignment[(x, e)]
            for f in range(len(cat.morphisms)):
                m = cat.morphisms[f]
                if m.cod != x:
                    continue
                key = (m.dom, f_.act(f, e))
                fv = g_.act(f, v)
                if key in assignment:
                    if assignment[key] != fv:
                        return False
                else:
                    assignment[key] = fv
                    queue.append(key)
        return True

    def rec(i):
        if i == len(slots):
            results.append(
                PresheafMap(
                    f_,
                    g_,
                    {
                        x: {e: assignment[(x, e)] for e in f_.sets[x]}
                        for x in range(len(cat.objects))
                    },
                )
            )
            return
        key = slots[i]
        if key in assignment:
            rec(i + 1)
            return
        for candidate in g_.sets[key[0]]:
            before = dict(assignment)
            assignment[key] = candidate
            if propagate([key]):
                rec(i + 1)
            assignment.clear()
            assignment.update(before)

    rec(0)
    return results


def oracle_natural_endomorphism_families(cat):
    """Guards ``finsite.fincat.natural_endomorphism_families``.

    Object by object, checking naturality along every morphism between
    assigned objects."""
    n = len(cat.objects)
    chosen = []
    out = []

    def natural_so_far(x, psi_x):
        def component(obj):
            return psi_x if obj == x else chosen[obj]

        for f, m in enumerate(cat.morphisms):
            if m.dom > x or m.cod > x or (m.dom != x and m.cod != x):
                continue
            if cat.comp[(f, component(m.dom))] != cat.comp[(component(m.cod), f)]:
                return False
        return True

    def rec(x):
        if x == n:
            out.append(tuple(chosen))
            return
        for psi_x in cat.endomorphisms(x):
            if natural_so_far(x, psi_x):
                chosen.append(psi_x)
                rec(x + 1)
                chosen.pop()

    rec(0)
    return out


def oracle_enumerate_members(ctx, pure_only):
    """Guards ``finsite.isotropy._enumerate_members``.

    Object by object over the invertible (or pure) candidates, checking
    commutation along every morphism between assigned objects, then the
    amalgamation checks off the pure path."""
    cat = ctx.site.category
    n = len(cat.objects)
    candidate_sets = []
    for c in range(n):
        ext = ctx.extensions[c]
        invertible = ctx.invertibles(c)
        if pure_only:
            pure = []
            for f in cat.endomorphisms(c):
                e = ext.carrier.act(f, ext.generic["x"])
                if e in invertible and e not in pure:
                    pure.append(e)
            candidate_sets.append(pure)
        else:
            candidate_sets.append([e for e in ext.carrier.sets[c] if e in invertible])
    chosen = []
    survivors = []
    alpha = {}
    for f, m in enumerate(cat.morphisms):
        ext_c, ext_d = ctx.extensions[m.dom], ctx.extensions[m.cod]
        point = ext_d.carrier.act(f, ext_d.generic["x"])
        alpha[f] = subst_map(ext_c, ext_d.carrier, ext_d.insert, {"x": point}).components[m.dom]

    def alpha_ok(x, e):
        for f, m in enumerate(cat.morphisms):
            if m.dom > x or m.cod > x or (m.dom != x and m.cod != x):
                continue
            e_dom = e if m.dom == x else chosen[m.dom]
            e_cod = e if m.cod == x else chosen[m.cod]
            if alpha[f][e_dom] != ctx.extensions[m.cod].carrier.act(f, e_cod):
                return False
        return True

    def rec(x):
        if x == n:
            survivors.append(tuple(chosen))
            return
        for e in candidate_sets[x]:
            if alpha_ok(x, e):
                chosen.append(e)
                rec(x + 1)
                chosen.pop()

    rec(0)
    members = []
    for components in survivors:
        if not pure_only and (
            _check_sigma(ctx, components) is not None
            or _check_reflect(ctx, components) is not None
        ):
            continue
        members.append(IsotropyElement(components))
    return members


def oracle_amalgamations(f_, sieve, values):
    """Guards ``finsite.presheaf.Presheaf.amalgamations_of``.

    The elements at the sieve's target restricting to ``values``, by a
    linear scan."""
    members = sieve.sorted_members()
    return tuple(
        y
        for y in f_.sets[sieve.target]
        if all(f_.act(f, y) == v for f, v in zip(members, values))
    )


def oracle_sheaf_check(f_, topology):
    """Guards ``finsite.presheaf.sheaf_check``.

    (status, missing, ambiguous) from every matching family on every
    cover, the maximal sieves included."""
    missing, ambiguous = [], []
    for x in range(len(f_.cat.objects)):
        for cover in topology.covers_of(x):
            for family in matching_families(f_, cover):
                ams = amalgamations(f_, family)
                if not ams:
                    missing.append((x, cover, family))
                elif len(ams) > 1:
                    ambiguous.append((x, cover, family, ams))
    if ambiguous:
        status = SheafStatus.NOT_SEPARATED
    else:
        status = SheafStatus.SEPARATED_ONLY if missing else SheafStatus.SHEAF
    return status, missing, ambiguous


def oracle_all_sieves(cat, x):
    """Guards ``finsite.site.all_sieves``.

    Every subset of the cone that is a sieve, in canonical order."""
    cone = cat.cone(x)
    subsets = (
        Sieve(x, frozenset(members))
        for size in range(len(cone) + 1)
        for members in combinations(cone, size)
    )
    return sorted((s for s in subsets if is_sieve(cat, s)), key=Sieve.key)


def oracle_saturate_topology(cat, basis, max_families=1_000_000):
    """Guards ``finsite.site.saturate_topology``.

    The smallest topology holding the basis, by closing the covers under
    stability and transitivity over the whole sieve lattice until stable."""
    covers = {x: {maximal_sieve(cat, x)} for x in range(len(cat.objects))}
    for x, sieves in basis.items():
        covers[x].update(sieves)
    lattice = {x: all_sieves(cat, x, max_families) for x in range(len(cat.objects))}
    changed = True
    while changed:
        changed = False
        for x in range(len(cat.objects)):
            for s in list(covers[x]):
                for h in cat.cone(x):
                    p = pullback_sieve(cat, s, h)
                    if p not in covers[cat.dom(h)]:
                        covers[cat.dom(h)].add(p)
                        changed = True
        for x in range(len(cat.objects)):
            for s in lattice[x]:
                if s in covers[x]:
                    continue
                for r in list(covers[x]):
                    if all(
                        pullback_sieve(cat, s, h) in covers[cat.dom(h)]
                        for h in r.members
                    ):
                        covers[x].add(s)
                        changed = True
                        break
    return Topology({x: tuple(v) for x, v in covers.items()})


def oracle_validate_topology(cat, topology):
    """Guards ``finsite.site.validate_topology``.

    The topology axioms checked with one pass over the covers per
    non-covering sieve, pulling the sieve back along each cover's members."""
    out = []
    for x in range(len(cat.objects)):
        if not topology.is_cover(maximal_sieve(cat, x)):
            out.append(
                TopologyViolation(
                    "maximality", cat.objects[x], tuple(maximal_sieve(cat, x).display(cat))
                )
            )
    for x in range(len(cat.objects)):
        for s in topology.covers_of(x):
            if not is_sieve(cat, s) or s.target != x:
                out.append(
                    TopologyViolation("sieve-closure", cat.objects[x], tuple(s.display(cat)))
                )
                continue
            for h in cat.cone(x):
                if not topology.is_cover(pullback_sieve(cat, s, h)):
                    out.append(
                        TopologyViolation(
                            "stability", cat.objects[x], tuple(s.display(cat)), cat.name(h)
                        )
                    )
    for x in range(len(cat.objects)):
        for s in all_sieves(cat, x):
            if topology.is_cover(s):
                continue
            for r in topology.covers_of(x):
                if all(topology.is_cover(pullback_sieve(cat, s, h)) for h in r.members):
                    out.append(
                        TopologyViolation("transitivity", cat.objects[x], tuple(s.display(cat)))
                    )
                    break
    return out


def oracle_structure_from_presheaf(f_, topology):
    """Guards ``finsite.phl.structure_from_presheaf``.

    The sheaf-signature structure with each amalgamation table built from
    the matching families on its cover: a family with exactly one
    amalgamation is sent to it."""
    cat = f_.cat
    operations = {
        alpha_symbol(cat, f): {(e,): v for e, v in f_.actions[f].items()}
        for f in range(len(cat.morphisms))
    }
    for x in range(len(cat.objects)):
        for cover in topology.covers_of(x):
            table = {}
            for family in matching_families(f_, cover):
                ams = amalgamations(f_, family)
                if len(ams) == 1:
                    table[tuple(v for _, v in family.assignment)] = ams[0]
            operations[sigma_symbol(cat, cover)] = table
    carriers = {cat.objects[x]: f_.sets[x] for x in range(len(cat.objects))}
    return PartialStructure(sheaf_signature(cat, topology), carriers, operations)


def oracle_build_plus(f_, topology, max_families=1_000_000):
    """Guards ``finsite.presheaf.build_plus``.

    Classes of (cover, family) pairs that agree on some cover, joined by
    union-find over every pair of pairs."""
    cat = f_.cat
    pairs = {}
    for x in range(len(cat.objects)):
        enumerated = []
        for cover in topology.covers_of(x):
            for family in matching_families(f_, cover, max_families):
                enumerated.append((cover, family))
        pairs[x] = enumerated

    def related(p, q) -> bool:
        (r, xfam), (s, yfam) = p, q
        xd, yd = xfam.as_dict(), yfam.as_dict()
        common = r.members & s.members
        agree = frozenset(h for h in common if xd[h] == yd[h])
        return any(t.members <= agree for t in topology.covers_of(r.target))

    parent = {}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for x, enumerated in pairs.items():
        for i in range(len(enumerated)):
            parent[(x, i)] = (x, i)
        for i, j in combinations(range(len(enumerated)), 2):
            if related(enumerated[i], enumerated[j]):
                union((x, i), (x, j))

    # Each class is named p<i> after its least pair i, its representative.
    class_of_pair = {}
    rep_of_class = {}
    sets = {}
    for x, enumerated in pairs.items():
        reps = sorted({find((x, i))[1] for i in range(len(enumerated))})
        names = {rep: f"p{rep}" for rep in reps}
        class_of_pair[x] = [names[find((x, i))[1]] for i in range(len(enumerated))]
        rep_of_class[x] = {names[rep]: rep for rep in reps}
        sets[x] = tuple(names[rep] for rep in reps)

    pair_index = {
        x: {
            (cover.key(), family.assignment): i
            for i, (cover, family) in enumerate(enumerated)
        }
        for x, enumerated in pairs.items()
    }

    def restrict(x, i, h):
        cover, family = pairs[x][i]
        values = family.as_dict()
        pulled = pullback_sieve(cat, cover, h)
        assignment = tuple(
            (g, values[cat.comp[(h, g)]]) for g in pulled.sorted_members()
        )
        j = pair_index[cat.dom(h)][(pulled.key(), assignment)]
        return class_of_pair[cat.dom(h)][j]

    actions = {}
    for h in range(len(cat.morphisms)):
        m = cat.morphisms[h]
        actions[h] = {
            elem: restrict(m.cod, rep, h) for elem, rep in rep_of_class[m.cod].items()
        }
    plus = Presheaf(cat, sets, actions)

    unit_components = {}
    for x in range(len(cat.objects)):
        top = maximal_sieve(cat, x)
        comp = {}
        for d in f_.sets[x]:
            assignment = tuple((f, f_.act(f, d)) for f in top.sorted_members())
            comp[d] = class_of_pair[x][pair_index[x][(top.key(), assignment)]]
        unit_components[x] = comp
    unit = PresheafMap(f_, plus, unit_components)
    representatives = {
        x: {elem: pairs[x][rep] for elem, rep in reps.items()}
        for x, reps in rep_of_class.items()
    }
    return PlusConstruction(unit, representatives)


def oracle_check_reflect(ctx, components):
    """Guards ``finsite.isotropy._check_reflect``.

    Definedness reflection decided in the sheafification of each quotient."""
    cat = ctx.site.category
    for c in range(len(cat.objects)):
        for cover in ctx.site.topology.covers_of(c):
            ext = ctx.direct_reflect_data(c, cover)["extension"]
            images = {
                f: subst_map(
                    ctx.extensions[cat.dom(f)],
                    ext.carrier,
                    ext.insert,
                    {"x": ext.generic[f"x_{cat.name(f)}"]},
                ).apply(cat.dom(f), components[cat.dom(f)])
                for f in cover.members
            }
            relations = [
                (cat.dom(g), ext.carrier.act(g, images[f]), images[cat.comp[(f, g)]])
                for f in cover.members
                for g in cat.cone(cat.dom(f))
            ]
            quotient, projection = quotient_presheaf(ext.carrier, relations)
            q_sheaf, unit = sheafify(quotient, ctx.site.topology, ctx.max_families)

            def push(x, e):
                return unit.apply(x, projection.apply(x, e))

            generic_ok = all(
                q_sheaf.act(g, push(cat.dom(f), ext.generic[f"x_{cat.name(f)}"]))
                == push(cat.dom(cat.comp[(f, g)]), ext.generic[f"x_{cat.name(cat.comp[(f, g)])}"])
                for f in cover.members
                for g in cat.cone(cat.dom(f))
            )
            if not generic_ok:
                return (cat.objects[c], cover)
    return None


def oracle_matching(cat, sheaf, cover, images):
    """Guards ``finsite.isotropy._check_sigma``.

    Whether the images form a matching family, tested at every member."""
    return all(
        sheaf.act(g, images[f]) == images[cat.comp[(f, g)]]
        for f in cover.members
        for g in cat.cone(cat.dom(f))
    )


def oracle_sieve_extension(f_, site, cover, max_families=1_000_000):
    """Guards ``finsite.freeext._sieve_extension``.

    a(F + R) as the sheafified coproduct of F with the sieve subpresheaf R."""
    cat = site.category
    total, injections = coproduct_many([f_, sieve_subpresheaf(cat, cover)])
    bundle = sheafification(total, site.topology, max_families)
    insert = injections[0].then(bundle.unit)
    generic = {
        f: bundle.unit.apply(cat.dom(f), injections[1].apply(cat.dom(f), cat.name(f)))
        for f in cover.members
    }
    candidates = bundle.sheaf.amalgamations_of(
        cover, tuple(generic[f] for f in cover.sorted_members())
    )
    if len(candidates) != 1:
        raise NoAmalgamationError("generic matching family has no unique amalgamation")
    return bundle, insert, generic, candidates[0]


def oracle_extend_at(plus, apply, target, x, elem):
    """Guards ``finsite.presheaf.PlusConstruction.extend_at``.

    One value of the map F+ -> G through the unit, always by amalgamating
    the image of the element's family on J(X)."""
    cat = plus.base.cat
    cover, family = plus.pairs[x][elem]
    image = tuple(apply(cat.dom(f), val) for f, val in family.assignment)
    candidates = target.amalgamations_of(cover, image)
    if len(candidates) != 1:
        raise NoAmalgamationError(
            f"expected exactly one amalgamation in the target at "
            f"{cat.objects[x]!r}, found {len(candidates)}"
        )
    return candidates[0]


def oracle_sheafification_extend_at(bundle, v, x, elem):
    """Guards ``finsite.presheaf.Sheafification.extend_at``.

    The value at ``elem`` in the sheaf's component at x of the map out of
    the sheafification extending v, through both layers of
    ``oracle_extend_at``."""
    inner = partial(oracle_extend_at, bundle.plus1, v.apply, v.target)
    return oracle_extend_at(bundle.plus2, inner, v.target, x, elem)


def oracle_sheafification_extend(bundle, v):
    """Guards ``finsite.presheaf.Sheafification.extend_at``.

    The whole map out of the sheafification extending v, read off
    ``oracle_sheafification_extend_at`` at every element."""
    components = {
        x: {elem: oracle_sheafification_extend_at(bundle, v, x, elem) for elem in elems}
        for x, elems in bundle.sheaf.sets.items()
    }
    return PresheafMap(bundle.sheaf, v.target, components)


def oracle_invertibles(ctx, c):
    """Guards ``finsite.isotropy.IsotropyContext.invertibles``.

    Every pair of carrier elements at c tried as mutual inverses."""
    ext = ctx.extensions[c]
    generic = ext.generic["x"]
    times = {
        e: subst_map(ext, ext.carrier, ext.insert, {"x": e}).components[c]
        for e in ext.carrier.sets[c]
    }
    out = {}
    for e in ext.carrier.sets[c]:
        for e_inv in ext.carrier.sets[c]:
            if times[e_inv][e] == generic and times[e][e_inv] == generic:
                out[e] = e_inv
                break
    return out


def oracle_invertibles_by_injectivity(ctx, c):
    """Guards ``finsite.isotropy.IsotropyContext.invertibles``.

    Each carrier element at c whose whole substitution map is injective
    at c, with the element that map sends to the generic one."""
    ext = ctx.extensions[c]
    generic = ext.generic["x"]
    out = {}
    for e in ext.carrier.sets[c]:
        times_e = subst_map(ext, ext.carrier, ext.insert, {"x": e}).components[c]
        if len(set(times_e.values())) == len(times_e):
            out[e] = next(t for t, v in times_e.items() if v == generic)
    return out


def oracle_ayc_category(cat, topology):
    """Guards ``finsite.presheaf.ayc_category``.

    The category of sheafified representables with each hom-set found by
    a natural-transformation search and each composite built whole, then
    looked up by its components; ``maps`` holds every morphism's map."""
    bundles = {
        x: sheafification(representable(cat, x), topology) for x in range(len(cat.objects))
    }
    sheaves = {x: bundle.sheaf for x, bundle in bundles.items()}
    n = len(cat.objects)
    homs = {
        (x, y): nat_transformations(sheaves[x], sheaves[y]) for x in range(n) for y in range(n)
    }

    names = {}
    morphisms = []
    maps = {}

    def key(m):
        return tuple((o, tuple(sorted(c.items()))) for o, c in sorted(m.components.items()))

    def name_of(x, y, m):
        return names[(x, y, key(m))]

    for (x, y), ms in homs.items():
        for k, m in enumerate(ms):
            name = f"{cat.objects[x]}>{cat.objects[y]}#{k}"
            names[(x, y, key(m))] = name
            maps[len(morphisms)] = m
            morphisms.append((name, cat.objects[x], cat.objects[y]))
    identities = {cat.objects[x]: name_of(x, x, identity_map(sheaves[x])) for x in range(n)}
    composition = [
        (name_of(y, z, g), name_of(x, y, f), name_of(x, z, f.then(g)))
        for (x, y), fs in homs.items()
        for z in range(n)
        for g in homs[(y, z)]
        for f in fs
    ]
    category = validate_category(list(cat.objects), morphisms, identities, composition)
    return SimpleNamespace(category=category, sheafifications=bundles, maps=maps)


def oracle_dense_extension(oracle, beta, sheaf):
    """Guards ``finsite.isotropy.dense_extension``.

    The dense extension with β's twist read off the oracle category's
    maps and each classifying map y(C) -> sheaf built whole."""
    cat = sheaf.cat
    components = {}
    for c in range(len(cat.objects)):
        bundle = oracle.sheafifications[c]
        beta_map = oracle.maps[beta.components[c]]
        canonical = bundle.unit.apply(c, cat.name(cat.identity[c]))
        twisted = beta_map.apply(c, canonical)
        comp = {}
        for e in sheaf.sets[c]:
            classify = PresheafMap(
                bundle.presheaf,
                sheaf,
                {
                    d: {cat.name(g): sheaf.act(g, e) for g in cat.hom_ids(d, c)}
                    for d in range(len(cat.objects))
                },
            )
            comp[e] = oracle_sheafification_extend_at(bundle, classify, c, twisted)
        components[c] = comp
    return PresheafMap(sheaf, sheaf, components)


def oracle_sigma_steps(ctx, components):
    """Guards ``finsite.isotropy._check_sigma``.

    The σ check in two steps, with the step that failed: the member images
    must match at every member, and then a linear scan must find one
    amalgamation of them, the substituted top."""
    cat = ctx.site.category
    for c in range(len(cat.objects)):
        for cover in ctx.site.topology.covers_of(c):
            data = ctx.reflect_data(c, cover)
            sheaf = data["sheaf"]
            images = {f: data["member_maps"][f][components[cat.dom(f)]] for f in cover.members}
            if not oracle_matching(cat, sheaf, cover, images):
                return (cat.objects[c], cover), "matching"
            amalgams = [
                e for e in sheaf.sets[c] if all(sheaf.act(f, e) == images[f] for f in cover.members)
            ]
            if amalgams != [data["top_map"][components[c]]]:
                return (cat.objects[c], cover), "amalgam"
    return None, None


def oracle_level0_map(ext, target, base, points):
    """Guards ``finsite.freeext._level0_reader``.

    The level-zero map of substituting ``points[name]`` for each
    generator, read off the element ids: ``0:e`` goes through ``base``, and
    ``i:f`` to generator i's point restricted along f."""
    cat = ext.site.category
    names = [name for name, _ in ext.generators]
    components = {}
    for x, elems in ext.bundle.presheaf.sets.items():
        components[x] = {}
        for elem in elems:
            tag, _, value = elem.partition(":")
            if tag == "0":
                components[x][elem] = base.apply(x, value)
            else:
                point = points[names[int(tag) - 1]]
                components[x][elem] = target.act(cat.morphism_id(value), point)
    return PresheafMap(ext.bundle.presheaf, target, components)


def oracle_isotropy_group(ctx):
    """Guards ``finsite.isotropy.isotropy_group``.

    The isotropy group with its product run on the element objects."""
    n = len(ctx.site.category.objects)

    def multiply(a, b):
        return IsotropyElement(
            tuple(ctx.subst(c, c, b.components[c])[a.components[c]] for c in range(n))
        )

    return finite_group(_enumerate_members(ctx), multiply)


def oracle_centre(cat):
    """Guards ``finsite.fincat.centre``.

    The centre with its product run on the element objects."""
    elements = [
        CentreElement(fam)
        for fam in natural_endomorphism_families(cat)
        if all(cat.two_sided_inverse(f) is not None for f in fam)
    ]

    def multiply(a, b):
        return CentreElement(
            tuple(cat.comp[(p, q)] for p, q in zip(a.components, b.components))
        )

    return finite_group(elements, multiply)


def oracle_is_group(n, table):
    """Guards ``finsite.groups.finite_group``.

    Closed tables only: a two-sided unit, then ``group_law_violations``
    on every triple, unit and inverse."""
    units = [e for e in range(n) if all(table[(e, i)] == i == table[(i, e)] for i in range(n))]
    if not units:
        return False
    u = units[0]
    inverse = tuple(
        next((j for j in range(n) if table[(i, j)] == u == table[(j, i)]), u) for i in range(n)
    )
    return group_law_violations(FiniteGroup(tuple(range(n)), table, u, inverse)) == []


def oracle_group_centre(elements, multiply):
    """Guards ``finsite.fincat.centre``.

    Brute-force group centre: elements commuting with everything."""
    return [
        g for g in elements if all(multiply(g, x) == multiply(x, g) for x in elements)
    ]
