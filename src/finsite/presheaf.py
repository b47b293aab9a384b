"""Finite presheaves: maps, matching families, sheafification, quotients.

Element ids are strings, unique per object.  Constructed presheaves use
canonical provenance ids (coproducts tag parts, plus-construction
elements are named by their family's index on the least cover) so all
outputs are stable across runs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from operator import itemgetter

from .errors import (
    InvalidSieveError,
    NotMatchingError,
    NoAmalgamationError,
    PresheafInvalidError,
    UnknownObjectError,
)
from .fincat import FinCategory, Morphism
from .search import DEFAULT_MAX_FAMILIES, propagating_search
from .site import Sieve, Topology, generating_members, pullback_sieve


@dataclass(frozen=True, eq=False)
class Presheaf:
    """A contravariant set-valued functor on a finite category.

    ``sets`` maps object id to an ordered tuple of element ids; ``actions``
    maps each morphism f : X -> Y to a dict sending elements of sets[Y] to
    elements of sets[X].  Two presheaves are equal when they share the
    category and have the same ordered sets and the same actions.  The
    fields cannot be reassigned, and presheaves are not hashable.
    """

    cat: FinCategory
    sets: dict[int, tuple[str, ...]]
    actions: dict[int, dict[str, str]]
    _amalgamation_index: dict[tuple, dict[tuple[str, ...], tuple[str, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def amalgamation_index(self, sieve: Sieve) -> dict[tuple[str, ...], tuple[str, ...]]:
        """Each element's restriction tuple along the sieve, with the elements
        at the sieve's target that share it.

        A tuple lists one element per member in sorted member order; the
        elements keep declaration order.  Every key is a matching family
        with at least one amalgamation.  Built on first use and kept on the
        instance, which no code mutates after construction.
        """
        key = sieve.key()
        index = self._amalgamation_index.get(key)
        if index is None:
            tables = [self.actions[f] for f in key[1]]
            grouped: dict[tuple[str, ...], list[str]] = {}
            for y in self.sets[sieve.target]:
                grouped.setdefault(tuple(t[y] for t in tables), []).append(y)
            index = {k: tuple(v) for k, v in grouped.items()}
            self._amalgamation_index[key] = index
        return index

    def amalgamations_of(self, sieve: Sieve, values: tuple[str, ...]) -> tuple[str, ...]:
        """Elements at the sieve's target restricting to ``values``, which
        lists one element per member in sorted member order."""
        return self.amalgamation_index(sieve).get(values, ())

    def act(self, f: int, e: str) -> str:
        return self.actions[f][e]

    def size(self) -> dict[str, int]:
        return {self.cat.objects[x]: len(v) for x, v in sorted(self.sets.items())}

    def __eq__(self, other):
        return (
            isinstance(other, Presheaf)
            and self.cat is other.cat
            and self.sets == other.sets
            and self.actions == other.actions
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class PresheafMap:
    """A natural transformation between presheaves on the same category.

    The fields cannot be reassigned, and maps are not hashable."""

    source: Presheaf
    target: Presheaf
    components: dict[int, dict[str, str]]

    def apply(self, x: int, e: str) -> str:
        return self.components[x][e]

    def then(self, other: "PresheafMap") -> "PresheafMap":
        if other.source is not self.target and other.source != self.target:
            raise NotMatchingError("maps are not composable")
        comps = {
            x: {e: other.components[x][v] for e, v in comp.items()}
            for x, comp in self.components.items()
        }
        return PresheafMap(self.source, other.target, comps)

    def is_bijective(self) -> bool:
        for x, comp in self.components.items():
            if len(set(comp.values())) != len(comp) or len(comp) != len(
                self.target.sets[x]
            ):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, PresheafMap)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    __hash__ = None


def identity_map(presheaf: Presheaf) -> PresheafMap:
    return PresheafMap(
        presheaf,
        presheaf,
        {x: {e: e for e in v} for x, v in presheaf.sets.items()},
    )


@dataclass(frozen=True)
class PresheafViolation:
    kind: str
    message: str
    witnesses: tuple[str, ...] = ()


def validate_presheaf(cat: FinCategory, sets, actions) -> Presheaf:
    """Check coverage and functoriality of a raw presheaf description.

    ``sets`` maps object name to element list; ``actions`` maps morphism
    name to an element dict, and a key naming no object or morphism is a
    violation.  Raises :class:`PresheafInvalidError` with all violations on
    failure.
    """
    violations = [
        PresheafViolation("unknown-name", f"unknown {kind} {name!r} in {where}", (name,))
        for kind, where, given, known in (
            ("object", "sets", sets, cat.objects),
            ("morphism", "actions", actions, [m.name for m in cat.morphisms]),
        )
        for name in given
        if name not in known
    ]
    by_obj: dict[int, tuple[str, ...]] = {}
    for x in range(len(cat.objects)):
        name = cat.objects[x]
        elems = list(sets.get(name, ()))
        if len(set(elems)) != len(elems):
            violations.append(
                PresheafViolation(
                    "dangling-element", f"duplicate element id at {name!r}", (name,)
                )
            )
        by_obj[x] = tuple(elems)
    acts: dict[int, dict[str, str]] = {}
    for f in range(len(cat.morphisms)):
        mname = cat.name(f)
        table = actions.get(mname)
        if table is None:
            violations.append(
                PresheafViolation("missing-action", f"no action for {mname!r}", (mname,))
            )
            continue
        codset, domset = by_obj[cat.cod(f)], by_obj[cat.dom(f)]
        if set(table) != set(codset):
            violations.append(
                PresheafViolation(
                    "missing-action",
                    f"action of {mname!r} is not total on its codomain set",
                    (mname,),
                )
            )
            continue
        for e, v in table.items():
            if v not in domset:
                violations.append(
                    PresheafViolation(
                        "dangling-element",
                        f"action of {mname!r} sends {e!r} to undeclared {v!r}",
                        (mname, e, v),
                    )
                )
        acts[f] = dict(table)
    if violations:
        raise PresheafInvalidError(violations)

    for x in range(len(cat.objects)):
        ident = cat.identity[x]
        for e in by_obj[x]:
            if acts[ident][e] != e:
                violations.append(
                    PresheafViolation(
                        "functoriality",
                        f"identity action at {cat.objects[x]!r} moves {e!r}",
                        (cat.objects[x], e),
                    )
                )
    for (g, f), gf in cat.comp.items():
        for e in by_obj[cat.cod(g)]:
            if acts[f][acts[g][e]] != acts[gf][e]:
                violations.append(
                    PresheafViolation(
                        "functoriality",
                        f"action of {cat.name(gf)!r} disagrees with "
                        f"{cat.name(f)!r} after {cat.name(g)!r} on {e!r}",
                        (cat.name(g), cat.name(f), e),
                    )
                )
    if violations:
        raise PresheafInvalidError(violations)
    return Presheaf(cat, by_obj, acts)


def representable(cat: FinCategory, x) -> Presheaf:
    """The presheaf of morphisms into x; actions are precomposition."""
    xi = cat.object_id(x) if isinstance(x, str) else x
    if not 0 <= xi < len(cat.objects):
        raise UnknownObjectError(f"unknown object id {x!r}")
    sets = {
        y: tuple(cat.name(f) for f in cat.hom_ids(y, xi))
        for y in range(len(cat.objects))
    }
    actions = {}
    for f in range(len(cat.morphisms)):
        m = cat.morphisms[f]
        actions[f] = {
            cat.name(g): cat.name(cat.comp[(g, f)]) for g in cat.hom_ids(m.cod, xi)
        }
    return Presheaf(cat, sets, actions)


def terminal_presheaf(cat: FinCategory) -> Presheaf:
    sets = {x: ("*",) for x in range(len(cat.objects))}
    actions = {f: {"*": "*"} for f in range(len(cat.morphisms))}
    return Presheaf(cat, sets, actions)


def nat_transformations(
    f_: Presheaf, g_: Presheaf, max_families: int = DEFAULT_MAX_FAMILIES
) -> list[PresheafMap]:
    """All natural transformations, in deterministic lexicographic order.

    The variables are the (object, element) slots of the source in
    declaration order, each ranging over the target's set at its object.
    Choosing a value at (x, e) forces, along every morphism f into x, the
    value at (dom f, F(f)(e)) to be G(f) of it; the propagating search
    sets those forced values and backtracks on a conflict.  The edges are
    closed under composition, as the kernel needs: (x, e) forces along
    f∘g through G(f∘g) = G(g)∘G(f).  More than ``max_families``
    transformations, or 20 times as many candidate tries, raise
    :class:`SizeLimitError`.
    """
    if f_.cat is not g_.cat and f_.cat != g_.cat:
        raise NotMatchingError("presheaves live on different categories")
    cat = f_.cat
    slots = [(x, e) for x in range(len(cat.objects)) for e in f_.sets[x]]
    slot_of = {slot: i for i, slot in enumerate(slots)}
    domains = [g_.sets[x] for x, _ in slots]
    edges = [
        [(g_.actions[f], slot_of[(cat.dom(f), f_.actions[f][e])]) for f in cat.cone(x)]
        for x, e in slots
    ]
    what = "natural transformations over " + ", ".join(repr(o) for o in cat.objects)

    def build(values) -> PresheafMap:
        components: dict[int, dict[str, str]] = {x: {} for x in range(len(cat.objects))}
        for (x, e), v in zip(slots, values):
            components[x][e] = v
        return PresheafMap(f_, g_, components)

    return propagating_search(domains, edges, max_families, what, build)


@dataclass(frozen=True)
class MatchingFamily:
    """Elements indexed by a sieve, compatible under every restriction."""

    sieve: Sieve
    assignment: tuple[tuple[int, str], ...]

    def as_dict(self) -> dict[int, str]:
        return dict(self.assignment)


def matching_families(
    f_: Presheaf, sieve: Sieve, max_families: int = DEFAULT_MAX_FAMILIES
) -> list[MatchingFamily]:
    """All matching families for the sieve, lexicographically ordered.

    The variables are the sorted members, each ranging over F at its
    domain.  Choosing v at f forces the value at f∘g to be F(g)(v) for
    every g into dom f; the propagating search sets those forced values and
    backtracks on a conflict.  The edges are closed under composition, as
    the kernel needs: f forces f∘g∘h through F(g∘h) = F(h)∘F(g), since a
    sieve holds every composite of its members.  More than
    ``max_families`` families, or 20 times as many candidate tries, raise
    :class:`SizeLimitError`.
    """
    cat = f_.cat
    members = sieve.sorted_members()
    slot_of = {f: i for i, f in enumerate(members)}
    domains = [f_.sets[cat.dom(f)] for f in members]
    edges = [
        [
            (f_.actions[g], slot_of[fg])
            for g in cat.cone(cat.dom(f))
            if (fg := cat.comp[(f, g)]) in slot_of
        ]
        for f in members
    ]
    what = f"matching families at {cat.objects[sieve.target]!r}"
    return propagating_search(
        domains,
        edges,
        max_families,
        what,
        lambda values: MatchingFamily(sieve, tuple(zip(members, values))),
    )


def amalgamations(f_: Presheaf, family: MatchingFamily) -> list[str]:
    """Elements of F(target) restricting to the family on every member."""
    values = family.as_dict()
    sieve = family.sieve
    key = tuple(values[f] for f in sieve.sorted_members())
    return list(f_.amalgamations_of(sieve, key))


class SheafStatus(Enum):
    SHEAF = "Sheaf"
    SEPARATED_ONLY = "SeparatedOnly"
    NOT_SEPARATED = "NotSeparated"


@dataclass(frozen=True)
class SheafReport:
    status: SheafStatus
    missing: list[tuple[int, Sieve, MatchingFamily]]
    ambiguous: list[tuple[int, Sieve, MatchingFamily, list[str]]]


def sheaf_check(
    f_: Presheaf, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES
) -> SheafReport:
    """Count amalgamations of every matching family for every cover.

    A cover that holds id_X is the maximal sieve on X and is skipped.  By
    Yoneda a matching family on it is fixed by its value v at id_X, and v
    is its one amalgamation, since an element e restricts to v along id_X
    only when e = v.  So every presheaf satisfies the maximal sieve, and it
    can give no missing or ambiguous witness.
    """
    cat = f_.cat
    missing = []
    ambiguous = []
    for x in range(len(cat.objects)):
        for cover in topology.covers_of(x):
            if cat.identity[x] in cover.members:
                continue
            for family in matching_families(f_, cover, max_families):
                ams = amalgamations(f_, family)
                if len(ams) == 0:
                    missing.append((x, cover, family))
                elif len(ams) > 1:
                    ambiguous.append((x, cover, family, ams))
    if ambiguous:
        status = SheafStatus.NOT_SEPARATED
    elif missing:
        status = SheafStatus.SEPARATED_ONLY
    else:
        status = SheafStatus.SHEAF
    return SheafReport(status, missing, ambiguous)


def sheaf_status(
    f_: Presheaf, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES
) -> SheafStatus:
    return sheaf_check(f_, topology, max_families).status


def coproduct_many(parts: list[Presheaf]) -> tuple[Presheaf, list[PresheafMap]]:
    """Pointwise disjoint union via part tagging, with the injections.

    Element e of ``parts[i]`` at x gets the id ``i:e``, i counted from 0.
    Ids are decoded by splitting at the first colon, which the tag never
    holds; ``freeext`` reads level-zero elements back this way.
    """
    if not parts:
        raise NotMatchingError("coproduct of no presheaves is not supported")
    cat = parts[0].cat
    for p in parts[1:]:
        if p.cat is not cat and p.cat != cat:
            raise NotMatchingError("presheaves live on different categories")

    # tags[i][x] sends each element of part i at x to its tag "i:e", built
    # once; the action tables and the injections read it.
    tags = [
        {x: {e: f"{i}:{e}" for e in p.sets[x]} for x in range(len(cat.objects))}
        for i, p in enumerate(parts)
    ]
    sets = {
        x: tuple(e for part in tags for e in part[x].values())
        for x in range(len(cat.objects))
    }
    actions = {}
    for f, m in enumerate(cat.morphisms):
        table = {}
        for p, part in zip(parts, tags):
            cod, dom = part[m.cod], part[m.dom]
            for e, v in p.actions[f].items():
                table[cod[e]] = dom[v]
        actions[f] = table
    total = Presheaf(cat, sets, actions)
    injections = [PresheafMap(p, total, part) for p, part in zip(parts, tags)]
    return total, injections


def coproduct(f_: Presheaf, g_: Presheaf) -> tuple[Presheaf, PresheafMap, PresheafMap]:
    total, (inl, inr) = coproduct_many([f_, g_])
    return total, inl, inr


@dataclass(frozen=True)
class PlusConstruction:
    """One application of the plus-construction, keeping its provenance.

    F+(X) is the colimit of Match(R, F) over the covers R of X.  Covers are
    closed under intersection, so the least cover J(X) refines every cover
    and is cofinal: each element of F+(X) holds exactly one matching family
    on J(X).  ``base`` and ``presheaf`` are the unit's source and target.
    ``pairs[x]`` maps each element id at x to its ``(J(X), family)`` pair,
    so elements can be unwound later (normal forms, extensions of maps into
    sheaves).
    """

    unit: PresheafMap
    pairs: dict[int, dict[str, tuple[Sieve, MatchingFamily]]]

    @property
    def base(self) -> Presheaf:
        return self.unit.source

    @property
    def presheaf(self) -> Presheaf:
        return self.unit.target

    @cached_property
    def _unit_preimages(self) -> dict[int, dict[str, str]]:
        """Per object x, each element at x that is the unit image of exactly
        one base element, mapped to that element.  Read off the unit on
        first use and, like a presheaf's amalgamation index, ignored by
        equality and ``repr``."""
        preimages: dict[int, dict[str, str]] = {}
        for x, comp in self.unit.components.items():
            shared: dict[str, list[str]] = {}
            for d, elem in comp.items():
                shared.setdefault(elem, []).append(d)
            preimages[x] = {elem: ds[0] for elem, ds in shared.items() if len(ds) == 1}
        return preimages

    def extend_at(
        self, apply: Callable[[int, str], str], target: Presheaf, x: int, elem: str
    ) -> str:
        """One value of the unique map F+ -> G through the unit, for G a sheaf.

        ``apply(y, e)`` evaluates a map v from the base into the sheaf
        ``target``.  The extension commutes with the unit, extend(v)∘unit =
        v, so an element that is the unit image of exactly one base element
        d goes to ``apply(x, d)``.  Every other element is sent to the
        amalgamation of the image of its family on J(X), and none or several
        are refused.  Only unique preimages are read: for a target that is
        not a sheaf the amalgamation route still refuses an element two base
        elements share.
        """
        d = self._unit_preimages[x].get(elem)
        if d is not None:
            return apply(x, d)
        cat = self.base.cat
        cover, family = self.pairs[x][elem]
        image = tuple(apply(cat.dom(f), val) for f, val in family.assignment)
        candidates = target.amalgamations_of(cover, image)
        if len(candidates) != 1:
            raise NoAmalgamationError(
                f"expected exactly one amalgamation in the target at "
                f"{cat.objects[x]!r}, found {len(candidates)}"
            )
        return candidates[0]


def _row_reader(indices: list[int]) -> Callable[[list[str]], tuple[str, ...]]:
    """Reads a row's entries at ``indices`` as a tuple, in one call.

    ``itemgetter`` does this for two or more indices; for one it returns the
    bare entry, and it takes no empty list.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda row: (row[i],)
    return lambda row: ()


@dataclass(frozen=True)
class _PlusPlan:
    """What :func:`build_plus` reads off one topology on one category.

    ``covers[x]`` is J(X) and ``gens[x]`` its generating members.  A family
    is read as a row, its values in sorted member order; ``keys[x]`` reads
    a row at the generating members of J(X), which fix the family, and
    ``restrict[h]`` reads a row at J(cod h) at h∘g for the generating
    members g of J(dom h).  Where J is not stable under pullback,
    ``unstable`` is the refusal for the first morphism along which it fails
    and ``restrict`` stops before that morphism.
    """

    cat: FinCategory
    covers: dict[int, Sieve]
    gens: dict[int, tuple[int, ...]]
    keys: dict[int, Callable[[list[str]], tuple[str, ...]]]
    restrict: dict[int, Callable[[list[str]], tuple[str, ...]]]
    unstable: str | None


def _plus_plan(topology: Topology, cat: FinCategory) -> _PlusPlan:
    """The topology's plan for ``cat``, built on first use and kept on the
    topology under ``id(cat)``, which stays ``cat``'s own while the plan
    holds it; a least-cover refusal raises and keeps nothing."""
    plan = topology._plus_plans.get(id(cat))
    if plan is not None:
        return plan
    covers = {x: topology.least_cover(x, cat) for x in range(len(cat.objects))}
    gens = {x: generating_members(cat, cover) for x, cover in covers.items()}
    position = {
        x: {f: i for i, f in enumerate(cover.sorted_members())}
        for x, cover in covers.items()
    }
    keys = {x: _row_reader([position[x][f] for f in gens[x]]) for x in covers}
    # Restricting along h : Y -> X keys the element at Y by values[h∘g] for
    # the generating members g of J(Y).  Those lie in J(X) exactly when all
    # of h∘J(Y) does, because J(X) is a sieve; that is J(Y) lying in every
    # cover h*R, which needs stability under pullback, and a hand-built
    # topology may lack it.
    restrict = {}
    unstable = None
    for h, m in enumerate(cat.morphisms):
        composed = [cat.comp[(h, g)] for g in gens[m.dom]]
        if not covers[m.cod].members.issuperset(composed):
            unstable = (
                f"the least cover of {cat.objects[m.cod]!r} pulls back along "
                f"{cat.name(h)!r} to {pullback_sieve(cat, covers[m.cod], h).display(cat)}, "
                f"which does not cover {cat.objects[m.dom]!r}"
            )
            break
        restrict[h] = _row_reader([position[m.cod][hg] for hg in composed])
    plan = _PlusPlan(cat, covers, gens, keys, restrict, unstable)
    topology._plus_plans[id(cat)] = plan
    return plan


def build_plus(
    f_: Presheaf, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES
) -> PlusConstruction:
    """The plus-construction with full provenance.

    F+(X) is the colimit of Match(R, F) over the covers R of X, two
    families being identified when they agree on a common refinement.
    Covers are closed under intersection, so the least cover J(X) refines
    every cover and is cofinal: F+(X) is Match(J(X), F) itself.  The i-th
    family on J(X), in the search's lexicographic order, is named
    ``p<i>``.  More than ``max_families`` families on some J(X) raise
    :class:`SizeLimitError`.

    The topology keeps what this reads off it alone, per category, as a
    plan: J(X), its generating members, the readers that find a family's
    key and its restrictions in its row, and whether J is stable under
    pullback.  It also keeps each plus-construction built, keyed by
    ``max_families`` and the input's sets.  A call whose input equals an
    earlier one (same category, sets and actions) under the same topology
    and limit gets a record whose unit starts at its own input, sharing
    the stored ``presheaf``, ``pairs`` and unit components; so equal
    carriers are one object, with one amalgamation index.  This is how
    the sheafified representables of ``ayc_category`` and
    ``auto_catalogue`` come out as one object, and how a cover record of
    ``IsotropyContext.reflect_data`` whose presentation equals a free
    extension's level zero gets that extension's carrier.  A record builds
    its unit-preimage index only when an extension reads it.  Stored
    entries live as long as the topology and hold no reference to it.  A
    call that raises stores nothing.
    """
    cat = f_.cat
    plan = _plus_plan(topology, cat)
    key = (max_families, tuple(f_.sets[x] for x in range(len(cat.objects))))
    for base, plus, unit_components, pairs in topology._plus_memo.get(key, ()):
        if base is f_ or base == f_:
            unit = PresheafMap(f_, plus, unit_components)
            return PlusConstruction(unit, pairs)
    pairs: dict[int, dict[str, tuple[Sieve, MatchingFamily]]] = {}
    # Each family's values, read once as a row in sorted member order, and
    # keyed by its values on the generating members of J(X), which fix it.
    names: dict[int, list[str]] = {}
    rows: dict[int, list[list[str]]] = {}
    elem_of_key: dict[int, dict[tuple[str, ...], str]] = {}
    for x, cover in plan.covers.items():
        families = matching_families(f_, cover, max_families)
        names[x] = [f"p{i}" for i in range(len(families))]
        rows[x] = [[v for _, v in family.assignment] for family in families]
        pairs[x] = {name: (cover, family) for name, family in zip(names[x], families)}
        elem_of_key[x] = dict(zip(map(plan.keys[x], rows[x]), names[x]))
    if plan.unstable is not None:
        raise InvalidSieveError(plan.unstable)
    sets = {x: tuple(elems) for x, elems in names.items()}
    actions: dict[int, dict[str, str]] = {}
    for h, read in plan.restrict.items():
        m = cat.morphisms[h]
        keys = map(read, rows[m.cod])
        actions[h] = dict(zip(names[m.cod], map(elem_of_key[m.dom].__getitem__, keys)))
    plus = Presheaf(cat, sets, actions)

    # The unit sends d to the family of its restrictions, keyed by its
    # restrictions along the generating members: one column per member.
    unit_components = {}
    for x, gens in plan.gens.items():
        elems = f_.sets[x]
        columns = [list(map(f_.actions[g].__getitem__, elems)) for g in gens]
        keys = zip(*columns) if columns else [()] * len(elems)
        unit_components[x] = dict(zip(elems, map(elem_of_key[x].__getitem__, keys)))
    topology._plus_memo.setdefault(key, []).append((f_, plus, unit_components, pairs))
    unit = PresheafMap(f_, plus, unit_components)
    return PlusConstruction(unit, pairs)


def plus_construction(
    f_: Presheaf, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES
) -> tuple[Presheaf, PresheafMap]:
    plus = build_plus(f_, topology, max_families)
    return plus.presheaf, plus.unit


@dataclass(frozen=True)
class Sheafification:
    """Both plus-construction layers of the associated sheaf.

    ``presheaf``, ``sheaf`` and the ``unit``, composed on first read, are
    read off the layers.  :meth:`level0_preimage` looks a sheaf element up
    in ``plus2``'s unit-preimage index and then in ``plus1``'s;
    :meth:`extend_at`, the one evaluator, reads the map there.
    """

    plus1: PlusConstruction
    plus2: PlusConstruction

    @property
    def presheaf(self) -> Presheaf:
        return self.plus1.base

    @property
    def sheaf(self) -> Presheaf:
        return self.plus2.presheaf

    @cached_property
    def unit(self) -> PresheafMap:
        """Both layers' units composed; ignored by equality and ``repr``."""
        return self.plus1.unit.then(self.plus2.unit)

    def level0_preimage(self, x: int, elem: str) -> str | None:
        """The level-zero element whose unit image is ``elem`` in the sheaf
        at x, if its unit preimage is unique at both layers, else None."""
        p = self.plus2._unit_preimages[x].get(elem)
        return None if p is None else self.plus1._unit_preimages[x].get(p)

    def extend_at(
        self, apply: Callable[[int, str], str], target: Presheaf, x: int, elem: str
    ) -> str:
        """The value at ``elem`` in F(x) of the unique map from the sheaf F
        into the sheaf ``target`` whose composite with the unit is the map
        that ``apply(y, e)`` evaluates; neither map is built.

        An element with a level-zero preimage d (see :meth:`level0_preimage`)
        goes to ``apply(x, d)``, since the extension commutes with both
        units.  Only the others are unwound through the two layers, each of
        which amalgamates where its unit preimage is not unique.
        """
        d = self.level0_preimage(x, elem)
        if d is not None:
            return apply(x, d)
        inner = partial(self.plus1.extend_at, apply, target)
        return self.plus2.extend_at(inner, target, x, elem)


def sheafification(
    f_: Presheaf, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES
) -> Sheafification:
    plus1 = build_plus(f_, topology, max_families)
    return Sheafification(plus1, build_plus(plus1.presheaf, topology, max_families))


def sheafify(
    f_: Presheaf, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES
) -> tuple[Presheaf, PresheafMap]:
    bundle = sheafification(f_, topology, max_families)
    return bundle.sheaf, bundle.unit


def locally_equal(f_: Presheaf, topology: Topology, x: int, a: str, b: str) -> bool:
    """Whether a and b in F(x) have the same image in the sheafification.

    The unit F -> F+ identifies a and b exactly when they agree on the least
    cover J(x), and F+ is separated, so its unit into F++ is injective (Mac
    Lane–Moerdijk, *Sheaves in Geometry and Logic*, III.5).  So one level of
    J decides equality in aF without building it.
    """
    return a == b or all(
        f_.act(g, a) == f_.act(g, b) for g in topology.least_cover(x, f_.cat).members
    )


def is_subcanonical(
    cat: FinCategory, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES
):
    """Whether every representable is a sheaf; returns (bool, witness)."""
    for x in range(len(cat.objects)):
        report = sheaf_check(representable(cat, x), topology, max_families)
        if report.status is not SheafStatus.SHEAF:
            bad = (report.missing + [w[:3] for w in report.ambiguous])[0]
            return False, (cat.objects[x], bad[1], bad[2])
    return True, None


def quotient_presheaf(f_: Presheaf, relations) -> tuple[Presheaf, PresheafMap]:
    """Quotient by the smallest presheaf congruence containing the relations.

    ``relations`` is an iterable of (object id, element, element) triples;
    identifications are propagated along every action to a fixpoint by
    union-find.  Class ids are the least member in the declaration order.
    With no relations every class is one element, so the input itself is
    returned, with the identity as the projection.
    """
    relations = list(relations)
    if not relations:
        return f_, identity_map(f_)
    cat = f_.cat
    parent: dict[tuple[int, str], tuple[int, str]] = {
        (x, e): (x, e) for x in range(len(cat.objects)) for e in f_.sets[x]
    }
    order = {
        (x, e): i
        for x in range(len(cat.objects))
        for i, e in enumerate(f_.sets[x])
    }

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a, b) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if order[rb] < order[ra]:
            ra, rb = rb, ra
        parent[rb] = ra
        return True

    work = []
    for x, a, b in relations:
        if a not in f_.sets[x] or b not in f_.sets[x]:
            raise NotMatchingError(f"relation references unknown element at {cat.objects[x]!r}")
        if union((x, a), (x, b)):
            work.append((x, a, b))
    while work:
        x, a, b = work.pop()
        for f in cat.cone(x):
            y = cat.dom(f)
            fa, fb = f_.act(f, a), f_.act(f, b)
            if union((y, fa), (y, fb)):
                work.append((y, fa, fb))

    rep_name: dict[tuple[int, str], str] = {}
    sets: dict[int, tuple[str, ...]] = {}
    for x in range(len(cat.objects)):
        classes = []
        for e in f_.sets[x]:
            r = find((x, e))
            if r == (x, e):
                classes.append(e)
            rep_name[(x, e)] = r[1]
        sets[x] = tuple(classes)
    actions = {}
    for f in range(len(cat.morphisms)):
        m = cat.morphisms[f]
        actions[f] = {
            e: rep_name[(m.dom, f_.act(f, e))] for e in sets[m.cod]
        }
    quotient = Presheaf(cat, sets, actions)
    projection = PresheafMap(
        f_,
        quotient,
        {
            x: {e: rep_name[(x, e)] for e in f_.sets[x]}
            for x in range(len(cat.objects))
        },
    )
    return quotient, projection


def classify_at(bundle: Sheafification, target: Presheaf, e: str, x: int, elem: str) -> str:
    """The sheaf map a(y c) -> ``target`` classifying e in target(c), at one
    element ``elem`` of a(y c)(x); ``bundle`` sheafifies y(c).

    By Yoneda that map restricts along the unit to g ↦ e·g on y(c), and it
    is evaluated only where the extension reads it.
    """
    cat = target.cat
    return bundle.extend_at(
        lambda _, g: target.act(cat.morphism_id(g), e), target, x, elem
    )


@dataclass(frozen=True)
class AycCategory:
    """The category of sheafified representables, with its dictionaries.

    ``category`` has one object per site object.  A sheaf map a(y x) -> G is
    fixed by where it sends the canonical point unit_x(id_x), because a is
    left adjoint to the inclusion and then Yoneda applies (Mac
    Lane–Moerdijk, *Sheaves in Geometry and Logic*, III.5).  So the
    morphisms x -> y are the elements of a(y y) at x: the k-th element is
    the k-th id of ``category.hom_ids(x, y)``, named ``x>y#k``, and
    ``elements`` gives each morphism's element.
    """

    category: FinCategory
    sheaves: dict[int, Presheaf]
    sheafifications: dict[int, Sheafification]
    elements: dict[int, str]

    def morphism_for(self, x: int, y: int, element: str) -> int:
        """The morphism x -> y whose element of a(y y) at x is ``element``."""
        return self.category.hom_ids(x, y)[self.sheaves[y].sets[x].index(element)]


def ayc_category(
    cat: FinCategory, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES
) -> AycCategory:
    """Build the full subcategory spanned by sheafified representables.

    The identity at x is the canonical point, and e2 : y -> z after
    e1 : x -> y is the map classifying e2 evaluated at e1.  The category
    is built from these ids directly: composites of sheaf maps are sheaf
    maps, so the category laws hold without a check.
    """
    bundles = {
        x: sheafification(representable(cat, x), topology, max_families)
        for x in range(len(cat.objects))
    }
    sheaves = {x: bundles[x].sheaf for x in bundles}
    n = len(cat.objects)
    ids: dict[tuple[int, int], dict[str, int]] = {}
    morphisms: list[Morphism] = []
    elements: dict[int, str] = {}
    for x in range(n):
        for y in range(n):
            ids[(x, y)] = {}
            for k, e in enumerate(sheaves[y].sets[x]):
                ids[(x, y)][e] = len(morphisms)
                elements[len(morphisms)] = e
                morphisms.append(Morphism(f"{cat.objects[x]}>{cat.objects[y]}#{k}", x, y))

    identity = tuple(
        ids[(x, x)][bundles[x].unit.apply(x, cat.name(cat.identity[x]))] for x in range(n)
    )
    comp = {
        (g, f): ids[(x, z)][classify_at(bundles[y], sheaves[z], e2, x, e1)]
        for x in range(n)
        for y in range(n)
        for z in range(n)
        for e2, g in ids[(y, z)].items()
        for e1, f in ids[(x, y)].items()
    }
    category = FinCategory(cat.objects, tuple(morphisms), identity, comp)
    return AycCategory(category, sheaves, bundles, elements)
