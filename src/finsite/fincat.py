"""Finite categories: validation, hom-sets, centre, full subcategories.

Objects and morphisms are dense integer ids carrying display names; every
enumeration follows declaration order so reports and goldens are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import CategoryInvalidError, UnknownObjectError
from .groups import FiniteGroup, finite_group
from .search import DEFAULT_MAX_FAMILIES, natural_search


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: int
    cod: int


@dataclass(frozen=True)
class CategoryViolation:
    kind: str
    message: str
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class FinCategory:
    """A finite category with a total composition table over composable pairs.

    The fields cannot be reassigned, and categories are not hashable; build
    via :func:`validate_category` or the constructors in
    :mod:`finsite.standard`, or directly from a table whose laws hold by
    construction, as :func:`full_subcategory` and
    :func:`finsite.presheaf.ayc_category` do.
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: tuple[int, ...]
    comp: dict[tuple[int, int], int]
    _hom: dict[tuple[int, int], tuple[int, ...]] = field(init=False, repr=False)
    _cone: dict[int, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        hom: dict[tuple[int, int], list[int]] = {}
        cone: dict[int, list[int]] = {x: [] for x in range(len(self.objects))}
        for i, m in enumerate(self.morphisms):
            hom.setdefault((m.dom, m.cod), []).append(i)
            cone[m.cod].append(i)
        object.__setattr__(self, "_obj_index", {n: i for i, n in enumerate(self.objects)})
        object.__setattr__(self, "_mor_index", {m.name: i for i, m in enumerate(self.morphisms)})
        object.__setattr__(self, "_hom", {k: tuple(v) for k, v in hom.items()})
        object.__setattr__(self, "_cone", {k: tuple(v) for k, v in cone.items()})

    __hash__ = None

    # -- lookups ---------------------------------------------------------
    def object_id(self, name: str) -> int:
        if name not in self._obj_index:
            raise UnknownObjectError(f"unknown object {name!r}")
        return self._obj_index[name]

    def morphism_id(self, name: str) -> int:
        if name not in self._mor_index:
            raise UnknownObjectError(f"unknown morphism {name!r}")
        return self._mor_index[name]

    def dom(self, f: int) -> int:
        return self.morphisms[f].dom

    def cod(self, f: int) -> int:
        return self.morphisms[f].cod

    def name(self, f: int) -> str:
        return self.morphisms[f].name

    def hom_ids(self, x: int, y: int) -> tuple[int, ...]:
        return self._hom.get((x, y), ())

    def cone(self, x: int) -> tuple[int, ...]:
        """All morphisms with codomain x, in declaration order."""
        return self._cone[x]

    def endomorphisms(self, x: int) -> tuple[int, ...]:
        return self.hom_ids(x, x)

    def is_identity(self, f: int) -> bool:
        m = self.morphisms[f]
        return m.dom == m.cod and self.identity[m.dom] == f

    def two_sided_inverse(self, f: int) -> int | None:
        m = self.morphisms[f]
        for g in self.hom_ids(m.cod, m.dom):
            if (
                self.comp[(g, f)] == self.identity[m.dom]
                and self.comp[(f, g)] == self.identity[m.cod]
            ):
                return g
        return None


def hom_set(cat: FinCategory, x: str, y: str) -> list[str]:
    """Morphism names from x to y in declaration order."""
    xi, yi = cat.object_id(x), cat.object_id(y)
    return [cat.name(f) for f in cat.hom_ids(xi, yi)]


def validate_category(objects, morphisms, identities, composition) -> FinCategory:
    """Check the category laws on a raw description given by names.

    ``morphisms`` is a sequence of (name, dom, cod) triples, ``identities``
    maps object name to morphism name and ``composition`` lists
    (g, f, g_after_f) name triples.  Composition entries involving an
    identity may be omitted (the identity laws force them); all other
    composable pairs are required, and a pair given two different
    composites is a violation.  Raises :class:`CategoryInvalidError` with
    the full violation list on failure.
    """
    violations: list[CategoryViolation] = []
    objects = list(objects)
    if len(set(objects)) != len(objects):
        violations.append(
            CategoryViolation("duplicate-id", "duplicate object name", ())
        )
    obj_index = {name: i for i, name in enumerate(objects)}
    morphs: list[Morphism] = []
    mor_index: dict[str, int] = {}
    for name, dom, cod in morphisms:
        if name in mor_index:
            violations.append(
                CategoryViolation("duplicate-id", f"duplicate morphism {name!r}", (name,))
            )
            continue
        if dom not in obj_index or cod not in obj_index:
            violations.append(
                CategoryViolation(
                    "dangling-reference",
                    f"morphism {name!r} references undeclared object",
                    (name,),
                )
            )
            continue
        mor_index[name] = len(morphs)
        morphs.append(Morphism(name, obj_index[dom], obj_index[cod]))
    if violations:
        raise CategoryInvalidError(violations)

    identity = [-1] * len(objects)
    for obj, mname in identities.items():
        if obj not in obj_index or mname not in mor_index:
            violations.append(
                CategoryViolation(
                    "dangling-reference",
                    f"identity entry {obj!r}: {mname!r} references undeclared id",
                    (str(obj), str(mname)),
                )
            )
            continue
        m = morphs[mor_index[mname]]
        if m.dom != obj_index[obj] or m.cod != obj_index[obj]:
            violations.append(
                CategoryViolation(
                    "identity-law",
                    f"identity of {obj!r} must be an endomorphism of it",
                    (obj, mname),
                )
            )
            continue
        identity[obj_index[obj]] = mor_index[mname]
    for i, obj in enumerate(objects):
        if identity[i] < 0:
            violations.append(
                CategoryViolation(
                    "dangling-reference", f"object {obj!r} has no identity", (obj,)
                )
            )
    if violations:
        raise CategoryInvalidError(violations)

    comp: dict[tuple[int, int], int] = {}
    for gname, fname, gfname in composition:
        missing = [n for n in (gname, fname, gfname) if n not in mor_index]
        if missing:
            violations.append(
                CategoryViolation(
                    "dangling-reference",
                    f"composition entry references undeclared morphism {missing[0]!r}",
                    (gname, fname, gfname),
                )
            )
            continue
        g, f, gf = (mor_index[n] for n in (gname, fname, gfname))
        if morphs[f].cod != morphs[g].dom:
            violations.append(
                CategoryViolation(
                    "composition-gap",
                    f"entry ({gname!r}, {fname!r}) is not composable",
                    (gname, fname),
                )
            )
            continue
        if morphs[gf].dom != morphs[f].dom or morphs[gf].cod != morphs[g].cod:
            violations.append(
                CategoryViolation(
                    "composition-gap",
                    f"composite of ({gname!r}, {fname!r}) has wrong dom/cod",
                    (gname, fname, gfname),
                )
            )
            continue
        if comp.setdefault((g, f), gf) != gf:
            violations.append(
                CategoryViolation(
                    "duplicate-id",
                    f"two composites for ({gname!r}, {fname!r}): "
                    f"{morphs[comp[(g, f)]].name!r} and {gfname!r}",
                    (gname, fname),
                )
            )

    # Identity composites are forced; fill the omitted ones and flag conflicts.
    for i, m in enumerate(morphs):
        for pair, forced in (((i, identity[m.dom]), i), ((identity[m.cod], i), i)):
            if comp.get(pair, forced) != forced:
                g, f = pair
                violations.append(
                    CategoryViolation(
                        "identity-law",
                        f"comp({morphs[g].name!r}, {morphs[f].name!r}) must be "
                        f"{morphs[forced].name!r}, got {morphs[comp[pair]].name!r}",
                        (morphs[g].name, morphs[f].name),
                    )
                )
            else:
                comp[pair] = forced
    for g, mg in enumerate(morphs):
        for f, mf in enumerate(morphs):
            if mf.cod == mg.dom and (g, f) not in comp:
                violations.append(
                    CategoryViolation(
                        "composition-gap",
                        f"missing composite for ({mg.name!r}, {mf.name!r})",
                        (mg.name, mf.name),
                    )
                )
    if violations:
        raise CategoryInvalidError(violations)

    for h in range(len(morphs)):
        for g in range(len(morphs)):
            if morphs[g].cod != morphs[h].dom:
                continue
            for f in range(len(morphs)):
                if morphs[f].cod != morphs[g].dom:
                    continue
                left = comp[(h, comp[(g, f)])]
                right = comp[(comp[(h, g)], f)]
                if left != right:
                    violations.append(
                        CategoryViolation(
                            "associativity",
                            "associativity fails on "
                            f"({morphs[h].name!r}, {morphs[g].name!r}, {morphs[f].name!r})",
                            (morphs[h].name, morphs[g].name, morphs[f].name),
                        )
                    )
    if violations:
        raise CategoryInvalidError(violations)

    return FinCategory(tuple(objects), tuple(morphs), tuple(identity), comp)


@dataclass(frozen=True)
class CentreElement:
    """A natural automorphism of the identity functor, one component per object."""

    components: tuple[int, ...]

    def display(self, cat: FinCategory) -> dict[str, str]:
        return {
            cat.objects[x]: cat.name(f) for x, f in enumerate(self.components)
        }


def natural_endomorphism_families(cat: FinCategory) -> list[tuple[int, ...]]:
    """All natural transformations of the identity functor, as component tuples.

    One component per object, ranging over its endomorphisms; along every
    f : C -> D the components p at C and q at D must give f∘p = q∘f.
    Past ``DEFAULT_MAX_FAMILIES`` families, or 20 times as many candidate
    tries, raises :class:`SizeLimitError`.
    """
    domains = [cat.endomorphisms(x) for x in range(len(cat.objects))]

    def left(f: int) -> dict[int, int]:
        return {p: cat.comp[(f, p)] for p in domains[cat.dom(f)]}

    def right(f: int) -> dict[int, int]:
        return {p: cat.comp[(p, f)] for p in domains[cat.cod(f)]}

    what = "natural endomorphisms of the identity over " + ", ".join(
        repr(o) for o in cat.objects
    )
    return natural_search(cat, domains, left, right, DEFAULT_MAX_FAMILIES, what)


def centre(cat: FinCategory) -> FiniteGroup:
    """The group of natural automorphisms of the identity functor.

    Naturality is pruned during enumeration; families are then filtered to
    those whose every component has a two-sided inverse.  The group table
    is built over the component tuples, multiplied componentwise through
    the composition table, and each element is then wrapped once as a
    :class:`CentreElement`.
    """
    families = [
        fam
        for fam in natural_endomorphism_families(cat)
        if all(cat.two_sided_inverse(f) is not None for f in fam)
    ]
    compose = cat.comp.__getitem__

    def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(compose, zip(a, b)))

    group = finite_group(families, mul)
    return replace(group, elements=tuple(map(CentreElement, group.elements)))


def full_subcategory(cat: FinCategory, keep) -> FinCategory:
    """The full subcategory on the named objects, preserving all names."""
    keep = list(keep)
    for name in keep:
        cat.object_id(name)
    keep_ids = {cat.object_id(name) for name in keep}
    objects = [name for name in cat.objects if cat.object_id(name) in keep_ids]
    kept_morphs = [
        i
        for i, m in enumerate(cat.morphisms)
        if m.dom in keep_ids and m.cod in keep_ids
    ]
    old_to_new = {old: new for new, old in enumerate(kept_morphs)}
    obj_old_to_new = {cat.object_id(name): i for i, name in enumerate(objects)}
    morphs = tuple(
        Morphism(cat.morphisms[i].name, obj_old_to_new[cat.morphisms[i].dom], obj_old_to_new[cat.morphisms[i].cod])
        for i in kept_morphs
    )
    identity = tuple(old_to_new[cat.identity[cat.object_id(name)]] for name in objects)
    comp = {
        (old_to_new[g], old_to_new[f]): old_to_new[gf]
        for (g, f), gf in cat.comp.items()
        if g in old_to_new and f in old_to_new
    }
    return FinCategory(tuple(objects), morphs, identity, comp)


def initial_objects(cat: FinCategory) -> list[str]:
    """Objects with exactly one morphism to every object."""
    out = []
    for x in range(len(cat.objects)):
        if all(len(cat.hom_ids(x, y)) == 1 for y in range(len(cat.objects))):
            out.append(cat.objects[x])
    return out
