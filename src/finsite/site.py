"""Sieves and Grothendieck topologies on a finite category.

Sieves are canonical frozensets of morphism ids so equality is structural;
topologies store their covering sieves per object in a sorted, deduplicated
order.  Topology input is normally a basis that gets saturated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CodomainMismatchError,
    InvalidSieveError,
    SizeLimitError,
    UnknownObjectError,
)
from .fincat import FinCategory
from .search import DEFAULT_MAX_FAMILIES


@dataclass(frozen=True)
class Sieve:
    """A set of morphisms with common codomain, closed under precomposition."""

    target: int
    members: frozenset[int]

    @cached_property
    def _key(self) -> tuple:
        # Kept in the instance dict, outside the fields, so equality, hash
        # and repr see only target and members.
        return (self.target, tuple(sorted(self.members)))

    def key(self) -> tuple:
        return self._key

    def sorted_members(self) -> tuple[int, ...]:
        return self._key[1]

    def display(self, cat: FinCategory) -> list[str]:
        return [cat.name(f) for f in self.sorted_members()]


def maximal_sieve(cat: FinCategory, x: int) -> Sieve:
    return Sieve(x, frozenset(cat.cone(x)))


def empty_sieve(x: int) -> Sieve:
    return Sieve(x, frozenset())


def is_sieve(cat: FinCategory, s: Sieve) -> bool:
    for f in s.members:
        if cat.cod(f) != s.target:
            return False
        for g in cat.cone(cat.dom(f)):
            if cat.comp[(f, g)] not in s.members:
                return False
    return True


def generated_sieve(cat: FinCategory, target: int, generators) -> Sieve:
    """Smallest sieve on target containing the generators."""
    members = set()
    stack = []
    for f in generators:
        if cat.cod(f) != target:
            raise CodomainMismatchError(
                f"generator {cat.name(f)!r} does not end at {cat.objects[target]!r}"
            )
        if f not in members:
            members.add(f)
            stack.append(f)
    while stack:
        f = stack.pop()
        for g in cat.cone(cat.dom(f)):
            fg = cat.comp[(f, g)]
            if fg not in members:
                members.add(fg)
                stack.append(fg)
    return Sieve(target, frozenset(members))


def generating_members(cat: FinCategory, sieve: Sieve) -> tuple[int, ...]:
    """Members that generate the sieve, in sorted member order.

    Walks the sorted members and keeps f unless f = f′∘g for some f′
    already kept, so every member factors through a kept one.  A kept
    member can still factor through a later one: on a poset the smaller
    arrows sort first, and the walk keeps every member of a maximal sieve.
    So a kept member that a later kept member reaches is dropped; what it
    reaches, the later one reaches too.  No member left factors through
    another, so one member is left per maximal class of members under
    factorization.  A matching family is fixed by its values on these
    members, since its value at f∘g is F(g) of its value at f (Mac
    Lane–Moerdijk, *Sheaves in Geometry and Logic*, III.4).  The empty
    sieve gives ``()``.
    """
    # Each member kept so far, and whether a later kept member reaches it.
    dropped: dict[int, bool] = {}
    reached: set[int] = set()
    for f in sieve.sorted_members():
        if f in reached:
            continue
        dropped[f] = False
        for g in cat.cone(cat.dom(f)):
            fg = cat.comp[(f, g)]
            if fg != f and fg in dropped:
                dropped[fg] = True
            reached.add(fg)
    return tuple(f for f, out in dropped.items() if not out)


def pullback_sieve(cat: FinCategory, s: Sieve, h: int) -> Sieve:
    """h*S: the morphisms g into dom(h) with h∘g in S."""
    if cat.cod(h) != s.target:
        raise CodomainMismatchError(
            f"cannot pull back a sieve on {cat.objects[s.target]!r} along {cat.name(h)!r}"
        )
    y = cat.dom(h)
    return Sieve(y, frozenset(g for g in cat.cone(y) if cat.comp[(h, g)] in s.members))


def all_sieves(cat: FinCategory, x: int, max_families: int = DEFAULT_MAX_FAMILIES) -> list[Sieve]:
    """Every sieve on x, in canonical order; see :func:`_sieve_masks`."""
    return _sieves_holding(cat, x, frozenset(), max_families)


def _sieves_holding(cat: FinCategory, x: int, members, max_families: int) -> list[Sieve]:
    """Every sieve on x that holds ``members``, in canonical order.

    Walks every sieve with :func:`_sieve_masks`, so more than
    ``max_families`` sieves, held or not, raise; only the masks that hold
    ``members`` become :class:`Sieve` objects, once the walk is done.
    """
    cone = cat.cone(x)
    bit = {f: 1 << i for i, f in enumerate(cone)}
    need = sum(bit[f] for f in members)
    # The cone is in increasing id order, so each tuple is sorted.
    kept = sorted(
        _masked(cone, mask) for mask in _sieve_masks(cat, x, max_families) if mask & need == need
    )
    return [Sieve(x, frozenset(m)) for m in kept]


def _masked(cone: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The arrows of ``cone`` whose bits ``mask`` sets, in cone order."""
    return tuple(f for i, f in enumerate(cone) if mask >> i & 1)


def _sieve_masks(cat: FinCategory, x: int, max_families: int) -> list[int]:
    """Every sieve on x as a bitmask over ``cat.cone(x)``, bit i standing
    for the i-th arrow of the cone, in walk order.

    A branch-and-prune walk: each step takes the first morphism f that is
    neither in nor out yet and splits into adding the sieve f generates or
    ruling out every g that f factors through.  Both halves always extend
    to a sieve: the sieve f generates holds nothing ruled out, and nothing
    f factors through is in, since either would already have put f itself
    out or in.  So the walk has no dead ends and makes 2s - 1 steps for s
    sieves, and the search kernel's rule reduces to one bound: more than
    ``max_families`` sieves on x raise :class:`SizeLimitError`.
    """
    cone = cat.cone(x)
    bit = {f: 1 << i for i, f in enumerate(cone)}
    down = []
    for f in cone:
        mask = bit[f]
        for g in cat.cone(cat.dom(f)):
            mask |= bit[cat.comp[(f, g)]]
        down.append(mask)
    up = [
        sum(1 << j for j, mask in enumerate(down) if mask >> i & 1)
        for i in range(len(cone))
    ]
    whole = (1 << len(cone)) - 1
    found: list[int] = []
    stack = [(0, 0)]
    while stack:
        inside, outside = stack.pop()
        free = whole & ~(inside | outside)
        if not free:
            found.append(inside)
            if len(found) > max_families:
                raise SizeLimitError(
                    f"more than {max_families} sieves on {cat.objects[x]!r}"
                )
            continue
        i = (free & -free).bit_length() - 1
        stack.append((inside, outside | up[i]))
        stack.append((inside | down[i], outside))
    return found


@dataclass(frozen=True, eq=False)
class Topology:
    """Covering sieves per object; see :func:`validate_topology` for the axioms.

    ``covers`` cannot be reassigned, and no code changes it after
    construction, so everything derived from it is kept on the instance,
    outside the compared fields: equality reads ``covers`` alone.
    ``_least`` maps each object to its least cover J(x) (see
    :meth:`least_cover`).  ``_plus_plans`` and ``_plus_memo`` belong to
    :func:`finsite.presheaf.build_plus`.  The plan, one per category, holds
    what the plus-construction reads off the topology alone: J(X), its
    generating members, the reader of a family's key per object, the reader
    of its values at h∘g per morphism h, and whether J is stable under
    pullback.  The memo holds the plus-constructions built so far, keyed
    by the family limit and the input's sets: a later call with an equal
    input under this topology and limit reuses the entry.  An entry holds
    the input, F+, the unit's components and the pairs, not the record,
    because a hit builds a record whose unit starts at the caller's own
    input.  No entry refers to the topology, so entries live as long as
    it and never keep it alive.  ``_signatures`` belongs
    to :func:`finsite.phl.structure_from_presheaf`: per category, keyed by
    ``id(cat)`` like the plans, it holds ``cat`` with its sheaf signature,
    so every structure read off a presheaf on ``cat`` shares one signature.
    """

    covers: dict[int, tuple[Sieve, ...]]

    def __post_init__(self):
        covers = {
            x: tuple(sorted(set(sieves), key=Sieve.key))
            for x, sieves in self.covers.items()
        }
        object.__setattr__(self, "covers", covers)
        object.__setattr__(
            self, "_sets", {x: frozenset(sieves) for x, sieves in covers.items()}
        )
        object.__setattr__(self, "_least", {})
        object.__setattr__(self, "_plus_plans", {})
        object.__setattr__(self, "_plus_memo", {})
        object.__setattr__(self, "_signatures", {})

    def covers_of(self, x: int) -> tuple[Sieve, ...]:
        return self.covers.get(x, ())

    def is_cover(self, s: Sieve) -> bool:
        return s in self._sets.get(s.target, frozenset())

    def least_cover(self, x: int, cat: FinCategory) -> Sieve:
        """J(x): the intersection of the covers of x, itself a cover.

        A topology's covers are closed under intersection, so J(x) refines
        every cover of x.  ``cat`` only names the object in the error
        raised when x has no covers or the intersection does not cover.
        Each J(x) found is kept on the instance, so every caller reads one
        sieve whose sorted members are computed once.
        """
        least = self._least.get(x)
        if least is not None:
            return least
        covers = self.covers_of(x)
        if not covers:
            raise InvalidSieveError(f"no covering sieve at {cat.objects[x]!r}")
        least = Sieve(x, frozenset.intersection(*(s.members for s in covers)))
        if not self.is_cover(least):
            raise InvalidSieveError(
                f"the covers of {cat.objects[x]!r} intersect in "
                f"{least.display(cat)}, which does not cover"
            )
        self._least[x] = least
        return least

    def __eq__(self, other):
        return isinstance(other, Topology) and self.covers == other.covers

    __hash__ = None

    def __reduce__(self):
        # The caches are left behind: the plans hold closures, which do not
        # pickle, and a copy fills its own.
        return (Topology, (self.covers,))


@dataclass(frozen=True)
class TopologyViolation:
    axiom: str
    object: str
    sieve: tuple[str, ...]
    morphism: str = ""

    @property
    def message(self) -> str:
        where = f" along {self.morphism!r}" if self.morphism else ""
        return f"{self.axiom} fails at {self.object!r} for sieve {list(self.sieve)}{where}"


@dataclass(frozen=True)
class Site:
    """A finite category together with a (saturated) Grothendieck topology."""

    category: FinCategory
    topology: Topology


def saturate_topology(cat: FinCategory, basis, max_families: int = DEFAULT_MAX_FAMILIES) -> Topology:
    """Smallest topology containing the basis sieves.

    On a finite category the covers of x are the sieves containing the
    least cover J(x) (Mac Lane–Moerdijk, *Sheaves in Geometry and Logic*,
    III.2).  J(x) starts as the intersection of the basis sieves at x, the
    maximal sieve when there are none, and shrinks under stability,
    J(x) ← J(x) ∩ h*J(y) for h : x → y, and transitivity,
    J(x) ← {f∘g : f ∈ J(x), g ∈ J(dom f)}, until neither changes it.  Both
    rules are monotone, only shrink J and keep each J(x) a cover of any
    topology holding the basis, so the fixpoint is the largest J obeying
    both: the least covers of the smallest topology.  The returned
    topology keeps them as its ``least_cover`` answers.
    """
    least = [frozenset(cat.cone(x)) for x in range(len(cat.objects))]
    for x, sieves in basis.items():
        for s in sieves:
            if s.target != x or not is_sieve(cat, s):
                raise InvalidSieveError(
                    f"basis entry at {cat.objects[x]!r} is not a sieve on it"
                )
            least[x] &= s.members
    changed = True
    while changed:
        before = list(least)
        for h, m in enumerate(cat.morphisms):
            least[m.dom] = frozenset(
                g for g in least[m.dom] if cat.comp[(h, g)] in least[m.cod]
            )
        for x, members in enumerate(least):
            least[x] = frozenset(
                cat.comp[(f, g)] for f in members for g in least[cat.dom(f)]
            )
        changed = least != before
    topology = Topology(
        {
            x: _sieves_holding(cat, x, members, max_families)
            for x, members in enumerate(least)
        }
    )
    # Seed the least-cover cache with the fixpoint, so no caller intersects
    # the covers again.
    for x, members in enumerate(least):
        topology._least[x] = next(s for s in topology.covers[x] if s.members == members)
    return topology


def validate_topology(cat: FinCategory, topology: Topology, max_families: int = DEFAULT_MAX_FAMILIES) -> list[TopologyViolation]:
    """Empty list iff maximality, stability and transitivity all hold."""
    out: list[TopologyViolation] = []
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
    # Transitivity walks every sieve as a bitmask over its object's cone
    # (see _sieve_masks) and builds no Sieve: only the members of the
    # sieves it reports are read off their masks.
    bits = [
        {f: 1 << i for i, f in enumerate(cat.cone(y))} for y in range(len(cat.objects))
    ]
    # A cover holding an arrow outside the cone equals no sieve walked there.
    cover_masks = [
        {
            sum(bits[y][f] for f in r.members)
            for r in topology.covers_of(y)
            if r.target == y and r.members <= bits[y].keys()
        }
        for y in range(len(cat.objects))
    ]
    for x in range(len(cat.objects)):
        cone = cat.cone(x)
        bit = bits[x]
        # Per h in the cone, the covers of dom h and, per g into dom h, the
        # bit of h∘g here and of g there: h*S holds g iff S holds h∘g.
        pulls = {
            h: (
                cover_masks[cat.dom(h)],
                [(bit[cat.comp[(h, g)]], bits[cat.dom(h)][g]) for g in cat.cone(cat.dom(h))],
            )
            for h in cone
        }
        # A cover of x along each of whose members S pulls back to a cover
        # forces S to cover.  One holding an arrow outside the cone never
        # does.
        covers_here = [
            [pulls[h] for h in r.sorted_members()]
            for r in topology.covers_of(x)
            if r.members <= bit.keys()
        ]
        reported = []
        for s in _sieve_masks(cat, x, max_families):
            if s not in cover_masks[x] and any(
                all(
                    sum(g_bit for hg_bit, g_bit in along if s & hg_bit) in covers_there
                    for covers_there, along in r
                )
                for r in covers_here
            ):
                reported.append(_masked(cone, s))
        for members in sorted(reported):
            names = tuple(cat.name(f) for f in members)
            out.append(TopologyViolation("transitivity", cat.objects[x], names))
    return out


def empty_cover_objects(cat: FinCategory, topology: Topology) -> list[str]:
    """Objects whose empty sieve is covering."""
    return [
        cat.objects[x]
        for x in range(len(cat.objects))
        if topology.is_cover(empty_sieve(x))
    ]


def induced_topology(cat: FinCategory, topology: Topology, sub: FinCategory, max_families: int = DEFAULT_MAX_FAMILIES) -> Topology:
    """The topology a full subcategory inherits from its ambient site.

    A sieve in the subcategory covers iff the sieve it generates in the
    ambient category covers there.  ``sub`` must be a full subcategory of
    ``cat`` with preserved names.
    """
    for name in sub.objects:
        if name not in cat.objects:
            raise UnknownObjectError(f"object {name!r} is not in the ambient category")
    covers: dict[int, tuple[Sieve, ...]] = {}
    for x in range(len(sub.objects)):
        ambient_x = cat.object_id(sub.objects[x])
        good = []
        for s in all_sieves(sub, x, max_families):
            ambient_members = [cat.morphism_id(sub.name(f)) for f in s.members]
            if topology.is_cover(generated_sieve(cat, ambient_x, ambient_members)):
                good.append(s)
        covers[x] = tuple(good)
    return Topology(covers)
