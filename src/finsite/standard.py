"""Ready-made finite categories, topologies and sheaf catalogues.

Group categories take a multiplication table over element names; poset
categories take an order relation.  These feed the test catalogue and the
CLI's auto-generated sheaf catalogue.
"""

from __future__ import annotations

from itertools import permutations

from .fincat import FinCategory, validate_category
from .site import Sieve, Site, Topology, all_sieves, saturate_topology


def group_category(elements, multiply, unit) -> FinCategory:
    """One-object category of a group; morphism names are element names."""
    objects = ["*"]
    morphisms = [(e, "*", "*") for e in elements]
    identities = {"*": unit}
    composition = [
        (g, f, multiply(g, f)) for g in elements for f in elements
    ]
    return validate_category(objects, morphisms, identities, composition)


def cyclic_group_category(n: int) -> FinCategory:
    elements = [f"g{i}" for i in range(n)]
    return group_category(
        elements, lambda a, b: f"g{(int(a[1:]) + int(b[1:])) % n}", "g0"
    )


def klein_four_category() -> FinCategory:
    elements = ["e", "a", "b", "ab"]
    bits = {"e": (0, 0), "a": (1, 0), "b": (0, 1), "ab": (1, 1)}
    names = {v: k for k, v in bits.items()}

    def mul(x, y):
        (x1, x2), (y1, y2) = bits[x], bits[y]
        return names[((x1 + y1) % 2, (x2 + y2) % 2)]

    return group_category(elements, mul, "e")


def _perm_group_category(perms) -> FinCategory:
    perms = sorted(set(perms))
    names = {p: "p" + "".join(str(i) for i in p) for p in perms}

    def mul(a, b):
        # Right-to-left composition: (a*b)(i) = a(b(i)).
        pa = next(p for p in perms if names[p] == a)
        pb = next(p for p in perms if names[p] == b)
        return names[tuple(pa[i] for i in pb)]

    unit = names[tuple(range(len(perms[0])))]
    return group_category([names[p] for p in perms], mul, unit)


def symmetric_group_category(n: int) -> FinCategory:
    return _perm_group_category(permutations(range(n)))


def dihedral_group_category_order8() -> FinCategory:
    """Symmetries of a square, as permutations of its corners."""
    rot = (1, 2, 3, 0)
    flip = (1, 0, 3, 2)
    elems = {tuple(range(4))}
    frontier = [tuple(range(4))]
    while frontier:
        p = frontier.pop()
        for q in (rot, flip):
            r = tuple(q[p[i]] for i in range(4))
            if r not in elems:
                elems.add(r)
                frontier.append(r)
    return _perm_group_category(elems)


def quaternion_group_category() -> FinCategory:
    """The eight quaternion units with their usual product."""
    elements = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def split(x):
        return (-1 if x.startswith("-") else 1, x.lstrip("-"))

    def join(sign, letter):
        return ("-" if sign < 0 else "") + letter

    base = {
        ("1", "1"): (1, "1"),
        ("1", "i"): (1, "i"),
        ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"),
        ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"),
        ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"),
        ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"),
        ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }

    def mul(x, y):
        sx, lx = split(x)
        sy, ly = split(y)
        s, l = base[(lx, ly)]
        return join(sx * sy * s, l)

    return group_category(elements, mul, "1")


def cyclic_cylinder_category(n: int) -> FinCategory:
    """The cylinder on a cyclic group: two objects joined by a group's worth
    of arrows.  Naturality couples the two endomorphism groups, so the
    centre is the diagonal copy of the group."""
    objects = ["A", "B"]
    morphisms = []
    for obj in objects:
        morphisms += [(f"{obj.lower()}{i}", obj, obj) for i in range(n)]
    morphisms += [(f"u{i}", "A", "B") for i in range(n)]
    identities = {"A": "a0", "B": "b0"}

    def exponent(name: str) -> int:
        return int(name[1:])

    def combine(g: str, f: str) -> str:
        total = (exponent(g) + exponent(f)) % n
        if g[0] == "u" or f[0] == "u":
            return f"u{total}"
        return f"{g[0]}{total}"

    composition = [
        (g, f, combine(g, f))
        for g, g_dom, _ in morphisms
        for f, _, f_cod in morphisms
        if f_cod == g_dom
    ]
    return validate_category(objects, morphisms, identities, composition)


def cylinder_cover_site(n: int) -> Site:
    """The cylinder where the cross arrows cover the far object.

    The representable at the near object then has matching families with
    no amalgamation, so the site is not subcanonical, yet no object is
    covered by the empty sieve.
    """
    cat = cyclic_cylinder_category(n)
    b = cat.object_id("B")
    cross = Sieve(b, frozenset(cat.morphism_id(f"u{i}") for i in range(n)))
    return Site(cat, saturate_topology(cat, {b: [cross]}))


def poset_category(elements, leq) -> FinCategory:
    """The thin category of a finite poset; arrow names are 'x<=y'."""
    objects = list(elements)
    morphisms = []
    for x in objects:
        for y in objects:
            if leq(x, y):
                name = f"id_{x}" if x == y else f"{x}<={y}"
                morphisms.append((name, x, y))
    identities = {x: f"id_{x}" for x in objects}
    composition = []
    for gname, gd, gc in morphisms:
        for fname, fd, fc in morphisms:
            if fc == gd:
                comp_name = f"id_{fd}" if fd == gc else f"{fd}<={gc}"
                composition.append((gname, fname, comp_name))
    return validate_category(objects, morphisms, identities, composition)


def sierpinski_poset() -> FinCategory:
    """The two-point poset 0 < 1."""
    return poset_category(["0", "1"], lambda x, y: x <= y)


def sierpinski_opens_poset() -> FinCategory:
    """The three-open chain O(Sierpinski space): empty < U < X."""
    order = {"O": 0, "U": 1, "X": 2}
    return poset_category(["O", "U", "X"], lambda x, y: order[x] <= order[y])


def trivial_topology(cat: FinCategory) -> Topology:
    return saturate_topology(cat, {})


def all_sieves_topology(cat: FinCategory) -> Topology:
    return Topology(
        {x: tuple(all_sieves(cat, x)) for x in range(len(cat.objects))}
    )


def open_cover_topology(cat: FinCategory, points) -> Topology:
    """Covering sieves on an open-set poset: those whose domains union up.

    ``points`` maps each object name to its set of points.
    """
    covers: dict[int, tuple[Sieve, ...]] = {}
    for x in range(len(cat.objects)):
        target_points = set(points[cat.objects[x]])
        good = []
        for s in all_sieves(cat, x):
            union: set = set()
            for f in s.members:
                union |= set(points[cat.objects[cat.dom(f)]])
            if union == target_points:
                good.append(s)
        covers[x] = tuple(good)
    return Topology(covers)


def sierpinski_space_site() -> Site:
    """O(Sierpinski space) with its open-cover topology; O is empty-covered."""
    cat = sierpinski_opens_poset()
    points = {"O": frozenset(), "U": frozenset({0}), "X": frozenset({0, 1})}
    return Site(cat, open_cover_topology(cat, points))


def discrete_two_space_opens_poset() -> FinCategory:
    """Opens of the two-point discrete space: a diamond O < a, b < X."""
    subsets = {"O": frozenset(), "a": frozenset({0}), "b": frozenset({1}), "X": frozenset({0, 1})}
    return poset_category(["O", "a", "b", "X"], lambda x, y: subsets[x] <= subsets[y])


def discrete_two_space_site() -> Site:
    """The diamond with its open-cover topology; X is covered by {a, b}."""
    cat = discrete_two_space_opens_poset()
    points = {"O": frozenset(), "a": frozenset({0}), "b": frozenset({1}), "X": frozenset({0, 1})}
    return Site(cat, open_cover_topology(cat, points))


def trivial_site(cat: FinCategory) -> Site:
    return Site(cat, trivial_topology(cat))
