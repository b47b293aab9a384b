"""Seeded inputs for the benchmark, built without finsite.

Categories are plain composition tables; presheaves are built from them as
disjoint unions and quotients of representables.  The known answers used
to check finsite's verdicts (centre orders, isotropy orders, catalogue
sizes) come from brute force over these tables or from theory, never from
finsite itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Cat:
    """A finite category: ``comp[(g, f)]`` is g after f, for every
    composable pair including identities."""

    objects: list[str]
    morphisms: list[tuple[str, str, str]]  # (name, dom, cod)
    identities: dict[str, str]
    comp: dict[tuple[str, str], str]

    def ends(self, f: str) -> tuple[str, str]:
        return self._ends[f]

    def __post_init__(self):
        self._ends = {name: (d, c) for name, d, c in self.morphisms}

    def hom(self, x: str, y: str) -> list[str]:
        return [name for name, d, c in self.morphisms if d == x and c == y]


@dataclass
class SiteSpec:
    """A category with a topology basis (object -> list of sieves)."""

    cat: Cat
    basis: dict[str, list[list[str]]] = field(default_factory=dict)

    def to_json(self) -> dict:
        cat = self.cat
        ids = set(cat.identities.values())
        return {
            "objects": list(cat.objects),
            "morphisms": [
                {"name": n, "dom": d, "cod": c} for n, d, c in cat.morphisms
            ],
            "identities": dict(cat.identities),
            "composition": [
                [g, f, gf]
                for (g, f), gf in cat.comp.items()
                if g not in ids and f not in ids
            ],
            "topology": {"basis": self.basis, "saturated": False},
        }


# -- categories ----------------------------------------------------------


def group_cat(elements, mul, unit) -> Cat:
    comp = {(g, f): mul(g, f) for g in elements for f in elements}
    return Cat(["*"], [(e, "*", "*") for e in elements], {"*": unit}, comp)


def cyclic(n: int) -> Cat:
    return group_cat(
        [f"g{i}" for i in range(n)], lambda a, b: f"g{(int(a[1:]) + int(b[1:])) % n}", "g0"
    )


def klein_four() -> Cat:
    elems = ["e", "a", "b", "ab"]
    bits = {"e": 0, "a": 1, "b": 2, "ab": 3}
    return group_cat(elems, lambda x, y: elems[bits[x] ^ bits[y]], "e")


def dihedral8() -> Cat:
    """r^a s^b with s r = r^-1 s."""

    def name(a, b):
        return f"r{a % 4}s{b % 2}"

    def mul(x, y):
        a, b, c, d = int(x[1]), int(x[3]), int(y[1]), int(y[3])
        return name(a + (c if b == 0 else -c), b + d)

    return group_cat([name(a, b) for b in (0, 1) for a in range(4)], mul, "r0s0")


def quaternion8() -> Cat:
    """Units +-1, +-i, +-j, +-k; 'n' marks the negative sign."""
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }

    def mul(x, y):
        sx, lx = (-1, x[1:]) if x[0] == "n" else (1, x)
        sy, ly = (-1, y[1:]) if y[0] == "n" else (1, y)
        s, l = table[(lx, ly)]
        return ("n" if sx * sy * s < 0 else "") + l

    return group_cat(["1", "n1", "i", "ni", "j", "nj", "k", "nk"], mul, "1")


def cylinder(n: int) -> Cat:
    """Two objects A, B with Z_n endomorphisms each and n arrows A -> B."""
    morphisms = [(f"a{i}", "A", "A") for i in range(n)]
    morphisms += [(f"b{i}", "B", "B") for i in range(n)]
    morphisms += [(f"u{i}", "A", "B") for i in range(n)]
    comp = {}
    for g, gd, _ in morphisms:
        for f, _, fc in morphisms:
            if fc == gd:
                total = (int(g[1:]) + int(f[1:])) % n
                kind = "u" if "u" in (g[0], f[0]) else g[0]
                comp[(g, f)] = f"{kind}{total}"
    return Cat(["A", "B"], morphisms, {"A": "a0", "B": "b0"}, comp)


def poset(elements, leq) -> Cat:
    def arrow(x, y):
        return f"id_{x}" if x == y else f"{x}<={y}"

    morphisms = [(arrow(x, y), x, y) for x in elements for y in elements if leq(x, y)]
    comp = {}
    for g, gd, gc in morphisms:
        for f, fd, fc in morphisms:
            if fc == gd:
                comp[(g, f)] = arrow(fd, gc)
    return Cat(list(elements), morphisms, {x: arrow(x, x) for x in elements}, comp)


def open_sets(points: dict[str, frozenset]) -> Cat:
    return poset(list(points), lambda x, y: points[x] <= points[y])


# -- sites ---------------------------------------------------------------


@dataclass
class Known:
    """Answers fixed independently of finsite."""

    centre: int  # natural automorphisms of the identity functor
    isotropy: int  # every sheaf's isotropy group order
    subcanonical: bool
    empty_covered: tuple[str, ...]


def discrete_two_space() -> SiteSpec:
    cat = open_sets(
        {"O": frozenset(), "a": frozenset({0}), "b": frozenset({1}), "X": frozenset({0, 1})}
    )
    return SiteSpec(cat, {"X": [["O<=X", "a<=X", "b<=X"]], "O": [[]]})


def sierpinski_space() -> SiteSpec:
    cat = open_sets({"O": frozenset(), "U": frozenset({0}), "X": frozenset({0, 1})})
    return SiteSpec(cat, {"O": [[]]})


def cylinder_cover(n: int) -> SiteSpec:
    return SiteSpec(cylinder(n), {"B": [[f"u{i}" for i in range(n)]]})


def bz2_all_sieves() -> SiteSpec:
    # The empty sieve covers, so saturation makes every sieve covering.
    return SiteSpec(cyclic(2), {"*": [[]]})


def known_answers(name: str, site: SiteSpec) -> Known:
    """Theory for the named sites; brute force for the centre.

    Trivial topology: sheaves are presheaves, so isotropy is the centre.
    Cylinder with the cross arrows covering B: sheaves are determined by
    their value at A, i.e. they are Z_n-sets, whose isotropy is Z_n.
    Open sets of a space: a thin category, every centre is trivial.  BZ2
    with every sieve covering: the terminal sheaf is the only sheaf.
    """
    z = brute_centre_order(site.cat)
    if name.startswith("cyl"):
        return Known(z, int(name[3:]), False, ())
    if name in ("diamond", "sierpinski"):
        return Known(z, 1, True, ("O",))
    if name == "bz2-all":
        return Known(z, 1, False, ("*",))
    return Known(z, z, True, ())


def brute_centre_order(cat: Cat) -> int:
    """Count families of automorphisms psi_x with f psi_x = psi_y f."""
    autos = []
    for x in cat.objects:
        ident = cat.identities[x]
        ends = cat.hom(x, x)
        autos.append(
            [f for f in ends if any(cat.comp[(f, g)] == ident == cat.comp[(g, f)] for g in ends)]
        )
    count = 0
    pos = {x: i for i, x in enumerate(cat.objects)}

    def rec(i: int, chosen: list[str]):
        nonlocal count
        if i == len(cat.objects):
            count += all(
                cat.comp[(f, chosen[pos[d]])] == cat.comp[(chosen[pos[c]], f)]
                for f, d, c in cat.morphisms
            )
            return
        for psi in autos[i]:
            rec(i + 1, chosen + [psi])

    rec(0, [])
    return count


def relabel(site: SiteSpec, rng: random.Random) -> SiteSpec:
    """An isomorphic copy: shuffled object order, fresh morphism names."""
    cat = site.cat
    fresh = rng.sample(range(10_000, 100_000), len(cat.morphisms))
    new = {name: f"m{k}" for (name, _, _), k in zip(cat.morphisms, fresh)}
    objects = list(cat.objects)
    rng.shuffle(objects)
    order = {x: i for i, x in enumerate(objects)}
    morphisms = sorted(
        ((new[n], d, c) for n, d, c in cat.morphisms),
        key=lambda m: (order[m[1]], order[m[2]]),
    )
    comp = {(new[g], new[f]): new[gf] for (g, f), gf in cat.comp.items()}
    basis = {
        x: [[new[f] for f in sieve] for sieve in sieves]
        for x, sieves in site.basis.items()
    }
    identities = {x: new[cat.identities[x]] for x in objects}
    return SiteSpec(Cat(objects, morphisms, identities, comp), basis)


# -- presheaves ----------------------------------------------------------


@dataclass
class Psh:
    """Element lists per object and, per morphism f: d -> c, a table
    sending elements at c to elements at d."""

    sets: dict[str, list[str]]
    actions: dict[str, dict[str, str]]

    def to_json(self) -> dict:
        return {"sets": self.sets, "actions": self.actions}


def representable(cat: Cat, x: str) -> Psh:
    sets = {d: cat.hom(d, x) for d in cat.objects}
    actions = {
        f: {g: cat.comp[(g, f)] for g in sets[c]} for f, _, c in cat.morphisms
    }
    return Psh(sets, actions)


def terminal(cat: Cat) -> Psh:
    return Psh({x: ["t"] for x in cat.objects}, {f: {"t": "t"} for f, _, _ in cat.morphisms})


def disjoint_union(cat: Cat, parts: list[Psh]) -> Psh:
    sets = {x: [f"{i}.{e}" for i, p in enumerate(parts) for e in p.sets[x]] for x in cat.objects}
    actions = {
        f: {f"{i}.{e}": f"{i}.{v}" for i, p in enumerate(parts) for e, v in p.actions[f].items()}
        for f, _, _ in cat.morphisms
    }
    return Psh(sets, actions)


def quotient(cat: Cat, p: Psh, x: str, a: str, b: str) -> Psh:
    """Identify a ~ b at x and close under every action."""
    parent = {(y, e): (y, e) for y in cat.objects for e in p.sets[y]}

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    work = [(x, a, b)]
    while work:
        y, s, t = work.pop()
        rs, rt = find((y, s)), find((y, t))
        if rs == rt:
            continue
        parent[rt] = rs
        for f, d, c in cat.morphisms:
            if c == y:
                work.append((d, p.actions[f][s], p.actions[f][t]))
    sets = {y: [e for e in p.sets[y] if find((y, e)) == (y, e)] for y in cat.objects}
    actions = {
        f: {e: find((d, p.actions[f][e]))[1] for e in sets[c]}
        for f, d, c in cat.morphisms
    }
    return Psh(sets, actions)


def random_presheaf(cat: Cat, rng: random.Random, tag: str) -> Psh:
    """One or two parts (representables or the terminal), then maybe a
    quotient by one random pair, with element ids unique to ``tag``."""
    parts = []
    for _ in range(rng.choice((1, 1, 2))):
        if rng.random() < 0.2:
            parts.append(terminal(cat))
        else:
            parts.append(representable(cat, rng.choice(cat.objects)))
    p = disjoint_union(cat, parts)
    if rng.random() < 0.5:
        candidates = [y for y in cat.objects if len(p.sets[y]) >= 2]
        if candidates:
            y = rng.choice(candidates)
            a, b = rng.sample(p.sets[y], 2)
            p = quotient(cat, p, y, a, b)
    return tagged(cat, p, tag)


def tagged(cat: Cat, p: Psh, tag: str) -> Psh:
    names = {(y, e): f"{tag}{i}" for y in cat.objects for i, e in enumerate(p.sets[y])}
    sets = {y: [names[(y, e)] for e in p.sets[y]] for y in cat.objects}
    actions = {
        f: {names[(cat.ends(f)[1], e)]: names[(cat.ends(f)[0], v)] for e, v in table.items()}
        for f, table in p.actions.items()
    }
    return Psh(sets, actions)
