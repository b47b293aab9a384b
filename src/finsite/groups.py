"""Small concrete groups presented by an element list and a product.

A law that holds on a generating set holds everywhere, so associativity,
commutativity and homomorphisms are checked on ``generators`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group over hashable elements with a total product table.

    ``table[(i, j)]`` is the index of ``elements[i] * elements[j]``; the
    constructor helper :func:`finite_group` checks the group laws.
    """

    elements: tuple
    table: dict = field(compare=False)
    unit: int = field(compare=False, default=0)
    inverse: tuple = field(compare=False, default=())

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _positions(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set of indices, derived from ``table`` alone."""
        return _generating_set(self.table, self.order)

    def index(self, element) -> int:
        return self._positions[element]

    def multiply(self, a, b):
        return self.elements[self.table[(self.index(a), self.index(b))]]

    def invert(self, a):
        return self.elements[self.inverse[self.index(a)]]

    def is_abelian(self) -> bool:
        # What commutes with every generator commutes with every product.
        return all(
            self.table[(s, a)] == self.table[(a, s)]
            for s in self.generators
            for a in range(self.order)
        )


def finite_group(elements, multiply) -> FiniteGroup:
    """Build a :class:`FiniteGroup` from elements and a product function.

    Raises ``ValueError`` if the product is not closed, associative,
    unital and invertible over ``elements``.  Associativity is Light's
    test (Clifford and Preston, *The Algebraic Theory of Semigroups*,
    vol. 1, 1961): the s with (a·s)·b = a·(s·b) for all a, b are closed
    under the product, so it is checked for the generators only.
    """
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate group elements")
    table = {}
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            c = multiply(a, b)
            if c not in index:
                raise ValueError(f"product not closed at ({a}, {b})")
            table[(i, j)] = index[c]
    n = len(elements)
    for s in _generating_set(table, n):
        for i in range(n):
            for j in range(n):
                if table[(table[(i, s)], j)] != table[(i, table[(s, j)])]:
                    raise ValueError("product not associative")
    units = [
        e
        for e in range(n)
        if all(table[(e, i)] == i and table[(i, e)] == i for i in range(n))
    ]
    if len(units) != 1:
        raise ValueError("no two-sided unit")
    unit = units[0]
    inverse = []
    for i in range(n):
        invs = [j for j in range(n) if table[(i, j)] == unit and table[(j, i)] == unit]
        if len(invs) != 1:
            raise ValueError(f"element {elements[i]} has no unique inverse")
        inverse.append(invs[0])
    return FiniteGroup(elements, table, unit, tuple(inverse))


def _generating_set(table: dict, n: int) -> tuple[int, ...]:
    """Indices whose bracketed products reach every index of a total table.

    Greedy in index order, idempotents last: no law is assumed, so Light's
    test may use the set, and a group's unit, its one idempotent, is then a
    generator only of the trivial group.
    """
    generators: list[int] = []
    reached: list[int] = []
    seen: set[int] = set()
    paired = 0  # reached[:paired] is closed under the product
    for g in sorted(range(n), key=lambda g: table[(g, g)] == g):
        if g in seen:
            continue
        generators.append(g)
        seen.add(g)
        reached.append(g)
        while paired < len(reached):
            x = reached[paired]
            paired += 1
            for y in reached[:paired]:
                for z in (table[(x, y)], table[(y, x)]):
                    if z not in seen:
                        seen.add(z)
                        reached.append(z)
    return tuple(generators)


def group_law_violations(group: FiniteGroup) -> list[str]:
    """Re-check closure, unit, inverses and (if closed) associativity exhaustively."""
    out = []
    n, table = group.order, group.table
    for i in range(n):
        for j in range(n):
            if table.get((i, j)) not in range(n):
                out.append(f"closure fails at ({i}, {j})")
    if not out:
        for i, j, k in product(range(n), repeat=3):
            if table[(table[(i, j)], k)] != table[(i, table[(j, k)])]:
                out.append(f"associativity fails at ({i}, {j}, {k})")
    u, inverse = group.unit, dict(enumerate(group.inverse))
    for i in range(n):
        if table.get((u, i)) != i or table.get((i, u)) != i:
            out.append(f"unit fails at {i}")
        v = inverse.get(i)
        if table.get((i, v)) != u or table.get((v, i)) != u:
            out.append(f"inverse fails at {i}")
    return out


def find_group_isomorphism(g: FiniteGroup, h: FiniteGroup):
    """Return an index map ``g -> h`` that is a group isomorphism, or None.

    For each choice of distinct images t for g's generators s, the only
    candidate spreads from unit ↦ unit along a·s ↦ φ(a)·t.  It is kept if
    it is a bijection and every a·s, however reached, agrees.
    """
    if g.order != h.order:
        return None
    for images in permutations(range(h.order), len(g.generators)):
        steps = list(zip(g.generators, images))
        mapping, reached = {g.unit: h.unit}, [g.unit]
        for a in reached:
            for s, t in steps:
                b = g.table[(a, s)]
                if b not in mapping:
                    mapping[b] = h.table[(mapping[a], t)]
                    reached.append(b)
        if len(set(mapping.values())) == g.order and all(
            mapping[g.table[(a, s)]] == h.table[(mapping[a], t)] for a in reached for s, t in steps
        ):
            return mapping
    return None
