"""Small concrete groups presented by an element list and a product."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


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

    def index(self, element) -> int:
        return self._positions[element]

    def multiply(self, a, b):
        return self.elements[self.table[(self.index(a), self.index(b))]]

    def invert(self, a):
        return self.elements[self.inverse[self.index(a)]]

    def is_abelian(self) -> bool:
        n = len(self.elements)
        return all(
            self.table[(i, j)] == self.table[(j, i)]
            for i in range(n)
            for j in range(n)
        )


def finite_group(elements, multiply) -> FiniteGroup:
    """Build a :class:`FiniteGroup` from elements and a product function.

    Raises ``ValueError`` if the product is not closed, associative,
    unital and invertible over ``elements``.
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
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[(table[(i, j)], k)] != table[(i, table[(j, k)])]:
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


def group_law_violations(group: FiniteGroup) -> list[str]:
    """Re-check closure, associativity, unit and inverses exhaustively."""
    out = []
    n = group.order
    for i in range(n):
        for j in range(n):
            if (i, j) not in group.table or not 0 <= group.table[(i, j)] < n:
                out.append(f"closure fails at ({i}, {j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ij = group.table[(i, j)]
                jk = group.table[(j, k)]
                if group.table[(ij, k)] != group.table[(i, jk)]:
                    out.append(f"associativity fails at ({i}, {j}, {k})")
    u = group.unit
    for i in range(n):
        if group.table[(u, i)] != i or group.table[(i, u)] != i:
            out.append(f"unit fails at {i}")
        v = group.inverse[i]
        if group.table[(i, v)] != u or group.table[(v, i)] != u:
            out.append(f"inverse fails at {i}")
    return out


def find_group_isomorphism(g: FiniteGroup, h: FiniteGroup):
    """Return an index map ``g -> h`` that is a group isomorphism, or None.

    Backtracking over bijections; intended for the small groups this
    package produces.
    """
    if g.order != h.order:
        return None
    n = g.order
    mapping: dict[int, int] = {g.unit: h.unit}
    used = {h.unit}

    def consistent(m):
        for (i, j), k in g.table.items():
            if i in m and j in m:
                if k in m:
                    if h.table[(m[i], m[j])] != m[k]:
                        return False
                elif h.table[(m[i], m[j])] in set(m.values()) - {m.get(k)}:
                    return False
        return True

    def rec(remaining):
        if not remaining:
            return all(
                h.table[(mapping[i], mapping[j])] == mapping[g.table[(i, j)]]
                for i in range(n)
                for j in range(n)
            )
        i = remaining[0]
        for t in range(n):
            if t in used:
                continue
            mapping[i] = t
            used.add(t)
            if consistent(mapping) and rec(remaining[1:]):
                return True
            del mapping[i]
            used.discard(t)
        return False

    todo = [i for i in range(n) if i != g.unit]
    if rec(todo):
        return dict(mapping)
    return None
