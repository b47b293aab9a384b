"""The propagating search behind the package's four enumerations.

Matching families, natural transformations, natural endomorphisms of the
identity functor and isotropy candidates are all total assignments of
values to variables subject to forcing edges; this module finds them
under one size guard.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import SizeLimitError

DEFAULT_MAX_FAMILIES = 1_000_000


def propagating_search(domains, edges, max_solutions: int, what: str, build) -> list:
    """Every total assignment satisfying the forcing edges, in lexicographic order.

    Variable i takes a value from ``domains[i]``; ``edges[i]`` lists
    ``(table, k)`` pairs, each saying that once i holds v, variable k must
    hold ``table[v]``.  Variables are tried in index order and values in
    domain order.  Each assignment follows its own edges once: an
    unassigned forced variable takes the forced value, an assigned one
    holding another value is a conflict, and a trail undoes the branch.
    Forced variables are skipped when their turn comes, since no other
    value could survive.  Each solution goes to ``build`` as the list of
    values in variable order; the list is reused, so ``build`` copies what
    it keeps.  Returns the list of what ``build`` returned.

    One pass is enough because the edges must be closed under composition:
    if i forces k through t and k forces m through u, then i must also
    force m through u∘t.  A forced variable's own edges then add nothing
    its forcer has not already checked.

    ``what`` names the solutions and their objects for the guard, which
    raises :class:`SizeLimitError` past ``max_solutions`` solutions or
    ``20 * max_solutions`` candidate tries.
    """
    n = len(domains)
    value: list = [None] * n
    trail: list[int] = []
    solutions: list = []
    max_tries = 20 * max_solutions
    tries = 0

    def assign(i: int, v) -> bool:
        value[i] = v
        trail.append(i)
        for table, k in edges[i]:
            forced = table[v]
            current = value[k]
            if current is None:
                value[k] = forced
                trail.append(k)
            elif current != forced:
                return False
        return True

    # One frame per chosen variable: its index, the values not yet tried and
    # the trail length before it.  An explicit stack rather than recursion
    # leaves no self-referencing closure, so the search state is freed on
    # return instead of waiting for the cycle collector.
    frames: list[tuple[int, Iterator, int]] = []
    i = 0
    while True:
        while i < n and value[i] is not None:
            i += 1
        if i == n:
            solutions.append(build(value))
            if len(solutions) > max_solutions:
                raise SizeLimitError(f"more than {max_solutions} {what}")
        else:
            frames.append((i, iter(domains[i]), len(trail)))
        # Undo the innermost choice and move it to its next value that
        # propagates without conflict, dropping frames with none left.
        while frames:
            i, remaining, mark = frames[-1]
            for k in trail[mark:]:
                value[k] = None
            del trail[mark:]
            v = next(remaining, None)
            if v is None:
                frames.pop()
                continue
            tries += 1
            if tries > max_tries:
                raise SizeLimitError(
                    f"search for {what} tried more than {max_tries} "
                    f"candidates (20 x the limit of {max_solutions})"
                )
            if assign(i, v):
                i += 1
                break
        else:
            return solutions


def natural_search(cat, domains, left, right, max_solutions: int, what: str) -> list:
    """Every choice of one value per object that agrees along every morphism.

    Object x ranges over ``domains[x]``.  For f : C -> D the values at C
    and D agree when ``left(f)`` of the one equals ``right(f)`` of the
    other.  Each f gets an auxiliary variable after the objects with an
    empty domain: C forces it through ``left(f)`` and D through
    ``right(f)``, so a disagreement is exactly the kernel's conflict.  Once
    every object is assigned every auxiliary variable is forced, so none is
    branched on and the solutions are the value tuples in lexicographic
    order.  The auxiliary variables have no edges of their own, so the
    edges are closed under composition.
    """
    n = len(domains)
    edges: list[list] = [[] for _ in range(n + len(cat.morphisms))]
    for f, m in enumerate(cat.morphisms):
        edges[m.dom].append((left(f), n + f))
        edges[m.cod].append((right(f), n + f))
    domains = list(domains) + [()] * len(cat.morphisms)
    return propagating_search(
        domains, edges, max_solutions, what, lambda values: tuple(values[:n])
    )
