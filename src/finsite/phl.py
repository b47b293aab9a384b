"""Finitary partial Horn logic and the sheaf theory of a finite site.

Signatures, terms and Horn sequents are interpreted in partial structures
with finite carriers; satisfaction is decided by exhaustive search over
environments with premise pruning.  The sheaf signature has one unary
symbol per morphism and one amalgamation symbol per covering sieve, and
models of the resulting theory are exactly the sheaves on the site.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotACongruenceError,
    NotAModelError,
    NotASheafError,
    PresheafInvalidError,
    SizeLimitError,
    SortMismatchError,
)
from .fincat import FinCategory
from .presheaf import (
    Presheaf,
    SheafStatus,
    sheaf_check,
    sheaf_status,
    validate_presheaf,
)
from .search import DEFAULT_MAX_FAMILIES
from .site import Sieve, Topology


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    argument_sorts: tuple[str, ...]
    result_sort: str


@dataclass(frozen=True)
class Signature:
    sorts: tuple[str, ...]
    functions: tuple[FunctionSymbol, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_by_name", {f.name: f for f in self.functions}
        )
        for f in self.functions:
            for s in (*f.argument_sorts, f.result_sort):
                if s not in self.sorts:
                    raise SortMismatchError(
                        f"function {f.name!r} references undeclared sort {s!r}"
                    )

    def function(self, name: str) -> FunctionSymbol:
        return self._by_name[name]


@dataclass(frozen=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple


Term = Var | App


def term_sort(sig: Signature, t: Term) -> str:
    if isinstance(t, Var):
        return t.sort
    f = sig.function(t.symbol)
    if len(t.args) != len(f.argument_sorts):
        raise SortMismatchError(f"{t.symbol!r} applied to {len(t.args)} arguments")
    for arg, want in zip(t.args, f.argument_sorts):
        if term_sort(sig, arg) != want:
            raise SortMismatchError(f"argument of {t.symbol!r} has wrong sort")
    return f.result_sort


@dataclass(frozen=True)
class Equation:
    left: Term
    right: Term


def definedness(t: Term) -> Equation:
    """t = t, read as "t is defined"."""
    return Equation(t, t)


def formula_vars(phi: tuple[Equation, ...]) -> set[str]:
    out: set[str] = set()

    def walk_term(t: Term):
        if isinstance(t, Var):
            out.add(t.name)
        else:
            for a in t.args:
                walk_term(a)

    for eq in phi:
        walk_term(eq.left)
        walk_term(eq.right)
    return out


@dataclass(frozen=True)
class Sequent:
    """``premise ⊢ conclusion`` in ``context``.

    A Horn formula is a tuple of equations, read as their conjunction;
    the empty tuple is truth.
    """

    context: tuple[Var, ...]
    premise: tuple[Equation, ...]
    conclusion: tuple[Equation, ...]
    label: str = ""

    def __post_init__(self):
        names = {v.name for v in self.context}
        free = formula_vars(self.premise) | formula_vars(self.conclusion)
        if not free <= names:
            raise SortMismatchError(
                f"sequent {self.label!r} uses variables outside its context"
            )


@dataclass(frozen=True)
class PartialStructure:
    """Finite carriers plus a partial table per function symbol."""

    signature: Signature
    carriers: dict[str, tuple[str, ...]]
    operations: dict[str, dict[tuple[str, ...], str]]


def interpret_term(m: PartialStructure, t: Term, env: dict[str, str]):
    """Kleene-strict evaluation; returns the element or None when undefined."""
    if isinstance(t, Var):
        if t.name not in env:
            raise SortMismatchError(f"environment does not cover variable {t.name!r}")
        value = env[t.name]
        if value not in m.carriers[t.sort]:
            raise SortMismatchError(
                f"environment value for {t.name!r} is not of sort {t.sort!r}"
            )
        return value
    args = []
    for a in t.args:
        v = interpret_term(m, a, env)
        if v is None:
            return None
        args.append(v)
    return m.operations[t.symbol].get(tuple(args))


def holds(m: PartialStructure, phi: tuple[Equation, ...], env: dict[str, str]) -> bool:
    for eq in phi:
        left = interpret_term(m, eq.left, env)
        right = interpret_term(m, eq.right, env)
        if left is None or right is None or left != right:
            return False
    return True


def satisfies(
    m: PartialStructure, seq: Sequent, max_envs: int = DEFAULT_MAX_FAMILIES
) -> tuple[bool, dict[str, str] | None]:
    """Whether every premise environment also satisfies the conclusion.

    Environments are enumerated by backtracking in context order; premise
    equations are evaluated as soon as their variables are assigned, which
    prunes the search to the premise's satisfying set.  Returns the
    lexicographically least counterexample on failure.
    """
    context = seq.context
    position = {v.name: i for i, v in enumerate(context)}
    # Each equation becomes checkable once its last context variable is set.
    trigger: dict[int, tuple[Equation, ...]] = {i: () for i in range(-1, len(context))}
    for eq in seq.premise:
        level = max((position[n] for n in formula_vars((eq,))), default=-1)
        trigger[level] += (eq,)

    env: dict[str, str] = {}
    visited = 0

    def rec(i: int):
        nonlocal visited
        if i == len(context):
            if not holds(m, seq.conclusion, env):
                return dict(env)
            return None
        var = context[i]
        for value in m.carriers[var.sort]:
            visited += 1
            if visited > max_envs:
                raise SizeLimitError(
                    f"satisfaction search for {seq.label!r} exceeded {max_envs} nodes"
                )
            env[var.name] = value
            if holds(m, trigger[i], env):
                result = rec(i + 1)
                if result is not None:
                    del env[var.name]
                    return result
            del env[var.name]
        return None

    if not holds(m, trigger[-1], {}):
        return True, None
    counterexample = rec(0)
    return (counterexample is None), counterexample


def quotient_structure(m: PartialStructure, partition) -> PartialStructure:
    """Quotient by a partial congruence given as per-sort partition blocks.

    Elements not mentioned in any block are singletons.  Raises
    :class:`NotACongruenceError` with a witness tuple if the equivalence
    fails to respect an operation's domain or values.
    """
    cls: dict[str, dict[str, str]] = {}
    for sort, carrier in m.carriers.items():
        rep = {e: e for e in carrier}
        for block in partition.get(sort, ()):
            block = list(block)
            for e in block:
                if e not in rep:
                    raise NotACongruenceError(
                        f"partition mentions unknown element {e!r} of sort {sort!r}"
                    )
            least = min(block, key=carrier.index)
            for e in block:
                rep[e] = least
        cls[sort] = rep

    def classes_equal(sort, a, b):
        return cls[sort][a] == cls[sort][b]

    for f in m.signature.functions:
        table = m.operations[f.name]
        seen: dict[tuple[str, ...], tuple[str, ...]] = {}
        carriers = [m.carriers[s] for s in f.argument_sorts]

        def tuples(i, acc):
            if i == len(carriers):
                yield tuple(acc)
                return
            for e in carriers[i]:
                acc.append(e)
                yield from tuples(i + 1, acc)
                acc.pop()

        for args in tuples(0, []):
            key = tuple(cls[s][a] for s, a in zip(f.argument_sorts, args))
            if key in seen:
                other = seen[key]
                if (args in table) != (other in table):
                    raise NotACongruenceError(
                        f"congruence does not respect the domain of {f.name!r}",
                        witness=(args, other),
                    )
                if args in table and not classes_equal(
                    f.result_sort, table[args], table[other]
                ):
                    raise NotACongruenceError(
                        f"congruence does not respect the values of {f.name!r}",
                        witness=(args, other),
                    )
            else:
                seen[key] = args

    carriers = {
        sort: tuple(e for e in carrier if cls[sort][e] == e)
        for sort, carrier in m.carriers.items()
    }
    operations: dict[str, dict[tuple[str, ...], str]] = {}
    for f in m.signature.functions:
        table = {}
        for args, value in m.operations[f.name].items():
            key = tuple(cls[s][a] for s, a in zip(f.argument_sorts, args))
            table[key] = cls[f.result_sort][value]
        operations[f.name] = table
    return PartialStructure(m.signature, carriers, operations)


# -- the theory of sheaves on a site ----------------------------------------


def alpha_symbol(cat: FinCategory, f: int) -> str:
    return f"alpha:{cat.name(f)}"


def sigma_symbol(cat: FinCategory, cover: Sieve) -> str:
    members = ",".join(cat.name(f) for f in cover.sorted_members())
    return f"sigma:{cat.objects[cover.target]}:[{members}]"


def sheaf_signature(cat: FinCategory, topology: Topology) -> Signature:
    """Sorts are the objects; one restriction symbol per morphism and one
    amalgamation symbol per covering sieve, with argument positions indexed
    by the cover's morphisms in canonical order."""
    functions = []
    for f in range(len(cat.morphisms)):
        m = cat.morphisms[f]
        functions.append(
            FunctionSymbol(
                alpha_symbol(cat, f),
                (cat.objects[m.cod],),
                cat.objects[m.dom],
            )
        )
    for x in range(len(cat.objects)):
        for cover in topology.covers_of(x):
            functions.append(
                FunctionSymbol(
                    sigma_symbol(cat, cover),
                    tuple(
                        cat.objects[cat.dom(f)] for f in cover.sorted_members()
                    ),
                    cat.objects[x],
                )
            )
    return Signature(tuple(cat.objects), tuple(functions))


def _matching_premise(
    cat: FinCategory, cover: Sieve, var_of: dict[int, Var]
) -> tuple[Equation, ...]:
    return tuple(
        Equation(App(alpha_symbol(cat, g), (var_of[f],)), var_of[cat.comp[(f, g)]])
        for f in cover.sorted_members()
        for g in cat.cone(cat.dom(f))
    )


def sheaf_theory(cat: FinCategory, topology: Topology) -> list[Sequent]:
    """The axioms whose models over the sheaf signature are the sheaves.

    Five groups: totality of every restriction, identity actions,
    composite actions, amalgamation existence per cover, and amalgamation
    uniqueness per cover.
    """
    axioms: list[Sequent] = []
    for f in range(len(cat.morphisms)):
        m = cat.morphisms[f]
        x = Var("x", cat.objects[m.cod])
        axioms.append(
            Sequent(
                (x,),
                (),
                (definedness(App(alpha_symbol(cat, f), (x,))),),
                label=f"total:{cat.name(f)}",
            )
        )
    for o in range(len(cat.objects)):
        x = Var("x", cat.objects[o])
        axioms.append(
            Sequent(
                (x,),
                (),
                (Equation(App(alpha_symbol(cat, cat.identity[o]), (x,)), x),),
                label=f"identity:{cat.objects[o]}",
            )
        )
    for (g, f), gf in sorted(cat.comp.items()):
        x = Var("x", cat.objects[cat.cod(g)])
        axioms.append(
            Sequent(
                (x,),
                (),
                (
                    Equation(
                        App(alpha_symbol(cat, gf), (x,)),
                        App(alpha_symbol(cat, f), (App(alpha_symbol(cat, g), (x,)),)),
                    ),
                ),
                label=f"composite:{cat.name(g)}*{cat.name(f)}",
            )
        )
    for o in range(len(cat.objects)):
        for cover in topology.covers_of(o):
            members = cover.sorted_members()
            var_of = {
                f: Var(f"x_{cat.name(f)}", cat.objects[cat.dom(f)]) for f in members
            }
            context = tuple(var_of[f] for f in members)
            premise = _matching_premise(cat, cover, var_of)
            sigma = App(sigma_symbol(cat, cover), tuple(var_of[f] for f in members))
            conclusion = (definedness(sigma),) + tuple(
                Equation(App(alpha_symbol(cat, f), (sigma,)), var_of[f])
                for f in members
            )
            axioms.append(
                Sequent(
                    context,
                    premise,
                    conclusion,
                    label=f"amalgamation:{sigma_symbol(cat, cover)}",
                )
            )
            y = Var("y", cat.objects[o])
            axioms.append(
                Sequent(
                    context + (y,),
                    premise
                    + tuple(
                        Equation(App(alpha_symbol(cat, f), (y,)), var_of[f])
                        for f in members
                    ),
                    (Equation(sigma, y),),
                    label=f"uniqueness:{sigma_symbol(cat, cover)}",
                )
            )
    return axioms


def structure_from_presheaf(f_: Presheaf, topology: Topology) -> PartialStructure:
    """Read a presheaf as a partial structure over the sheaf signature.

    Restrictions are total; each amalgamation symbol is defined exactly on
    the matching tuples admitting a unique amalgamation, with that value.
    Those are the restriction tuples that exactly one element has, so each
    table is read off the presheaf's amalgamation index.  The signature
    is built once per category and topology and shared.  Works for
    arbitrary presheaves, so axiom failures of non-sheaves are observable
    through :func:`satisfies`.
    """
    cat = f_.cat
    operations: dict[str, dict[tuple[str, ...], str]] = {}
    for f in range(len(cat.morphisms)):
        operations[alpha_symbol(cat, f)] = {
            (e,): v for e, v in f_.actions[f].items()
        }
    for x in range(len(cat.objects)):
        for cover in topology.covers_of(x):
            operations[sigma_symbol(cat, cover)] = {
                values: ams[0]
                for values, ams in f_.amalgamation_index(cover).items()
                if len(ams) == 1
            }
    carriers = {cat.objects[x]: f_.sets[x] for x in range(len(cat.objects))}
    return PartialStructure(_topology_signature(cat, topology), carriers, operations)


def _topology_signature(cat: FinCategory, topology: Topology) -> Signature:
    """``sheaf_signature(cat, topology)``, built once per category and kept
    on the topology under ``id(cat)``; the entry holds ``cat``, so the id
    stays its own while the entry lives."""
    entry = topology._signatures.get(id(cat))
    if entry is None:
        entry = topology._signatures[id(cat)] = (cat, sheaf_signature(cat, topology))
    return entry[1]


def sheaf_to_model(f_: Presheaf, topology: Topology) -> PartialStructure:
    """The partial structure of a sheaf; raises if it is not one."""
    status = sheaf_status(f_, topology)
    if status is not SheafStatus.SHEAF:
        raise NotASheafError(f"presheaf is {status.value}, not a sheaf")
    return structure_from_presheaf(f_, topology)


def model_to_sheaf(m: PartialStructure, cat: FinCategory, topology: Topology) -> Presheaf:
    """Rebuild the sheaf from a model of the sheaf theory.

    The carriers and restriction tables must form a presheaf, as
    :func:`~finsite.presheaf.validate_presheaf` checks, and every
    amalgamation symbol must be defined exactly on matching tuples with the
    amalgamation as value; raises :class:`NotAModelError` with a witness,
    the first violation's for a table that is no presheaf, otherwise.
    """
    actions: dict[str, dict[str, str]] = {}
    for f in range(len(cat.morphisms)):
        table = m.operations.get(alpha_symbol(cat, f), {})
        if not all(isinstance(key, tuple) and len(key) == 1 for key in table):
            raise NotAModelError(
                f"restriction along {cat.name(f)!r} is not total", witness=cat.name(f)
            )
        actions[cat.name(f)] = {e: v for (e,), v in table.items()}
    try:
        candidate = validate_presheaf(cat, m.carriers, actions)
    except PresheafInvalidError as exc:
        first = exc.violations[0]
        raise NotAModelError(first.message, witness=first.witnesses) from exc
    report = sheaf_check(candidate, topology)
    if report.status is not SheafStatus.SHEAF:
        x, _, family = (report.missing + [w[:3] for w in report.ambiguous])[0]
        raise NotAModelError(
            "a matching family lacks a unique amalgamation",
            witness=(cat.objects[x], family),
        )
    expected_tables = structure_from_presheaf(candidate, topology).operations
    for x in range(len(cat.objects)):
        for cover in topology.covers_of(x):
            symbol = sigma_symbol(cat, cover)
            actual, expected = m.operations.get(symbol, {}), expected_tables[symbol]
            if set(actual) != set(expected):
                extra = sorted(set(actual) ^ set(expected))
                raise NotAModelError(
                    "amalgamation symbol defined on the wrong tuples",
                    witness=(symbol, extra[0]),
                )
            for key, value in expected.items():
                if actual[key] != value:
                    raise NotAModelError(
                        "amalgamation symbol has a wrong value", witness=(symbol, key)
                    )
    return candidate
