"""Command line interface: validate, compute, and verify from JSON files.

Exit codes: 0 success, 1 validation or assertion failure, 2 size limit
exceeded or a usage error that argparse reports, 3 I/O or parse error.
Four reports carry a verdict that exits 1 after the whole report is
printed: ``validate`` with violations, ``normal-form`` on an undefined
term, ``check-theorem`` with violations and ``check-model`` with a failing
axiom.  Invalid input, and ``--method pure`` outside its hypotheses, also
exit 1, with a message on stderr and no report.  Text reports mirror the
JSON structure one to one, so both formats stay byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from functools import cache

from .errors import (
    CategoryInvalidError,
    FinsiteError,
    ParseError,
    PresheafInvalidError,
    SizeLimitError,
)
from .fincat import centre
from .freeext import denote, free_extension, normal_form, parse_term
from .io import load_presheaf, load_site, presheaf_to_dict
from .isotropy import (
    _catalogue_isotropy,
    auto_catalogue,
    verify_main_theorem,
)
from .phl import satisfies, sheaf_theory, structure_from_presheaf, term_sort
from .presheaf import sheaf_check, sheafification
from .search import DEFAULT_MAX_FAMILIES
from .site import validate_topology

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SIZE = 2
EXIT_IO = 3


@dataclass(frozen=True)
class RunConfig:
    """Global run options shared by every command."""

    format: str = "text"
    max_families: int = DEFAULT_MAX_FAMILIES
    output: str | None = None

    def __post_init__(self):
        if self.max_families <= 0:
            raise ParseError("max_families must be positive")


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, inner in value.items():
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(inner)}")
    else:
        for inner in value:
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}-")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(inner)}")
    return lines


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)


_encode_string = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a value nested
    ``pad`` deep.

    Strings, ints, booleans, None, lists and dicts with string keys, the
    types every report is made of, are written here, strings by the
    encoder's own C escaper.  Anything else, a dict with another key type
    included, goes to ``json.dumps`` with its lines shifted by ``pad``;
    that is exact because the encoder escapes every newline inside a
    string.
    """
    kind = type(value)
    if kind is str:
        return _encode_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [_encode_string(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def emit(report: dict, config: RunConfig) -> None:
    if config.format == "json":
        text = _json_text(report)
    else:
        text = "\n".join(_render_text(report))
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _site_and_presheaf(args, config: RunConfig):
    site = load_site(args.site, config.max_families)
    return site, load_presheaf(args.presheaf, site.category)


def _named_catalogue(args, site) -> list:
    """The presheaves named on the command line, each under its file name."""
    return [(name, load_presheaf(name, site.category)) for name in args.presheaves]


# Each command returns its report and whether it passed; ``main`` prints
# the report and turns the verdict into the exit code.


def cmd_validate(args, config: RunConfig) -> tuple[dict, bool]:
    try:
        site = load_site(args.site, config.max_families, check=False)
    except CategoryInvalidError as exc:
        violations = [{"kind": v.kind, "message": v.message} for v in exc.violations]
        return {"valid": False, "violations": violations}, False
    problems = validate_topology(site.category, site.topology, config.max_families)
    report = {
        "valid": not problems,
        "objects": len(site.category.objects),
        "morphisms": len(site.category.morphisms),
        "covers": {
            site.category.objects[x]: len(site.topology.covers_of(x))
            for x in range(len(site.category.objects))
        },
        "violations": [{"axiom": p.axiom, "message": p.message} for p in problems],
    }
    return report, not problems


def cmd_centre(args, config: RunConfig) -> tuple[dict, bool]:
    site = load_site(args.site, config.max_families)
    group = centre(site.category)
    report = {
        "order": group.order,
        "abelian": group.is_abelian(),
        "elements": [psi.display(site.category) for psi in group.elements],
    }
    return report, True


def cmd_sheaf_check(args, config: RunConfig) -> tuple[dict, bool]:
    site, presheaf = _site_and_presheaf(args, config)
    result = sheaf_check(presheaf, site.topology, config.max_families)
    cat = site.category
    report = {
        "status": result.status.value,
        "missing_amalgamations": [
            {
                "object": cat.objects[x],
                "cover": list(cover.display(cat)),
                "family": {cat.name(f): v for f, v in family.assignment},
            }
            for x, cover, family in result.missing
        ],
        "ambiguous_amalgamations": [
            {
                "object": cat.objects[x],
                "cover": list(cover.display(cat)),
                "family": {cat.name(f): v for f, v in family.assignment},
                "amalgamations": list(ams),
            }
            for x, cover, family, ams in result.ambiguous
        ],
    }
    return report, True


def cmd_sheafify(args, config: RunConfig) -> tuple[dict, bool]:
    # Reports the plain presheaf format so the output feeds back into every
    # other command.
    site, presheaf = _site_and_presheaf(args, config)
    sheaf = sheafification(presheaf, site.topology, config.max_families).sheaf
    return presheaf_to_dict(sheaf), True


def cmd_free_ext(args, config: RunConfig) -> tuple[dict, bool]:
    site, presheaf = _site_and_presheaf(args, config)
    ext = free_extension(presheaf, site, [("x", args.at)], config.max_families)
    cat = site.category
    report = {
        "at": args.at,
        "carrier": {
            cat.objects[x]: list(ext.carrier.sets[x])
            for x in range(len(cat.objects))
        },
        "generic": ext.generic["x"],
        "insert": {
            cat.objects[x]: dict(ext.insert.components[x])
            for x in range(len(cat.objects))
        },
    }
    return report, True


def cmd_normal_form(args, config: RunConfig) -> tuple[dict, bool]:
    site, presheaf = _site_and_presheaf(args, config)
    ext = free_extension(presheaf, site, [("x", args.at)], config.max_families)
    term = parse_term(ext, args.term)
    element = denote(ext, term)
    if element is None:
        return {"term": args.term, "defined": False}, False
    cat = site.category
    sort = term_sort(ext.signature, term)
    nf = normal_form(ext, cat.object_id(sort), element)
    report = {
        "term": args.term,
        "defined": True,
        "object": sort,
        "element": element,
        "cover": list(nf.cover.display(cat)),
        "components": {
            cat.name(m): {
                "kind": comp.kind,
                "object": cat.objects[comp.object],
                "value": comp.value,
            }
            for m, comp in sorted(nf.components.items())
        },
    }
    return report, True


def cmd_isotropy(args, config: RunConfig) -> tuple[dict, bool]:
    site = load_site(args.site, config.max_families)
    cat = site.category
    catalogue = _named_catalogue(args, site) or auto_catalogue(site, config.max_families)
    per_sheaf = [
        {
            "name": name,
            "isotropy_order": group.order,
            "elements": [m.display(cat) for m in group.elements],
        }
        for name, group, _ in _catalogue_isotropy(
            site, catalogue, args.method, config.max_families
        )
    ]
    return {"per_sheaf": per_sheaf}, True


def cmd_check_theorem(args, config: RunConfig) -> tuple[dict, bool]:
    site = load_site(args.site, config.max_families)
    report = verify_main_theorem(
        site,
        _named_catalogue(args, site) or None,
        method=args.method,
        max_families=config.max_families,
    )
    return report, not report["violations"]


def cmd_check_model(args, config: RunConfig) -> tuple[dict, bool]:
    site, presheaf = _site_and_presheaf(args, config)
    model = structure_from_presheaf(presheaf, site.topology)
    axioms = sheaf_theory(site.category, site.topology)
    failures = []
    for axiom in axioms:
        ok, counterexample = satisfies(model, axiom, config.max_families)
        if not ok:
            failures.append({"axiom": axiom.label, "counterexample": counterexample})
    report = {
        "axioms": len(axioms),
        "satisfied": len(axioms) - len(failures),
        "failures": failures,
    }
    return report, not failures


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built on the first call and shared after.

    ``parse_args`` starts each call from a fresh namespace, so nothing one
    command line sets reaches the next.  Callers must not modify the
    parser, since every later call would see the change.
    """
    # The shared flags live on a parent with suppressed defaults so they
    # are accepted both before and after the subcommand; a flag given on
    # both sides takes the value after it.  argparse shares these actions
    # with every parser built from ``common``, so no parser may set their
    # defaults: ``main`` takes the flags not given from ``RunConfig``.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS
    )
    common.add_argument("--max-families", type=int, default=argparse.SUPPRESS)
    common.add_argument("-o", "--output", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="finsite",
        description="Compute with finite sites: centres, sheaves, free "
        "extensions, and isotropy verification.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, parents=[common], help=help)
        for positional in ("site", *positionals):
            p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "validate a site file")
    command("centre", cmd_centre, "the natural automorphisms of the identity functor")
    command(
        "sheaf-check", cmd_sheaf_check, "separated/sheaf status of a presheaf", "presheaf"
    )
    command(
        "sheafify", cmd_sheafify, "associated sheaf via the double plus-construction", "presheaf"
    )
    p = command("free-ext", cmd_free_ext, "freely adjoin a generator to a sheaf", "presheaf")
    p.add_argument("--at", required=True, help="object of the generator")
    p = command(
        "normal-form", cmd_normal_form, "cover-indexed normal form of a term", "presheaf"
    )
    p.add_argument("--at", required=True, help="object of the generator")
    p.add_argument("--term", required=True, help="s-expression term")
    for name, func, help, method in (
        ("isotropy", cmd_isotropy, "extended-inner-automorphism groups", "auto"),
        ("check-theorem", cmd_check_theorem, "verify isotropy equals the centre", "full"),
    ):
        p = command(name, func, help)
        p.add_argument("presheaves", nargs="*")
        p.add_argument("--method", choices=("auto", "full", "pure"), default=method)
    command(
        "check-model", cmd_check_model, "axiom-by-axiom model check of a presheaf", "presheaf"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
        )
        report, passed = args.func(args, config)
        emit(report, config)
        return EXIT_OK if passed else EXIT_FAIL
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CategoryInvalidError, PresheafInvalidError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except FinsiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
