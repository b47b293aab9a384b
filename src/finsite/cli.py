"""Command line interface: validate, compute, and verify from JSON files.

Exit codes: 0 success, 1 validation or assertion failure, 2 size limit
exceeded, 3 I/O or parse error.  Text reports mirror the JSON structure
one to one, so both formats stay byte-stable across runs.
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
from .phl import satisfies, sheaf_theory, structure_from_presheaf
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
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}-")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(inner)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
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


def _sheaf_names(args) -> list[str]:
    return list(getattr(args, "presheaves", []) or [])


def cmd_validate(args, config: RunConfig) -> int:
    try:
        site = load_site(args.site, config.max_families, check=False)
    except CategoryInvalidError as exc:
        emit(
            {
                "valid": False,
                "violations": [
                    {"kind": v.kind, "message": v.message} for v in exc.violations
                ],
            },
            config,
        )
        return EXIT_FAIL
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
    emit(report, config)
    return EXIT_OK if report["valid"] else EXIT_FAIL


def cmd_centre(args, config: RunConfig) -> int:
    site = load_site(args.site, config.max_families)
    group = centre(site.category)
    report = {
        "order": group.order,
        "abelian": group.is_abelian(),
        "elements": [psi.display(site.category) for psi in group.elements],
    }
    emit(report, config)
    return EXIT_OK


def cmd_sheaf_check(args, config: RunConfig) -> int:
    site = load_site(args.site, config.max_families)
    presheaf = load_presheaf(args.presheaf, site.category)
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
    emit(report, config)
    return EXIT_OK


def cmd_sheafify(args, config: RunConfig) -> int:
    # Emits the plain presheaf format so the output feeds back into every
    # other command.
    site = load_site(args.site, config.max_families)
    presheaf = load_presheaf(args.presheaf, site.category)
    sheaf = sheafification(presheaf, site.topology, config.max_families).sheaf
    emit(presheaf_to_dict(sheaf), config)
    return EXIT_OK


def cmd_free_ext(args, config: RunConfig) -> int:
    site = load_site(args.site, config.max_families)
    presheaf = load_presheaf(args.presheaf, site.category)
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
    emit(report, config)
    return EXIT_OK


def cmd_normal_form(args, config: RunConfig) -> int:
    site = load_site(args.site, config.max_families)
    presheaf = load_presheaf(args.presheaf, site.category)
    ext = free_extension(presheaf, site, [("x", args.at)], config.max_families)
    term = parse_term(ext, args.term)
    element = denote(ext, term)
    cat = site.category
    if element is None:
        emit({"term": args.term, "defined": False}, config)
        return EXIT_FAIL
    from .phl import term_sort

    sort = term_sort(ext.signature, term)
    obj = cat.object_id(sort)
    nf = normal_form(ext, obj, element)
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
    emit(report, config)
    return EXIT_OK


def cmd_isotropy(args, config: RunConfig) -> int:
    site = load_site(args.site, config.max_families)
    cat = site.category
    if _sheaf_names(args):
        catalogue = [
            (name, load_presheaf(name, cat)) for name in _sheaf_names(args)
        ]
    else:
        catalogue = auto_catalogue(site, config.max_families)
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
    emit({"per_sheaf": per_sheaf}, config)
    return EXIT_OK


def cmd_check_theorem(args, config: RunConfig) -> int:
    site = load_site(args.site, config.max_families)
    if _sheaf_names(args):
        catalogue = [
            (name, load_presheaf(name, site.category)) for name in _sheaf_names(args)
        ]
    else:
        catalogue = None
    report = verify_main_theorem(
        site,
        catalogue,
        method=args.method,
        max_families=config.max_families,
    )
    emit(report, config)
    return EXIT_OK if not report["violations"] else EXIT_FAIL


def cmd_check_model(args, config: RunConfig) -> int:
    site = load_site(args.site, config.max_families)
    presheaf = load_presheaf(args.presheaf, site.category)
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
    emit(report, config)
    return EXIT_OK if not failures else EXIT_FAIL


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

    p = sub.add_parser("validate", parents=[common], help="validate a site file")
    p.add_argument("site")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "centre",
        parents=[common],
        help="the natural automorphisms of the identity functor",
    )
    p.add_argument("site")
    p.set_defaults(func=cmd_centre)

    p = sub.add_parser(
        "sheaf-check", parents=[common], help="separated/sheaf status of a presheaf"
    )
    p.add_argument("site")
    p.add_argument("presheaf")
    p.set_defaults(func=cmd_sheaf_check)

    p = sub.add_parser(
        "sheafify",
        parents=[common],
        help="associated sheaf via the double plus-construction",
    )
    p.add_argument("site")
    p.add_argument("presheaf")
    p.set_defaults(func=cmd_sheafify)

    p = sub.add_parser(
        "free-ext", parents=[common], help="freely adjoin a generator to a sheaf"
    )
    p.add_argument("site")
    p.add_argument("presheaf")
    p.add_argument("--at", required=True, help="object of the generator")
    p.set_defaults(func=cmd_free_ext)

    p = sub.add_parser(
        "normal-form", parents=[common], help="cover-indexed normal form of a term"
    )
    p.add_argument("site")
    p.add_argument("presheaf")
    p.add_argument("--at", required=True, help="object of the generator")
    p.add_argument("--term", required=True, help="s-expression term")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser(
        "isotropy", parents=[common], help="extended-inner-automorphism groups"
    )
    p.add_argument("site")
    p.add_argument("presheaves", nargs="*")
    p.add_argument("--method", choices=("auto", "full", "pure"), default="auto")
    p.set_defaults(func=cmd_isotropy)

    p = sub.add_parser(
        "check-theorem", parents=[common], help="verify isotropy equals the centre"
    )
    p.add_argument("site")
    p.add_argument("presheaves", nargs="*")
    p.add_argument("--method", choices=("auto", "full", "pure"), default="full")
    p.set_defaults(func=cmd_check_theorem)

    p = sub.add_parser(
        "check-model",
        parents=[common],
        help="axiom-by-axiom model check of a presheaf",
    )
    p.add_argument("site")
    p.add_argument("presheaf")
    p.set_defaults(func=cmd_check_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
        )
        return args.func(args, config)
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
