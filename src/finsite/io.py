"""Loading and saving site and presheaf description files.

A site file holds the category (objects, morphisms, identities,
composition triples) plus a topology basis; a presheaf file holds element
sets and action tables.  Unknown fields are rejected so typos fail loudly.
"""

from __future__ import annotations

import json

from .errors import InvalidSieveError, ParseError
from .fincat import FinCategory, validate_category
from .presheaf import Presheaf, validate_presheaf
from .search import DEFAULT_MAX_FAMILIES
from .site import (
    Sieve,
    Site,
    Topology,
    saturate_topology,
    validate_topology,
)

SITE_FIELDS = {"objects", "morphisms", "identities", "composition", "topology"}
MORPHISM_FIELDS = {"name", "dom", "cod"}
TOPOLOGY_FIELDS = {"basis", "saturated"}
PRESHEAF_FIELDS = {"sets", "actions"}


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return data


def _is_names(value) -> bool:
    """Whether a JSON value is a list of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_table(value) -> bool:
    """Whether a JSON value is an object with string values."""
    return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())


def site_from_dict(
    data: dict, max_families: int = DEFAULT_MAX_FAMILIES, check: bool = True
) -> Site:
    unknown = set(data) - SITE_FIELDS
    if unknown:
        raise ParseError(f"unknown site fields: {sorted(unknown)}")
    for key in ("objects", "morphisms", "identities", "composition"):
        if key not in data:
            raise ParseError(f"site file is missing {key!r}")
    if not _is_names(data["objects"]):
        raise ParseError("objects must be a list of names")
    if not _is_table(data["identities"]):
        raise ParseError("identities map each object name to a morphism name")
    if not isinstance(data["morphisms"], list) or not isinstance(data["composition"], list):
        raise ParseError("morphisms and composition must be lists")
    morphisms = []
    for entry in data["morphisms"]:
        if not isinstance(entry, dict) or set(entry) != MORPHISM_FIELDS:
            raise ParseError(
                "each morphism needs exactly the fields name/dom/cod"
            )
        if not _is_table(entry):
            raise ParseError("morphism name/dom/cod must be strings")
        morphisms.append((entry["name"], entry["dom"], entry["cod"]))
    composition = []
    for entry in data["composition"]:
        if not _is_names(entry) or len(entry) != 3:
            raise ParseError("composition entries are [g, f, g_after_f] triples")
        composition.append(tuple(entry))
    category = validate_category(
        data["objects"], morphisms, data["identities"], composition
    )

    topo_data = data.get("topology", {"basis": {}, "saturated": False})
    if not isinstance(topo_data, dict):
        raise ParseError("topology must be an object")
    unknown = set(topo_data) - TOPOLOGY_FIELDS
    if unknown:
        raise ParseError(f"unknown topology fields: {sorted(unknown)}")
    saturated = topo_data.get("saturated", False)
    if not isinstance(saturated, bool):
        raise ParseError("saturated must be true or false")
    basis_raw = topo_data.get("basis", {})
    if not isinstance(basis_raw, dict) or not all(
        isinstance(sieves, list) for sieves in basis_raw.values()
    ):
        raise ParseError("the basis maps each object name to a list of sieves")
    basis: dict[int, list[Sieve]] = {}
    for obj, sieves in basis_raw.items():
        x = category.object_id(obj)
        parsed = []
        for member_names in sieves:
            if not _is_names(member_names):
                raise ParseError("each basis sieve is a list of morphism names")
            members = frozenset(
                category.morphism_id(name) for name in member_names
            )
            parsed.append(Sieve(x, members))
        basis[x] = parsed
    if saturated:
        covers = {x: tuple(v) for x, v in basis.items()}
        for x in range(len(category.objects)):
            covers.setdefault(x, ())
        topology = Topology(covers)
        if check:
            problems = validate_topology(category, topology, max_families)
            if problems:
                raise InvalidSieveError(
                    "topology declared saturated but invalid: "
                    + "; ".join(p.message for p in problems)
                )
    else:
        topology = saturate_topology(category, basis, max_families)
    return Site(category, topology)


def load_site(path, max_families: int = DEFAULT_MAX_FAMILIES, check: bool = True) -> Site:
    return site_from_dict(_load_json(path), max_families, check)


def site_to_dict(site: Site) -> dict:
    cat = site.category
    non_identity_comp = [
        [cat.name(g), cat.name(f), cat.name(gf)]
        for (g, f), gf in sorted(cat.comp.items())
        if not cat.is_identity(g) and not cat.is_identity(f)
    ]
    return {
        "objects": list(cat.objects),
        "morphisms": [
            {"name": m.name, "dom": cat.objects[m.dom], "cod": cat.objects[m.cod]}
            for m in cat.morphisms
        ],
        "identities": {
            cat.objects[x]: cat.name(cat.identity[x])
            for x in range(len(cat.objects))
        },
        "composition": non_identity_comp,
        "topology": {
            "basis": {
                cat.objects[x]: [list(s.display(cat)) for s in sieves]
                for x, sieves in sorted(site.topology.covers.items())
            },
            "saturated": True,
        },
    }


def presheaf_from_dict(data: dict, cat: FinCategory) -> Presheaf:
    unknown = set(data) - PRESHEAF_FIELDS
    if unknown:
        raise ParseError(f"unknown presheaf fields: {sorted(unknown)}")
    for key in PRESHEAF_FIELDS:
        if key not in data:
            raise ParseError(f"presheaf file is missing {key!r}")
    sets, actions = data["sets"], data["actions"]
    if not isinstance(sets, dict) or not all(_is_names(v) for v in sets.values()):
        raise ParseError("presheaf sets map each object name to a list of element ids")
    if not isinstance(actions, dict) or not all(_is_table(t) for t in actions.values()):
        raise ParseError("presheaf actions map each morphism name to an element table")
    return validate_presheaf(cat, sets, actions)


def load_presheaf(path, cat: FinCategory) -> Presheaf:
    return presheaf_from_dict(_load_json(path), cat)


def presheaf_to_dict(presheaf: Presheaf) -> dict:
    cat = presheaf.cat
    return {
        "sets": {
            cat.objects[x]: list(presheaf.sets[x])
            for x in range(len(cat.objects))
        },
        "actions": {
            cat.name(f): dict(presheaf.actions[f])
            for f in range(len(cat.morphisms))
        },
    }
