"""The three workloads: their input files, commands and answer checks.

``build`` is the benchmark's set-up: it writes every site and presheaf file
a run can use and returns the items pass by pass.  An item is one
``finsite`` command line plus a check of its outcome against answers that
finsite did not compute.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import (
    Known,
    SiteSpec,
    bz2_all_sieves,
    cyclic,
    cylinder_cover,
    dihedral8,
    discrete_two_space,
    klein_four,
    known_answers,
    poset,
    quaternion8,
    random_presheaf,
    relabel,
    sierpinski_space,
)

OUT = "{out}"  # expands to the run's output directory

# A site's time depends on its object order and morphism names, which the
# seed changes.  So a pass is kept short enough for several passes, each
# with fresh relabellings, to fit in one run, and the figures are medians
# over them.  That leaves out the largest ladder sites: BZ11, BZ12, cyl5 and
# cyl6 (about 6, 9, 9 and 24 s alone on a quiet 2-vCPU 2.0 GHz Xeon VM).
# Nine group sites put the median item inside one site's cluster (Q8)
# rather than in the gap between two.
GROUP_LADDER = [(f"bz{n}", lambda n=n: SiteSpec(cyclic(n))) for n in range(4, 11)] + [
    ("q8", lambda: SiteSpec(quaternion8())),
    ("d4", lambda: SiteSpec(dihedral8())),
]
COVER_LADDER = [(f"cyl{n}", lambda n=n: cylinder_cover(n)) for n in range(2, 5)] + [
    ("diamond", discrete_two_space),
    ("sierpinski", sierpinski_space),
    ("bz2-all", bz2_all_sieves),
]
TINY_LADDER = {
    "theorem-groups": ["bz4", "bz5"],
    "theorem-covers": ["cyl2", "sierpinski", "bz2-all"],
}
THEOREM_PASSES = 8  # fresh relabellings available to one run

# Small sites for the request mix.  On the trivial-topology ones every
# presheaf is a sheaf, and the site is subcanonical without empty covers,
# so isotropy takes the pure path there.
CLI_SITES = {
    "bz2": lambda: SiteSpec(cyclic(2)),
    "bz3": lambda: SiteSpec(cyclic(3)),
    "klein4": lambda: SiteSpec(klein_four()),
    "chain3": lambda: SiteSpec(poset(["0", "1", "2"], lambda x, y: x <= y)),
    "cyl2": lambda: cylinder_cover(2),
    "diamond": discrete_two_space,
    "sierpinski": sierpinski_space,
    "bz2-all": bz2_all_sieves,
}
TRIVIAL_SITES = ["bz2", "bz3", "klein4", "chain3"]
# Reads and builds dominate: isotropy, the dearest command, is drawn once in
# 22 and takes about 7% of the time.
COMMAND_WEIGHTS = {
    "validate": 3,
    "centre": 3,
    "sheaf-check": 4,
    "check-model": 3,
    "normal-form": 3,
    "sheafify": 3,
    "free-ext": 2,
    "isotropy": 1,
}
REQUESTS_PER_PASS = 50
CLI_PASSES = 140
CLI_TRACE_PASSES = 40


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    output: str | None  # contents of the -o file, if the command wrote one

    def digest(self) -> str:
        blob = json.dumps([self.code, self.stdout, self.stderr, self.output])
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Item:
    key: str
    argv: list[str]
    check: Callable[[Outcome], None]  # raises on a wrong answer


@dataclass
class Workload:
    passes: list[list[Item]]
    trace_passes: int


def build(name: str, seed: int, root: Path, tiny: bool = False) -> Workload:
    root.mkdir(parents=True, exist_ok=True)
    if name == "cli-requests":
        passes = 1 if tiny else CLI_PASSES
        per_pass = 12 if tiny else REQUESTS_PER_PASS
        return Workload(
            [_request_pass(seed, p, per_pass, root) for p in range(passes)],
            1 if tiny else CLI_TRACE_PASSES,
        )
    ladder = GROUP_LADDER if name == "theorem-groups" else COVER_LADDER
    if tiny:
        ladder = [entry for entry in ladder if entry[0] in TINY_LADDER[name]]
    bases = [(site_name, make()) for site_name, make in ladder]
    known = {site_name: known_answers(site_name, site) for site_name, site in bases}
    passes = []
    for p in range(1 if tiny else THEOREM_PASSES):
        items = []
        (root / f"p{p}").mkdir(parents=True, exist_ok=True)
        for site_name, site in bases:
            copy = relabel(site, random.Random(f"{seed}/{p}/{site_name}"))
            path = _write(root / f"p{p}" / f"{site_name}.json", copy.to_json())
            items.append(
                Item(
                    f"p{p}/{site_name}",
                    ["check-theorem", path, "--method", "full", "--format", "json"],
                    _theorem_check(known[site_name], len(site.cat.objects)),
                )
            )
        passes.append(items)
    return Workload(passes, 1)


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# -- theorem workloads ---------------------------------------------------


def _theorem_check(known: Known, objects: int) -> Callable[[Outcome], None]:
    # The auto catalogue: each sheafified representable, the terminal
    # sheaf, and one sheafified coproduct per unordered pair of those.
    base = objects + 1
    expected = {
        "centre_order": known.centre,
        "ayc_centre_order": known.isotropy,
        "subcanonical": known.subcanonical,
        "empty_cover_objects": sorted(known.empty_covered),
        "restricted_centre_order": known.isotropy if known.subcanonical else None,
        "violations": [],
        "sheaves": base + base * (base + 1) // 2,
        "isotropy_orders": [known.isotropy],
    }

    def check(outcome: Outcome) -> None:
        report = _ok(outcome)
        got = {key: report.get(key) for key in expected}
        got["empty_cover_objects"] = sorted(report["empty_cover_objects"])
        got["sheaves"] = len(report["per_sheaf"])
        got["isotropy_orders"] = sorted({e["isotropy_order"] for e in report["per_sheaf"]})
        wrong = {k: (expected[k], got[k]) for k in expected if expected[k] != got[k]}
        _expect(not wrong, f"expected/got {wrong}")

    return check


# -- the request mix -------------------------------------------------------


def _request_pass(seed: int, p: int, count: int, root: Path) -> list[Item]:
    """One closed-loop batch; every request gets its own input files."""
    rng = random.Random(f"{seed}/{p}")
    commands = list(COMMAND_WEIGHTS)
    rng.shuffle(commands)  # every command appears in every pass
    names, weights = zip(*COMMAND_WEIGHTS.items())
    while len(commands) < count:
        commands.append(rng.choices(names, weights)[0])
    items: list[Item] = []
    for command in commands:
        if len(items) >= count:
            break
        items.extend(_request(command, rng, f"p{p}r{len(items)}", root))
    return items


def _request(command: str, rng: random.Random, key: str, root: Path) -> list[Item]:
    trivial_only = command in ("normal-form", "free-ext", "isotropy")
    site_name = rng.choice(TRIVIAL_SITES if trivial_only else list(CLI_SITES))
    base = CLI_SITES[site_name]()
    site = relabel(base, rng)
    site_path = _write(root / f"{key}.site.json", site.to_json())
    if command == "validate":
        return [Item(key, ["validate", site_path, "--format", "json"], _validate_check(site))]
    if command == "centre":
        known = known_answers(site_name, base)
        return [Item(key, ["centre", site_path, "--format", "json"], _centre_check(known.centre))]
    sheaf_path = _write(
        root / f"{key}.presheaf.json", random_presheaf(site.cat, rng, f"{key}e").to_json()
    )
    is_sheaf = site_name in TRIVIAL_SITES
    if command == "sheafify":
        out = f"{OUT}/{key}.json"
        produced = str(root / "out" / f"{key}.json")
        follow = rng.choice(("check-model", "free-ext", "normal-form"))
        return [
            Item(key, ["sheafify", site_path, sheaf_path, "--format", "json", "-o", out],
                 _sheafify_check(site)),
            _on_sheaf("sheaf-check", site, site_path, produced, True, rng, f"{key}a"),
            _on_sheaf(follow, site, site_path, produced, True, rng, f"{key}b"),
        ]
    if command == "isotropy":
        known = known_answers(site_name, base)
        return [
            Item(
                key,
                ["isotropy", site_path, sheaf_path, "--method", "auto", "--format", "json"],
                _isotropy_check(known.centre),
            )
        ]
    return [_on_sheaf(command, site, site_path, sheaf_path, is_sheaf, rng, key)]


def _on_sheaf(command, site: SiteSpec, site_path, sheaf_path, is_sheaf, rng, key) -> Item:
    """A read or build on one presheaf file; ``is_sheaf`` is known ahead."""
    if command == "sheaf-check":
        argv = ["sheaf-check", site_path, sheaf_path, "--format", "json"]
        return Item(key, argv, _sheaf_check_check(is_sheaf))
    if command == "check-model":
        argv = ["check-model", site_path, sheaf_path, "--format", "json"]
        return Item(key, argv, _model_check(is_sheaf))
    at = rng.choice(site.cat.objects)
    if command == "free-ext":
        argv = ["free-ext", site_path, sheaf_path, "--at", at, "--format", "json"]
        return Item(key, argv, _free_ext_check(at))
    arrow = rng.choice([f for f, _, c in site.cat.morphisms if c == at])
    argv = ["normal-form", site_path, sheaf_path, "--at", at,
            "--term", f"(alpha {arrow} x)", "--format", "json"]
    return Item(key, argv, _normal_form_check(site.cat.ends(arrow)[0]))


def _ok(outcome: Outcome) -> dict | None:
    _expect(outcome.code == 0, f"exit {outcome.code}: {outcome.stderr.strip()[:200]}")
    return json.loads(outcome.stdout) if outcome.stdout else None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _validate_check(site: SiteSpec):
    def body(outcome):
        r = _ok(outcome)
        _expect(r["valid"] is True and r["violations"] == [], f"invalid: {r['violations']}")
        _expect(r["objects"] == len(site.cat.objects), "object count")
        _expect(r["morphisms"] == len(site.cat.morphisms), "morphism count")

    return body


def _centre_check(order: int):
    def body(outcome):
        r = _ok(outcome)
        _expect(r["order"] == order, f"centre order {r['order']} != {order}")
        _expect(len(r["elements"]) == order, "element count")

    return body


def _sheaf_check_check(is_sheaf: bool):
    def body(outcome):
        r = _ok(outcome)
        missing, ambiguous = r["missing_amalgamations"], r["ambiguous_amalgamations"]
        expected = "NotSeparated" if ambiguous else "SeparatedOnly" if missing else "Sheaf"
        _expect(r["status"] == expected, f"status {r['status']} with witnesses")
        _expect(not is_sheaf or r["status"] == "Sheaf", f"a sheaf reported {r['status']}")

    return body


def _model_check(is_sheaf: bool):
    def body(outcome):
        _expect(outcome.code in (0, 1), f"exit {outcome.code}: {outcome.stderr[:200]}")
        r = json.loads(outcome.stdout)
        _expect(r["satisfied"] + len(r["failures"]) == r["axioms"], "axiom count")
        _expect((outcome.code == 0) == (not r["failures"]), "exit code vs failures")
        _expect(not is_sheaf or not r["failures"], f"a sheaf fails {r['failures'][:1]}")

    return body


def _sheafify_check(site: SiteSpec):
    def body(outcome):
        _expect(_ok(outcome) is None, "sheafify -o printed to stdout")
        sheaf = json.loads(outcome.output)
        _expect(set(sheaf["sets"]) == set(site.cat.objects), "objects of the sheaf")
        _expect(set(sheaf["actions"]) == {f for f, _, _ in site.cat.morphisms}, "actions")

    return body


def _free_ext_check(at: str):
    def body(outcome):
        r = _ok(outcome)
        _expect(r["at"] == at and r["generic"] in r["carrier"][at], "generic element")
        for obj, table in r["insert"].items():
            _expect(set(table.values()) <= set(r["carrier"][obj]), f"insert at {obj}")

    return body


def _normal_form_check(obj: str):
    def body(outcome):
        r = _ok(outcome)
        _expect(r["defined"] is True and r["object"] == obj, f"normal form at {r.get('object')}")

    return body


def _isotropy_check(order: int):
    def body(outcome):
        r = _ok(outcome)
        orders = [e["isotropy_order"] for e in r["per_sheaf"]]
        _expect(orders == [order], f"isotropy orders {orders} != centre order {order}")

    return body
