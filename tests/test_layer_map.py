"""Every layer the benchmark maps to a theorem workload is reached there.

``perfbench/layers.json`` names the finsite functions whose time and calls
the benchmark reports, and the workloads where each one runs.  A layer
that a change leaves unreached on its workload makes the traced benchmark
fail, so this test wraps each layer mapped to ``theorem-groups`` or
``theorem-covers`` and runs ``check-theorem --method full`` on a small site
of each kind, and wraps each layer mapped to ``cli-requests`` and runs one
request of each command that workload draws.  It only reads the map.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from finsite.cli import main
from finsite.io import presheaf_to_dict, site_to_dict
from finsite.presheaf import representable
from finsite.standard import (
    cyclic_group_category,
    cylinder_cover_site,
    sierpinski_space_site,
    trivial_site,
)

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"
SITES = {
    "theorem-groups": {"BZ4": lambda: trivial_site(cyclic_group_category(4))},
    "theorem-covers": {"cyl2": lambda: cylinder_cover_site(2), "Sierpinski": sierpinski_space_site},
}


def mapped_layers(workload: str) -> list[str]:
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))["layers"]
    return [
        name
        for name, spec in layers.items()
        if any(workload in where for kind in ("moves", "stays") for where in spec[kind].values())
    ]


def wrap_layers(names, calls: Counter, monkeypatch) -> None:
    """Count the calls of each layer in every finsite namespace that binds
    it; a method is wrapped on its class."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "finsite" and m]
    for name in names:
        module_name, *path = name.split(".")
        owner = sys.modules[f"finsite.{module_name}"]
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        if len(path) > 1:
            monkeypatch.setattr(owner, path[-1], counted)
            continue
        bound = [
            (module, attr)
            for module in modules
            for attr, value in vars(module).items()
            if value is original
        ]
        assert bound, name
        for module, attr in bound:
            monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("workload", sorted(SITES))
def test_every_mapped_layer_is_called_on_its_theorem_workload(
    workload, tmp_path, monkeypatch, capsys
):
    names = mapped_layers(workload)
    assert names
    calls: Counter = Counter()
    wrap_layers(names, calls, monkeypatch)
    for site_name, make in SITES[workload].items():
        path = tmp_path / f"{site_name}.json"
        path.write_text(json.dumps(site_to_dict(make())), encoding="utf-8")
        assert main(["check-theorem", str(path), "--method", "full", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []
    assert [name for name in names if not calls[name]] == []


# The request mix's sites, with the object its generator-adjoining
# commands use.
CLI_SITES = {
    "BZ2": (lambda: trivial_site(cyclic_group_category(2)), "*"),
    "Sierpinski": (sierpinski_space_site, "U"),
}


def test_every_mapped_layer_is_called_on_the_cli_workload(tmp_path, monkeypatch, capsys):
    requests = []
    for site_name, (make, at) in CLI_SITES.items():
        site = make()
        data = site_to_dict(site)
        # The benchmark writes its sites as an unsaturated basis, so that
        # loading one saturates it.
        data["topology"]["saturated"] = False
        site_path = tmp_path / f"{site_name}.json"
        site_path.write_text(json.dumps(data), encoding="utf-8")
        sheaf_path = tmp_path / f"{site_name}.y.json"
        sheaf = presheaf_to_dict(representable(site.category, at))
        sheaf_path.write_text(json.dumps(sheaf), encoding="utf-8")
        site_arg, sheaf_arg = str(site_path), str(sheaf_path)
        requests += [
            ["validate", site_arg],
            ["centre", site_arg],
            ["sheaf-check", site_arg, sheaf_arg],
            ["check-model", site_arg, sheaf_arg],
            ["normal-form", site_arg, sheaf_arg, "--at", at, "--term", "x"],
            ["sheafify", site_arg, sheaf_arg, "-o", str(tmp_path / "out.json")],
            ["free-ext", site_arg, sheaf_arg, "--at", at],
            ["isotropy", site_arg, sheaf_arg],
        ]
    names = mapped_layers("cli-requests")
    assert names
    calls: Counter = Counter()
    # Wrapped only now, so that building the inputs counts no call.
    wrap_layers(names, calls, monkeypatch)
    for argv in requests:
        assert main([*argv, "--format", "json"]) == 0, argv
    capsys.readouterr()
    assert [name for name in names if not calls[name]] == []
