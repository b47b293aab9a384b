"""Command dispatch, exit codes, output determinism."""

import json
import re
from pathlib import Path

import pytest

from finsite import fincat as fincat_module
from finsite.cli import build_parser, main
from finsite.io import presheaf_to_dict, site_to_dict, load_site
from finsite.presheaf import representable, sheaf_status, SheafStatus, validate_presheaf
from finsite.standard import (
    all_sieves_topology,
    cyclic_group_category,
    symmetric_group_category,
    trivial_site,
)
from finsite.site import Site, Topology

from conftest import antichain_below_top


@pytest.fixture()
def bz4_file(tmp_path):
    site = trivial_site(cyclic_group_category(4))
    path = tmp_path / "bz4.json"
    path.write_text(json.dumps(site_to_dict(site)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def bz2_all_file(tmp_path):
    cat = cyclic_group_category(2)
    site = Site(cat, all_sieves_topology(cat))
    path = tmp_path / "bz2all.json"
    path.write_text(json.dumps(site_to_dict(site)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def y_file(tmp_path):
    site = trivial_site(cyclic_group_category(4))
    y = representable(site.category, "*")
    path = tmp_path / "y.json"
    path.write_text(json.dumps(presheaf_to_dict(y)), encoding="utf-8")
    return str(path)


def test_validate_ok(bz4_file, capsys):
    assert main(["validate", bz4_file]) == 0
    out = capsys.readouterr().out
    assert "valid: true" in out


def test_validate_corrupted_composition(tmp_path, capsys):
    site = trivial_site(cyclic_group_category(4))
    data = site_to_dict(site)
    data["composition"] = [
        ["g1", "g1", "g1"] if entry == ["g1", "g1", "g2"] else entry
        for entry in data["composition"]
    ]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "associativity" in out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["validate", str(path)]) == 3


def test_unknown_field_rejected(tmp_path):
    site = trivial_site(cyclic_group_category(2))
    data = site_to_dict(site)
    data["surprise"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path)]) == 3


MALFORMED_INPUTS = {
    "basis sieve of lists": ("site", lambda d: d["topology"]["basis"].update({"*": [[["g0"]]]})),
    "basis list": ("site", lambda d: d["topology"].update(basis=[])),
    "saturated string": ("site", lambda d: d["topology"].update(saturated="false")),
    "morphism name list": ("site", lambda d: d["morphisms"][0].update(name=["g0"])),
    "morphisms number": ("site", lambda d: d.update(morphisms=2)),
    "object name list": ("site", lambda d: d.update(objects=[["*"]])),
    "identities list": ("site", lambda d: d.update(identities=["g0"])),
    "composition entry list": ("site", lambda d: d["composition"][0].__setitem__(1, ["g1"])),
    "element id list": ("presheaf", lambda d: d["sets"].update({"*": [["g0"]]})),
    "sets list": ("presheaf", lambda d: d.update(sets=[])),
    "action list": ("presheaf", lambda d: d["actions"].update({"g0": ["g0"]})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_wrongly_typed_input_is_a_parse_error(case, tmp_path, capsys):
    site = trivial_site(cyclic_group_category(2))
    files = {
        "site": site_to_dict(site),
        "presheaf": presheaf_to_dict(representable(site.category, "*")),
    }
    which, corrupt = MALFORMED_INPUTS[case]
    corrupt(files[which])
    paths = []
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths.append(str(path))
    assert main(["sheaf-check", *paths]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_centre_output(bz4_file, capsys):
    assert main(["centre", bz4_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 4 and report["abelian"]


def test_sheafify_round_trip(bz4_file, y_file, tmp_path, capsys):
    out_path = tmp_path / "sheafified.json"
    assert (
        main(["sheafify", bz4_file, y_file, "--format", "json", "-o", str(out_path)])
        == 0
    )
    data = json.loads(out_path.read_text(encoding="utf-8"))
    site = load_site(bz4_file)
    sheaf = validate_presheaf(
        site.category, data["sets"], data["actions"]
    )
    assert sheaf_status(sheaf, site.topology) is SheafStatus.SHEAF
    assert {len(v) for v in data["sets"].values()} == {4}
    # The emitted file must feed straight back into the other commands.
    assert main(["sheaf-check", bz4_file, str(out_path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Sheaf"


def test_sheafify_all_sieves_gives_terminal(bz2_all_file, tmp_path, capsys):
    cat = cyclic_group_category(2)
    y = representable(cat, "*")
    y_path = tmp_path / "y2.json"
    y_path.write_text(json.dumps(presheaf_to_dict(y)), encoding="utf-8")
    assert main(["sheafify", bz2_all_file, str(y_path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(len(v) == 1 for v in data["sets"].values())


def test_sheaf_check_reports_status(bz2_all_file, tmp_path, capsys):
    cat = cyclic_group_category(2)
    y = representable(cat, "*")
    y_path = tmp_path / "y2.json"
    y_path.write_text(json.dumps(presheaf_to_dict(y)), encoding="utf-8")
    assert main(["sheaf-check", bz2_all_file, str(y_path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "NotSeparated"
    assert data["ambiguous_amalgamations"]


def test_isotropy_report(bz4_file, capsys):
    assert main(["isotropy", bz4_file, "--method", "full", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    orders = {entry["name"]: entry["isotropy_order"] for entry in data["per_sheaf"]}
    assert set(orders.values()) == {4}


def test_check_theorem_exit_codes(bz4_file, bz2_all_file, capsys):
    assert main(["check-theorem", bz4_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    assert main(["check-theorem", bz2_all_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["centre_order"] == 2 and report["ayc_centre_order"] == 1


def test_check_model(bz4_file, y_file, capsys):
    assert main(["check-model", bz4_file, y_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["axioms"] == data["satisfied"] == 23


def test_check_model_failure(bz2_all_file, tmp_path, capsys):
    cat = cyclic_group_category(2)
    y = representable(cat, "*")
    y_path = tmp_path / "y2.json"
    y_path.write_text(json.dumps(presheaf_to_dict(y)), encoding="utf-8")
    assert main(["check-model", bz2_all_file, str(y_path), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["failures"]


def test_free_ext_and_normal_form(bz4_file, y_file, capsys):
    assert main(["free-ext", bz4_file, y_file, "--at", "*", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["carrier"]["*"]) == 8
    assert (
        main(
            [
                "normal-form",
                bz4_file,
                y_file,
                "--at",
                "*",
                "--term",
                "(alpha g1 x)",
                "--format",
                "json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["defined"] and set(data["components"]) == {"g0", "g1", "g2", "g3"}
    assert all(c["kind"] == "generator" for c in data["components"].values())


def test_byte_identical_reruns(bz4_file, capsys):
    main(["check-theorem", bz4_file, "--format", "json"])
    first = capsys.readouterr().out
    main(["check-theorem", bz4_file, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_text_mirrors_json_structure(bz4_file, capsys):
    main(["centre", bz4_file, "--format", "json"])
    as_json = json.loads(capsys.readouterr().out)
    main(["centre", bz4_file])
    as_text = capsys.readouterr().out
    for key in as_json:
        assert f"{key}:" in as_text


def test_size_limit_exit_code(bz4_file, y_file, capsys):
    code = main(["free-ext", bz4_file, y_file, "--at", "*", "--max-families", "2"])
    assert code == 2


def test_centre_size_limit_exit_code(bz4_file, monkeypatch, capsys):
    monkeypatch.setattr(fincat_module, "DEFAULT_MAX_FAMILIES", 3)
    assert main(["centre", bz4_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "size limit: more than 3 natural endomorphisms of the identity over '*'"
    )


@pytest.mark.parametrize(
    "cat, order",
    [(cyclic_group_category(24), 24), (symmetric_group_category(4), 1)],
    ids=["BZ24", "S4"],
)
def test_sites_with_more_than_20_arrows_into_an_object_load(cat, order, tmp_path, capsys):
    path = tmp_path / "site.json"
    path.write_text(json.dumps(site_to_dict(trivial_site(cat))), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["centre", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == order


def test_sieve_walk_runs_under_max_families(tmp_path, capsys):
    cat = antichain_below_top(21)
    data = site_to_dict(Site(cat, Topology({})))
    del data["topology"]
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path), "--max-families", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "size limit: more than 1000 sieves on 'top'\n"


def test_readme_global_flags_match_the_parser():
    # The README's "Global flags" paragraph names one option string per
    # shared flag; the parser's own options (other than --help) are exactly
    # the shared ones.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Global flags:(.*?)\n\n", readme, re.M | re.S).group(1)
    named = [span.split()[0] for span in re.findall(r"`([^`]+)`", paragraph)]
    parser = build_parser()
    shared = {
        action
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    }
    assert len(named) == len(shared)
    assert {parser._option_string_actions[flag] for flag in named} == shared


def test_explicit_presheaf_arguments(bz4_file, y_file, bz2_all_file, tmp_path, capsys):
    assert main(["check-theorem", bz4_file, y_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in report["per_sheaf"]] == [y_file]
    # A presheaf that is not a sheaf on the given site is refused.
    cat = cyclic_group_category(2)
    y2 = representable(cat, "*")
    y2_path = tmp_path / "y2.json"
    y2_path.write_text(json.dumps(presheaf_to_dict(y2)), encoding="utf-8")
    assert main(["isotropy", bz2_all_file, str(y2_path)]) == 1


def test_saturated_flag_validates(tmp_path, capsys):
    site = trivial_site(cyclic_group_category(2))
    data = site_to_dict(site)
    assert data["topology"]["saturated"] is True
    path = tmp_path / "sat.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    # Break saturation: drop the maximal sieve.
    data["topology"]["basis"]["*"] = []
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "maximality" in capsys.readouterr().out
    # Other commands refuse the broken file outright.
    assert main(["centre", str(path)]) == 1


def test_validate_reports_a_cover_holding_an_arrow_into_another_object(tmp_path, capsys):
    data = {
        "objects": ["U", "X"],
        "morphisms": [
            {"name": "id_U", "dom": "U", "cod": "U"},
            {"name": "id_X", "dom": "X", "cod": "X"},
            {"name": "u", "dom": "U", "cod": "X"},
        ],
        "identities": {"U": "id_U", "X": "id_X"},
        "composition": [],
        "topology": {"basis": {"X": [["id_X", "u"], ["id_U"]]}, "saturated": True},
    }
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert not report["valid"]
    assert {
        "axiom": "sieve-closure",
        "message": "sieve-closure fails at 'X' for sieve ['id_U']",
    } in report["violations"]
