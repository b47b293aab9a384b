"""Command dispatch, exit codes, output determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finsite import fincat as fincat_module
from finsite.cli import _json_text, build_parser, main
from finsite.errors import PresheafInvalidError
from finsite.io import load_presheaf, presheaf_to_dict, site_to_dict, load_site
from finsite.isotropy import verify_main_theorem
from finsite.presheaf import (
    PresheafMap,
    representable,
    sheaf_status,
    SheafStatus,
    validate_presheaf,
)
from finsite.standard import (
    all_sieves_topology,
    cyclic_group_category,
    sierpinski_space_site,
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


@pytest.mark.parametrize("which", ["site", "presheaf"])
def test_input_that_is_not_utf8_is_a_read_error(which, bz4_file, y_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = ["validate", str(bad)] if which == "site" else ["sheaf-check", bz4_file, str(bad)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read")


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


def test_sheafify_composes_no_unit(bz4_file, y_file, monkeypatch, capsys):
    # The command emits the sheaf alone, so it reads no unit of it.
    calls = []
    real = PresheafMap.then
    monkeypatch.setattr(PresheafMap, "then", lambda *args: calls.append(args) or real(*args))
    assert main(["sheafify", bz4_file, y_file, "--format", "json"]) == 0
    assert calls == []
    assert json.loads(capsys.readouterr().out)["sets"] == {"*": ["p0", "p1", "p2", "p3"]}


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


@pytest.mark.parametrize(
    "elements, status, missing, ambiguous",
    [
        (["a", "b"], "NotSeparated", [], [{"amalgamations": ["a", "b"]}]),
        ([], "SeparatedOnly", [{}], []),
    ],
    ids=["1+1", "0"],
)
def test_sheaf_check_lists_the_empty_family_on_the_empty_cover(
    elements, status, missing, ambiguous, bz2_all_file, tmp_path, capsys
):
    # The empty sieve covers, so the empty family must have exactly one
    # amalgamation: 1 + 1 has two and the empty presheaf none.
    fixed = {e: e for e in elements}
    path = tmp_path / "f.json"
    path.write_text(
        json.dumps({"sets": {"*": elements}, "actions": {"g0": fixed, "g1": fixed}}),
        encoding="utf-8",
    )
    assert main(["sheaf-check", bz2_all_file, str(path), "--format", "json"]) == 0
    empty_family = {"object": "*", "cover": [], "family": {}}
    assert json.loads(capsys.readouterr().out) == {
        "status": status,
        "missing_amalgamations": [{**empty_family, **extra} for extra in missing],
        "ambiguous_amalgamations": [{**empty_family, **extra} for extra in ambiguous],
    }


def test_isotropy_report(bz4_file, capsys):
    assert main(["isotropy", bz4_file, "--method", "full", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    orders = {entry["name"]: entry["isotropy_order"] for entry in data["per_sheaf"]}
    assert set(orders.values()) == {4}


def test_isotropy_pure_method_refuses_a_site_outside_its_hypotheses(bz2_all_file, capsys):
    assert main(["isotropy", bz2_all_file, "--method", "pure"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the pure-family fast path needs a subcanonical site without empty covers\n"
    )


def test_check_theorem_exit_codes(bz4_file, bz2_all_file, capsys):
    assert main(["check-theorem", bz4_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    assert main(["check-theorem", bz2_all_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["centre_order"] == 2 and report["ayc_centre_order"] == 1


def test_check_theorem_text_prints_null_for_a_site_that_is_not_subcanonical(
    bz2_all_file, capsys
):
    assert main(["check-theorem", bz2_all_file]) == 0
    out = capsys.readouterr().out
    assert "\nsubcanonical: false\n" in out
    assert "\nrestricted_centre_order: null\n" in out


def test_check_theorem_exits_1_on_a_violation_after_the_whole_report(
    bz4_file, monkeypatch, capsys
):
    reports = []

    def one_violation(*args, **kwargs):
        report = verify_main_theorem(*args, **kwargs)
        report["violations"] = ["a(y *): isotropy order 3, centre order 4"]
        reports.append(report)
        return report

    monkeypatch.setattr("finsite.cli.verify_main_theorem", one_violation)
    assert main(["check-theorem", bz4_file, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == json.dumps(reports[0], indent=2) + "\n"
    assert captured.err == ""


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


def test_normal_form_of_an_undefined_term_exits_1(bz4_file, y_file, capsys):
    term = "(sigma (g0 g1 g2 g3) x x x x)"
    argv = ["normal-form", bz4_file, y_file, "--at", "*", "--term", term, "--format", "json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"term": term, "defined": False}
    assert captured.err == ""


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


def test_readme_commands_match_the_parser():
    # The README's command block has one line per subcommand, in parser
    # order, showing the subcommand's positionals and its required options.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert [words[1] for words in lines] == list(subparsers.choices)
    shown = {"site": ["SITE.json"], "presheaf": ["F.json"], "presheaves": ["[F.json", "...]"]}
    for words, (name, parser) in zip(lines, subparsers.choices.items()):
        positionals = [a.dest for a in parser._actions if not a.option_strings]
        expected = [word for dest in positionals for word in shown[dest]]
        rest = words[2 + len(expected) :]
        assert words[0] == "finsite" and words[2 : 2 + len(expected)] == expected, name
        assert not rest or rest[0].startswith("-"), name
        required = [a.option_strings[0] for a in parser._actions if a.required and a.option_strings]
        assert all(flag in words for flag in required), name


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


def test_presheaf_files_with_unknown_names_are_refused(tmp_path, capsys):
    # On the Sierpinski space a presheaf file keyed by an object or a
    # morphism the site lacks is a violation, named in the error.
    site = sierpinski_space_site()
    site_path = tmp_path / "sierpinski.json"
    site_path.write_text(json.dumps(site_to_dict(site)), encoding="utf-8")
    data = presheaf_to_dict(representable(site.category, "X"))
    data["sets"]["Typo"] = ["z"]
    data["actions"]["nope"] = {"q": "r"}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(PresheafInvalidError) as caught:
        load_presheaf(path, site.category)
    assert [(v.kind, v.witnesses) for v in caught.value.violations] == [
        ("unknown-name", ("Typo",)),
        ("unknown-name", ("nope",)),
    ]
    for command in ("sheaf-check", "isotropy"):
        assert main([command, str(site_path), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input:")
        assert "unknown object 'Typo' in sets" in err
        assert "unknown morphism 'nope' in actions" in err
    del data["sets"]["Typo"], data["actions"]["nope"]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_presheaf(path, site.category) == representable(site.category, "X")


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


SRC = str(Path(__file__).resolve().parents[1] / "src")


def reuse_sequence(site, y, out):
    """Command lines where state left in a shared parser would show: a
    flag, a presheaf list or an output file set by one line and absent
    from the next, and the three usage and option failures.  The last
    three put the shared flags before the subcommand, and the text line
    after them must not keep their values."""
    return [
        ["centre", site, "--format", "json"],
        ["centre", site],
        ["check-theorem", site, y],
        ["check-theorem", site],
        ["sheafify", site, y, "--format", "json", "-o", out],
        ["sheafify", site, y],
        ["free-ext", site, y],
        ["frobnicate", site],
        ["centre", site, "--max-families", "0"],
        ["--format", "json", "centre", site],
        ["--max-families", "0", "centre", site],
        ["-o", out, "--format", "json", "centre", site],
        ["centre", site],
    ]


def read_output(out):
    path = Path(out)
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def in_process(argv, out, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, read_output(out)


def in_subprocess(argv, out, env):
    proc = subprocess.run(
        [sys.executable, "-m", "finsite.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr, read_output(out)


def test_a_reused_parser_answers_as_a_fresh_process(bz4_file, y_file, tmp_path, monkeypatch, capsys):
    # Usage messages wrap at the terminal width; pin it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = str(tmp_path / "out.json")
    sequence = reuse_sequence(bz4_file, y_file, out)
    fresh = [in_subprocess(argv, out, env) for argv in sequence]
    for _ in range(2):
        assert [in_process(argv, out, capsys) for argv in sequence] == fresh
    codes = [code for code, _, _, _ in fresh]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 3, 0, 3, 0, 0]
    assert json.loads(fresh[0][1])["order"] == 4
    assert fresh[1][1].startswith("order: 4\n")
    assert f"name: {y_file}" in fresh[2][1] and f"name: {y_file}" not in fresh[3][1]
    assert fresh[4][1] == "" and json.loads(fresh[4][3])
    assert fresh[5][1].startswith("sets:") and fresh[5][3] is None
    assert fresh[6][2].startswith("usage: finsite free-ext")
    assert "the following arguments are required: --at" in fresh[6][2]
    assert "invalid choice: 'frobnicate'" in fresh[7][2]
    assert fresh[8][2] == "error: max_families must be positive\n"
    # Flags before the subcommand count as they do after it.
    assert json.loads(fresh[9][1])["order"] == 4
    assert fresh[10][2] == "error: max_families must be positive\n"
    assert fresh[11][1] == "" and json.loads(fresh[11][3])["order"] == 4
    assert fresh[12][1].startswith("order: 4\n") and fresh[12][3] is None


@pytest.mark.parametrize(
    "argv, code, json_out",
    [
        (["--format", "json", "centre", "SITE", "--format", "text"], 0, False),
        (["--format", "text", "centre", "SITE", "--format", "json"], 0, True),
        (["--max-families", "0", "centre", "SITE", "--max-families", "5"], 0, False),
        (["--max-families", "5", "centre", "SITE", "--max-families", "0"], 3, False),
    ],
)
def test_a_shared_flag_on_both_sides_takes_the_value_after_the_subcommand(
    bz4_file, argv, code, json_out, capsys
):
    assert main([bz4_file if arg == "SITE" else arg for arg in argv]) == code
    assert capsys.readouterr().out.startswith("{") == json_out


def test_importing_the_cli_builds_no_parser():
    # A fresh import is part of every command's start-up, so it must
    # construct no ArgumentParser; the first build_parser call builds the
    # tree, and later calls build nothing and return that same parser.
    script = (
        "import argparse\n"
        "made = [0]\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    made[0] += 1\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import finsite.cli\n"
        "at_import = made[0]\n"
        "parser = finsite.cli.build_parser()\n"
        "first = made[0]\n"
        "assert finsite.cli.build_parser() is parser\n"
        "print(at_import, first, made[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    at_import, first, second = map(int, proc.stdout.split())
    assert at_import == 0
    assert first > 0 and second == first


# -- JSON writer ----------------------------------------------------------------

REPORT_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
    | st.sampled_from(["", "é", "☃", "\U0001f600", "\ud800", "\n\t\r\"\\/", "\x00\x1f\x7f"])
)
# Values the writer hands to json.dumps: floats, tuples, non-string keys
# and string subclasses.
OTHER_VALUES = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.tuples(st.integers(), st.text())
    | st.dictionaries(st.integers() | st.booleans() | st.none(), st.integers(), max_size=3)
    | st.builds(type("Label", (str,), {}), st.text(max_size=3))
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.recursive(
        REPORT_SCALARS | OTHER_VALUES,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=12,
    )
)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_writer_keeps_empty_and_nested_containers():
    value = {"": [], "a": {}, "b": [[], [{}], {"c": [1, -2, True, None, "é"]}]}
    assert _json_text(value) == json.dumps(value, indent=2)
    assert _json_text([]) == "[]" and _json_text({}) == "{}"
