"""Equal catalogue sheaves share one isotropy computation.

The reference is a report assembled from one ``verify_main_theorem`` run
per catalogue entry, where nothing can be shared; a context spy counts the
isotropy computations.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from finsite import isotropy as isotropy_module
from finsite.cli import main
from finsite.groups import FiniteGroup
from finsite.io import site_to_dict
from finsite.isotropy import auto_catalogue, verify_main_theorem
from finsite.presheaf import Presheaf, representable, terminal_presheaf
from finsite.site import Site
from finsite.standard import (
    all_sieves_topology,
    cyclic_group_category,
    cylinder_cover_site,
    discrete_two_space_site,
    sierpinski_space_site,
    trivial_site,
)

from test_search_kernel import PLUS_SITES, topologies_on

GLOBAL_FIELDS = (
    "centre_order",
    "ayc_centre_order",
    "subcanonical",
    "empty_cover_objects",
    "restricted_centre_order",
)


def one_at_a_time(site, catalogue, method="full"):
    """The report of ``verify_main_theorem(site, catalogue)`` built from one
    run per entry: the site-wide violations once, then each entry's."""
    base = verify_main_theorem(site, [], method)
    shared = base["violations"]
    report = {field: base[field] for field in GLOBAL_FIELDS}
    report["per_sheaf"] = []
    report["violations"] = list(shared)
    for entry in catalogue:
        single = verify_main_theorem(site, [entry], method)
        assert {field: single[field] for field in GLOBAL_FIELDS} == {
            field: base[field] for field in GLOBAL_FIELDS
        }
        assert single["violations"][: len(shared)] == shared
        report["per_sheaf"] += single["per_sheaf"]
        report["violations"] += single["violations"][len(shared) :]
    return report


def assert_matches_one_at_a_time(site, catalogue=None):
    report = verify_main_theorem(site, catalogue)
    expected = one_at_a_time(site, auto_catalogue(site) if catalogue is None else catalogue)
    assert {field: report[field] for field in GLOBAL_FIELDS} == {
        field: expected[field] for field in GLOBAL_FIELDS
    }
    assert report["per_sheaf"] == expected["per_sheaf"]
    assert report["violations"] == expected["violations"]


def spy_contexts(monkeypatch):
    """The sheaf of every ``IsotropyContext`` built from now on."""
    built = []

    class Counting(isotropy_module.IsotropyContext):
        def __init__(self, sheaf, *args, **kwargs):
            built.append(sheaf)
            super().__init__(sheaf, *args, **kwargs)

    monkeypatch.setattr(isotropy_module, "IsotropyContext", Counting)
    return built


def distinct(sheaves):
    out = []
    for sheaf in sheaves:
        if not any(sheaf == seen for seen in out):
            out.append(sheaf)
    return out


FIXTURE_SITES = [
    "bz2_site",
    "bz4_site",
    "bs3_site",
    "sierpinski_site",
    "opens_site",
    "opens_d_site",
    "bz2_all_sieves_site",
    "diamond_site",
]


@pytest.mark.parametrize("fixture", FIXTURE_SITES)
def test_shared_report_matches_one_at_a_time_on_fixture_sites(fixture, request):
    assert_matches_one_at_a_time(request.getfixturevalue(fixture))


def test_shared_report_matches_one_at_a_time_on_group_sites(group_sites):
    for site in group_sites.values():
        assert_matches_one_at_a_time(site)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shared_report_matches_one_at_a_time_on_cover_sites(n):
    assert_matches_one_at_a_time(cylinder_cover_site(n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PLUS_SITES)), st.data())
def test_shared_report_matches_one_at_a_time_on_random_sites(name, data):
    cat = PLUS_SITES[name]
    assert_matches_one_at_a_time(Site(cat, data.draw(topologies_on(cat))))


def test_a_sheaf_listed_twice_is_computed_once(bz4_site, monkeypatch):
    cat = bz4_site.category
    y = representable(cat, "*")
    catalogue = [
        ("y", y),
        ("terminal", terminal_presheaf(cat)),
        ("y again", representable(cat, "*")),
    ]
    expected = one_at_a_time(bz4_site, catalogue)
    built = spy_contexts(monkeypatch)
    report = verify_main_theorem(bz4_site, catalogue)
    assert len(built) == 2
    assert [e["name"] for e in report["per_sheaf"]] == ["y", "terminal", "y again"]
    assert report["per_sheaf"] == expected["per_sheaf"]
    assert report["violations"] == expected["violations"] == []


def test_equal_sets_with_other_actions_are_computed_apart(bz2_site, monkeypatch):
    cat = bz2_site.category
    fixed, swap = {"a": "a", "b": "b"}, {"a": "b", "b": "a"}
    elements = {0: ("a", "b")}
    still = Presheaf(cat, elements, {f: fixed for f in range(2)})
    swapped = Presheaf(
        cat, elements, {f: swap if cat.name(f) == "g1" else fixed for f in range(2)}
    )
    assert still.sets == swapped.sets and still != swapped
    catalogue = [("still", still), ("swapped", swapped)]
    expected = one_at_a_time(bz2_site, catalogue)
    built = spy_contexts(monkeypatch)
    report = verify_main_theorem(bz2_site, catalogue)
    assert built == [still, swapped]
    assert report["per_sheaf"] == expected["per_sheaf"]
    assert report["violations"] == expected["violations"]


def drop_last_member(monkeypatch):
    """Make every isotropy group lose its last element."""
    real = isotropy_module.isotropy_group

    def short(sheaf, site, method="auto", ctx=None):
        group = real(sheaf, site, method, ctx)
        n = group.order - 1
        table = {(i, j): k for (i, j), k in group.table.items() if max(i, j, k) < n}
        return FiniteGroup(group.elements[:n], table)

    monkeypatch.setattr(isotropy_module, "isotropy_group", short)


@pytest.mark.parametrize(
    "site",
    [cylinder_cover_site(2), discrete_two_space_site(), trivial_site(cyclic_group_category(4))],
    ids=["cyl2", "diamond", "bz4"],
)
def test_each_repeated_sheaf_reports_its_own_violations(site, monkeypatch):
    catalogue = auto_catalogue(site)
    catalogue += [(f"{name} again", sheaf) for name, sheaf in catalogue[:2]]
    drop_last_member(monkeypatch)
    report = verify_main_theorem(site, catalogue)
    order = report["ayc_centre_order"]
    assert [v for v in report["violations"] if "isotropy order" in v] == [
        f"sheaf {name!r}: isotropy order {order - 1} differs from "
        f"the sheafified-representable centre order {order}"
        for name, _ in catalogue
    ]
    assert report["violations"] == one_at_a_time(site, catalogue)["violations"]


COUNT_SITES = {
    "cyl2": (lambda: cylinder_cover_site(2), 5, 9),
    "diamond": (discrete_two_space_site, 10, 20),
    "sierpinski": (sierpinski_space_site, 7, 14),
    "bz2-all": (
        lambda: Site(cyclic_group_category(2), all_sieves_topology(cyclic_group_category(2))),
        2,
        5,
    ),
    "bz4": (lambda: trivial_site(cyclic_group_category(4)), 5, 5),
}


@pytest.mark.parametrize("name", sorted(COUNT_SITES))
def test_the_commands_build_one_context_per_distinct_sheaf(name, tmp_path, monkeypatch, capsys):
    build, contexts, entries = COUNT_SITES[name]
    path = tmp_path / "site.json"
    path.write_text(json.dumps(site_to_dict(build())), encoding="utf-8")
    built = spy_contexts(monkeypatch)
    assert main(["check-theorem", str(path), "--method", "full", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["per_sheaf"]) == entries
    assert len(built) == len(distinct(built)) == contexts
    del built[:]
    assert main(["isotropy", str(path), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["per_sheaf"]) == entries
    assert len(built) == len(distinct(built)) == contexts
