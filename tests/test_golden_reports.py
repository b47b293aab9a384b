"""Pinned digests of full ``check-theorem`` and of ``isotropy`` reports.

Each ``GOLDEN`` digest is the SHA-256 of what ``finsite check-theorem SITE
--method full --format json`` prints, and each ``GOLDEN_ISOTROPY`` digest
that of ``finsite isotropy SITE --format json``, with the default method
and with ``--method full``.  Reports name carrier elements by id, so a
change that renames an id, or changes any figure or the order of a group's
elements, changes a digest.  Such a change must update the digest here on
purpose and say so in CHANGES.md.
"""

import hashlib
import json

import pytest

from finsite.cli import main
from finsite.io import site_to_dict
from finsite.site import Site
from finsite.standard import (
    all_sieves_topology,
    cyclic_group_category,
    cylinder_cover_site,
    dihedral_group_category_order8,
    discrete_two_space_site,
    quaternion_group_category,
    sierpinski_space_site,
    trivial_site,
)

from conftest import chain_site

GOLDEN = {
    "cyl2": (
        lambda: cylinder_cover_site(2),
        "0092b77760e976a1c934baad91d3a529d34b422e73160581482bc135cf454933",
    ),
    "cyl3": (
        lambda: cylinder_cover_site(3),
        "c505526f3863096fdcde7480b7043b63ff1dfbcbcf22ad1c38f28c4937b3d430",
    ),
    "discrete two-point space": (
        discrete_two_space_site,
        "2cc514398cd25e77cf2178f1ca08887ef84f554098ce678169126e1505ee22e9",
    ),
    "sierpinski": (
        sierpinski_space_site,
        "870f02ec59977d28e42950dcbcc55fcae0d538257931521a92881e8c4c770f76",
    ),
    "bz2 all sieves": (
        lambda: Site(cyclic_group_category(2), all_sieves_topology(cyclic_group_category(2))),
        "4e507460802b107545ec0e1469cd64c8f32c0771baefb42dd8f2fca0527379eb",
    ),
    "cyl4": (
        lambda: cylinder_cover_site(4),
        "833c68f48ee3ff1fba4fb164f55d3138986e0c714503c1611ac614a1b3fd6851",
    ),
    "cyl5": (
        lambda: cylinder_cover_site(5),
        "2c2f50ed37e9f926d077b2c6b8c357459a2e291ce5fc90c30b5d14d3a2ea65b6",
    ),
    "cyl6": (
        lambda: cylinder_cover_site(6),
        "dc49ca149d046edb635620de7cdbc75fdc9d64ef4bef2f1f2ad04274b77853f2",
    ),
    "chain4": (
        lambda: chain_site(4),
        "eeb71552418f2c663cefe783145a39dcbaf2251cd089f741b0215b8d2b7ed8c5",
    ),
    "bz4": (
        lambda: trivial_site(cyclic_group_category(4)),
        "1edc0cf022de218bb314a0a0bd1cf6887fb791cc6bc2d2062a225b7d881bb126",
    ),
    "bz12": (
        lambda: trivial_site(cyclic_group_category(12)),
        "a648bca8b1d9c811728de7270e57ed711e4f020a246e9a2d2007859db7d2d020",
    ),
    "q8": (
        lambda: trivial_site(quaternion_group_category()),
        "f998aba2c1eab15798db0afbd9fdaa578652b5af9ebdb6bcb346961a7e004780",
    ),
    "d4": (
        lambda: trivial_site(dihedral_group_category_order8()),
        "0fac8da397f559fbc893d71f6b886d11f0513ce716c951a01cae71d3488f180e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_full_check_theorem_report_is_unchanged(name, tmp_path, capsys):
    build, digest = GOLDEN[name]
    path = tmp_path / "site.json"
    path.write_text(json.dumps(site_to_dict(build())), encoding="utf-8")
    assert main(["check-theorem", str(path), "--method", "full", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


GOLDEN_ISOTROPY = {
    "bz4": (
        lambda: trivial_site(cyclic_group_category(4)),
        "fe041e3695f7693099ff17b841c26065e584ef704a262d4c0dba96955e35533f",
    ),
    "q8": (
        lambda: trivial_site(quaternion_group_category()),
        "383bd36a1356bf439c3e823fbdcae7d677eff81bf68ed79e1c1883acdb3ed860",
    ),
    "d4": (
        lambda: trivial_site(dihedral_group_category_order8()),
        "f4d9bdc599bba31c193b1b1d500481fec4fb2a3426fae6fcf159eaf20c7a2fce",
    ),
    "sierpinski": (
        sierpinski_space_site,
        "80cdbec6ace08433ceae8b063c661b44e8e0f1ffacfc29a6bb0b4f550833feec",
    ),
    "discrete two-point space": (
        discrete_two_space_site,
        "7b087c7f40adce00178a6f5dac4123d25eda577314bf51a534b3954c4dde94d4",
    ),
    "cyl2": (
        lambda: cylinder_cover_site(2),
        "f3b12dad22d3909149d310acdd0e766280c267aa949099a448050da84f1c8790",
    ),
    "bz2 all sieves": (
        lambda: Site(cyclic_group_category(2), all_sieves_topology(cyclic_group_category(2))),
        "fd7eb56d4bfd76d647d00791648c4026080cd886543e435c3ff527631f5bcb4e",
    ),
}


@pytest.mark.parametrize("method", [[], ["--method", "full"]], ids=["default", "full"])
@pytest.mark.parametrize("name", sorted(GOLDEN_ISOTROPY))
def test_isotropy_report_is_unchanged(name, method, tmp_path, capsys):
    build, digest = GOLDEN_ISOTROPY[name]
    path = tmp_path / "site.json"
    path.write_text(json.dumps(site_to_dict(build())), encoding="utf-8")
    assert main(["isotropy", str(path), *method, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
