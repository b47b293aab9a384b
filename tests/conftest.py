"""Shared site and sheaf catalogue fixtures."""

import pytest

from finsite.fincat import full_subcategory, validate_category
from finsite.presheaf import (
    coproduct_many,
    is_subcanonical,
    representable,
    sheafify,
    terminal_presheaf,
)
from finsite.site import Site, empty_cover_objects, induced_topology
from finsite.standard import (
    all_sieves_topology,
    cyclic_group_category,
    dihedral_group_category_order8,
    discrete_two_space_site,
    klein_four_category,
    open_cover_topology,
    poset_category,
    quaternion_group_category,
    sierpinski_poset,
    sierpinski_space_site,
    symmetric_group_category,
    trivial_site,
)


def plus_builds(topology):
    """(input, F+) for each plus-construction built under the topology so
    far: every memo miss stores one entry, and a hit stores none."""
    return [entry[:2] for entries in topology._plus_memo.values() for entry in entries]


def chain_site(n):
    """The chain 0 < 1 < … < n with the open-cover topology, object i
    having the points 0, …, i − 1."""
    names = [str(i) for i in range(n + 1)]
    cat = poset_category(names, lambda a, b: int(a) <= int(b))
    points = {name: frozenset(range(int(name))) for name in names}
    return Site(cat, open_cover_topology(cat, points))


@pytest.fixture(scope="session")
def bz2_site():
    return trivial_site(cyclic_group_category(2))


@pytest.fixture(scope="session")
def bz4_site():
    return trivial_site(cyclic_group_category(4))


@pytest.fixture(scope="session")
def bs3_site():
    return trivial_site(symmetric_group_category(3))


@pytest.fixture(scope="session")
def sierpinski_site():
    return trivial_site(sierpinski_poset())


@pytest.fixture(scope="session")
def opens_site():
    return sierpinski_space_site()


@pytest.fixture(scope="session")
def opens_d_site(opens_site):
    sub = full_subcategory(opens_site.category, ["U", "X"])
    return Site(sub, induced_topology(opens_site.category, opens_site.topology, sub))


@pytest.fixture(scope="session")
def bz2_all_sieves_site():
    cat = cyclic_group_category(2)
    return Site(cat, all_sieves_topology(cat))


@pytest.fixture(scope="session")
def diamond_site():
    return discrete_two_space_site()


@pytest.fixture(scope="session")
def group_sites():
    """The one-object sites used by the centre oracle comparison."""
    return {
        "Z2": trivial_site(cyclic_group_category(2)),
        "Z3": trivial_site(cyclic_group_category(3)),
        "Z4": trivial_site(cyclic_group_category(4)),
        "Z2xZ2": trivial_site(klein_four_category()),
        "S3": trivial_site(symmetric_group_category(3)),
        "D4": trivial_site(dihedral_group_category_order8()),
        "Q8": trivial_site(quaternion_group_category()),
    }


@pytest.fixture(scope="session")
def subcanonical_sites(bz4_site, bs3_site, sierpinski_site, opens_d_site):
    """Subcanonical catalogue sites without empty covers."""
    return {
        "BZ4-trivial": bz4_site,
        "BS3-trivial": bs3_site,
        "Sierpinski-trivial": sierpinski_site,
        "opens-restricted": opens_d_site,
    }


def pure_hypotheses(site):
    """Whether the site is subcanonical without empty covers: there every
    isotropy member is a family of generator images."""
    return is_subcanonical(site.category, site.topology)[0] and not empty_cover_objects(
        site.category, site.topology
    )


def small_catalogue(site):
    """Representables, terminal, and one sheafified coproduct per site."""
    cat = site.category
    sheaves = []
    for x in range(len(cat.objects)):
        sheaf, _ = sheafify(representable(cat, x), site.topology)
        sheaves.append((f"a(y {cat.objects[x]})", sheaf))
    sheaves.append(("terminal", terminal_presheaf(cat)))
    total, _ = coproduct_many([sheaves[0][1], sheaves[-1][1]])
    mixed, _ = sheafify(total, site.topology)
    sheaves.append(("a(rep + terminal)", mixed))
    return sheaves


def antichain_below_top(n):
    """n objects with one arrow each into 'top' and no other arrows: the
    sieves on 'top' are the maximal one and every set of the n arrows."""
    objects = [f"a{i}" for i in range(n)] + ["top"]
    return validate_category(
        objects,
        [(f"id_{o}", o, o) for o in objects] + [(f"u{i}", f"a{i}", "top") for i in range(n)],
        {o: f"id_{o}" for o in objects},
        [],
    )
