"""Sieve generation, pullback, saturation, topology axioms."""

import pickle
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest

from finsite.errors import CodomainMismatchError, InvalidSieveError, SizeLimitError
from finsite.site import (
    Sieve,
    all_sieves,
    empty_cover_objects,
    empty_sieve,
    generated_sieve,
    induced_topology,
    maximal_sieve,
    pullback_sieve,
    saturate_topology,
    validate_topology,
    Topology,
)
from finsite.fincat import full_subcategory
from finsite.presheaf import build_plus, representable
from finsite.standard import (
    all_sieves_topology,
    cyclic_group_category,
    sierpinski_poset,
    trivial_topology,
)

from conftest import antichain_below_top


def test_generated_sieve_on_sierpinski():
    sp = sierpinski_poset()
    a = sp.morphism_id("0<=1")
    sieve = generated_sieve(sp, sp.object_id("1"), {a})
    assert sieve.members == {a}


def test_generated_sieve_from_identity_is_maximal():
    sp = sierpinski_poset()
    one = sp.object_id("1")
    sieve = generated_sieve(sp, one, {sp.identity[one]})
    assert sieve == maximal_sieve(sp, one)


def test_generated_sieve_empty_and_codomain_check():
    sp = sierpinski_poset()
    assert generated_sieve(sp, 0, set()).members == frozenset()
    with pytest.raises(CodomainMismatchError):
        generated_sieve(sp, sp.object_id("0"), {sp.morphism_id("0<=1")})


def test_pullback_examples():
    sp = sierpinski_poset()
    zero, one = sp.object_id("0"), sp.object_id("1")
    a = sp.morphism_id("0<=1")
    top = maximal_sieve(sp, one)
    assert pullback_sieve(sp, top, a) == maximal_sieve(sp, zero)
    assert pullback_sieve(sp, Sieve(one, frozenset({a})), a) == maximal_sieve(sp, zero)
    assert pullback_sieve(sp, empty_sieve(one), a) == empty_sieve(zero)
    with pytest.raises(CodomainMismatchError):
        pullback_sieve(sp, empty_sieve(zero), a)


def test_trivial_topology_only_maximal(bz4_site):
    cat = bz4_site.category
    assert bz4_site.topology.covers_of(0) == (maximal_sieve(cat, 0),)
    assert validate_topology(cat, bz4_site.topology) == []


def test_all_sieves_topology_is_already_a_topology():
    bz2 = cyclic_group_category(2)
    full = all_sieves_topology(bz2)
    assert validate_topology(bz2, full) == []
    basis = {0: list(all_sieves(bz2, 0))}
    assert saturate_topology(bz2, basis) == full


def test_open_cover_saturation_from_union_basis(opens_site):
    cat = opens_site.category
    x = cat.object_id("X")
    union_cover = Sieve(
        x, frozenset({cat.morphism_id("O<=X"), cat.morphism_id("U<=X")})
    )
    basis = {cat.object_id("O"): [empty_sieve(cat.object_id("O"))], x: [union_cover]}
    saturated = saturate_topology(cat, basis)
    # The union {O, U} does not reach X, so that sieve saturates away only
    # via transitivity additions; the open-cover topology differs from it
    # exactly by whether that sieve covers.
    assert saturated.is_cover(empty_sieve(cat.object_id("O")))
    assert validate_topology(cat, saturated) == []


def test_saturation_refuses_a_basis_entry_that_is_not_a_sieve_on_its_object():
    sp = sierpinski_poset()
    zero, one = sp.object_id("0"), sp.object_id("1")
    # {id_1} without 0<=1 is not closed under precomposition.
    unclosed = Sieve(one, frozenset({sp.identity[one]}))
    with pytest.raises(InvalidSieveError, match="^basis entry at '1' is not a sieve on it$"):
        saturate_topology(sp, {one: [maximal_sieve(sp, one), unclosed]})
    with pytest.raises(InvalidSieveError, match="^basis entry at '0' is not a sieve on it$"):
        saturate_topology(sp, {zero: [maximal_sieve(sp, one)]})


def test_validate_topology_missing_maximal():
    sp = sierpinski_poset()
    broken = Topology({0: (empty_sieve(0),), 1: (maximal_sieve(sp, 1),)})
    axioms = {v.axiom for v in validate_topology(sp, broken)}
    assert "maximality" in axioms


def test_topology_is_frozen(bz4_site):
    topology = Topology(dict(bz4_site.topology.covers))
    with pytest.raises(FrozenInstanceError):
        topology.covers = {}
    with pytest.raises(FrozenInstanceError):
        topology._least = {}
    assert topology.covers == bz4_site.topology.covers


def test_topologies_with_equal_covers_stay_equal_whatever_their_caches_hold(bz4_site):
    covers = dict(bz4_site.topology.covers)
    used, unused = Topology(covers), Topology(covers)
    build_plus(representable(bz4_site.category, 0), used)
    assert used._plus_memo and used._plus_plans and used._least
    assert not (unused._plus_memo or unused._plus_plans or unused._least)
    assert used == unused and unused == used
    assert used != Topology({0: (maximal_sieve(bz4_site.category, 0), empty_sieve(0))})
    assert "_plus_memo" not in repr(used) and repr(used) == repr(unused)
    # A used topology still pickles, as its covers alone.
    copy = pickle.loads(pickle.dumps(used))
    assert copy == used and not copy._plus_memo


def test_saturation_output_always_valid(opens_site, bz2_all_sieves_site, bz4_site):
    for site in (opens_site, bz2_all_sieves_site, bz4_site):
        assert validate_topology(site.category, site.topology) == []


def test_empty_cover_objects(opens_site, bz4_site, bz2_all_sieves_site):
    assert empty_cover_objects(bz4_site.category, bz4_site.topology) == []
    assert empty_cover_objects(
        bz2_all_sieves_site.category, bz2_all_sieves_site.topology
    ) == ["*"]
    assert empty_cover_objects(opens_site.category, opens_site.topology) == ["O"]


def test_induced_topology_identity_case(bz4_site):
    cat = bz4_site.category
    sub = full_subcategory(cat, list(cat.objects))
    assert induced_topology(cat, bz4_site.topology, sub) == bz4_site.topology


def test_induced_topology_on_opens_chain(opens_site, opens_d_site):
    sub = opens_d_site.category
    topo = opens_d_site.topology
    assert empty_cover_objects(sub, topo) == []
    assert validate_topology(sub, topo) == []
    # The chain inherits exactly the maximal sieves.
    for x in range(len(sub.objects)):
        assert topo.covers_of(x) == (maximal_sieve(sub, x),)


def test_trivial_topology_induces_trivially(bs3_site):
    cat = bs3_site.category
    sub = full_subcategory(cat, list(cat.objects))
    induced = induced_topology(cat, bs3_site.topology, sub)
    assert induced == trivial_topology(sub)


def test_cover_intersections_are_covers(opens_site, bz2_all_sieves_site, bz4_site, bs3_site):
    for site in (opens_site, bz2_all_sieves_site, bz4_site, bs3_site):
        topo = site.topology
        for x in range(len(site.category.objects)):
            for s in topo.covers_of(x):
                for r in topo.covers_of(x):
                    assert topo.is_cover(Sieve(x, s.members & r.members))


def test_sieve_lattice_guard():
    bz2 = cyclic_group_category(2)
    with pytest.raises(SizeLimitError):
        all_sieves(bz2, 0, max_families=1)


def test_saturation_refuses_a_wide_antichain_at_the_default_limit():
    # 2^21 + 1 sieves on 'top'; the walk stops after the first 10^6 + 1.
    with pytest.raises(SizeLimitError, match="more than 1000000 sieves on 'top'"):
        saturate_topology(antichain_below_top(21), {})


def test_saturation_wraps_only_the_covers(monkeypatch):
    # 2^14 + 1 sieves on 'top' and one cover per object: the walk keeps
    # the sieves as bitmasks and builds one Sieve per cover.
    built = []
    real_init = Sieve.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Sieve, "__init__", counting)
    cat = antichain_below_top(14)
    tracemalloc.start()
    try:
        topology = saturate_topology(cat, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(topology.covers_of(x)) for x in range(len(cat.objects))] == [1] * 15
    assert len(built) == 15
    assert peak < 4_000_000, peak


def test_validation_wraps_only_the_violations(monkeypatch):
    # The saturated topology of the same site has only maximal covers and
    # no violation.  Transitivity walks the 2^14 + 1 sieves on 'top' as
    # bitmasks, so the only Sieves built are the maximality check's one per
    # object and the stability check's one per cover and arrow into it.
    cat = antichain_below_top(14)
    topology = saturate_topology(cat, {})
    built = []
    real_init = Sieve.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Sieve, "__init__", counting)
    tracemalloc.start()
    try:
        violations = validate_topology(cat, topology)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    arrows_in = sum(len(cat.cone(x)) for x in range(len(cat.objects)))
    assert len(built) == len(cat.objects) + arrows_in
    assert peak < 4_000_000, peak


def test_all_sieves_is_complete_and_closed():
    bz2 = cyclic_group_category(2)
    sieves = all_sieves(bz2, 0)
    # On BZ2 the sieves on the point are exactly the empty and maximal ones.
    assert [sorted(s.members) for s in sieves] == [[], [0, 1]]


def test_sieve_key_is_computed_once_and_hidden_from_equality():
    cached = Sieve(0, frozenset({3, 1, 2}))
    fresh = Sieve(0, frozenset({1, 2, 3}))
    assert cached.key() is cached.key() == (0, (1, 2, 3))
    assert cached.sorted_members() is cached.key()[1]
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh) == "Sieve(target=0, members=frozenset({1, 2, 3}))"
    assert {cached: 1}[fresh] == 1
