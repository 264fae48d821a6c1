import itertools
import random

import pytest

from structcode import corpus
from structcode.coding import encode, is_graph_embedding
from structcode.core import BudgetExhausted, DiGraph, FinStructure, Signature, structure_of_graph
from structcode.search import (
    _joint_colors,
    _profile,
    automorphisms,
    enumerate_embeddings,
    find_embedding,
    find_isomorphism,
    is_embedding,
    is_isomorphism,
)

SIG = Signature.of(("E", 2))


def k(n):
    return corpus.complete_graph_structure(n)


def test_embedding_pins():
    assert find_embedding(k(2), k(3)) is not None
    assert find_embedding(k(3), k(2)) is None
    path = DiGraph.of(2, [(0, 1)])
    cycle = DiGraph.of(3, [(0, 1), (1, 2), (2, 0)])
    assert find_embedding(path, cycle) is not None


def test_embedding_reflects():
    # a map into a denser graph is not an embedding: P2 has no edge 1->0,
    # so it must not land on a double edge
    double = DiGraph.of(2, [(0, 1), (1, 0)])
    path = DiGraph.of(2, [(0, 1)])
    assert find_embedding(path, double) is None
    assert find_embedding(path, path) is not None


def test_iso_pins():
    s = corpus.random_structure(random.Random(1), max_size=4)
    m = find_isomorphism(s, s)
    assert m is not None and is_isomorphism(s, s, m)
    assert find_isomorphism(k(2), corpus.pure_set_structure(2)) is None


def test_enumerate_pins():
    assert len(enumerate_embeddings(k(1), k(2), cap=10).morphisms) == 2
    assert len(enumerate_embeddings(k(2), k(3), cap=10).morphisms) == 6
    empty = FinStructure.of(SIG, 0)
    out = enumerate_embeddings(empty, k(2), cap=10)
    assert len(out.morphisms) == 1 and out.morphisms[0].pairs == ()


def test_enumerate_cap_reports_incomplete():
    out = enumerate_embeddings(k(2), k(3), cap=3)
    assert len(out.morphisms) == 3 and not out.complete
    out = enumerate_embeddings(k(2), k(3), cap=6)
    assert len(out.morphisms) == 6 and out.complete


def test_enumerate_deterministic_order():
    a = enumerate_embeddings(k(2), k(3), cap=10).morphisms
    b = enumerate_embeddings(k(2), k(3), cap=10).morphisms
    assert a == b
    assert a == sorted(a, key=lambda m: m.pairs)


def naive_embeddings(src, dst):
    from structcode.core import Morphism

    found = []
    for image in itertools.permutations(range(dst.size), src.size):
        mm = Morphism.from_mapping(src.size, dst.size, dict(enumerate(image)))
        if is_embedding(src, dst, mm):
            found.append(mm)
    return found


def test_completeness_against_naive_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        src = corpus.random_structure(rng, max_size=3, max_relations=2, max_arity=2)
        dst = corpus.random_structure(rng, max_size=4, sig=src.sig)
        fast = enumerate_embeddings(src, dst, cap=10_000).morphisms
        slow = naive_embeddings(src, dst)
        assert sorted(m.pairs for m in fast) == sorted(m.pairs for m in slow)


def test_soundness_every_result_verifies():
    rng = random.Random(29)
    for _ in range(40):
        a, b, _ = corpus.random_embedded_pair(rng, max_size=4)
        m = find_embedding(a, b)
        assert m is not None and is_embedding(a, b, m)


def test_embeddability_reflexive_transitive():
    rng = random.Random(31)
    for _ in range(15):
        c = corpus.random_structure(rng, max_size=4, max_relations=2, max_arity=2)
        b, h2 = corpus.random_induced_substructure(rng, c)
        a, h1 = corpus.random_induced_substructure(rng, b)
        assert find_embedding(a, a) is not None
        assert is_embedding(a, c, h1.then(h2))


def test_automorphisms_of_clique():
    auts = automorphisms(k(3))
    assert len(auts) == 6  # S_3


def test_budget_exhaustion_signals():
    with pytest.raises(BudgetExhausted):
        find_embedding(k(3), k(4), budget=2)


def test_budget_exhaustion_reports_nodes():
    with pytest.raises(BudgetExhausted) as err:
        find_embedding(k(3), k(4), budget=2)
    assert str(err.value) == "embedding search exceeded 2 nodes"
    assert (err.value.used, err.value.budget) == (3, 2)


def test_isomorphism_search_depth_does_not_recurse():
    # The coding of this structure has 1,648 vertices; a search that
    # recursed once per matched vertex ran past Python's default
    # recursion limit here.
    s = FinStructure.of(Signature.of(("R", 3)), 5,
                        [("R", (0, 1, 2)), ("R", (2, 3, 4)), ("R", (4, 0, 1))])
    g = encode(s).graph
    assert g.size == 1648
    m = find_isomorphism(g, g)
    assert m is not None and m.is_bijective()
    assert is_graph_embedding(g, g, m)


# ---------------------------------------------------------------------------
# joint colour refinement against a naive full-round reference


def reference_refinement(a, b):
    """Full-round colour refinement of the disjoint union a + b.

    Every round recolours every element by (colour, sorted surroundings)
    until the number of classes stops growing, or until some class holds
    different numbers of a- and b-elements. Returns (partition, balanced).
    """
    elems = [(0, x) for x in range(a.size)] + [(1, x) for x in range(b.size)]
    facts = {e: [] for e in elems}
    for side, s in enumerate((a, b)):
        for name, tup in s.facts:
            for x in set(tup):
                facts[(side, x)].append((name, tup))

    def dense(keys):
        rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        return {e: rank[k] for e, k in keys.items()}

    color = dense({
        (side, x): tuple(sorted((name, i) for name, tup in facts[(side, x)]
                                for i, e in enumerate(tup) if e == x))
        for side, x in elems
    })

    def partition():
        classes = {}
        for e in elems:
            classes.setdefault(color[e], set()).add(a.size * e[0] + e[1])
        return {frozenset(c) for c in classes.values()}

    while True:
        sides = {}
        for side, x in elems:
            sides.setdefault(color[(side, x)], []).append(side)
        if any(s.count(0) != s.count(1) for s in sides.values()):
            return partition(), False
        new = dense({
            (side, x): (color[(side, x)], tuple(sorted(
                (name, tuple((e == x, color[(side, e)]) for e in tup))
                for name, tup in facts[(side, x)])))
            for side, x in elems
        })
        if len(set(new.values())) == len(set(color.values())):
            return partition(), True
        color = new


def joint_partition(a, b):
    ca, cb, balanced = _joint_colors(a, b, _profile(a), _profile(b))
    classes = {}
    for i, c in enumerate(ca + cb):
        classes.setdefault(c, set()).add(i)
    return {frozenset(c) for c in classes.values()}, balanced


TERNARY = Signature.of(("R", 3), ("U", 1))


def refinement_pairs(rng):
    """(a, b, planted): random structures, ternary ones, and codings."""
    for _ in range(400):
        a = corpus.random_structure(rng, max_size=5)
        planted = rng.random() < 0.5
        b = corpus.random_permuted_copy(rng, a)[0] if planted else \
            corpus.random_structure(rng, max_size=5, sig=a.sig)
        yield a, b, planted
    for _ in range(300):
        a = corpus.random_structure(rng, max_size=4, sig=TERNARY)
        planted = rng.random() < 0.5
        b = corpus.random_permuted_copy(rng, a)[0] if planted else \
            corpus.random_structure(rng, max_size=4, sig=TERNARY)
        yield a, b, planted
    for _ in range(300):
        a = corpus.random_structure(rng, max_size=2, max_relations=2, max_arity=2)
        planted = rng.random() < 0.5
        b = corpus.random_permuted_copy(rng, a)[0] if planted else \
            corpus.random_structure(rng, max_size=2, sig=a.sig)
        ga = structure_of_graph(encode(a).graph)
        gb = structure_of_graph(encode(b).graph)
        if planted:
            gb = corpus.random_permuted_copy(rng, gb)[0]
        yield ga, gb, planted


def test_joint_colors_match_full_round_refinement():
    rng = random.Random(41)
    checked = planted_seen = 0
    for a, b, planted in refinement_pairs(rng):
        got = joint_partition(a, b)
        assert got == reference_refinement(a, b)
        if planted:
            assert got[1]
            planted_seen += 1
        checked += 1
    assert checked >= 1000 and planted_seen >= 400


def test_repeated_elements_split_classes():
    # R(0,0,1) and R(1,0,0): same profile counts per relation, but
    # element 0 sits twice in one tuple on the left only
    a = FinStructure.of(TERNARY, 2, [("R", (0, 0, 1))])
    b = FinStructure.of(TERNARY, 2, [("R", (1, 0, 0))])
    assert joint_partition(a, b) == reference_refinement(a, b)
    assert not joint_partition(a, b)[1]
    assert find_isomorphism(a, b) is None
    c = FinStructure.of(TERNARY, 2, [("R", (1, 1, 0))])
    assert joint_partition(a, c)[1] and find_isomorphism(a, c) is not None


def test_positions_in_shared_facts_split_classes():
    # 0 and 1 have equal profiles and share both R facts, but 0 comes
    # first in the fact with the U element and second in the other one
    s = FinStructure.of(TERNARY, 4, [("R", (0, 1, 2)), ("R", (1, 0, 3)), ("U", (2,))])
    partition, balanced = joint_partition(s, s)
    assert balanced and (partition, balanced) == reference_refinement(s, s)
    assert frozenset({0, 4}) in partition and frozenset({1, 5}) in partition


def test_isomorphism_respects_joint_colors():
    rng = random.Random(43)
    for a, b, planted in refinement_pairs(rng):
        m = find_isomorphism(a, b)
        assert m is not None or not planted
        if m is not None:
            ca, cb, balanced = _joint_colors(a, b, _profile(a), _profile(b))
            assert balanced and is_isomorphism(a, b, m)
            assert all(ca[x] == cb[y] for x, y in m.pairs)


def test_larger_coded_pairs_answer():
    # 4- and 5-element binary structures: their codings have hundreds of
    # vertices and gadget chains that only a stable partition tells apart
    rng = random.Random(47)

    def binary(size, density):
        return FinStructure(SIG, size, frozenset(
            ("E", t) for t in itertools.product(range(size), repeat=2) if rng.random() < density))

    for i in range(40):
        size, planted = 4 + i % 2, i % 4 < 2
        density = rng.choice((0.3, 0.5, 0.7))
        a = binary(size, density)
        b = corpus.random_permuted_copy(rng, a)[0] if planted else binary(size, density)
        ga, gb = encode(a).graph, encode(b).graph
        direct = find_isomorphism(a, b, budget=200_000)
        coded = find_isomorphism(ga, gb, budget=200_000)
        assert (direct is None) == (coded is None)
        assert coded is not None or not planted
        if coded is not None:
            assert is_graph_embedding(ga, gb, coded)
