import itertools
import random

import pytest

from structcode import corpus
from structcode.coding import encode, is_graph_embedding
from structcode.core import BudgetExhausted, DiGraph, FinStructure, Signature
from structcode.search import (
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
