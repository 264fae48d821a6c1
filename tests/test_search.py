import bisect
import builtins
import itertools
import random
import tracemalloc

import pytest

from structcode import corpus, efgames, search
from structcode.coding import encode, is_graph_embedding
from structcode.core import (
    BudgetExhausted,
    DiGraph,
    FinStructure,
    Morphism,
    Signature,
    structure_of_graph,
)
from structcode.efgames import GameSolver, equiv_n
from structcode.search import (
    _class_counts,
    _joint_colors,
    _Searcher,
    _union_rows,
    automorphisms,
    enumerate_embeddings,
    find_embedding,
    find_isomorphism,
    is_embedding,
    is_isomorphism,
)

SIG = Signature.of(("E", 2))
UNARY = Signature.of(("R", 1))
TERNARY = Signature.of(("R", 3), ("U", 1))
UNARY_BINARY = Signature.of(("U", 1), ("E", 2))


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


# A 2-element source and a 3-element target that the identity on 0, 1
# embeds it into, as graphs and as structures, and maps each verifier must
# reject: every check but the one a case names passes on it.
LINK_SIG = Signature.of(("R", 1), ("S", 2))
VERIFIER_PAIRS = {
    "graph": (DiGraph.of(2, [(0, 1)]), DiGraph.of(3, [(0, 1), (1, 2)]), DiGraph.of(2)),
    "structure": (
        FinStructure.of(LINK_SIG, 2, [("R", (0,)), ("S", (0, 1))]),
        FinStructure.of(LINK_SIG, 3, [("R", (0,)), ("S", (0, 1)), ("S", (1, 2))]),
        FinStructure.of(LINK_SIG, 2, [("R", (0,))]),
    ),
}
IDENTITY = Morphism(2, 3, ((0, 0), (1, 1)))
REJECTED = {
    "not total": Morphism(2, 3, ((0, 0),)),
    "source size": Morphism(3, 3, ((0, 0), (1, 1), (2, 2))),
    "target size": Morphism(2, 4, ((0, 0), (1, 1))),
    # 0, 2 have no fact between them in the target, so nothing is reflected
    "preservation": Morphism(2, 3, ((0, 0), (1, 2))),
}


@pytest.mark.parametrize("kind", sorted(VERIFIER_PAIRS))
def test_verifiers_reject_each_broken_condition(kind):
    source, target, sparser = VERIFIER_PAIRS[kind]
    verifiers = [is_embedding] + ([is_graph_embedding] if kind == "graph" else [])
    for verify in verifiers:
        assert verify(source, target, IDENTITY)
        for why, m in REJECTED.items():
            assert not verify(source, target, m), (verify.__name__, why)
        # the source lacks the S/E fact on 0, 1 that the target has there
        assert not verify(sparser, target, IDENTITY), (verify.__name__, "reflection")


def test_is_embedding_rejects_another_signature():
    # no fact on either side tells the signatures apart, so only the
    # signature check can
    other = Signature.of(("R", 1), ("T", 2))
    source = FinStructure.of(LINK_SIG, 2, [("R", (0,))])
    target = FinStructure.of(other, 3, [("R", (0,)), ("T", (0, 1))])
    assert not is_embedding(source, target, IDENTITY)
    assert not is_embedding(DiGraph.of(2), FinStructure.of(other, 3), IDENTITY)
    assert is_embedding(DiGraph.of(2), structure_of_graph(DiGraph.of(3)), IDENTITY)


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


@pytest.mark.parametrize("src, dst, complete, nodes", [
    (k(2), k(3), False, 3),  # cap 0 still reaches the first embedding's leaf
    (k(2), DiGraph.of(4, [(0, 1), (1, 2), (2, 3)]), True, 3),  # no embedding
])
def test_enumerate_cap_zero(src, dst, complete, nodes):
    out = enumerate_embeddings(src, dst, cap=0, budget=nodes)
    assert out.morphisms == [] and out.complete == complete
    with pytest.raises(BudgetExhausted) as err:
        enumerate_embeddings(src, dst, cap=0, budget=nodes - 1)
    assert err.value.used == nodes


# (structure, automorphisms, nodes), the nodes recorded from the search that
# enumerated automorphisms with a cap of size! + 1
@pytest.mark.parametrize("s, count, nodes", [
    (k(3), 6, 16),
    (corpus.pure_set_structure(4), 24, 65),
    (DiGraph.of(5, [(i, (i + 1) % 5) for i in range(5)]), 5, 26),
    (DiGraph.of(4, [(0, 1), (1, 2), (2, 3)]), 1, 8),
])
def test_automorphisms_golden_nodes(s, count, nodes):
    assert len(automorphisms(s, budget=nodes)) == count
    with pytest.raises(BudgetExhausted) as err:
        automorphisms(s, budget=nodes - 1)
    assert err.value.used == nodes


@pytest.mark.parametrize("call", [
    lambda: find_isomorphism(FinStructure.of(UNARY, 2), DiGraph.of(3, [])),  # sizes differ
    lambda: find_isomorphism(FinStructure.of(UNARY, 3), k(3)),  # fact counts differ
    lambda: find_isomorphism(FinStructure.of(UNARY, 3), DiGraph.of(3, [])),
    lambda: find_embedding(DiGraph.of(3, []), FinStructure.of(UNARY, 2)),  # source larger
    lambda: find_embedding(FinStructure.of(UNARY, 2), DiGraph.of(3, [])),
    lambda: enumerate_embeddings(DiGraph.of(3, []), FinStructure.of(UNARY, 2), cap=5),
])
def test_signature_mismatch_is_an_error(call):
    # compared before the size and fact-count shortcuts, which used to
    # answer "none found" for structures of different signatures
    with pytest.raises(ValueError, match="share a signature"):
        call()


def test_budget_exhaustion_signals():
    with pytest.raises(BudgetExhausted):
        find_embedding(k(3), k(4), budget=2)


def test_budget_exhaustion_reports_nodes():
    with pytest.raises(BudgetExhausted) as err:
        find_embedding(k(3), k(4), budget=2)
    assert str(err.value) == "embedding search exceeded 2 nodes"
    assert (err.value.used, err.value.budget) == (3, 2)


def test_isomorphism_budget_exhaustion_names_its_search():
    # the root is node 1 and matching vertex 0 with a first target is node 2
    with pytest.raises(BudgetExhausted) as err:
        find_isomorphism(k(3), k(3), budget=1)
    assert str(err.value) == "isomorphism search exceeded 1 nodes"
    assert (err.value.used, err.value.budget) == (2, 1)


def test_large_embedding_small_budget_builds_nothing_quadratic():
    # Embedding candidates are merged from buckets of equal occurrence
    # profile as the search reaches each element: two edgeless 2,000-vertex
    # graphs take memory in proportion to their size, not to the 4 * 10^6
    # pairs between them
    g = DiGraph.of(2000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted) as err:
            find_embedding(g, g, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.used == 11
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# golden search node counts, recorded from the search that read each
# structure's facts through _facts_by_elem and _profile


def _near_copy(rng, s):
    """A permuted copy of s with one fact moved to a non-fact, if it has both."""
    copy = corpus.random_permuted_copy(rng, s)[0]
    absent = [(name, t) for name, arity in s.sig.relations
              for t in itertools.product(range(s.size), repeat=arity)
              if (name, t) not in copy.facts]
    if not copy.facts or not absent:
        return copy
    moved = rng.choice(sorted(copy.facts))
    return FinStructure(s.sig, s.size, copy.facts - {moved} | {rng.choice(absent)})


def _sparse(rng, sig, size):
    density = rng.choice((0.1, 0.2, 0.3))
    return FinStructure(sig, size, frozenset(
        (name, t) for name, arity in sig.relations
        for t in itertools.product(range(size), repeat=arity) if rng.random() < density / arity))


def _circulant(rng, sig, size):
    """Two random steps around a cycle, plus unary facts on a random subset.

    Without the unary facts every element looks alike, so colour refinement
    splits little and the search has to backtrack.
    """
    s, t = rng.sample(range(1, size), 2)
    if "E" in sig:
        facts = {("E", (i, (i + d) % size)) for i in range(size) for d in (s, t)}
    else:
        facts = {("R", (i, (i + s) % size, (i + t) % size)) for i in range(size)}
    if "U" in sig:
        facts |= {("U", (i,)) for i in rng.sample(range(size), rng.randint(1, size - 1))}
    return FinStructure(sig, size, frozenset(facts))


def golden_search(kind, seed):
    """(call, args, cap) for one seeded search; even seeds plant an answer."""
    rng = random.Random(seed)
    sig = (SIG, TERNARY, UNARY_BINARY)[seed % 3]
    if kind == "coded":
        a = corpus.random_structure(rng, max_size=3, max_relations=2, max_arity=2)
        b = corpus.random_permuted_copy(rng, a)[0] if seed % 2 == 0 else _near_copy(rng, a)
        return find_isomorphism, (encode(a).graph, encode(b).graph), None
    if kind == "iso":
        a = _circulant(rng, sig, 6 + seed % 4)
        b = a if seed % 2 == 0 else _circulant(rng, sig, a.size)
        return find_isomorphism, (a, corpus.random_permuted_copy(rng, b)[0]), None
    dst = _circulant(rng, sig, 7) if seed % 4 < 2 else _sparse(rng, sig, 7)
    if kind == "embed" and seed % 2 == 0:
        src = corpus.random_induced_substructure(rng, dst)[0]
    else:
        src = _sparse(rng, sig, 2 + seed % 3)
    if kind == "embed":
        return find_embedding, (src, dst), None
    return enumerate_embeddings, (src, dst), 1 + seed % 6


def golden_answer(call, args, cap, budget):
    """Embeddings found: 0 or 1 for the find_* calls, the count for enumerate."""
    if cap is None:
        return int(call(*args, budget=budget) is not None)
    return len(call(*args, cap=cap, budget=budget).morphisms)


# (kind, seed, nodes, embeddings found); 0 nodes means no node was
# searched: a size or fact-count mismatch, or unbalanced colours. The iso
# and coded counts are those of the colour-restricted backtracking that
# find_isomorphism ran before individualization-refinement: the search must
# give its answer within them. GOLDEN_ISOMORPHISM_NODES has their exact
# counts now.
GOLDEN_SEARCHES = [
    ("iso", 0, 8, 1), ("iso", 1, 0, 0), ("iso", 2, 9, 1), ("iso", 3, 100, 0),
    ("iso", 4, 7, 1), ("iso", 5, 0, 0), ("iso", 6, 10, 1), ("iso", 7, 0, 0),
    ("iso", 8, 7, 1), ("iso", 9, 29, 0), ("iso", 10, 9, 1), ("iso", 11, 0, 0),
    ("iso", 12, 8, 1), ("iso", 13, 0, 0), ("iso", 14, 9, 1), ("iso", 15, 100, 0),
    ("coded", 0, 49, 1), ("coded", 1, 25, 1), ("coded", 2, 19, 1), ("coded", 3, 25, 1),
    ("coded", 4, 19, 1), ("coded", 5, 0, 0), ("coded", 6, 45, 1), ("coded", 7, 19, 1),
    ("coded", 8, 76, 1), ("coded", 9, 0, 0), ("coded", 10, 76, 1), ("coded", 11, 28, 1),
    ("coded", 12, 28, 1), ("coded", 13, 28, 1), ("coded", 14, 25, 1),
    ("coded", 15, 19, 1),
    ("embed", 0, 1, 1), ("embed", 1, 1, 0), ("embed", 2, 8, 1), ("embed", 3, 3, 1),
    ("embed", 4, 8, 1), ("embed", 5, 17, 0), ("embed", 6, 4, 1), ("embed", 7, 1, 0),
    ("embed", 8, 4, 1), ("embed", 9, 3, 1), ("embed", 10, 3, 1), ("embed", 11, 2, 0),
    ("embed", 12, 6, 1), ("embed", 13, 2, 0), ("embed", 14, 3, 1), ("embed", 15, 3, 1),
    ("enum", 0, 4, 1), ("enum", 1, 1, 0), ("enum", 2, 157, 0), ("enum", 3, 7, 4),
    ("enum", 4, 1, 0), ("enum", 5, 17, 0), ("enum", 6, 5, 1), ("enum", 7, 16, 0),
    ("enum", 8, 6, 0), ("enum", 9, 9, 4), ("enum", 10, 15, 0), ("enum", 11, 4, 0),
    ("enum", 12, 4, 1), ("enum", 13, 2, 0), ("enum", 14, 15, 3), ("enum", 15, 7, 4),
]

# The iso and coded rows of GOLDEN_SEARCHES, with the node counts of the
# individualization-refinement search
GOLDEN_ISOMORPHISM_NODES = [
    ("iso", 0, 2, 1), ("iso", 1, 0, 0), ("iso", 2, 2, 1), ("iso", 3, 10, 0),
    ("iso", 4, 1, 1), ("iso", 5, 0, 0), ("iso", 6, 3, 1), ("iso", 7, 0, 0),
    ("iso", 8, 1, 1), ("iso", 9, 8, 0), ("iso", 10, 1, 1), ("iso", 11, 0, 0),
    ("iso", 12, 2, 1), ("iso", 13, 0, 0), ("iso", 14, 3, 1), ("iso", 15, 10, 0),
    ("coded", 0, 1, 1), ("coded", 1, 2, 1), ("coded", 2, 1, 1), ("coded", 3, 2, 1),
    ("coded", 4, 1, 1), ("coded", 5, 0, 0), ("coded", 6, 1, 1), ("coded", 7, 1, 1),
    ("coded", 8, 1, 1), ("coded", 9, 0, 0), ("coded", 10, 2, 1), ("coded", 11, 1, 1),
    ("coded", 12, 1, 1), ("coded", 13, 1, 1), ("coded", 14, 2, 1),
    ("coded", 15, 1, 1),
]


def assert_exact_nodes(kind, seed, nodes, found):
    """The search answers found within nodes, and runs out one node short."""
    call, args, cap = golden_search(kind, seed)
    assert golden_answer(call, args, cap, budget=nodes) == found
    if nodes:
        with pytest.raises(BudgetExhausted) as err:
            golden_answer(call, args, cap, budget=nodes - 1)
        assert err.value.used == nodes


@pytest.mark.parametrize("kind, seed, nodes, found", GOLDEN_SEARCHES)
def test_golden_search_nodes(kind, seed, nodes, found):
    if kind in ("iso", "coded"):
        call, args, cap = golden_search(kind, seed)
        assert golden_answer(call, args, cap, budget=nodes) == found
    else:
        assert_exact_nodes(kind, seed, nodes, found)


@pytest.mark.parametrize("kind, seed, nodes, found", GOLDEN_ISOMORPHISM_NODES)
def test_golden_isomorphism_nodes(kind, seed, nodes, found):
    assert_exact_nodes(kind, seed, nodes, found)


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
# individualization-refinement on pairs that colour refinement alone does
# not split, and on large symmetric pairs whose classes stay large


def _undirected(size, pairs):
    return DiGraph.of(size, [e for u, v in pairs for e in ((u, v), (v, u))])


def prism(n):
    """C_n x K_2: two n-cycles with a rung between their i-th vertices."""
    return _undirected(2 * n, [(i, (i + 1) % n) for i in range(n)]
                       + [(n + i, n + (i + 1) % n) for i in range(n)]
                       + [(i, n + i) for i in range(n)])


def mobius_ladder(n):
    """A 2n-cycle with a chord between each pair of opposite vertices."""
    return _undirected(2 * n, [(j, (j + 1) % (2 * n)) for j in range(2 * n)]
                       + [(j, j + n) for j in range(n)])


def permuted_graph(g, seed=5):
    return corpus.random_permuted_graph(random.Random(seed), g)[0]


def test_c2_hardest_pair_is_found_in_a_few_nodes():
    # C2's pair 376: the backtracking search over colour classes took
    # 306,280 nodes on these two codings
    a = FinStructure.of(SIG, 3, [("E", (0, 1)), ("E", (1, 0)), ("E", (2, 2))])
    b = FinStructure.of(SIG, 3, [("E", (0, 0)), ("E", (1, 2)), ("E", (2, 1))])
    ga, gb = encode(a).graph, encode(b).graph
    m = find_isomorphism(ga, gb, budget=10)
    assert m is not None and m.is_bijective() and is_graph_embedding(ga, gb, m)


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
def test_prism_against_mobius_ladder(n):
    # Both are 3-regular on 2n vertices, so the root is one class of 4n.
    # Individualizing vertex 0 with each of the 2n targets and refining
    # unbalances every branch; the backtracking search over colour classes
    # took 1,185, 8,881 and 22,513 nodes at n = 8, 12 and 14
    assert find_isomorphism(prism(n), mobius_ladder(n), budget=4 * n + 1) is None
    p = prism(n)
    q = permuted_graph(p)
    m = find_isomorphism(p, q, budget=5)
    assert m is not None and is_isomorphism(p, q, m)


def frucht():
    """The Frucht graph: cubic on 12 vertices, with no automorphism but
    the identity (LCF notation [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    return _undirected(12, [(i, (i + 1) % 12) for i in range(12)]
                       + [(i, (i + d) % 12) for i, d in enumerate(lcf)])


def test_rigid_cubic_graph_against_permuted_copies():
    # Refinement leaves one class of 24, and vertex 0 has one right target
    # in each copy. Its candidates are tried once each, in index order, and
    # each wrong one is pruned by its refinement: the root and at most 12
    # nodes
    g = frucht()
    assert len(automorphisms(g)) == 1
    for seed in range(40):
        h = permuted_graph(g, seed)
        m = find_isomorphism(g, h, budget=13)
        assert m is not None and is_isomorphism(g, h, m)


SYMMETRIC = {
    "edgeless": DiGraph.of(2000),
    "loops": DiGraph.of(2000, [(i, i) for i in range(2000)], allow_loops=True),
    "matching": _undirected(2000, [(2 * i, 2 * i + 1) for i in range(1000)]),
    "cycle": DiGraph.of(2000, [(i, (i + 1) % 2000) for i in range(2000)]),
    "triangles": DiGraph.of(1998, [(3 * i + j, 3 * i + (j + 1) % 3)
                                   for i in range(666) for j in range(3)]),
}


def traced(call):
    """(call's answer or the BudgetExhausted it raised, tracemalloc peak)."""
    tracemalloc.start()
    try:
        try:
            answer = call()
        except BudgetExhausted as err:
            answer = err
        return answer, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", SYMMETRIC)
def test_symmetric_families_take_linear_nodes_and_memory(name):
    # Each individualization fixes one orbit: a vertex, a matched pair, a
    # triangle, or the whole directed cycle. One colouring is kept and
    # unwound, so memory stays linear; a search that copied the colouring
    # at each node took 139 MB on the edgeless pair
    g = SYMMETRIC[name]
    h = permuted_graph(g)
    m, peak = traced(lambda: find_isomorphism(g, h, budget=g.size + 1))
    assert isinstance(m, Morphism) and is_graph_embedding(g, h, m)
    assert peak < 6_000_000


@pytest.mark.parametrize("name", [name for name in SYMMETRIC if name != "cycle"])
def test_symmetric_families_small_budget_builds_nothing_quadratic(name):
    # as test_large_embedding_small_budget_builds_nothing_quadratic; the
    # directed cycle is discrete after one individualization (2 nodes), so
    # a budget of 10 does not run out on it
    g = SYMMETRIC[name]
    h = permuted_graph(g)
    err, peak = traced(lambda: find_isomorphism(g, h, budget=10))
    assert isinstance(err, BudgetExhausted) and err.used == 11
    assert peak < 2_000_000


def test_directed_cycle_is_discrete_after_one_individualization():
    g = SYMMETRIC["cycle"]
    h = permuted_graph(g)
    assert find_isomorphism(g, h, budget=2) is not None
    with pytest.raises(BudgetExhausted) as err:
        find_isomorphism(g, h, budget=1)
    assert err.value.used == 2


def test_structure_against_itself_gets_the_identity():
    # Refinement of s + s gives x and its copy n + x one colour, and the
    # candidates of every frame are tried in index order, so the first
    # candidate for x is n + x: no branch is pruned and the leaf is the
    # identity. A search that tried them in the order its swap-removes
    # left mapped DiGraph.of(3) by 0 -> 0, 1 -> 2, 2 -> 1
    rng = random.Random(53)
    selves = [DiGraph.of(3), *SYMMETRIC.values()]
    for _ in range(100):
        s = corpus.random_structure(rng, max_size=5)
        selves += [s, encode(s).graph]
    for s in selves:
        assert find_isomorphism(s, s, budget=s.size + 1) == Morphism.identity(s.size)


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


def partition_of(colors):
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, set()).add(i)
    return {frozenset(c) for c in classes.values()}


def joint_partition(a, b):
    color, balanced, size, surplus = _joint_colors(_union_rows(a, b), a.size)
    # the class counts come back exact, as the isomorphism search reuses them
    assert (size, surplus) == _class_counts(color, a.size)
    return partition_of(color), balanced




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


def test_joint_colors_match_reference_on_larger_and_unequal_pairs():
    # codings of 3-element structures, planted and independent, and pairs
    # of unequal sizes, as equiv_n passes them
    rng = random.Random(53)

    def three_elements(sig=None):
        while True:
            s = corpus.random_structure(rng, max_size=3, sig=sig, max_relations=2, max_arity=2)
            if s.size == 3:
                return s

    planted_seen = 0
    for i in range(12):
        a = three_elements()
        planted = i % 2 == 0
        b = corpus.random_permuted_copy(rng, a)[0] if planted else three_elements(a.sig)
        ga = structure_of_graph(encode(a).graph)
        gb = structure_of_graph(encode(b).graph)
        if planted:
            gb = corpus.random_permuted_copy(rng, gb)[0]
        got = joint_partition(ga, gb)
        assert got == reference_refinement(ga, gb)
        if planted:
            assert got[1]
            planted_seen += 1
    assert planted_seen == 6
    unequal = 0
    for _ in range(200):
        a = corpus.random_structure(rng, max_size=6)
        b = corpus.random_structure(rng, max_size=6, sig=a.sig)
        got = joint_partition(a, b)
        assert got == reference_refinement(a, b)
        if a.size != b.size:
            assert not got[1]
            unequal += 1
    assert unequal >= 100


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


@pytest.mark.parametrize("edges, most", [
    ([(i, i + 1) for i in range(1999)], 25_000),
    ([(i, (i + 1) % 2000) for i in range(2000)], 8_002),
])
def test_refinement_work_is_near_linear_on_paths_and_cycles(monkeypatch, edges, most):
    # sorted calls count _joint_colors' work: one per element for its
    # profile, one per round, and one per re-keyed element with three or
    # more facts per round (the next test counts the others' re-keys). On a
    # directed path the largest group keeping its class id keeps this near
    # linear; when the first group kept it, the whole middle of the path
    # was re-keyed each round, 2,008,999 calls
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return builtins.sorted(*args, **kwargs)

    monkeypatch.setattr(search, "sorted", counting, raising=False)
    s = structure_of_graph(DiGraph.of(2000, edges))
    _, balanced, _, _ = _joint_colors(_union_rows(s, s), s.size)
    assert balanced and len(calls) <= most


class _CountingRows(list):
    """Union rows that count the refinement's reads of them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("edges, most", [
    ([(i, i + 1) for i in range(1999)], 25_000),
    ([(i, (i + 1) % 2000) for i in range(2000)], 8_002),
])
def test_refinement_row_reads_are_near_linear_on_paths_and_cycles(edges, most):
    # A round reads the row of each element whose colour changed, to find
    # the elements to re-key, and the row of each re-keyed element. One-
    # and two-fact elements are keyed without a sorted call, so this counts
    # the re-keys the test above does not see: on the path the largest
    # group keeping its class id reads 23,976 rows, the first group
    # 4,004,000
    s = structure_of_graph(DiGraph.of(2000, edges))
    rows = _CountingRows(_union_rows(s, s))
    _, balanced, _, _ = _joint_colors(rows, s.size)
    assert balanced and rows.reads <= most


def test_isomorphism_respects_joint_colors():
    rng = random.Random(43)
    for a, b, planted in refinement_pairs(rng):
        m = find_isomorphism(a, b)
        assert m is not None or not planted
        if m is not None:
            color, balanced, _, _ = _joint_colors(_union_rows(a, b), a.size)
            assert balanced and is_isomorphism(a, b, m)
            assert all(color[x] == color[a.size + y] for x, y in m.pairs)


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


# ---------------------------------------------------------------------------
# the union rows against the per-structure incidence they replaced: the
# former _incidence and _joint_colors, kept as the reference, and a plain
# depth-first search on their colours


def incidence_of(s):
    inc = [[] for _ in range(s.size)]
    for name, tup in s.facts:
        if len(set(tup)) == len(tup):
            for p, x in enumerate(tup):
                inc[x].append((name, (p,), tup))
        else:
            for x in set(tup):
                inc[x].append((name, tuple(p for p, e in enumerate(tup) if e == x), tup))
    return inc


def profile_of(facts):
    return tuple(sorted([(name, p) for name, positions, _ in facts for p in positions]))


def shifted_joint_colors(inc_a, inc_b):
    n = len(inc_a)
    incident = inc_a + [[(name, pos, tuple([e + n for e in tup])) for name, pos, tup in f]
                        for f in inc_b]
    ids = {}
    color = [ids.setdefault(profile_of(f), len(ids)) for f in incident]
    size = [0] * len(ids)
    surplus = [0] * len(ids)
    for x, c in enumerate(color):
        size[c] += 1
        surplus[c] += 1 if x < n else -1
    unbalanced = len(surplus) - surplus.count(0)
    changed = range(len(color))
    get = color.__getitem__
    while unbalanced == 0:
        rekey = sorted({e for y in changed for _, _, tup in incident[y] for e in tup})
        if not rekey:
            return color[:n], color[n:], True
        groups = {}
        for x in rekey:
            env = tuple(sorted([(name, pos, tuple(map(get, tup)))
                                for name, pos, tup in incident[x]]))
            groups.setdefault(color[x], {}).setdefault(env, []).append(x)
        changed = []
        for c, by_env in groups.items():
            moving = list(by_env.values())
            if sum(map(len, moving)) == size[c]:
                moving.remove(max(moving, key=len))
            for group in moving:
                fresh = len(size)
                moved = 2 * bisect.bisect_left(group, n) - len(group)
                unbalanced -= surplus[c] != 0
                surplus[c] -= moved
                unbalanced += (surplus[c] != 0) + (moved != 0)
                size[c] -= len(group)
                size.append(len(group))
                surplus.append(moved)
                for x in group:
                    color[x] = fresh
                changed.extend(group)
    return color[:n], color[n:], False


def reference_colors(a, b):
    ca, cb, balanced = shifted_joint_colors(incidence_of(a), incidence_of(b))
    return ca + cb, balanced


class OutOfNodes(Exception):
    pass


def reference_search(a, b, budget):
    """(mapping or None, nodes) of an isomorphism search on reference_colors.

    Sources in order of most occurrences, then index; candidates of the
    source's colour in index order; a pair is kept if every fact through it
    whose elements are all mapped holds on the other side. Nodes count the
    root and each kept pair, as _Searcher does; past budget the mapping is
    "exhausted".
    """
    colors, balanced = reference_colors(a, b)
    if not balanced:
        return None, 0
    through = [[[(name, tup) for name, tup in s.facts if x in tup] for x in range(s.size)]
               for s in (a, b)]
    order = sorted(range(a.size), key=lambda x: (-sum(t.count(x) for _, t in through[0][x]), x))
    fwd, bwd = {}, {}
    nodes = 0

    def holds_through(facts, mapping, target):
        return all((name, tuple(mapping[e] for e in tup)) in target.facts
                   for name, tup in facts if all(e in mapping for e in tup))

    def extend(depth):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OutOfNodes
        if depth == len(order):
            return True
        x = order[depth]
        for t in range(b.size):
            if colors[a.size + t] != colors[x] or t in bwd:
                continue
            fwd[x], bwd[t] = t, x
            if (holds_through(through[0][x], fwd, b) and holds_through(through[1][t], bwd, a)
                    and extend(depth + 1)):
                return True
            del fwd[x], bwd[t]
        return False

    try:
        return (dict(fwd) if extend(0) else None), nodes
    except OutOfNodes:
        return "exhausted", nodes


def searched(a, b, budget):
    """find_isomorphism's answer as a mapping, None or "exhausted". A map
    found must pass is_isomorphism and keep each element's joint colour."""
    try:
        m = find_isomorphism(a, b, budget=budget)
    except BudgetExhausted:
        return "exhausted"
    if m is None:
        return None
    color, balanced, _, _ = _joint_colors(_union_rows(a, b), a.size)
    assert balanced and is_isomorphism(a, b, m)
    assert all(color[x] == color[a.size + y] for x, y in m.pairs)
    return m.mapping()


def _repeated_elements(rng, size):
    """Ternary facts that each repeat an element, plus a few unary ones."""
    tuples = [t for t in itertools.product(range(size), repeat=3) if len(set(t)) < 3]
    facts = {("R", t) for t in tuples if rng.random() < 0.3}
    facts |= {("U", (x,)) for x in range(size) if rng.random() < 0.3}
    return FinStructure(TERNARY, size, frozenset(facts))


def _swapped(rng, size):
    """Ternary facts in swapped pairs R(x, y, z), R(y, x, w), and U on a
    random subset: x and y can share a colour and both facts, and only the
    positions tell them apart (as in test_positions_in_shared_facts_split_classes)."""
    facts = {("U", (x,)) for x in range(size) if rng.random() < 0.4}
    for _ in range(rng.randint(1, size // 2)):
        x, y, z, w = rng.sample(range(size), 4)
        facts |= {("R", (x, y, z)), ("R", (y, x, w))}
    return FinStructure(TERNARY, size, frozenset(facts))


def _coded_graph(rng, size):
    while True:
        s = corpus.random_structure(rng, max_size=size, max_relations=2, max_arity=2)
        if s.size == size:
            return encode(s).graph


def _coded(rng, size):
    return structure_of_graph(_coded_graph(rng, size))


def differential_pairs(rng):
    """(kind, a, b): 2,600 pairs, about half of each kind but the unequal
    ones planted. Sparse structures have many one-fact elements;
    circulants are balanced and often still not isomorphic."""
    def pair(a, other):
        if rng.random() < 0.5:
            return a, corpus.random_permuted_copy(rng, a)[0]
        return a, other()

    for _ in range(600):
        a = corpus.random_structure(rng, max_size=5)
        yield ("random", *pair(a, lambda: corpus.random_structure(rng, max_size=5, sig=a.sig)))
    for _ in range(400):
        a = corpus.random_structure(rng, max_size=4, sig=TERNARY)
        yield ("ternary", *pair(a, lambda: corpus.random_structure(rng, max_size=4, sig=TERNARY)))
    for _ in range(300):
        a = _repeated_elements(rng, rng.randint(1, 5))
        yield ("repeated", *pair(a, lambda: _repeated_elements(rng, a.size)))
    for _ in range(200):
        a = _swapped(rng, rng.randint(4, 8))
        yield ("swapped", *pair(a, lambda: _swapped(rng, a.size)))
    for i in range(400):
        size = (0, 1, 2, 3)[i % 4] if i < 40 else rng.randint(0, 2)
        a = _coded(rng, size)
        yield ("coded", *pair(a, lambda: _coded(rng, size)))
    for i in range(200):
        sig, size = (SIG, TERNARY, UNARY_BINARY)[i % 3], rng.randint(3, 8)
        a = _sparse(rng, sig, size)
        yield ("sparse", *pair(a, lambda: _sparse(rng, sig, size)))
    for i in range(100):
        sig, size = (SIG, TERNARY, UNARY_BINARY)[i % 3], rng.randint(6, 9)
        a = _circulant(rng, sig, size)
        yield ("circulant", *pair(a, lambda: _circulant(rng, sig, size)))
    for _ in range(400):
        a = corpus.random_structure(rng, max_size=6)
        yield ("unequal", a, corpus.random_structure(rng, max_size=6, sig=a.sig))


def test_union_rows_match_per_structure_refinement_and_search():
    rng = random.Random(61)
    seen = {}
    for kind, a, b in differential_pairs(rng):
        color, balanced, _, _ = _joint_colors(_union_rows(a, b), a.size)
        want_colors, want_balanced = reference_colors(a, b)
        assert (partition_of(color), balanced) == (partition_of(want_colors), want_balanced)
        got = searched(a, b, budget=2_000)
        if a.size == b.size and len(a.facts) == len(b.facts):
            want = reference_search(a, b, budget=20_000)[0]
        else:
            want = None
        assert "exhausted" not in (got, want) and (got is None) == (want is None)
        seen.setdefault(kind, set()).add((balanced, got is None))
    assert sum(map(len, seen.values())) >= 16 and len(seen) == 8


def test_regular_pairs_match_the_reference():
    # prisms, Moebius ladders and two-step circulants are regular, so
    # colour refinement leaves each side one class and the search decides
    rng = random.Random(83)
    pairs = []
    for n in range(3, 9):
        p, q = prism(n), mobius_ladder(n)
        pairs += [(p, q), (p, permuted_graph(p, n)), (q, permuted_graph(q, n))]
    for _ in range(30):
        a = _circulant(rng, SIG, rng.randint(8, 12))
        pairs.append((a, _circulant(rng, SIG, a.size)))
    answers = set()
    for a, b in pairs:
        got = searched(a, b, budget=2_000)
        want = reference_search(a, b, budget=20_000)[0]
        assert "exhausted" not in (got, want) and (got is None) == (want is None)
        answers.add(got is None)
    assert answers == {True, False}


def test_equiv_n_matches_a_solver_on_reference_colours():
    # equiv_n orders replies by the joint colours; with the reference colours
    # the same game takes the same number of maps
    rng = random.Random(67)
    unequal = 0
    for _ in range(150):
        a = corpus.random_structure(rng, max_size=4, max_arity=2)
        b = corpus.random_structure(rng, max_size=4, sig=a.sig)
        n = rng.randint(1, 3)
        colors, _ = reference_colors(a, b)
        solver = GameSolver(a, b, colors=(colors[:a.size], colors[a.size:]))
        want = solver.duplicator_wins((), min(n, len(solver.moves)))
        assert equiv_n(a, b, n, budget=solver.states) == want
        with pytest.raises(BudgetExhausted):
            equiv_n(a, b, n, budget=solver.states - 1)
        unequal += a.size != b.size
    assert unequal >= 50


# _joint_colors' work on the codings of 60 seeded pairs of 0-2 elements
# (3,254 union elements), as counted by the former _incidence +
# _joint_colors: 11,767 sorted calls and 13,332 reads of the incidence
# rows. The union rows make 5,203 sorted calls (one- and two-fact elements
# are keyed without one) and the same 13,332 row reads.
PER_STRUCTURE_SORTED_CALLS = 11_767
PER_STRUCTURE_ROW_READS = 13_332


def test_refinement_work_on_coded_pairs(monkeypatch):
    rng = random.Random(71)
    pairs = []
    for i in range(60):
        a = _coded(rng, i % 3)
        pairs.append((a, corpus.random_permuted_copy(rng, a)[0] if i % 2 else _coded(rng, i % 3)))
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return builtins.sorted(*args, **kwargs)

    monkeypatch.setattr(search, "sorted", counting, raising=False)
    reads = 0
    for a, b in pairs:
        rows = _CountingRows(_union_rows(a, b))
        _joint_colors(rows, a.size)
        reads += rows.reads
    assert len(calls) <= PER_STRUCTURE_SORTED_CALLS
    assert reads <= PER_STRUCTURE_ROW_READS


def counted(monkeypatch, module, name, counter, call):
    """(call's answer, or ("exhausted", used), and counter of each
    module.name instance the call made)."""
    made = []

    class Recording(getattr(module, name)):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, Recording)
        answer = answer_of(call)
    return answer, [getattr(x, counter) for x in made]


def refine_calls(monkeypatch, call):
    """(call's answer, or ("exhausted", used), and how often it ran
    search._refine): the isomorphism search's work, one call for the root
    colouring and one per individualization."""
    calls = 0
    refine = search._refine

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return refine(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_refine", counting)
        answer = answer_of(call)
    return answer, calls


def answer_of(call):
    """call's answer, or ("exhausted", used)."""
    try:
        return call()
    except BudgetExhausted as err:
        return ("exhausted", err.used)


def exhausted(answer):
    return isinstance(answer, tuple) and answer[0] == "exhausted"


def _looped(rng):
    g = corpus.random_graph(rng, max_size=5)
    loops = [(x, x) for x in range(g.size) if rng.random() < 0.4]
    return DiGraph.of(g.size, [*g.edges, *loops], allow_loops=True)


def graph_pairs(rng):
    """(a, b, c): b isomorphic to a or drawn alike, c no larger than a."""
    makers = [lambda: corpus.random_graph(rng, max_size=6)] * 3 + [lambda: _looped(rng)] * 2
    makers += [lambda i=i: _coded_graph(rng, i) for i in range(4)]
    for make in makers * 6:
        a = make()
        b = corpus.random_permuted_graph(rng, a)[0] if rng.random() < 0.5 else make()
        c = corpus.random_induced_subgraph(rng, a)[0] if rng.random() < 0.5 else make()
        yield a, b, c


def test_graphs_search_and_play_as_their_structures(monkeypatch):
    # a DiGraph is read through its own sig, facts and holds; the answers
    # and the work done must be those of structure_of_graph's copy
    searches = {
        "embed": lambda a, b, c: find_embedding(c, a, budget=300),
        "enum": lambda a, b, c: enumerate_embeddings(c, b, cap=5, budget=300),
        "aut": lambda a, b, c: automorphisms(a, budget=300),
    }
    games = {
        "ef": lambda a, b, n: efgames.ef_winner(a, b, n, budget=200),
        "trace": lambda a, b, n: efgames.ef_trace(a, b, n, budget=200),
        "equiv": lambda a, b, n: equiv_n(a, b, n, budget=200),
    }
    rng = random.Random(73)
    seen = set()
    for a, b, c in graph_pairs(rng):
        sa, sb, sc = map(structure_of_graph, (a, b, c))
        got = refine_calls(monkeypatch, lambda: find_isomorphism(a, b, budget=300))
        assert got == refine_calls(monkeypatch, lambda: find_isomorphism(sa, sb, budget=300))
        # a found or exhausted search refined at least its root colouring
        assert got[0] is None or got[1] > 0
        seen.add(("iso", got[0] is None, exhausted(got[0])))
        for name, call in searches.items():
            got = counted(monkeypatch, search, "_Searcher", "nodes", lambda: call(a, b, c))
            assert got == counted(monkeypatch, search, "_Searcher", "nodes",
                                  lambda: call(sa, sb, sc))
            seen.add((name, got[0] is None, exhausted(got[0])))
        if a.size + b.size <= 60:
            n = rng.randint(0, 3)
            for name, call in games.items():
                got = counted(monkeypatch, efgames, "GameSolver", "states",
                              lambda: call(a, b, n))
                assert got == counted(monkeypatch, efgames, "GameSolver", "states",
                                      lambda: call(sa, sb, n))
                seen.add((name, str(got[0]), exhausted(got[0])))
    # each search both found and missed; each game went both ways
    assert {(name, none, False) for name in ("iso", "embed") for none in (True, False)} <= seen
    assert {("ef", "Duplicator", False), ("ef", "Spoiler", False),
            ("equiv", "True", False), ("equiv", "False", False)} <= seen


def test_graph_inputs_build_no_structure(monkeypatch):
    # searches and games read a DiGraph's own facts view, built once
    rng = random.Random(79)
    a = _coded_graph(rng, 2)
    b = corpus.random_permuted_graph(rng, a)[0]
    built = []
    check = FinStructure.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(FinStructure, "__post_init__", counting)
    assert find_isomorphism(a, b) is not None
    facts = a.facts
    assert find_embedding(a, b, budget=10_000) is not None
    assert efgames.ef_winner(a, b, 1) == "Duplicator" and equiv_n(a, b, 1)
    assert built == [] and a.facts is facts
