import dataclasses
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, strategies as st

from structcode import coding, core, corpus, search
from structcode.core import (
    AtomOracle,
    BudgetExhausted,
    DiGraph,
    FinStructure,
    GRAPH_SIG,
    Morphism,
    ParseError,
    Signature,
    _cyclic_components,
    _successors,
    all_strings,
    atomic_diagram_prefix,
    atomic_sentence,
    atoms,
    cantor_pair,
    cantor_unpair,
    enum_string,
    kth_tuple,
    load_any,
    oracle_of_structure,
    parse_graph,
    parse_structure,
    restrict,
    serialize_graph,
    serialize_structure,
    simple_cycles,
    string_index,
    strongly_connected_components,
    structure_of_graph,
    xor_bits,
)


# ---------------------------------------------------------------------------
# pairing and string enumeration


def test_cantor_pair_pins():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(0, 1) == 2


@given(st.integers(0, 999), st.integers(0, 999))
def test_cantor_round_trip(m, n):
    assert cantor_unpair(cantor_pair(m, n)) == (m, n)


def test_cantor_injective_on_window():
    seen = {cantor_pair(m, n) for m in range(100) for n in range(100)}
    assert len(seen) == 100 * 100


def test_enum_string_pins():
    assert enum_string(0) == ""
    assert enum_string(1) == "0"
    assert enum_string(2) == "1"
    assert enum_string(3) == "00"
    assert enum_string(6) == "11"


def test_enum_string_bijective():
    strings = [enum_string(k) for k in range(1 << 12)]
    assert len(set(strings)) == len(strings)
    for k, s in enumerate(strings):
        assert string_index(s) == k


def test_all_strings_is_length_lex():
    got = list(all_strings(2))
    assert got == ["", "0", "1", "00", "01", "10", "11"]
    assert list(all_strings(-1)) == []
    assert list(all_strings(0)) == [""]
    # the reference builds each length with product, sharing no code with enum_string
    assert list(all_strings(7)) == ["".join(t) for n in range(8) for t in product("01", repeat=n)]


@given(st.text(alphabet="01", max_size=12), st.text(alphabet="01", max_size=12))
def test_xor_commutes_and_cancels(a, b):
    assert xor_bits(a, b) == xor_bits(b, a)
    padded = a.ljust(max(len(a), len(b)), "0")
    assert xor_bits(xor_bits(a, b), b) == padded


# ---------------------------------------------------------------------------
# atomic diagrams


SIG_R1 = Signature.of(("R", 1))


def test_diagram_empty_structure_is_zero():
    s = FinStructure.of(Signature.of(("R", 2)), 0)
    assert atomic_diagram_prefix(s, 16) == "0" * 16


def test_diagram_first_sentence_is_r_x0():
    # independent unfolding: with one unary relation the i-th sentence is
    # R(x_k) where (k) is the i-th tuple, so sentence 0 is R(x_0)
    with_fact = FinStructure.of(SIG_R1, 1, [("R", (0,))])
    without = FinStructure.of(SIG_R1, 1)
    assert atomic_diagram_prefix(with_fact, 1) == "1"
    assert atomic_diagram_prefix(without, 1) == "0"


def test_diagram_out_of_range_elements_give_zero():
    s = FinStructure.of(SIG_R1, 1, [("R", (0,))])
    bits = atomic_diagram_prefix(s, 10)
    for i in range(1, 10):
        name, tup = atomic_sentence(SIG_R1, i)
        assert bits[i] == ("1" if all(x < 1 for x in tup) and s.holds(name, tup) else "0")


@given(st.integers(0, 400))
def test_diagram_monotone_consistent(n):
    rng = random.Random(7)
    s = corpus.random_structure(rng, max_size=3)
    long = atomic_diagram_prefix(s, 402)
    assert atomic_diagram_prefix(s, n) == long[:n]


def test_kth_tuple_enumerates_without_repeats():
    seen = {kth_tuple(2, k) for k in range(200)}
    assert len(seen) == 200


# ---------------------------------------------------------------------------
# structures, graphs, morphisms


def test_structure_validation():
    with pytest.raises(ValueError):
        FinStructure.of(SIG_R1, 1, [("R", (0, 0))])  # arity mismatch
    with pytest.raises(ValueError):
        FinStructure.of(SIG_R1, 1, [("R", (3,))])  # out of range
    with pytest.raises(KeyError):
        FinStructure.of(SIG_R1, 1, [("S", (0,))])  # unknown relation


def test_graph_loops_flagged():
    with pytest.raises(ValueError):
        DiGraph.of(2, [(1, 1)])
    g = DiGraph.of(2, [(1, 1)], allow_loops=True)
    assert g.has_edge(1, 1)


def test_morphism_injectivity_enforced():
    with pytest.raises(ValueError):
        Morphism.from_mapping(2, 2, {0: 1, 1: 1})


@pytest.mark.parametrize("pairs, error", [
    ((), None),
    (((0, 1), (1, 0)), None),
    (((0, 0), (0, 1)), "sorted"),  # a source mapped twice
    (((1, 0), (0, 1)), "sorted"),  # sources out of order
    (((0, 1), (1, 1)), "injective"),
    (((-1, 0),), "range"),  # the first source
    (((0, 0), (2, 1)), "range"),  # the last source
    (((0, 1), (1, -1)), "range"),  # the least target
    (((0, 2), (1, 0)), "range"),  # the greatest target
])
def test_morphism_rejects_each_violation(pairs, error):
    if error is None:
        assert Morphism(2, 2, pairs).pairs == pairs
    else:
        with pytest.raises(ValueError, match=error):
            Morphism(2, 2, pairs)


def test_total_map_constructor_equals_the_public_one():
    rng = random.Random("from-image")
    for _ in range(200):
        n = rng.randint(0, 8)
        m = n + rng.randint(0, 3)
        image = rng.sample(range(m), n)
        total = Morphism.from_image(m, image)
        assert total == Morphism(n, m, tuple(enumerate(image)))
        assert total.is_total() and total.mapping() == dict(enumerate(image))
    assert Morphism.from_image(0, []) == Morphism(0, 0, ())
    assert Morphism.from_image(3, ()) == Morphism(0, 3, ())


@pytest.mark.parametrize("target_size, image, error", [
    (3, [0, 2, 0], "injective"),
    (2, [1, 1], "injective"),
    (2, [0, 2], "range"),
    (3, [1, -1], "range"),
    (0, [0], "range"),
])
def test_total_map_constructor_rejects_bad_images(target_size, image, error):
    with pytest.raises(ValueError, match=error):
        Morphism.from_image(target_size, image)
    # the public constructor rejects the same maps
    with pytest.raises(ValueError, match=error):
        Morphism(len(image), target_size, tuple(enumerate(image)))


def test_verifiers_do_not_build_total_maps(monkeypatch):
    # is_embedding, is_isomorphism and decode_full's acceptance check keep
    # their own checks: with the total-map constructor broken they still pass
    rng = random.Random(41)
    s = corpus.random_structure(rng, max_size=4)
    g = coding.encode(s).graph

    def broken(cls, target_size, image):
        raise AssertionError("total-map constructor called")

    monkeypatch.setattr(Morphism, "from_image", classmethod(broken))
    coding.decode_full.cache_clear()
    res = coding.decode_full(g, s.sig)
    assert res.structure == s
    ident = Morphism(s.size, s.size, tuple((x, x) for x in range(s.size)))
    assert search.is_embedding(s, res.structure, ident)
    assert search.is_isomorphism(s, res.structure, ident)
    with pytest.raises(AssertionError, match="total-map"):
        coding.lambda_graph(g, s.sig)


def test_built_graph_equals_the_public_one():
    # encode fills its graph in without the per-edge check; the value is
    # the one the public constructor makes of the same edges
    rng = random.Random("built-graph")
    for _ in range(60):
        g = coding.encode(corpus.random_structure(rng, max_size=4)).graph
        public = DiGraph(g.size, g.edges)
        assert g == public and hash(g) == hash(public) and g.facts == public.facts
        assert not g.allow_loops
    for _ in range(60):
        h = corpus.random_graph(rng, max_size=6)
        built = DiGraph._built(h.size, h.edges)
        assert built == h and built.facts == h.facts and built.holds("E", (0, 1)) == h.has_edge(0, 1)
    assert DiGraph._built(0, frozenset()) == DiGraph.of(0)


def test_verifiers_do_not_build_unchecked_graphs(monkeypatch):
    # the public constructors and the verifiers keep their checks: with the
    # unchecked constructor broken they still work, and only encode fails
    rng = random.Random(43)
    s = corpus.random_structure(rng, max_size=4)
    g = coding.encode(s).graph  # kept in encode's cache for decode_full

    def broken(cls, size, edges):
        raise AssertionError("unchecked graph constructor called")

    monkeypatch.setattr(DiGraph, "_built", classmethod(broken))
    coding.decode_full.cache_clear()
    res = coding.decode_full(g, s.sig)
    assert res.structure == s
    copy = DiGraph.of(g.size, g.edges)
    ident = Morphism.identity(g.size)
    assert search.is_isomorphism(g, copy, ident) and search.is_embedding(g, copy, ident)
    assert coding.is_graph_embedding(g, copy, ident)
    assert parse_graph(serialize_graph(g)) == g
    with pytest.raises(ValueError, match="out of range"):
        DiGraph.of(2, [(0, 2)])
    coding.encode.cache_clear()
    with pytest.raises(AssertionError, match="unchecked"):
        coding.encode(s)


@pytest.mark.parametrize("size, edges, message", [
    (3, [(0, 1), (-1, 2)], "edge (-1,2) out of range"),
    (3, [(0, 1), (2, 3)], "edge (2,3) out of range"),
    (3, [(3, 0)], "edge (3,0) out of range"),
    (0, [(0, 0)], "edge (0,0) out of range"),  # out of range is reported before a loop
    (3, [(1, 2), (2, 2)], "self-loop (2,2) not permitted"),
])
def test_digraph_validation_messages(size, edges, message):
    with pytest.raises(ValueError) as exc:
        DiGraph.of(size, edges)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        DiGraph(size, frozenset(edges))
    assert str(exc.value) == message


def test_digraph_allows_loops_when_asked():
    g = DiGraph.of(3, [(0, 0), (0, 1), (2, 2)], allow_loops=True)
    assert g.has_edge(0, 0) and g.has_edge(2, 2)
    with pytest.raises(ValueError) as exc:
        DiGraph.of(3, [(0, 3), (1, 1)], allow_loops=True)
    assert str(exc.value) == "edge (0,3) out of range"


def test_morphism_compose_and_invert():
    f = Morphism.from_mapping(2, 3, {0: 2, 1: 0})
    g = Morphism.from_mapping(3, 3, {0: 1, 1: 2, 2: 0})
    assert f.then(g).mapping() == {0: 0, 1: 1}
    h = Morphism.from_mapping(3, 3, {0: 2, 1: 0, 2: 1})
    assert h.invert().then(h).mapping() == {0: 0, 1: 1, 2: 2}


# ---------------------------------------------------------------------------
# restriction


def test_restrict_identity_on_finite_structure():
    rng = random.Random(3)
    for _ in range(20):
        s = corpus.random_structure(rng, max_size=4)
        assert restrict(oracle_of_structure(s), s.size) == s


def test_restrict_shelah_singleton():
    from structcode.shelah import shelah_oracle

    s = restrict(shelah_oracle(0), 1, rel_bound=14)
    # the lone element is the all-zeros string: exactly the all-zero prefix
    # relations hold on it, and every map graph fixes it
    for name, arity in s.sig.relations:
        if name.startswith("R_"):
            nu = name[2:]
            assert s.holds(name, (0,)) == (set(nu) <= {"0"})
        else:
            nu = name[3:]
            assert s.holds(name, (0, 0)) == (set(nu) <= {"0"})


def test_restrict_empty():
    from structcode.reduction import build_f_graph

    s = restrict(build_f_graph(DiGraph.of(2, [(0, 1)])), 0, rel_bound=3)
    assert s.size == 0 and not s.facts


def test_restrict_budget():
    s = corpus.random_structure(random.Random(0), max_size=4)
    with pytest.raises(BudgetExhausted):
        restrict(oracle_of_structure(s), s.size, query_budget=0)


def test_restrict_budget_checked_before_any_query():
    # 3 + 9 + 27 = 39 tuples against a budget of 38: a sweep would ask 38
    # queries before giving up, but the count is checked before any element
    # is built or any query made
    calls = []

    def holds(name, tup):
        calls.append((name, tup))
        return True

    def element(i):
        calls.append(("element", i))
        return i

    oracle = AtomOracle(
        relation=lambda i: (f"R{i}", i + 1), element=element, holds=holds, num_relations=3,
    )
    with pytest.raises(BudgetExhausted, match="restrict exceeded 38 oracle queries"):
        restrict(oracle, 3, query_budget=38)
    assert calls == []
    assert len(restrict(oracle, 3, query_budget=39).facts) == 39


def test_restrict_budget_exhaustion_reports_tuples():
    s = corpus.random_structure(random.Random(0), max_size=4)
    tuples = sum(s.size ** arity for _, arity in s.sig.relations)
    with pytest.raises(BudgetExhausted) as err:
        restrict(oracle_of_structure(s), s.size, query_budget=tuples - 1)
    assert str(err.value) == f"restrict exceeded {tuples - 1} oracle queries"
    assert (err.value.used, err.value.budget) == (tuples, tuples - 1)
    # raisers that give no counts leave them unset
    plain = BudgetExhausted("out of budget")
    assert str(plain) == "out of budget" and (plain.used, plain.budget) == (None, None)


def test_restrict_budget_stops_relation_enumeration():
    # two elements and unary relations: 2, 4, ..., 12 tuples, so the sixth
    # relation goes over a budget of 10 and no later one is asked for
    asked = []

    def relation(i):
        asked.append(i)
        return f"U{i}", 1

    oracle = AtomOracle(relation=relation, element=lambda i: i,
                        holds=lambda name, tup: True)
    with pytest.raises(BudgetExhausted) as err:
        restrict(oracle, 2, rel_bound=1000, query_budget=10)
    assert asked == list(range(6))
    assert (err.value.used, err.value.budget) == (12, 10)


def test_restrict_budget_counts_each_relation_on_no_points():
    # with 0 points every relation has 0 tuples; counted as 0, the budget
    # never tripped while about 2^62 relations were enumerated one by one
    from structcode.reduction import build_f_graph, reduction_rel_bound

    with pytest.raises(BudgetExhausted) as err:
        restrict(build_f_graph(DiGraph.of(2, [(0, 1)])), 0, reduction_rel_bound(60),
                 query_budget=1000)
    assert (err.value.used, err.value.budget) == (1001, 1000)
    s = restrict(build_f_graph(DiGraph.of(2, [(0, 1)])), 0, rel_bound=3, query_budget=3)
    assert (s.size, s.facts, len(s.sig.relations)) == (0, frozenset(), 3)


@pytest.mark.parametrize("points", [0, 1])
def test_restrict_budget_on_at_most_one_point_enumerates_no_relation(points):
    # on 0 or 1 points each relation counts 1, so the count is the number
    # of relations; enumerating them one by one took 8.1 s to reject
    # restrict(build_f_graph(g), 0, reduction_rel_bound(60), query_budget=10**7)
    asked = []

    def relation(i):
        asked.append(i)
        return f"U{i}", i % 3 + 1

    for num_relations in (None, 10**5 + 1, 10**5 + 7):
        oracle = AtomOracle(relation=relation, element=lambda i: i,
                            holds=lambda name, tup: True, num_relations=num_relations)
        with pytest.raises(BudgetExhausted, match="restrict exceeded 100000 oracle queries") as err:
            restrict(oracle, points, rel_bound=10**18, query_budget=10**5)
        assert (err.value.used, err.value.budget) == (10**5 + 1, 10**5)
        assert asked == []
    # at the budget itself the relations are enumerated, to build the structure
    oracle = AtomOracle(relation=relation, element=lambda i: i,
                        holds=lambda name, tup: True, num_relations=5)
    s = restrict(oracle, points, rel_bound=10**18, query_budget=5)
    assert len(s.sig.relations) == 5 and len(s.facts) == 5 * points
    assert asked == list(range(5))


def test_restrict_budget_keeps_no_relation_before_it_trips():
    # with 0 points each relation counts 1, so 10^5 relations are counted
    # before the budget trips; keeping them on the way took about 12 MB here
    # and 162 MB peak RSS at a budget of 10^6
    oracle = AtomOracle(relation=lambda i: (f"U{i}", 1), element=lambda i: i,
                        holds=lambda name, tup: True)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted) as err:
            restrict(oracle, 0, rel_bound=10**9, query_budget=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.used, err.value.budget) == (10**5 + 1, 10**5)
    assert peak < 1_000_000


def test_atoms_sweep_relations_in_order_then_tuples_in_product_order():
    sig = Signature.of(("S", 2), ("R", 1), ("T", 3))
    for elems in ([], [4], [1, 3], range(3)):
        assert list(atoms(sig, elems)) == [
            (name, tup) for name, arity in sig.relations for tup in product(elems, repeat=arity)
        ]


def test_full_sweeps_on_an_empty_universe_allocate_nothing():
    # product(range(0), repeat=arity) sets up arity slots before finding no
    # tuple: about 240 MB at this arity
    from structcode.efgames import GameState, partial_iso_check
    from structcode.search import is_embedding

    s = FinStructure.of(Signature.of(("R", 10**7)), 0)
    sweeps = (
        lambda: restrict(oracle_of_structure(s), 0) == s,
        lambda: is_embedding(s, s, Morphism(0, 0, ())),
        lambda: partial_iso_check(GameState(s, s, (), 0)),
    )
    for sweep in sweeps:
        tracemalloc.start()
        try:
            assert sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


# ---------------------------------------------------------------------------
# text formats


def test_parse_pins():
    g = parse_graph("graph 2\ne 0 1")
    assert g == DiGraph.of(2, [(0, 1)])
    s = parse_structure("sig R/2\nsize 2\nfact R 0 1")
    assert s == FinStructure.of(Signature.of(("R", 2)), 2, [("R", (0, 1))])


def test_parse_arity_mismatch():
    with pytest.raises(ParseError) as err:
        parse_structure("sig R/2\nsize 2\nfact R 0")
    assert err.value.line == 3


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_graph("graph 2\ne 0 two")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_structure("sig R/2\nsize 2\nfact R 0 9")
    with pytest.raises(ParseError):
        parse_structure("")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\ngraph 2  # inline\ne 0 1\n"
    assert parse_graph(text) == DiGraph.of(2, [(0, 1)])


def test_round_trip_random_corpora():
    rng = random.Random(11)
    for _ in range(50):
        s = corpus.random_structure(rng, max_size=4)
        assert parse_structure(serialize_structure(s)) == s
        g = corpus.random_graph(rng, max_size=6)
        assert parse_graph(serialize_graph(g)) == g


def test_samplers_return_the_kind_they_were_given():
    # one body per sampler: a graph comes back a graph with its allow_loops,
    # a structure a structure with its sig; the graph names are aliases
    from structcode.search import is_embedding, is_isomorphism

    rng = random.Random(17)
    loops = DiGraph.of(3, [(0, 0), (0, 1), (2, 1)], allow_loops=True)
    for _ in range(20):
        for s in (corpus.random_structure(rng, max_size=4), corpus.random_graph(rng), loops):
            copy, iso = corpus.random_permuted_copy(rng, s)
            sub, h = corpus.random_induced_substructure(rng, s)
            for got in (copy, sub):
                assert type(got) is type(s) and got.sig == s.sig
                assert getattr(got, "allow_loops", None) == getattr(s, "allow_loops", None)
            assert is_isomorphism(s, copy, iso) and is_embedding(sub, s, h)
    assert corpus.random_permuted_graph is corpus.random_permuted_copy
    assert corpus.random_induced_subgraph is corpus.random_induced_substructure


def test_load_any_sniffs_format():
    assert isinstance(load_any("graph 1\n"), DiGraph)
    assert isinstance(load_any("sig R/1\nsize 0\n"), FinStructure)


# ---------------------------------------------------------------------------
# cycles and components


def test_scc_on_cycle_plus_tail():
    g = DiGraph.of(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    comps = {tuple(c) for c in strongly_connected_components(g)}
    assert (0, 1, 2) in comps


def test_simple_cycles_enumeration():
    g = DiGraph.of(4, [(0, 1), (1, 2), (2, 0), (1, 0), (2, 3)])
    cycles = simple_cycles(g)
    assert (0, 1) in cycles and (0, 1, 2) in cycles
    assert len(cycles) == 2


def test_simple_cycles_none_in_dag():
    g = DiGraph.of(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert simple_cycles(g) == []


def test_simple_cycles_long_cycle_does_not_recurse():
    g = DiGraph.of(3000, [(i, (i + 1) % 3000) for i in range(3000)])
    assert simple_cycles(g) == [tuple(range(3000))]


def _random_digraph(rng, kind):
    """A seeded digraph of 0-12 vertices: a DAG, blocks of cycles joined by
    forward edges, or a dense random digraph with self-loops allowed."""
    n = rng.randint(0, 12)
    if kind == "dag":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        return DiGraph.of(n, edges)
    if kind == "blocks":
        order = list(range(n))
        rng.shuffle(order)
        edges, start = [], 0
        while start < n:
            block = order[start:start + rng.randint(1, 4)]
            if len(block) > 1:
                edges += [(block[i], block[(i + 1) % len(block)]) for i in range(len(block))]
            start += len(block)
        edges += [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.15]
        return DiGraph.of(n, edges)
    edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.15]
    return DiGraph.of(n, edges, allow_loops=True)


@pytest.mark.parametrize("kind", ["dag", "blocks", "loops"])
def test_cyclic_components_match_tarjan(kind):
    rng = random.Random(f"cyclic-{kind}")
    for _ in range(200):
        g = _random_digraph(rng, kind)
        got = _cyclic_components(g.size, _successors(g.size, g.edges))
        want = {tuple(c) for c in strongly_connected_components(g) if len(c) > 1}
        assert {tuple(c) for c in got} == want
        assert [c[0] for c in got] == sorted(c[0] for c in got)
        if kind == "dag":
            assert got == []


def test_peel_leaves_only_the_cycle_vertices_of_a_coding(monkeypatch):
    tarjan = core._components
    roots_seen = []

    def components(roots, out):
        roots_seen.append(list(roots))
        return tarjan(roots_seen[-1], out)

    monkeypatch.setattr(core, "_components", components)
    rng = random.Random(12)
    for _ in range(30):
        enc = coding.encode(corpus.random_structure(rng, max_size=4))
        roots_seen.clear()
        comps = _cyclic_components(enc.graph.size, _successors(enc.graph.size, enc.graph.edges))
        cycle_vertices = sorted(v for v, role in enc.provenance if role[0] == "cycle")
        assert roots_seen == [cycle_vertices]
        assert sorted(len(c) for c in comps) == [3, 5, 7]


def test_simple_cycles_lists_a_self_loop_once():
    g = DiGraph.of(2, [(0, 0), (0, 1), (1, 0)], allow_loops=True)
    assert simple_cycles(g) == [(0,), (0, 1)]


@pytest.mark.parametrize("kind", ["dag", "blocks", "loops"])
def test_simple_cycles_match_networkx(kind):
    nx = pytest.importorskip("networkx")
    rng = random.Random(f"networkx-{kind}")
    for _ in range(100):
        g = _random_digraph(rng, kind)
        ng = nx.DiGraph()
        ng.add_nodes_from(range(g.size))
        ng.add_edges_from(g.edges)
        want = []
        for cycle in nx.simple_cycles(ng):
            least = cycle.index(min(cycle))
            want.append(tuple(cycle[least:] + cycle[:least]))
        assert simple_cycles(g) == sorted(want)


def test_structure_of_graph():
    g = DiGraph.of(2, [(0, 1)])
    s = structure_of_graph(g)
    assert s.holds("E", (0, 1)) and not s.holds("E", (1, 0))


def test_digraph_is_a_structure_over_e():
    # sig is a class attribute, not a field: construction, ==, hash and repr
    # are those of (size, edges, allow_loops)
    assert [f.name for f in dataclasses.fields(DiGraph)] == ["size", "edges", "allow_loops"]
    g = DiGraph.of(3, [(0, 1), (2, 2)], allow_loops=True)
    fresh = DiGraph.of(3, [(2, 2), (0, 1)], allow_loops=True)
    assert g.sig == GRAPH_SIG and "sig" not in repr(g)
    assert g.facts == {("E", (0, 1)), ("E", (2, 2))} and g.facts is g.facts
    assert g == fresh and hash(g) == hash(fresh)  # g's facts are built, fresh's not
    assert g.holds("E", [0, 1]) and not g.holds("E", [1, 0])
    assert g.holds("E", (2, 2))  # a loop under allow_loops is a fact
    assert not g.holds("R", (0, 1))  # an unknown relation holds nowhere
    assert structure_of_graph(g) == FinStructure(GRAPH_SIG, 3, g.facts)
