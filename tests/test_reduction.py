import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from structcode import corpus, reduction, shelah
from structcode.core import (
    AtomOracle,
    DiGraph,
    FinStructure,
    Morphism,
    Signature,
    all_strings,
    cantor_unpair,
    oracle_of_structure,
    restrict,
)
from structcode.reduction import (
    S0,
    S1,
    UNKNOWN,
    ContradictoryEvidence,
    DecodeIncomplete,
    block_code,
    block_type,
    build_f_graph,
    classify_block,
    default_scan_cap,
    decode_f,
    decompose,
    graph_edge_oracle,
    induced_embedding,
    reduction_rel_bound,
    reduction_relation,
    vertex_code,
)

EDGE = DiGraph.of(2, [(0, 1)])


# ---------------------------------------------------------------------------
# point coding partition


@given(st.integers(0, 100_000))
def test_every_natural_decomposes_uniquely(code):
    d = decompose(code)
    if d[0] == "vertex":
        assert vertex_code(d[1]) == code
    else:
        assert block_code(d[1], d[2], d[3]) == code


@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60))
def test_block_codes_land_in_their_block(m, n, k):
    assert decompose(block_code(m, n, k)) == ("block", m, n, k)


def test_relation_enumeration():
    assert reduction_relation(0) == ("W", 1)
    assert reduction_relation(1) == ("N", 2)
    assert reduction_relation(2) == ("O", 3)
    assert reduction_relation(3) == ("R_", 1)
    assert reduction_relation(4) == ("gF_", 2)
    # bound covers all strings of length <= 1: eps, 0, 1 -> 3 + 2*3
    assert reduction_rel_bound(1) == 9


# ---------------------------------------------------------------------------
# the reduction oracle


def test_w_holds_exactly_on_vertex_part():
    oracle = build_f_graph(EDGE)
    for code in range(200):
        assert oracle.holds("W", (code,)) == (decompose(code)[0] == "vertex")


def test_block_type_pins():
    eo = graph_edge_oracle(EDGE)
    assert block_type(eo, 0, 1) == S0
    assert block_type(eo, 1, 0) == S1
    assert block_type(eo, 0, 0) == S1


def test_edgeless_graph_blocks_all_tail_one():
    oracle = build_f_graph(DiGraph.of(2))
    for m, n in ((0, 0), (0, 1), (1, 0)):
        elem0 = block_code(m, n, 0)
        assert oracle.holds("R_1", (elem0,))
        assert not oracle.holds("R_0", (elem0,))


def test_blocks_carry_tag_structure_facts():
    # block (0,1) of the single-edge graph is the tail-0 copy: its k-th
    # element answers exactly like the k-th enumerated tail-0 string
    oracle = build_f_graph(EDGE)
    for k in range(8):
        code = block_code(0, 1, k)
        elem = shelah.nth_elem(0, k)
        for nu in ("", "0", "1", "00", "10"):
            assert oracle.holds(f"R_{nu}", (code,)) == shelah.holds_R(nu, elem)
    # graphs of the maps stay inside the block
    x, y = block_code(0, 1, 0), block_code(0, 1, 1)
    assert oracle.holds("gF_1", (x, y))
    assert not oracle.holds("gF_1", (x, block_code(1, 0, 1)))


def test_n_relation_ties_vertices_to_their_blocks():
    oracle = build_f_graph(EDGE)
    assert oracle.holds("N", (vertex_code(0), block_code(0, 5, 3)))
    assert not oracle.holds("N", (vertex_code(1), block_code(0, 5, 3)))
    assert not oracle.holds("N", (block_code(0, 0, 0), block_code(0, 0, 1)))


def test_o_relation_pins_block_to_vertex_pair():
    oracle = build_f_graph(EDGE)
    a0, a1 = vertex_code(0), vertex_code(1)
    j = block_code(0, 1, 4)
    assert oracle.holds("O", (a0, a1, j))
    assert not oracle.holds("O", (a1, a0, j))


# ---------------------------------------------------------------------------
# induced embeddings


def test_identity_induces_identity():
    point_map = induced_embedding(EDGE, EDGE, Morphism.identity(2))
    assert all(point_map(c) == c for c in range(500))


def test_k1_into_edge():
    k1 = DiGraph.of(1)
    point_map = induced_embedding(k1, EDGE, Morphism.from_mapping(1, 2, {0: 0}))
    assert point_map(vertex_code(0)) == vertex_code(0)
    assert point_map(block_code(0, 0, 7)) == block_code(0, 0, 7)
    # the co-finite extension shifts off-graph vertices past the target
    assert point_map(vertex_code(1)) == vertex_code(2)


def test_non_embedding_rejected():
    squish = Morphism.from_mapping(2, 2, {0: 1, 1: 0})
    with pytest.raises(ValueError):
        induced_embedding(EDGE, DiGraph.of(2), squish)  # edge not preserved
    partial = Morphism.from_mapping(2, 2, {0: 0})
    with pytest.raises(ValueError):
        induced_embedding(EDGE, EDGE, partial)  # not total


def test_induced_embedding_transfers_facts():
    rng = random.Random(7)
    rel_bound = reduction_rel_bound(2)
    for _ in range(10):
        g1, g2, h = corpus.random_graph_embedding(rng, max_size=4)
        point_map = induced_embedding(g1, g2, h)
        src = restrict(build_f_graph(g1), 20, rel_bound)
        target = build_f_graph(g2)
        for name, arity in src.sig.relations:
            for tup in product(range(src.size), repeat=arity):
                mapped = tuple(point_map(x) for x in tup)
                assert src.holds(name, tup) == target.holds(name, mapped)


# ---------------------------------------------------------------------------
# block classification


def test_classify_honest_blocks():
    oracle = build_f_graph(EDGE)
    a0, a1 = vertex_code(0), vertex_code(1)
    assert classify_block(oracle, a0, a1, 3, 50) == S0
    assert classify_block(oracle, a1, a0, 3, 50) == S1
    assert classify_block(oracle, a0, a1, 1, 50) == S0


def test_classify_budget_zero_unknown():
    oracle = build_f_graph(EDGE)
    assert classify_block(oracle, vertex_code(0), vertex_code(1), 3, 0) == UNKNOWN


def test_classify_requires_vertices():
    oracle = build_f_graph(EDGE)
    with pytest.raises(ValueError):
        classify_block(oracle, block_code(0, 0, 0), vertex_code(0), 3, 50)


def _lying_oracle() -> AtomOracle:
    """Claims both generator traces on one block element."""
    honest = build_f_graph(EDGE)

    def holds(name, tup):
        if name.startswith("R_"):
            return True  # every prefix relation everywhere
        return honest.holds(name, tup)

    return AtomOracle(
        relation=honest.relation, element=honest.element, holds=holds
    )


def test_contradictory_evidence_signalled():
    oracle = _lying_oracle()
    with pytest.raises(ContradictoryEvidence):
        classify_block(oracle, vertex_code(0), vertex_code(1), 3, 50)


# ---------------------------------------------------------------------------
# decoding


def test_round_trip_random_graphs():
    rng = random.Random(13)
    for _ in range(60):
        g = corpus.random_graph(rng, max_size=6)
        assert decode_f(build_f_graph(g), g.size, nu_bound=3, budget=50) == g


def test_decode_empty():
    assert decode_f(build_f_graph(DiGraph.of(0)), 0) == DiGraph.of(0)


def test_edgeless_round_trip():
    g = DiGraph.of(4)
    assert decode_f(build_f_graph(g), 4) == g


def test_decode_budget_zero_reports_incomplete():
    with pytest.raises(DecodeIncomplete) as err:
        decode_f(build_f_graph(EDGE), 2, budget=0)
    assert len(err.value.pairs) == 4
    assert err.value.partial == DiGraph.of(2)


def test_nu_bound_zero_decides_no_block():
    # at bound 0 both generator traces are {""}: every trace is indecisive,
    # on the listing path, the decider path and in classify_block alike
    oracle = build_f_graph(EDGE)
    for o in (oracle, dataclasses.replace(oracle, facts=None)):
        with pytest.raises(DecodeIncomplete) as err:
            decode_f(o, 2, nu_bound=0)
        assert err.value.pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert err.value.partial == DiGraph.of(2)
    assert classify_block(oracle, vertex_code(0), vertex_code(1), 0, 50) == UNKNOWN


def test_decode_against_finite_restriction_oracle():
    # decoding works off a materialized restriction presented as an oracle
    from structcode.core import oracle_of_structure

    g = DiGraph.of(3, [(0, 1), (2, 0)])
    cap = block_code(2, 2, 0) + 1
    s = restrict(build_f_graph(g), cap, reduction_rel_bound(2))
    assert decode_f(oracle_of_structure(s), 3, nu_bound=2, budget=50) == g


def _counting(oracle):
    """oracle with its holds wrapped; the list's one entry counts the queries."""
    asked = [0]

    def holds(name, tup):
        asked[0] += 1
        return oracle.holds(name, tup)

    return dataclasses.replace(oracle, holds=holds), asked


def test_decider_decode_queries_do_not_grow_with_nu_bound():
    # The 12-point restriction at index length 1 holds no R_ fact of a
    # longer index, so above bound 1 no point has a full-length generator
    # string, and those two queries judge it. Asking every string up to the
    # bound took 137 queries at bound 3 and 917,529 at bound 16.
    s = restrict(build_f_graph(EDGE), 12, reduction_rel_bound(1))
    queries, pairs = {}, {}
    for nu_bound in (3, 16):
        oracle, asked = _counting(oracle_of_structure(s))
        with pytest.raises(DecodeIncomplete) as err:
            decode_f(oracle, 2, nu_bound=nu_bound)
        queries[nu_bound], pairs[nu_bound] = asked[0], err.value.pairs
    assert queries[16] == queries[3] < 100
    assert pairs[16] == pairs[3] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _judged(trace, nu_bound):
    try:
        return reduction._judge_trace(trace, nu_bound, 0)
    except ContradictoryEvidence:
        return ContradictoryEvidence


@pytest.mark.parametrize("nu_bound", range(4))
def test_partial_trace_judges_as_the_whole_trace(nu_bound):
    # every possible trace at the bound, presented by an oracle that holds
    # R_nu exactly for the strings nu in it
    strings = list(all_strings(nu_bound))
    for bits in product((False, True), repeat=len(strings)):
        whole = {nu for nu, bit in zip(strings, bits) if bit}
        asked = []

        def holds(name, tup, whole=whole, asked=asked):
            nu = shelah.split_rel_name(name)[1]
            asked.append(nu)
            return nu in whole

        oracle = AtomOracle(relation=reduction_relation, element=lambda i: i, holds=holds)
        partial = reduction._trace(oracle, 0, nu_bound)
        assert _judged(partial, nu_bound) == _judged(whole, nu_bound)
        assert len(asked) == len(set(asked)) <= len(strings)


# ---------------------------------------------------------------------------
# the fact lister against the decider sweep


@pytest.mark.parametrize("points", [0, 1, 7, 30, 45])
def test_listed_facts_match_decider_sweep(points):
    # restrict takes the reduction's facts from its lister; with the lister
    # removed it asks holds on every tuple, the reference
    rng = random.Random(7)  # draws a 2-vertex graph and a 6-vertex one with 25 edges
    graphs = [DiGraph.of(0), DiGraph.of(2, [(0, 1), (1, 0)])]
    graphs += [corpus.random_graph(rng, max_size=6) for _ in range(2)]
    for g in graphs:
        oracle = build_f_graph(g)
        assert oracle.facts is not None
        brute = dataclasses.replace(oracle, facts=None)
        for nu_bound in range(4):
            rel_bound = reduction_rel_bound(nu_bound)
            assert restrict(oracle, points, rel_bound) == restrict(brute, points, rel_bound)


def _sweeping_lister(holds):
    """A fact lister that asks holds on every tuple of the handles."""

    def facts(handles, rels):
        for name, arity in rels:
            for tup in product(range(len(handles)), repeat=arity):
                if holds(name, tuple(handles[i] for i in tup)):
                    yield name, tup

    return facts


@pytest.mark.parametrize("seed", range(4))
def test_listed_facts_match_decider_on_arbitrary_handles(seed):
    # restrict hands the lister the contiguous codes 0..n-1; any distinct
    # handles are allowed: whole blocks, vertex markers and stray codes,
    # in any order. Large codes pin the unpairing at its boundaries: the
    # triangular number w(w+1)/2 is block w's generator and the code below
    # it vertex w - 1's marker.
    rng = random.Random(seed)
    g = corpus.random_graph(rng, max_size=4)
    handles = {vertex_code(rng.randrange(6)) for _ in range(4)}
    for _ in range(2):
        m, n = rng.randrange(5), rng.randrange(5)
        handles.update(block_code(m, n, k) for k in range(8))
    handles.update(rng.randrange(3000) for _ in range(12))
    for w in (2**40, rng.randrange(2, 2**40), rng.randrange(2, 2**20)):
        handles.update((w * (w + 1) // 2, w * (w + 1) // 2 - 1))
    handles.update(rng.randrange(10**12) for _ in range(4))
    m, n = cantor_unpair(rng.randrange(10**12))
    big = [vertex_code(m), vertex_code(n), block_code(m, n, 0), block_code(m, n, 5)]
    handles.update(big)
    handles = sorted(handles)
    rng.shuffle(handles)
    oracle = build_f_graph(g)
    rels = list(oracle.relations(reduction_rel_bound(2)))
    listed = set(oracle.facts(handles, rels))
    assert listed == set(_sweeping_lister(oracle.holds)(handles, rels))
    assert {name for name, _ in listed} >= {"W", "R_", "gF_0"}
    assert ("O", tuple(handles.index(code) for code in big[:3])) in listed


def test_golden_decider_decompose_count(monkeypatch):
    # the decider decomposes only the arguments it needs: N and O compare
    # the markers by their codes, and tag relations stop at a first
    # argument that is not a block
    calls = []

    def counting(code):
        calls.append(code)
        return decompose(code)

    monkeypatch.setattr(reduction, "decompose", counting)
    brute = dataclasses.replace(build_f_graph(DiGraph.of(3, [(0, 1), (1, 2)])), facts=None)
    restrict(brute, 12, reduction_rel_bound(1))
    assert len(calls) == 2640


def _decode_outcome(oracle, k, **kwargs):
    try:
        return decode_f(oracle, k, **kwargs)
    except DecodeIncomplete as err:
        return "incomplete", err.pairs, err.partial
    except ContradictoryEvidence as err:
        return "contradiction", str(err)


def _no_holds(name, tup):
    raise AssertionError(f"holds asked {name}{tup} on the listing path")


def test_listed_decode_matches_decider_loop():
    # decode_f reads the reduction's W, O and R facts off its lister; with
    # the lister removed it runs the decider loop, the reference
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        size = rng.randint(0, 6)
        g = DiGraph.of(size, [(u, v) for u in range(size) for v in range(size)
                              if u != v and rng.random() < 0.4])
        k = rng.randint(0, size + 1)
        kwargs = dict(
            nu_bound=rng.randint(1, 3),
            budget=rng.choice([0, 1, 2, 50]),
            scan_cap=rng.choice([None, rng.randint(0, default_scan_cap(k) + 20)]),
        )
        oracle = dataclasses.replace(build_f_graph(g), holds=_no_holds)
        listed = _decode_outcome(oracle, k, **kwargs)
        assert listed == _decode_outcome(
            dataclasses.replace(build_f_graph(g), facts=None), k, **kwargs
        )
        outcomes.add(listed[0] if isinstance(listed, tuple) else "graph")
    assert outcomes == {"graph", "incomplete"}


def test_listed_decode_signals_contradiction():
    oracle = _lying_oracle()
    listing = dataclasses.replace(oracle, facts=_sweeping_lister(oracle.holds))
    with pytest.raises(ContradictoryEvidence, match="element 1 carries both"):
        decode_f(listing, 2, nu_bound=3)
    assert _decode_outcome(listing, 2) == _decode_outcome(oracle, 2)


def _decode_input(size, markers, o_facts, traces) -> FinStructure:
    """A decode input at nu_bound 1: W on the markers, O(x, y, j) for each
    (x, y) in o_facts[j], and R_nu(j) for each nu in traces[j]."""
    sig = Signature.of(("W", 1), ("O", 3), ("R_", 1), ("R_0", 1), ("R_1", 1))
    facts = [("W", (x,)) for x in markers]
    facts += [("O", (x, y, j)) for j, pairs in o_facts.items() for x, y in pairs]
    facts += [(f"R_{nu}", (j,)) for j, trace in traces.items() for nu in trace]
    return FinStructure.of(sig, size, facts)


def _pair_rule_structure() -> FinStructure:
    """A non-conforming decode input on 9 points, traces at nu_bound 1.

    W points 1, 2 and 4 (markers a0, a1, a2). Point 0 has O with three
    marker pairs, point 3 an indecisive trace, W point 4 an O fact and an
    S1 trace of its own, and point 8 both generator traces under the pair
    (a2, a2).
    """
    o_facts = {0: [(1, 2), (2, 1), (1, 1)], 3: [(1, 2), (2, 1)], 4: [(1, 2)],
               5: [(1, 2), (2, 1)], 6: [(2, 1), (2, 2)], 7: [(2, 2)], 8: [(4, 4)]}
    traces = {0: "0", 3: "", 4: "1", 5: "0", 6: "1", 7: "1", 8: "01"}
    return _decode_input(9, (1, 2, 4), o_facts, {j: ["", *bits] for j, bits in traces.items()})


# traces at nu_bound 1: S0, S1, four indecisive ones and two contradictory
_TRACES = [("", "0"), ("", "1")] * 4 + [(), ("",), ("0",), ("1",), ("0", "1"), ("", "0", "1")]


def _random_decode_input(rng) -> FinStructure:
    """A random non-conforming decode input on 8-14 points, traces at
    nu_bound 1: every point, W points too, may have O facts with several
    pairs, mostly of W points, and any subset of {"", "0", "1"} as trace."""
    size = rng.randint(8, 14)
    markers = rng.sample(range(size), rng.randint(2, 4))
    ends = markers * 3 + [rng.randrange(size)]
    o_facts = {j: [(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randint(0, 4))]
               for j in range(size)}
    return _decode_input(size, markers, o_facts, {j: rng.choice(_TRACES) for j in range(size)})


@pytest.mark.parametrize("k, budget, expected", [
    # each point goes to its least undecided marker pair; W point 4 is skipped
    (2, 2, DiGraph.of(2, [(0, 0), (0, 1)], allow_loops=True)),
    # (a0, a1) spends its one inspection on point 3, so point 5 goes to (a1, a0)
    (2, 1, ("incomplete", [(0, 1)], DiGraph.of(2, [(0, 0), (1, 0)], allow_loops=True))),
    # point 8's O fact names a marker only once a2 is one
    (3, 2, ("contradiction", "element 8 carries both generator traces")),
    (4, 2, ("incomplete", [(m, n) for m in range(4) for n in range(4)], DiGraph.of(0))),
])
def test_decode_pair_assignment_rule(k, budget, expected):
    oracle = oracle_of_structure(_pair_rule_structure())
    listing = dataclasses.replace(oracle, facts=_sweeping_lister(oracle.holds))
    assert _decode_outcome(oracle, k, nu_bound=1, budget=budget) == expected
    assert _decode_outcome(listing, k, nu_bound=1, budget=budget) == expected


def test_pair_walk_matches_decider_loop_on_random_inputs():
    # the listed decode walks marker pairs on a heap; the decider loop,
    # the reference, scans point by point
    rng = random.Random(11)
    outcomes = set()
    for _ in range(400):
        s = _random_decode_input(rng)
        oracle = oracle_of_structure(s)
        listing = dataclasses.replace(oracle, facts=_sweeping_lister(oracle.holds))
        k = rng.randint(1, 3)
        kwargs = dict(nu_bound=1, budget=rng.randint(0, 3),
                      scan_cap=rng.randint(s.size // 2, s.size + 2))
        expected = _decode_outcome(oracle, k, **kwargs)
        assert _decode_outcome(listing, k, **kwargs) == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else "graph")
    assert outcomes == {"graph", "incomplete", "contradiction"}


def _shuffled(lister, rng):
    """The lister with each listing's facts in an order drawn from rng."""

    def facts(handles, rels):
        listed = list(lister(handles, rels))
        rng.shuffle(listed)
        return iter(listed)

    return facts


def test_listed_decode_does_not_depend_on_lister_order():
    # the lister contract promises no order: with every listing shuffled,
    # the listed decode still equals the decider loop, contradictions and
    # incomplete decodes included
    rng = random.Random(13)
    outcomes = set()
    for _ in range(60):
        g = corpus.random_graph(rng, max_size=5)
        k = rng.randint(0, g.size + 1)
        kwargs = dict(nu_bound=rng.randint(1, 3), budget=rng.choice([1, 2, 50]))
        oracle = build_f_graph(g)
        listing = dataclasses.replace(oracle, holds=_no_holds, facts=_shuffled(oracle.facts, rng))
        expected = _decode_outcome(dataclasses.replace(oracle, facts=None), k, **kwargs)
        assert _decode_outcome(listing, k, **kwargs) == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else "graph")
    for _ in range(300):
        s = _random_decode_input(rng)
        oracle = oracle_of_structure(s)
        listing = dataclasses.replace(oracle, facts=_shuffled(_sweeping_lister(oracle.holds), rng))
        k = rng.randint(1, 3)
        kwargs = dict(nu_bound=1, budget=rng.randint(1, 3),
                      scan_cap=rng.randint(s.size // 2, s.size + 2))
        expected = _decode_outcome(oracle, k, **kwargs)
        assert _decode_outcome(listing, k, **kwargs) == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else "graph")
    assert outcomes == {"graph", "incomplete", "contradiction"}


def test_listed_decode_lists_traces_once_per_batch(monkeypatch):
    # a conforming 6-vertex graph: one listing of W and O, then one of the
    # traces of the 36 marker pairs' first points, each of them decisive
    g = DiGraph.of(6, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 5), (4, 0)], allow_loops=True)
    oracle = build_f_graph(g)
    listings, judged = [], []

    def facts(handles, rels):
        listings.append((len(handles), [name for name, _ in rels]))
        return oracle.facts(handles, rels)

    judge = reduction._judge_trace

    def counting(*args, **kwargs):
        judged.append(args[2])
        return judge(*args, **kwargs)

    monkeypatch.setattr(reduction, "_judge_trace", counting)
    listing = dataclasses.replace(oracle, holds=_no_holds, facts=facts)
    assert decode_f(listing, 6, nu_bound=3) == g
    assert listings == [
        (default_scan_cap(6), ["W", "O"]),
        (36, [shelah.rel_name("R", nu) for nu in all_strings(3)]),
    ]
    assert sorted(judged) == sorted(block_code(m, n, 0) for m in range(6) for n in range(6))


def _raises(*args):
    raise AssertionError("the tag-fact lister called a tag decider")


def test_lister_shares_no_tag_code_with_the_decider(monkeypatch):
    # with the deciders' tag functions broken, the listing restricts still
    # equal the brute-force ones computed by those functions beforehand
    g = DiGraph.of(3, [(0, 1), (1, 2), (2, 2)], allow_loops=True)
    rel_bound = reduction_rel_bound(3)
    brute = restrict(dataclasses.replace(build_f_graph(g), facts=None), 30, rel_bound)
    elems = shelah.enumerate_elems(0, 16)
    decided = restrict(shelah.shelah_oracle(0), 16, 2 * ((1 << 4) - 1))
    for name in ("holds_R", "eval_F", "holds_graphF"):
        monkeypatch.setattr(shelah, name, _raises)
    assert restrict(build_f_graph(g), 30, rel_bound) == brute
    assert shelah.reduct_restriction(elems, 3) == decided
    with pytest.raises(AssertionError, match="decider"):
        restrict(dataclasses.replace(build_f_graph(g), facts=None), 30, rel_bound)


class _CountedElem:
    """Stands in for a block element and counts each read of its bits."""

    def __init__(self, x):
        self.x = x
        self.reads = 0

    @property
    def prefix(self):
        self.reads += 1
        return self.x.prefix

    @property
    def tail(self):
        return self.x.tail

    def bit(self, i):
        self.reads += 1
        return self.x.bit(i)

    def bits(self, n):
        self.reads += 1
        return self.x.bits(n)

    def __hash__(self):
        return hash(self.x)

    def __eq__(self, other):
        return self.x == getattr(other, "x", other)


@pytest.mark.parametrize("nu_bound", [0, 1, 3])
def test_lister_reads_each_block_element_once(monkeypatch, nu_bound):
    # a lister that evaluated each (nu, element) pair would read every
    # element once per tag relation or once per bit
    g = DiGraph.of(3, [(0, 1), (1, 2), (2, 2)], allow_loops=True)
    rel_bound = reduction_rel_bound(nu_bound)
    expected = restrict(build_f_graph(g), 30, rel_bound)
    block_elem = reduction._block_elem
    made = []

    def counted(edge_oracle, m, n, k):
        made.append(_CountedElem(block_elem(edge_oracle, m, n, k)))
        return made[-1]

    monkeypatch.setattr(reduction, "_block_elem", counted)
    assert restrict(build_f_graph(g), 30, rel_bound) == expected
    blocks = sum(1 for code in range(30) if decompose(code)[0] == "block")
    assert blocks > 10
    assert [x.reads for x in made] == [1] * blocks
