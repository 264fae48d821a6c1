import hashlib
import itertools
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from structcode import corpus
from structcode.coding import (
    MalformedCoding,
    canonical_iso,
    chain_offsets,
    coded_size,
    decode,
    decode_full,
    encode,
    encode_morphism,
    interior_lengths,
    is_graph_embedding,
    lambda_graph,
    render_provenance,
    render_role,
)
from structcode.core import (
    BudgetExhausted,
    DiGraph,
    FinStructure,
    Morphism,
    Signature,
    serialize_graph,
    simple_cycles,
)
from structcode.search import find_isomorphism

SIG_R1 = Signature.of(("R", 1))
SIG_R3 = Signature.of(("R", 3))


# ---------------------------------------------------------------------------
# encode shape pins


def test_empty_structure_is_hubs_plus_cycles():
    enc = encode(FinStructure.of(Signature.of(("R", 2)), 0))
    assert enc.graph.size == 18
    assert len(enc.graph.edges) == 18  # 15 cycle edges + 3 hub spokes
    roles = enc.roles()
    assert roles[0] == ("A",) and roles[1] == ("B",) and roles[2] == ("C",)
    assert sum(1 for r in roles.values() if r[0] == "cycle") == 15


# sha256 of serialize_graph(enc.graph) + render_provenance(enc): pins the
# vertex numbering and the provenance, not just the graph's shape
GOLDEN_ENCODINGS = {
    "empty": (FinStructure.of(Signature.of(("R", 2)), 0),
              "63f5c84003bcabf249191d63c2ae1a31fee50ecd5b76101b90d13ba0fdd99f82"),
    "unary": (FinStructure.of(SIG_R1, 2, [("R", (1,))]),
              "fedaea12e708e68ad82192cde2ebfb1d3fb8a1a0f7032da6e20224da42a62eca"),
    "ternary": (FinStructure.of(SIG_R3, 2, [("R", (0, 1, 0)), ("R", (1, 1, 1))]),
                "0dba4055a463ff4afe4a23549b3acb8af29238ac10f8b6ea95bded728f44735d"),
    "repeated": (FinStructure.of(Signature.of(("E", 2), ("F", 2)), 2,
                                 [("E", (0, 1)), ("F", (1, 0)), ("F", (1, 1))]),
                 "9cd632c196cbea71192e8d09c589a7c4e41a043d9263581b3f053234051acb44"),
    "mixed": (FinStructure.of(Signature.of(("P", 1), ("E", 2), ("T", 3)), 3,
                              [("P", (2,)), ("E", (0, 2)), ("E", (2, 0)), ("T", (1, 0, 2))]),
              "6198f7b3ec0de7dde2b45131dac156beb5758a6296ee32aa8a43cf3b631d0798"),
    "mixed_repeated": (FinStructure.of(Signature.of(("P", 1), ("Q", 1), ("E", 2)), 3,
                                       [("P", (0,)), ("Q", (0,)), ("E", (1, 2))]),
                       "9fd868c23253be959d1337b4ff5b7931d2dfc041efea5d34915ef20e7cd555a2"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ENCODINGS))
def test_golden_encoding(name):
    s, digest = GOLDEN_ENCODINGS[name]
    enc = encode(s)
    text = serialize_graph(enc.graph) + render_provenance(enc)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_unary_fact_gadget_shape():
    s = FinStructure.of(SIG_R1, 1, [("R", (0,))])
    enc = encode(s)
    # hubs + cycles + element + 1 interior + junction
    assert enc.graph.size == 21
    roles = enc.roles()
    [elem] = [v for v, r in roles.items() if r == ("elem", 0)]
    [chain] = [v for v, r in roles.items() if r[0] == "chain"]
    [junction] = [v for v, r in roles.items() if r[0] == "junction"]
    assert enc.graph.has_edge(0, elem)
    assert enc.graph.has_edge(elem, chain)
    assert enc.graph.has_edge(chain, junction)
    assert enc.graph.has_edge(junction, 1)  # fact holds: junction -> b


def test_negative_fact_points_at_c():
    s = FinStructure.of(SIG_R1, 1)
    enc = encode(s)
    [junction] = [v for v, r in enc.roles().items() if r[0] == "junction"]
    assert enc.graph.has_edge(junction, 2)


def test_ternary_gadget_chain_lengths():
    # arity 3: per tuple, three chains with 3, 4, 5 interior vertices
    # plus the shared junction
    s = FinStructure.of(SIG_R3, 3, [("R", (0, 1, 2))])
    enc = encode(s)
    roles = enc.roles()
    tup = (0, 1, 2)
    for k, interior in ((1, 3), (2, 4), (3, 5)):
        nodes = [v for v, r in roles.items() if r[:4] == ("chain", "R", tup, k)]
        assert len(nodes) == interior
    positives = [v for v, r in roles.items() if r == ("junction", "R", tup)]
    assert len(positives) == 1 and enc.graph.has_edge(positives[0], 1)
    negatives = [v for v, r in roles.items() if r == ("junction", "R", (2, 1, 0))]
    assert len(negatives) == 1 and enc.graph.has_edge(negatives[0], 2)


def test_every_element_vertex_hangs_off_a():
    rng = random.Random(2)
    s = corpus.random_structure(rng, max_size=4)
    enc = encode(s)
    for v, role in enc.provenance:
        if role[0] == "elem":
            assert enc.graph.has_edge(0, v)


def test_cycle_uniqueness_by_exhaustive_enumeration():
    rng = random.Random(3)
    for _ in range(15):
        s = corpus.random_structure(rng, max_size=3)
        cycles = simple_cycles(encode(s).graph)
        assert sorted(len(c) for c in cycles) == [3, 5, 7]


# ---------------------------------------------------------------------------
# decode


def test_round_trip_exact_on_canonical_encoding():
    rng = random.Random(5)
    for _ in range(25):
        s = corpus.random_structure(rng, max_size=4)
        assert decode(encode(s).graph, s.sig) == s


def test_round_trip_via_isomorphism_on_permuted_copies():
    rng = random.Random(7)
    for _ in range(15):
        s = corpus.random_structure(rng, max_size=3)
        g, _ = corpus.random_permuted_graph(rng, encode(s).graph)
        assert find_isomorphism(s, decode(g, s.sig)) is not None


def test_decode_without_signature_synthesizes_names():
    s = FinStructure.of(SIG_R3, 2, [("R", (0, 1, 1))])
    got = decode(encode(s).graph)
    assert got.sig.names() == ("R3",)
    assert got.holds("R3", (0, 1, 1))


def test_two_three_cycles_rejected():
    g = DiGraph.of(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(MalformedCoding):
        decode(g)


def test_extra_edge_rejected():
    s = FinStructure.of(SIG_R1, 1, [("R", (0,))])
    enc = encode(s)
    g = DiGraph.of(enc.graph.size, set(enc.graph.edges) | {(18, 2)})
    with pytest.raises(MalformedCoding):
        decode(g, s.sig)


def test_missing_gadget_rejected():
    s = FinStructure.of(SIG_R1, 2, [("R", (0,))])
    enc = encode(s)
    roles = enc.roles()
    [junction] = [v for v, r in roles.items() if r == ("junction", "R", (1,))]
    pruned = {e for e in enc.graph.edges if junction not in e}
    with pytest.raises(MalformedCoding):
        decode(DiGraph.of(enc.graph.size, pruned), s.sig)


def test_decode_checks_signature_coverage():
    s = FinStructure.of(SIG_R1, 1, [("R", (0,))])
    other = Signature.of(("R", 1), ("S", 2))
    with pytest.raises(MalformedCoding):
        decode(encode(s).graph, other)  # S gadgets are missing


def _mutated(rng, g):
    """g with 1-3 edges dropped, added or redirected."""
    edges = set(g.edges)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("drop", "add", "redirect"))
        if op == "add":
            edges.add(tuple(rng.sample(range(g.size), 2)))
        elif edges:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            if op == "redirect":
                edges.add((u, rng.choice([w for w in range(g.size) if w != u])))
    return DiGraph.of(g.size, edges)


def test_mutated_codings_are_rejected_or_decoded_exactly():
    rng = random.Random(21)
    decoded = 0
    for _ in range(150):
        s = corpus.random_structure(rng, max_size=3)
        g = _mutated(rng, encode(s).graph)
        for sig in (s.sig, None):
            try:
                res = decode_full(g, sig)
            except MalformedCoding:
                continue
            decoded += 1
            coded = encode(res.structure)
            vertex_of = coded.vertex_of()
            mapping = {v: vertex_of[role] for v, role in res.roles}
            assert sorted(mapping) == sorted(mapping.values()) == list(range(g.size))
            assert {(mapping[u], mapping[v]) for u, v in g.edges} == coded.graph.edges
            lam = lambda_graph(g, sig)
            assert lam.mapping() == mapping
            assert is_graph_embedding(g, coded.graph, lam)
    assert decoded > 0


def _golden_mutated(rng, g):
    """g with 0-3 edges dropped, added, redirected or reversed, or spokes added."""
    edges, size = set(g.edges), g.size
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        op = rng.choice(("drop", "add", "redirect", "reverse", "spoke"))
        if op == "spoke":
            edges.add((0, size))  # vertex 0 is hub a
            size += 1
        elif op == "add":
            edges.add(tuple(rng.sample(range(size), 2)))
        elif edges:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            if op == "redirect":
                edges.add((u, rng.choice([w for w in range(size) if w != u])))
            elif op == "reverse":
                edges.add((v, u))
    return DiGraph.of(size, edges)


def _mismatched(rng, sig):
    """A signature other than sig: renamed and reversed, grown, or shrunk."""
    op = rng.choice(("rename", "grow", "shrink"))
    if op == "rename":
        return Signature(tuple((name.lower(), arity) for name, arity in reversed(sig.relations)))
    if op == "grow" or len(sig.relations) == 1:
        return Signature(sig.relations + (("X", max(a for _, a in sig.relations) + 1),))
    return Signature(sig.relations[:-1])


GOLDEN_DECODE_SIGS = (None, Signature.of(("E", 2), ("F", 2)),
                      Signature.of(("P", 1), ("Q", 1), ("E", 2)))


def test_golden_decode_outcomes():
    # sha256 over every outcome, recorded with the decoder that checked each
    # local fault of the coded shape on its own: pins which graphs decode
    # and to what, for any rewrite of the decoder
    rng = random.Random(43)
    lines = []
    for _ in range(1000):
        sig = rng.choice(GOLDEN_DECODE_SIGS)
        s = corpus.random_structure(rng, max_size=3 if sig is None else 2, sig=sig)
        g = _golden_mutated(rng, encode(s).graph)
        if rng.random() < 0.5:
            g, _ = corpus.random_permuted_graph(rng, g)
        for decode_sig in (s.sig, None, _mismatched(rng, s.sig)):
            try:
                res = decode_full(g, decode_sig)
            except MalformedCoding:
                lines.append("rejected")
                continue
            t = res.structure
            lines.append(repr((t.sig.relations, t.size, sorted(t.facts), res.roles, res.elements)))
    assert 300 < len(lines) - lines.count("rejected") < 600
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d6aba57754940a7dead6b08dc3b2946ec9bb5b171b6bfa9301a71aa9c2e99635"


def _rewired(s, drop=(), add=(), remove=()):
    """encode(s).graph with edges between roles dropped and added, and the
    vertices of the roles in remove deleted (the rest renumbered in order)."""
    enc = encode(s)
    at = enc.vertex_of()
    gone = {at[role] for role in remove}
    kept = [v for v in range(enc.graph.size) if v not in gone]
    new = {v: i for i, v in enumerate(kept)}
    edges = set(enc.graph.edges) - {(at[u], at[v]) for u, v in drop}
    edges |= {(at[u], at[v]) for u, v in add}
    return DiGraph.of(len(kept), {(new[u], new[v]) for u, v in edges
                                  if u in new and v in new})


TWO_UNARY = FinStructure.of(SIG_R1, 2, [("R", (0,))])
A, B, C = ("A",), ("B",), ("C",)
ELEM0, ELEM1 = ("elem", 0), ("elem", 1)
R0, R1 = ("junction", "R", (0,)), ("junction", "R", (1,))
CHAIN_R1 = ("chain", "R", (1,), 1, 1)

# each graph breaks one local rule of the coded shape
MALFORMED = {
    # the 3-cycle's hub a lies on the 5-cycle in place of its entry vertex
    # (a cycle vertex with a second out-edge, so the cycle finder rejects it)
    "hub_on_cycle": _rewired(
        TWO_UNARY,
        drop=[(B, ("cycle", 5, 0)), (("cycle", 5, 4), ("cycle", 5, 0)),
              (("cycle", 5, 0), ("cycle", 5, 1))],
        add=[(B, A), (("cycle", 5, 4), A), (A, ("cycle", 5, 1))]),
    "cycles_share_a_hub": _rewired(
        TWO_UNARY, drop=[(B, ("cycle", 5, 0))], add=[(A, ("cycle", 5, 0))]),
    "element_with_second_in_neighbour": _rewired(TWO_UNARY, add=[(C, ELEM0)]),
    "junction_to_both_b_and_c": _rewired(TWO_UNARY, add=[(R0, C)]),
    # the gadget of R(1) starts at element 0, so R(0) is coded twice
    "tuple_coded_twice": _rewired(
        TWO_UNARY, drop=[(ELEM1, CHAIN_R1)], add=[(ELEM0, CHAIN_R1)]),
    "missing_gadget": _rewired(TWO_UNARY, remove=[R1, CHAIN_R1]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_local_fault_is_malformed(name):
    for sig in (SIG_R1, None):
        with pytest.raises(MalformedCoding):
            decode_full(MALFORMED[name], sig)


def test_many_spokes_are_rejected_before_encoding_their_gadgets():
    # 30 elements under R/3 would need 27,000 gadgets; the graph has one
    g = encode(FinStructure.of(SIG_R3, 1)).graph
    g = DiGraph.of(g.size + 29, set(g.edges) | {(0, g.size + i) for i in range(29)})
    decode_full.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(MalformedCoding):
            decode_full(g, SIG_R3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("sig", [SIG_R1, Signature.of(("R", 2))])
def test_second_out_edge_on_last_chain_node_rejected(sig):
    s = FinStructure.of(sig, 2, [("R", (1,) * sig.arity("R"))])
    enc = encode(s)
    length = interior_lengths(sig.arity("R"), 0)[-1]
    last = enc.vertex_of()[("chain", "R", (0,) * sig.arity("R"), sig.arity("R"), length)]
    g = DiGraph.of(enc.graph.size, set(enc.graph.edges) | {(last, 2)})
    with pytest.raises(MalformedCoding, match="chain node with out-degree != 1"):
        decode_full(g, sig)


def _traced_peak(fn, *args):
    """fn(*args) with its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_arity_on_empty_universe_allocates_nothing():
    sig = Signature.of(("R", 10**6))
    s = FinStructure.of(sig, 0)
    encode.cache_clear()
    decode_full.cache_clear()
    enc, enc_peak = _traced_peak(encode, s)
    res, dec_peak = _traced_peak(decode_full, enc.graph, sig)
    assert enc.graph.size == 18
    assert res.structure == s
    assert enc_peak < 10**6 and dec_peak < 10**6


def test_huge_arity_with_an_element_is_malformed_with_a_short_message():
    g = encode(FinStructure.of(Signature(()), 1)).graph
    decode_full.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(MalformedCoding, match="arity 1000000") as exc:
            decode_full(g, Signature.of(("R", 10**6)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(str(exc.value)) < 200
    assert peak < 10**6


def _with_loop_into(s, role):
    """encode(s).graph plus a 3-cycle of new vertices whose last vertex
    also points at the vertex of role: every loop vertex has in-degree 1."""
    enc = encode(s)
    n = enc.graph.size
    loop = [(n, n + 1), (n + 1, n + 2), (n + 2, n), (n + 2, enc.vertex_of()[role])]
    return DiGraph.of(n + 3, set(enc.graph.edges) | set(loop))


# graphs that a reading of the cycles as strongly connected components
# stopped. The decoder reads the cycles of v -> succ[v] on out-degree-1
# vertices instead: a chord or a join breaks a tag cycle, so the count of
# those cycles stops the graph; the other three go on to the chain walk or
# the final check
CYCLE_FAULTS = {
    "chord_on_tag_cycle": _rewired(TWO_UNARY, add=[(("cycle", 7, 0), ("cycle", 7, 3))]),
    # a cycle elem0 -> chain -> junction -> elem0 through the junction,
    # which then has out-degree 2
    "fourth_cycle_through_out_degree_2": _rewired(TWO_UNARY, add=[(R0, ELEM0)]),
    "cycle_through_hub_a": _rewired(TWO_UNARY, add=[(ELEM1, A)]),
    "tag_cycles_joined": _rewired(
        TWO_UNARY, add=[(("cycle", 3, 1), ("cycle", 5, 2)), (("cycle", 5, 3), ("cycle", 3, 2))]),
    "in_degree_1_loop_feeds_junction": _with_loop_into(TWO_UNARY, R0),
}


@pytest.mark.parametrize("name", sorted(CYCLE_FAULTS))
def test_cycle_fault_is_malformed(name):
    g = CYCLE_FAULTS[name]
    for sig in (SIG_R1, None):
        with pytest.raises(MalformedCoding):
            decode_full(g, sig)


def test_fourth_cycle_is_left_to_the_final_check():
    g = CYCLE_FAULTS["fourth_cycle_through_out_degree_2"]
    assert sorted(map(len, simple_cycles(g))) == [3, 3, 5, 7]
    for sig in (SIG_R1, None):
        with pytest.raises(MalformedCoding, match="roles do not map"):
            decode_full(g, sig)


def test_in_degree_1_loop_stops_the_chain_walk():
    # the walk back from the loop's last vertex goes round the loop and
    # stops at that vertex again, whose second out-edge it checks
    g = CYCLE_FAULTS["in_degree_1_loop_feeds_junction"]
    for sig in (SIG_R1, None):
        with pytest.raises(MalformedCoding, match=f"bad chain predecessor {g.size - 1}"):
            decode_full(g, sig)


def test_decoding_builds_no_role_tuples():
    rng = random.Random(47)
    for _ in range(20):
        s = corpus.random_structure(rng, max_size=3)
        g, _ = corpus.random_permuted_graph(rng, encode(s).graph)
        for sig in (s.sig, None):
            decode_full.cache_clear()
            res = decode_full(g, sig)
            provenance = encode(res.structure).provenance
            assert all(res.roles[v][0] == v
                       and res.roles[v][1] is provenance[res.image[v]][1]
                       for v in range(g.size))


# ---------------------------------------------------------------------------
# encode's closed-form vertex count and budget


def test_coded_size_matches_encode():
    rng = random.Random(53)
    sigs = [None, Signature.of(("E", 2), ("F", 2)), Signature.of(("P", 1), ("Q", 1), ("E", 2))]
    for i in range(60):
        s = corpus.random_structure(rng, max_size=4, sig=sigs[i % 3])
        assert coded_size(s.sig, s.size) == encode(s).graph.size
        assert encode(s, budget=encode(s).graph.size) == encode(s)


def test_encode_budget_is_checked_before_allocating():
    # 351,048 vertices, about 190 MB unbudgeted
    s = FinStructure.of(SIG_R3, 30)
    encode.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted, match="encode needs 351048 vertices") as exc:
            encode(s, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.used, exc.value.budget) == (351048, 1000)
    assert peak < 10**5


def test_encode_budget_forms_no_huge_power():
    # 2^(10^9) alone would take 125 MB
    s = FinStructure.of(Signature.of(("R", 10**9)), 2)
    with pytest.raises(BudgetExhausted, match="more than 1000 vertices") as exc:
        encode(s, budget=1000)
    assert exc.value.used is None and exc.value.budget == 1000
    assert coded_size(Signature.of(("R", 10**9)), 0) == 18


# ---------------------------------------------------------------------------
# the two-entry memo on encode and decode_full


def test_memo_returns_the_same_coding_for_equal_structures():
    facts = [("R", (0, 1, 1))]
    a, b = FinStructure.of(SIG_R3, 2, facts), FinStructure.of(SIG_R3, 2, facts)
    assert a == b and a is not b
    assert encode(a) is encode(b)
    g = encode(a).graph
    twin = DiGraph.of(g.size, g.edges)
    assert twin is not g
    assert decode_full(g, SIG_R3) is decode_full(twin, SIG_R3)


def test_memo_keys_on_the_signature():
    g = encode(FinStructure.of(SIG_R1, 1, [("R", (0,))])).graph
    assert decode(g, SIG_R1).sig == SIG_R1
    assert decode(g).sig == Signature.of(("R1", 1))
    assert decode(g, Signature.of(("S", 1))).sig == Signature.of(("S", 1))
    assert decode(g, SIG_R1).sig == SIG_R1


def test_memo_caches_no_exception():
    g = DiGraph.of(3, [(0, 1), (1, 2), (2, 0)])
    for _ in range(2):
        with pytest.raises(MalformedCoding):
            decode_full(g)
        with pytest.raises(MalformedCoding):
            lambda_graph(g)


def test_memo_holds_two_entries():
    for n in range(5):
        encode(FinStructure.of(SIG_R1, n))
    assert encode.cache_info().currsize == encode.cache_info().maxsize == 2
    assert decode_full.cache_info().maxsize == 2


def _round_trip_pairs(s):
    return canonical_iso(s).pairs, lambda_graph(encode(s).graph, s.sig).pairs


def test_memo_is_transparent():
    rng = random.Random(37)
    structures = [corpus.random_structure(rng, max_size=3) for _ in range(20)]
    warm = [_round_trip_pairs(s) for s in structures]
    cold = []
    for s in structures:
        encode.cache_clear()
        decode_full.cache_clear()
        cold.append(_round_trip_pairs(s))
    assert warm == cold


def test_memo_is_thread_safe():
    rng = random.Random(41)
    structures = [corpus.random_structure(rng, max_size=3) for _ in range(40)]
    sequential = [_round_trip_pairs(s) for s in structures]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(_round_trip_pairs, structures, timeout=120)) == sequential
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# canonical isomorphism and morphism transport


def test_canonical_iso_identity_for_canonical_encoding():
    rng = random.Random(11)
    for _ in range(10):
        s = corpus.random_structure(rng, max_size=4)
        m = canonical_iso(s)
        assert m.pairs == tuple((i, i) for i in range(s.size))


def test_canonical_iso_empty():
    m = canonical_iso(FinStructure.of(SIG_R1, 0))
    assert m.pairs == ()


def test_decode_tracks_permuted_enumeration():
    s = FinStructure.of(SIG_R1, 3, [("R", (1,))])
    g, perm = corpus.random_permuted_graph(random.Random(13), encode(s).graph)
    res = decode_full(g, s.sig)
    # element enumeration follows vertex order of the permuted copy
    assert list(res.elements) == sorted(res.elements)
    assert find_isomorphism(s, res.structure) is not None


def test_encode_morphism_pin():
    a = FinStructure.of(SIG_R1, 1, [("R", (0,))])
    b = FinStructure.of(SIG_R1, 2, [("R", (0,)), ("R", (1,))])
    h = Morphism.from_mapping(1, 2, {0: 1})
    gm = encode_morphism(a, b, h)
    assert is_graph_embedding(encode(a).graph, encode(b).graph, gm)
    va = encode(a).vertex_of()[("elem", 0)]
    vb = encode(b).vertex_of()[("elem", 1)]
    assert gm(va) == vb


def test_encode_morphism_identity():
    s = FinStructure.of(SIG_R1, 2, [("R", (0,))])
    gm = encode_morphism(s, s, Morphism.identity(2))
    assert gm.pairs == tuple((v, v) for v in range(encode(s).graph.size))


def test_encode_morphism_rejects_non_embedding():
    a = FinStructure.of(SIG_R1, 1)
    b = FinStructure.of(SIG_R1, 2, [("R", (1,))])
    with pytest.raises(ValueError):
        encode_morphism(a, b, Morphism.from_mapping(1, 2, {0: 1}))


def test_embedding_forward_transfer_verified_independently():
    rng = random.Random(17)
    for _ in range(15):
        a, b, h = corpus.random_embedded_pair(rng, max_size=3)
        gm = encode_morphism(a, b, h)
        assert is_graph_embedding(encode(a).graph, encode(b).graph, gm)


def test_functoriality_identity_and_composition():
    rng = random.Random(19)
    for _ in range(10):
        c = corpus.random_structure(rng, max_size=3, max_relations=2, max_arity=2)
        b, h2 = corpus.random_induced_substructure(rng, c)
        a, h1 = corpus.random_induced_substructure(rng, b)
        lhs = encode_morphism(a, c, h1.then(h2))
        rhs = encode_morphism(a, b, h1).then(encode_morphism(b, c, h2))
        assert lhs == rhs


def test_lambda_graph_identity_on_canonical():
    s = FinStructure.of(SIG_R1, 2, [("R", (0,))])
    g = encode(s).graph
    m = lambda_graph(g, s.sig)
    assert m.pairs == tuple((v, v) for v in range(g.size))


def test_lambda_graph_permuted_copy():
    rng = random.Random(23)
    s = FinStructure.of(SIG_R3, 2, [("R", (0, 0, 1))])
    g, _ = corpus.random_permuted_graph(rng, encode(s).graph)
    m = lambda_graph(g, s.sig)
    assert m.is_bijective()


def test_lambda_graph_propagates_malformed():
    with pytest.raises(MalformedCoding):
        lambda_graph(DiGraph.of(3, [(0, 1), (1, 2), (2, 0)]))


# ---------------------------------------------------------------------------
# isomorphism equivalence at small scale


def test_iso_equivalence_both_directions():
    rng = random.Random(29)
    sig = Signature.of(("E", 2))
    for _ in range(30):
        a = corpus.random_structure(rng, max_size=3, sig=sig)
        if rng.random() < 0.5:
            b, _ = corpus.random_permuted_copy(rng, a)
        else:
            b = corpus.random_structure(rng, max_size=3, sig=sig)
        s_iso = find_isomorphism(a, b) is not None
        g_iso = find_isomorphism(encode(a).graph, encode(b).graph) is not None
        assert s_iso == g_iso


# ---------------------------------------------------------------------------
# repeated arities: offset shapes


def test_same_arity_signature_gets_offsets():
    sig = Signature.of(("R", 2), ("S", 2))
    offsets = chain_offsets(sig)
    assert offsets == {"R": 0, "S": 4}
    assert interior_lengths(2, 0) == (2, 3)
    assert interior_lengths(2, 4) == (6, 7)


def test_distinct_arities_keep_plain_shapes():
    sig = Signature.of(("R", 1), ("S", 2), ("T", 3))
    assert set(chain_offsets(sig).values()) == {0}


def test_round_trip_with_repeated_arities():
    sig = Signature.of(("R", 2), ("S", 2))
    rng = random.Random(31)
    for _ in range(10):
        s = corpus.random_structure(rng, max_size=2, sig=sig)
        assert decode(encode(s).graph, sig) == s
        cycles = simple_cycles(encode(s).graph)
        assert sorted(len(c) for c in cycles) == [3, 5, 7]


# ---------------------------------------------------------------------------
# provenance sidecar


def test_render_role_format():
    assert render_role(("A",)) == "role=A"
    assert render_role(("cycle", 3, 0)) == "role=CycleVertex tag=3 pos=0"
    assert render_role(("elem", 4)) == "role=Element x=4"
    assert render_role(("chain", "R", (1, 2, 3), 2, 1)) == "role=ChainNode R 1,2,3 k=2 pos=1"
    assert render_role(("junction", "R", (1, 2, 3))) == "role=Junction R 1,2,3"


def eager_encode(s):
    """The coding built vertex by vertex, each with its role, in encode's
    order: the reference for encode's edges and its provenance built on
    first read. Returns (graph, provenance)."""
    offsets = chain_offsets(s.sig)
    roles = [("A",), ("B",), ("C",)]
    edges = []
    for hub, tag in enumerate((3, 5, 7)):
        first = len(roles)
        edges.append((hub, first))
        for pos in range(tag):
            roles.append(("cycle", tag, pos))
            edges.append((first + pos, first + (pos + 1) % tag))
    elem_base = len(roles)
    for x in range(s.size):
        edges.append((0, len(roles)))
        roles.append(("elem", x))
    for name, arity in s.sig.relations:
        for tup in itertools.product(range(s.size), repeat=arity):
            y = len(roles)
            roles.append(("junction", name, tup))
            for k, length in enumerate(interior_lengths(arity, offsets[name]), 1):
                prev = elem_base + tup[k - 1]
                for pos in range(1, length + 1):
                    edges.append((prev, len(roles)))
                    prev = len(roles)
                    roles.append(("chain", name, tup, k, pos))
                edges.append((prev, y))
            edges.append((y, 1 if s.holds(name, tup) else 2))
    return DiGraph.of(len(roles), edges), tuple(enumerate(roles))


def test_round_trip_builds_no_provenance():
    rng = random.Random(67)
    sigs = [None, Signature.of(("E", 2), ("F", 2)), Signature.of(("P", 1), ("Q", 1), ("E", 2))]
    for i in range(60):
        s = corpus.random_structure(rng, max_size=3, sig=sigs[i % 3])
        encode.cache_clear()
        decode_full.cache_clear()
        enc = encode(s)
        decode_full(enc.graph, s.sig)
        canonical_iso(s)
        lambda_graph(enc.graph, s.sig)
        assert encode(s) is enc and "provenance" not in enc.__dict__
        graph, provenance = eager_encode(s)
        assert enc.graph == graph
        assert enc.provenance == provenance
        assert enc.roles() == dict(provenance)
        assert enc.vertex_of() == {role: v for v, role in provenance}
        assert render_provenance(enc) == "".join(f"v {v} {render_role(role)}\n"
                                                 for v, role in provenance)


def test_canonical_iso_matches_the_provenance_scan():
    # element x's vertex is ELEM_BASE + x, where its ("elem", x) role is
    rng = random.Random(71)
    for _ in range(60):
        s = corpus.random_structure(rng, max_size=4)
        enc = encode(s)
        res = decode_full(enc.graph, s.sig)
        position = {v: i for i, v in enumerate(res.elements)}
        scanned = {role[1]: position[v] for v, role in enc.provenance if role[0] == "elem"}
        assert canonical_iso(s) == Morphism.from_mapping(s.size, res.structure.size, scanned)


def test_provenance_lines_cover_every_vertex():
    s = FinStructure.of(SIG_R1, 1, [("R", (0,))])
    enc = encode(s)
    lines = render_provenance(enc).strip().splitlines()
    assert len(lines) == enc.graph.size
    assert lines[0] == "v 0 role=A"
