"""Per-module check batteries behind `selftest <section>`.

Smaller and faster than the acceptance criteria; each section exercises its
module's operations end to end and reports one line per check. The corpus
size knob scales the sampled parts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import acceptance, coding, corpus, efgames, functors, limits, reduction, search, shelah
from .core import (
    DiGraph,
    Morphism,
    Signature,
    atomic_diagram_prefix,
    cantor_pair,
    cantor_unpair,
    enum_string,
    oracle_of_structure,
    parse_graph,
    parse_structure,
    restrict,
    serialize_graph,
    serialize_structure,
    string_index,
)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        base = f"check={self.name} pass={'yes' if self.passed else 'no'}"
        return f"{base} {self.detail}".rstrip()


def check_core(seed: int, corpus_size: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    checks.append(Check(
        "core.cantor_pair",
        all(cantor_unpair(cantor_pair(m, n)) == (m, n) for m in range(60) for n in range(60)),
        "range=60x60",
    ))
    strings = [enum_string(k) for k in range(1 << 12)]
    checks.append(Check(
        "core.enum_string",
        len(set(strings)) == len(strings)
        and all(string_index(s) == k for k, s in enumerate(strings)),
        "indices=4096",
    ))
    ok = True
    for _ in range(corpus_size):
        s = corpus.random_structure(rng, max_size=3)
        long = atomic_diagram_prefix(s, 64)
        ok &= all(atomic_diagram_prefix(s, n) == long[:n] for n in (0, 7, 32))
    checks.append(Check("core.atomic_diagram_prefix", ok, f"structures={corpus_size}"))
    ok = True
    for _ in range(corpus_size):
        s = corpus.random_structure(rng, max_size=4)
        ok &= parse_structure(serialize_structure(s)) == s
        g = corpus.random_graph(rng, max_size=5)
        ok &= parse_graph(serialize_graph(g)) == g
    checks.append(Check("core.parse_serialize", ok, f"round_trips={2 * corpus_size}"))
    ok = True
    for _ in range(corpus_size):
        s = corpus.random_structure(rng, max_size=4)
        ok &= restrict(oracle_of_structure(s), s.size) == s
    checks.append(Check("core.restrict", ok, f"structures={corpus_size}"))
    return checks


def check_shelah(seed: int, corpus_size: int) -> list[Check]:
    rng = random.Random(seed)
    failures = acceptance.eval_F_law_failures(
        rng, corpus_size * 10,
        lambda r: shelah.SElem.make(corpus.random_bits(r, 6), r.randint(0, 1)),
    )
    checks = [Check("shelah.eval_F", failures == 0, f"samples={corpus_size * 10}")]
    elems = shelah.enumerate_elems(0, 64) + shelah.enumerate_elems(1, 64)
    checks.append(Check(
        "shelah.enumerate_elems",
        len(set(elems)) == len(elems)
        and all(not e.prefix.endswith(str(e.tail)) for e in elems),
        "enumerated=128",
    ))
    checks.append(Check(
        "shelah.closure",
        all(
            len(shelah.closure(shelah.nth_elem(rng.randint(0, 1), rng.randrange(16)), b)) == 1 << b
            for b in range(6)
        ),
        "bounds=0..5",
    ))
    failures = acceptance.reduct_iso_failures(
        rng, corpus_size * 5, lambda r: shelah.nth_elem(r.randint(0, 1), r.randrange(20))
    )
    checks.append(Check("shelah.reduct_iso", failures == 0, f"queries={corpus_size * 5}"))
    # at bound 8 no tail-1 element among the first 100 can fake the
    # all-zeros generator trace (the first fake sits at index 2^7)
    traces = [shelah.distinguishing_trace(e, 8) for e in shelah.enumerate_elems(1, 100)]
    checks.append(Check(
        "shelah.distinguishing_trace",
        shelah.distinguishing_trace(shelah.ZERO, 8) == shelah.generator_trace(0, 8)
        and all(t != shelah.generator_trace(0, 8) for t in traces),
        "tail1_checked=100",
    ))
    checks.append(Check(
        "shelah.holds_R",
        shelah.holds_R("00", shelah.ZERO) and not shelah.holds_R("1", shelah.ZERO),
    ))
    checks.append(Check(
        "shelah.holds_graphF",
        shelah.holds_graphF("", shelah.ZERO, shelah.ZERO)
        and shelah.holds_graphF("1", shelah.ZERO, shelah.SElem("1", 0)),
    ))
    return checks


def check_search(seed: int, corpus_size: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    ok = True
    for _ in range(corpus_size):
        a, b, _h = corpus.random_embedded_pair(rng, max_size=4, max_relations=2, max_arity=2)
        m = search.find_embedding(a, b)
        ok &= m is not None and search.is_embedding(a, b, m)
    checks.append(Check("search.find_embedding", ok, f"instances={corpus_size}"))
    ok = True
    for _ in range(corpus_size):
        a = corpus.random_structure(rng, max_size=4, max_relations=2, max_arity=2)
        b, _ = corpus.random_permuted_copy(rng, a)
        m = search.find_isomorphism(a, b)
        ok &= m is not None and search.is_isomorphism(a, b, m)
    checks.append(Check("search.find_isomorphism", ok, f"instances={corpus_size}"))
    k1 = corpus.complete_graph_structure(1)
    k2 = corpus.complete_graph_structure(2)
    k3 = corpus.complete_graph_structure(3)
    counts = (
        len(search.enumerate_embeddings(k1, k2, cap=10).morphisms),
        len(search.enumerate_embeddings(k2, k3, cap=10).morphisms),
    )
    checks.append(Check("search.enumerate_embeddings", counts == (2, 6), f"counts={counts}"))
    return checks


def check_efgames(seed: int, corpus_size: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    checks.append(Check("efgames.ef_winner", acceptance.pinned_k2_k3(), "pinned=k2k3"))
    ok = True
    for _ in range(corpus_size):
        sig = Signature.of(("E", 2))
        a = corpus.random_structure(rng, max_size=3, sig=sig)
        b = corpus.random_structure(rng, max_size=3, sig=sig)
        for n in range(3):
            ok &= (efgames.ef_winner(a, b, n) == efgames.DUPLICATOR) == efgames.equiv_n(a, b, n)
    checks.append(Check("efgames.equiv_n", ok, f"pairs={corpus_size}"))
    k2 = corpus.complete_graph_structure(2)
    state = efgames.GameState(k2, k2, ((0, 0), (1, 1)), 0)
    bad = efgames.GameState(k2, corpus.pure_set_structure(2), ((0, 0), (1, 1)), 0)
    checks.append(Check(
        "efgames.partial_iso_check",
        efgames.partial_iso_check(state) and not efgames.partial_iso_check(bad),
    ))
    left, right, strategy = shelah.paired_reduct_restrictions(2, 2, 3)
    good = efgames.verify_duplicator_strategy(left, right, strategy, 2)
    corrupted = list(strategy)
    corrupted[0], corrupted[1] = corrupted[1], corrupted[0]
    bad_strategy = efgames.verify_duplicator_strategy(left, right, corrupted, 2)
    checks.append(Check(
        "efgames.verify_duplicator_strategy",
        good and not bad_strategy,
        "m=2 rounds=2",
    ))
    return checks


def check_coding(seed: int, corpus_size: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    ok = True
    for _ in range(corpus_size):
        s = corpus.random_structure(rng, max_size=3)
        m = coding.canonical_iso(s)
        ok &= search.is_isomorphism(s, coding.decode(coding.encode(s).graph, s.sig), m)
    checks.append(Check("coding.canonical_iso", ok, f"structures={corpus_size}"))
    ok = True
    for _ in range(corpus_size):
        s = corpus.random_structure(rng, max_size=3)
        g, _ = corpus.random_permuted_copy(rng, coding.encode(s).graph)
        ok &= search.find_isomorphism(s, coding.decode(g, s.sig)) is not None
    checks.append(Check("coding.decode", ok, f"permuted_copies={corpus_size}"))
    ok = True
    for _ in range(corpus_size):
        a, b, h = corpus.random_embedded_pair(rng, max_size=3, max_relations=2, max_arity=2)
        gm = coding.encode_morphism(a, b, h)
        ok &= coding.is_graph_embedding(coding.encode(a).graph, coding.encode(b).graph, gm)
    checks.append(Check("coding.encode_morphism", ok, f"instances={corpus_size}"))
    ok = True
    for _ in range(corpus_size):
        s = corpus.random_structure(rng, max_size=2, max_relations=2, max_arity=2)
        g, _ = corpus.random_permuted_copy(rng, coding.encode(s).graph)
        lam = coding.lambda_graph(g, s.sig)
        ok &= coding.is_graph_embedding(g, coding.encode(coding.decode(g, s.sig)).graph, lam)
    checks.append(Check("coding.lambda_graph", ok, f"instances={corpus_size}"))
    twin = DiGraph.of(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    try:
        coding.decode(twin)
        rejected = False
    except coding.MalformedCoding:
        rejected = True
    checks.append(Check("coding.encode", rejected, "malformed_rejected=yes"))
    return checks


def check_reduction(seed: int, corpus_size: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    codes = list(range(500))
    parts = [reduction.decompose(c) for c in codes]
    rebuilt = [
        reduction.vertex_code(d[1]) if d[0] == "vertex" else reduction.block_code(d[1], d[2], d[3])
        for d in parts
    ]
    checks.append(Check("reduction.build_f", rebuilt == codes, "partition_codes=500"))
    g = DiGraph.of(2, [(0, 1)])
    eo = reduction.graph_edge_oracle(g)
    checks.append(Check(
        "reduction.block_type",
        reduction.block_type(eo, 0, 1) == reduction.S0
        and reduction.block_type(eo, 1, 0) == reduction.S1,
    ))
    oracle = reduction.build_f_graph(g)
    a0, a1 = reduction.vertex_code(0), reduction.vertex_code(1)
    checks.append(Check(
        "reduction.classify_block",
        reduction.classify_block(oracle, a0, a1, 3, 50) == reduction.S0
        and reduction.classify_block(oracle, a1, a0, 3, 50) == reduction.S1
        and reduction.classify_block(oracle, a0, a1, 3, 0) == reduction.UNKNOWN,
    ))
    ok = True
    for _ in range(corpus_size):
        gg = corpus.random_graph(rng, max_size=5)
        ok &= reduction.decode_f(reduction.build_f_graph(gg), gg.size) == gg
    checks.append(Check("reduction.decode_f", ok, f"round_trips={corpus_size}"))
    ident = reduction.induced_embedding(g, g, Morphism.identity(2))
    checks.append(Check(
        "reduction.induced_embedding",
        all(ident(c) == c for c in range(100)),
        "identity_codes=100",
    ))
    return checks


def check_limits(seed: int, corpus_size: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    bare = limits.build_stage(limits.Approximation.constant(0), 0, 0)
    checks.append(Check("limits.build_stage", bare.universe == ("",) and not bare.facts))
    ok = True
    for _ in range(corpus_size):
        approx = limits.Approximation.from_pattern(corpus.random_pattern(rng, 10))
        breaks, last = acceptance.stage_chain(approx, 15)
        ok &= breaks == 0
        for (mu, term), value in last.facts:
            ok &= limits.query_fact(approx, 0, mu, term) == value
    checks.append(Check("limits.query_fact", ok, f"approximations={corpus_size}"))
    ok = True
    for _ in range(corpus_size):
        pattern = corpus.random_pattern(rng, 8)
        approx = limits.Approximation.from_pattern(pattern)
        want = limits.S0 if pattern[-1] == "0" else limits.S1
        ok &= limits.classify_limit(approx, 0, approx.promised_stabilization) == want
    checks.append(Check("limits.classify_limit", ok, f"approximations={corpus_size}"))
    return checks


def check_functors(seed: int, corpus_size: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    chains = [
        corpus.random_induced_chain(
            rng, corpus.random_structure(rng, max_size=3, max_relations=2, max_arity=2)
        )
        for _ in range(corpus_size)
    ]
    rep = acceptance.chain_laws(functors.encode_functor(), chains)
    checks.append(Check(
        "functors.check_functor_laws",
        rep.ok(),
        f"functor=encode identity={rep.identity_checked} composition={rep.composition_checked}",
    ))
    gchains = [
        corpus.random_induced_chain(rng, corpus.random_graph(rng, max_size=4))
        for _ in range(max(2, corpus_size // 4))
    ]
    rep = acceptance.chain_laws(functors.composed_functor(restrict_size=5, nu_bound=0), gchains)
    checks.append(Check(
        "functors.composed_functor",
        rep.ok(),
        f"identity={rep.identity_checked} composition={rep.composition_checked}",
    ))
    checks.append(Check(
        "functors.check_commuting_square",
        acceptance.commuting_square_failures(rng, corpus_size) == 0,
        f"squares={corpus_size}",
    ))
    graphs = [corpus.random_graph(rng, max_size=4) for _ in range(corpus_size)]
    rep = functors.pseudo_inverse_report(graphs)
    checks.append(Check(
        "functors.pseudo_inverse_report",
        rep.ok() and not rep.unknowns(),
        f"graphs={len(graphs)} unknowns={len(rep.unknowns())}",
    ))
    return checks


SECTIONS: dict[str, Callable[[int, int], list[Check]]] = {
    "core": check_core,
    "shelah": check_shelah,
    "search": check_search,
    "efgames": check_efgames,
    "coding": check_coding,
    "reduction": check_reduction,
    "limits": check_limits,
    "functors": check_functors,
}
