import random

from structcode import coding, corpus, functors
from structcode.core import DiGraph, Morphism


def embedded_chain(rng, max_size=3, **kw):
    c = corpus.random_structure(rng, max_size=max_size, max_relations=2, max_arity=2)
    b, h2 = corpus.random_induced_substructure(rng, c)
    a, h1 = corpus.random_induced_substructure(rng, b)
    return a, h1, b, h2, c


def graph_chain(rng, max_size=4):
    g3 = corpus.random_graph(rng, max_size=max_size)
    g2, h2 = corpus.random_induced_subgraph(rng, g3)
    g1, h1 = corpus.random_induced_subgraph(rng, g2)
    return g1, h1, g2, h2, g3


def test_encode_functor_laws():
    rng = random.Random(1)
    objects, triples = [], []
    for _ in range(10):
        a, h1, b, h2, c = embedded_chain(rng)
        objects.append(a)
        triples.append((a, h1, b, h2, c))
    report = functors.check_functor_laws(functors.encode_functor(), objects, triples)
    assert report.ok()
    assert report.identity_checked > 0 and report.composition_checked > 0


def test_reduction_functor_laws():
    rng = random.Random(2)
    objects, triples = [], []
    for _ in range(10):
        g1, h1, g2, h2, g3 = graph_chain(rng)
        objects.append(g1)
        triples.append((g1, h1, g2, h2, g3))
    report = functors.check_functor_laws(functors.reduction_functor(probe_size=20), objects, triples)
    assert report.ok()


def test_composed_functor_laws():
    rng = random.Random(3)
    objects, triples = [], []
    for _ in range(4):
        g1, h1, g2, h2, g3 = graph_chain(rng, max_size=3)
        objects.append(g1)
        triples.append((g1, h1, g2, h2, g3))
    comp = functors.composed_functor(restrict_size=5, nu_bound=0)
    report = functors.check_functor_laws(comp, objects, triples)
    assert report.ok()


def test_composed_functor_realized_part_is_graph_embedding():
    comp = functors.composed_functor(restrict_size=5, nu_bound=0)
    k1, edge = DiGraph.of(1), DiGraph.of(2, [(0, 1)])
    hm = comp.mor(k1, Morphism.from_mapping(1, 2, {0: 0}), edge)
    src, dst = comp.obj(k1).graph, comp.obj(edge).graph
    realized = {}
    for v in range(src.size):
        img = hm(v)
        if isinstance(img, int):
            realized[v] = img
    assert realized  # something survives the restriction
    assert len(set(realized.values())) == len(realized)
    for u, v in src.edges:
        if u in realized and v in realized:
            assert (realized[u], realized[v]) in dst.edges


def test_broken_functor_reports_violations():
    base = functors.encode_functor()

    def broken_mor(src, h, dst):
        m = base.mor(src, h, dst)
        pairs = list(m.pairs)
        pairs[0], pairs[1] = (pairs[0][0], pairs[1][1]), (pairs[1][0], pairs[0][1])
        return Morphism(m.source_size, m.target_size, tuple(sorted(pairs)))

    broken = functors.Functor(
        name="broken",
        obj=base.obj,
        mor=broken_mor,
        probe=base.probe,
    )
    from structcode.core import FinStructure, Signature

    s = FinStructure.of(Signature.of(("R", 1)), 1, [("R", (0,))])
    report = functors.check_functor_laws(broken, [s], [])
    assert not report.ok()


def test_commuting_square_for_canonical_family():
    rng = random.Random(4)
    ident = functors.identity_functor()
    round_trip = functors.round_trip_functor()
    for _ in range(15):
        a, b, gamma = corpus.random_embedded_pair(rng, max_size=3, max_relations=2, max_arity=2)
        assert functors.check_commuting_square(
            coding.canonical_iso, ident, round_trip, a, gamma, b
        )


def test_commuting_square_identity_morphism():
    rng = random.Random(5)
    ident = functors.identity_functor()
    round_trip = functors.round_trip_functor()
    a = corpus.random_structure(rng, max_size=3)
    assert functors.check_commuting_square(
        coding.canonical_iso, ident, round_trip, a, Morphism.identity(a.size), a
    )


def test_transposed_lambda_breaks_square():
    from structcode.core import FinStructure, Signature

    sig = Signature.of(("R", 1))
    a = FinStructure.of(sig, 1)
    b = FinStructure.of(sig, 2)
    gamma = Morphism.from_mapping(1, 2, {0: 1})

    def bad_lambda(s):
        m = coding.canonical_iso(s)
        if s.size >= 2:
            mp = m.mapping()
            mp[0], mp[1] = mp[1], mp[0]
            return Morphism.from_mapping(m.source_size, m.target_size, mp)
        return m

    ident = functors.identity_functor()
    round_trip = functors.round_trip_functor()
    assert not functors.check_commuting_square(bad_lambda, ident, round_trip, a, gamma, b)


def test_composition_associative_extensionally():
    rng = random.Random(6)
    enc = functors.encode_functor()
    for _ in range(5):
        d = corpus.random_structure(rng, max_size=4, max_relations=2, max_arity=2)
        c, h3 = corpus.random_induced_substructure(rng, d)
        b, h2 = corpus.random_induced_substructure(rng, c)
        a, h1 = corpus.random_induced_substructure(rng, b)
        left = enc.mor(a, h1.then(h2), c).then(enc.mor(c, h3, d))
        right = enc.mor(a, h1, b).then(enc.mor(b, h2.then(h3), d))
        assert left == right


def test_pseudo_inverse_report():
    rng = random.Random(7)
    graphs = [corpus.random_graph(rng, max_size=5) for _ in range(12)]
    report = functors.pseudo_inverse_report(graphs)
    assert report.ok()
    assert not report.unknowns()
    assert all(item.round_trip_exact and item.oracle_match for item in report.items)


def test_pseudo_inverse_budget_zero_reports_unknowns():
    graphs = [DiGraph.of(2, [(0, 1)]), DiGraph.of(0)]
    report = functors.pseudo_inverse_report(graphs, budget=0)
    assert report.ok()  # unknowns are not failures
    assert len(report.unknowns()) == 1  # the empty graph decodes trivially
    assert report.unknowns()[0].unknown_pairs
