"""The four benchmark workloads: seeded instances, timed calls, verdict checks.

Each workload builds its instances one pass at a time from its own
`random.Random`, so the inputs depend only on the workload seed and the
pass number, never on the package's corpus code. A pass is stratified: its
mix of instance classes, and of the sizes that set the cost of an
instance, is the same in every pass, and only the random content changes.
`run` makes the timed calls through a caller (see tracing.py); `check`
judges the output afterwards with the independent code in checks.py.
"""

from __future__ import annotations

import random
from itertools import product

import checks
from structcode import coding, core, efgames, reduction, search
from structcode.core import DiGraph, FinStructure, Morphism, Signature

# Explicit budgets, far above what any instance here needs on the seed code.
SEARCH_BUDGET = 10 ** 6  # nodes for find_isomorphism, states for ef_winner/equiv_n
RESTRICT_QUERY_BUDGET = 10 ** 5  # one restrict below makes 41,880 queries
DECODE_INSPECTIONS = 50  # decode_f's per-block inspection budget, as in C7

E2 = Signature.of(("E", 2))


def _binary_structure(rng: random.Random, size: int) -> FinStructure:
    """C2/C5's sampler: one binary relation at density 0.3, 0.5 or 0.7."""
    density = rng.choice((0.3, 0.5, 0.7))
    facts = frozenset(("E", t) for t in product(range(size), repeat=2) if rng.random() < density)
    return FinStructure(E2, size, facts)


def _permuted(rng: random.Random, s: FinStructure) -> FinStructure:
    perm = list(range(s.size))
    rng.shuffle(perm)
    return FinStructure(s.sig, s.size, frozenset((n, tuple(perm[x] for x in t)) for n, t in s.facts))


def _graph(rng: random.Random, size: int) -> DiGraph:
    """C7's sampler: loop-free digraph at density 0.2, 0.4 or 0.6."""
    density = rng.choice((0.2, 0.4, 0.6))
    return DiGraph.of(size, ((u, v) for u, v in product(range(size), repeat=2)
                             if u != v and rng.random() < density))


def _induced_subgraph(rng: random.Random, g: DiGraph) -> tuple[DiGraph, Morphism]:
    chosen = sorted(rng.sample(range(g.size), rng.randint(0, g.size)))
    back = {v: i for i, v in enumerate(chosen)}
    sub = DiGraph.of(len(chosen), ((back[u], back[v]) for u, v in g.edges if u in back and v in back))
    return sub, Morphism.from_mapping(len(chosen), g.size, dict(enumerate(chosen)))


class Workload:
    name = ""
    pass_s = 1.0  # seed-code seconds of one pass; sizes the traced run
    budgets = {"search_nodes": SEARCH_BUDGET}

    def instances(self, rng: random.Random) -> list[tuple[str, object]]:
        """One pass: (class, data) pairs in random order."""
        raise NotImplementedError

    def warmup(self, rng: random.Random) -> list[tuple[str, object]]:
        """A few cheap instances that load code paths and caches before timing."""
        raise NotImplementedError

    def run(self, cls: str, data, c):
        raise NotImplementedError

    def check(self, cls: str, data, out) -> bool:
        raise NotImplementedError


class CodedIso(Workload):
    """C2: isomorphism of two structures, decided directly and through the coding.

    A pass holds SIZES[n] pairs of n-element structures for each n, half of
    them a structure and a permuted copy, half two independent draws of the
    same size (pairs of different sizes are decided by a size test alone).
    Structures have at most 2 elements: with the seed code a 3-element pair
    takes 0.001-33 s (up to 1.8M search nodes), too heavy-tailed for a
    steady run of seconds, and a 4-element pair exhausts a 2M-node budget
    after 30-45 s. Larger scales wait for a faster search.
    """

    name = "coded-iso"
    pass_s = 2.2
    SIZES = {0: 80, 1: 80, 2: 320}

    def _pair(self, rng, size, planted):
        a = _binary_structure(rng, size)
        if planted:
            return "planted", (a, _permuted(rng, a))
        return "independent", (a, _binary_structure(rng, size))

    def instances(self, rng):
        out = [self._pair(rng, size, planted) for size, count in self.SIZES.items()
               for planted in (True, False) for _ in range(count // 2)]
        rng.shuffle(out)
        return out

    def warmup(self, rng):
        return [self._pair(rng, size, planted) for size in self.SIZES
                for planted in (True, False) for _ in range(8)]

    def run(self, cls, data, c):
        a, b = data
        ga = c.call("coding.encode", coding.encode, a).graph
        gb = c.call("coding.encode", coding.encode, b).graph
        c.count("coding.encode.vertices", ga.size + gb.size)
        ms = c.call("search.find_isomorphism", search.find_isomorphism, a, b, budget=SEARCH_BUDGET)
        mg = c.call("search.find_isomorphism", search.find_isomorphism, ga, gb, budget=SEARCH_BUDGET)
        return ms, mg, ga, gb

    def check(self, cls, data, out):
        a, b = data
        ms, mg, ga, gb = out
        truth = checks.brute_isomorphic(a, b)
        if (ms is not None) != truth or (mg is not None) != truth:
            return False
        return not truth or (checks.is_structure_iso(a, b, ms.mapping())
                             and checks.is_graph_iso(ga, gb, mg.mapping()))


class EfGames(Workload):
    """C5: both EF solvers on random small pairs and on symmetric pairs.

    Every pass holds the whole symmetric grid (pure sets of 4-7 elements
    with each other, cliques of 4-6 elements with each other, 3 rounds),
    the pinned K2/K3 games and two random pairs for every pair of sizes
    n <= m <= 4 and every round count 1-3. The symmetric pairs are a sixth
    of the pass, so its p90 falls among them and its p50 among the random
    pairs. Cliques of 7 are
    left out: with the seed code each of their games takes 0.6-1.4 s,
    which stretched a pass to 4.5 s and left too few passes per run.
    """

    name = "ef-games"
    pass_s = 1.2
    MAX_RANDOM_SIZE = 4
    SYMMETRIC = [("set", n, m) for n in range(4, 8) for m in range(n, 8)] + [
        ("clique", n, m) for n in range(4, 7) for m in range(n, 7)]

    @staticmethod
    def _symmetric(kind, n):
        pairs = product(range(n), repeat=2) if kind == "clique" else ()
        return FinStructure(E2, n, frozenset(("E", (u, v)) for u, v in pairs if u != v))

    def _random(self, rng, repeats):
        sizes = range(self.MAX_RANDOM_SIZE + 1)
        return [("random", (_binary_structure(rng, n), _binary_structure(rng, m), rounds))
                for n in sizes for m in sizes if n <= m for rounds in (1, 2, 3)
                for _ in range(repeats)]

    def _sym(self, kind, n, m, rounds):
        return "symmetric", (self._symmetric(kind, n), self._symmetric(kind, m), rounds)

    def instances(self, rng):
        out = [self._sym(kind, n, m, 3) for kind, n, m in self.SYMMETRIC]
        out += [self._sym("clique", 2, 3, rounds) for rounds in (2, 3)]
        out += self._random(rng, 2)
        rng.shuffle(out)
        return out

    def warmup(self, rng):
        return [self._sym("clique", 2, 3, 3), self._sym("set", 4, 5, 3)] + self._random(rng, 1)

    def run(self, cls, data, c):
        a, b, rounds = data
        w = c.call("efgames.ef_winner", efgames.ef_winner, a, b, rounds, budget=SEARCH_BUDGET)
        e = c.call("efgames.equiv_n", efgames.equiv_n, a, b, rounds, budget=SEARCH_BUDGET)
        return w, e

    def check(self, cls, data, out):
        a, b, rounds = data
        winner, equiv = out
        duplicator = winner == "Duplicator"
        if winner not in ("Duplicator", "Spoiler") or duplicator != equiv:
            return False
        if cls == "symmetric":
            return duplicator == checks.ef_closed_form(a.size, b.size, rounds)
        return True


class ReductionOracle(Workload):
    """C7: decode round trips (sparse point queries) and restrictions (full sweeps).

    A pass decodes DECODES_PER_SIZE graphs of each size 0-6 and restricts
    RESTRICTS reductions of random graphs with at most 5 vertices to 30
    points and the relations up to nu-length 3. A decode's cost is set by
    the graph's size, and restricts are the slowest, so the pass's p50 falls
    mid-way through the 4-vertex decodes and its p90 among the restricts.
    """

    name = "reduction-oracle"
    pass_s = 4.8
    DECODES_PER_SIZE = 12
    RESTRICTS = 24
    POINTS = 30
    NU_BOUND = 3
    budgets = {"decode_inspections": DECODE_INSPECTIONS, "restrict_queries": RESTRICT_QUERY_BUDGET}

    def _restrict(self, rng):
        g2 = _graph(rng, rng.randint(0, 5))
        g1, h = _induced_subgraph(rng, g2)
        return "restrict", (g1, g2, h)

    def instances(self, rng):
        out = [("decode", _graph(rng, size)) for size in range(7) for _ in range(self.DECODES_PER_SIZE)]
        out += [self._restrict(rng) for _ in range(self.RESTRICTS)]
        rng.shuffle(out)
        return out

    def warmup(self, rng):
        return [("decode", _graph(rng, size)) for size in range(7)] + [self._restrict(rng)]

    def run(self, cls, data, c):
        if cls == "decode":
            oracle = c.oracle(c.call("reduction.build_f_graph", reduction.build_f_graph, data))
            return c.call("reduction.decode_f", reduction.decode_f, oracle, data.size,
                          nu_bound=self.NU_BOUND, budget=DECODE_INSPECTIONS)
        g1, g2, h = data
        point_map = c.call("reduction.induced_embedding", reduction.induced_embedding, g1, g2, h)
        oracle = c.oracle(c.call("reduction.build_f_graph", reduction.build_f_graph, g1))
        src = c.call("core.restrict", core.restrict, oracle, self.POINTS,
                     reduction.reduction_rel_bound(self.NU_BOUND), query_budget=RESTRICT_QUERY_BUDGET)
        c.count("core.restrict.facts", len(src.facts))
        return point_map, src

    def check(self, cls, data, out):
        if cls == "decode":
            return out.size == data.size and set(out.edges) == set(data.edges)
        point_map, src = out
        target = reduction.build_f_graph(data[1])
        return src.size == self.POINTS and checks.transfers(
            src, target.holds, [point_map(code) for code in range(self.POINTS)])


class CodingRoundtrip(Workload):
    """C1/C4: the coding's round trip, cycle tags and canonical isomorphisms.

    A pass holds one random structure for every size 0-8 and every
    signature of distinct arities from {1, 2, 3}, and a second one for the
    sizes up to SMALL_TWICE, so that every pass has over 100 instances (10
    beyond its p90). The fact density, which sets the size of the coded
    graph as much as the structure's size does, rotates through DENSITIES
    along the signatures and sizes, so every pass has the same mix of all
    three.
    """

    name = "coding-roundtrip"
    pass_s = 4.9
    SIGNATURES = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    MAX_SIZE = 8
    SMALL_TWICE = 5
    DENSITIES = (0.2, 0.5, 0.8)

    @staticmethod
    def _structure(rng, arities, size, density):
        sig = Signature(tuple(zip("RST", arities)))
        facts = frozenset((name, t) for name, arity in sig.relations
                          for t in product(range(size), repeat=arity) if rng.random() < density)
        return "structure", FinStructure(sig, size, facts)

    def _structures(self, rng, sizes, twice):
        return [self._structure(rng, ar, n, self.DENSITIES[(k + j) % 3])
                for k, ar in enumerate(self.SIGNATURES)
                for j, n in enumerate(n for n in sizes for _ in range(2 if n <= twice else 1))]

    def instances(self, rng):
        out = self._structures(rng, range(self.MAX_SIZE + 1), self.SMALL_TWICE)
        rng.shuffle(out)
        return out

    def warmup(self, rng):
        return self._structures(rng, range(5), -1)

    def run(self, cls, s, c):
        enc = c.call("coding.encode", coding.encode, s)
        c.count("coding.encode.vertices", enc.graph.size)
        res = c.call("coding.decode_full", coding.decode_full, enc.graph, s.sig)
        canon = c.call("coding.canonical_iso", coding.canonical_iso, s)
        lam = c.call("coding.lambda_graph", coding.lambda_graph, enc.graph, s.sig)
        cycles = c.call("core.simple_cycles", core.simple_cycles, enc.graph)
        iso = c.call("search.find_isomorphism", search.find_isomorphism, s, res.structure,
                     budget=SEARCH_BUDGET)
        return enc.graph, res.structure, canon, lam, cycles, iso

    def check(self, cls, s, out):
        graph, decoded, canon, lam, cycles, iso = out
        # lambda_graph maps graph onto encode(decoded); its edge sets are compared here
        return (
            sorted(len(cy) for cy in cycles) == [3, 5, 7]
            and checks.is_structure_iso(s, decoded, canon.mapping())
            and iso is not None and checks.is_structure_iso(s, decoded, iso.mapping())
            and checks.is_graph_iso(graph, coding.encode(decoded).graph, lam.mapping())
        )


WORKLOADS = {w.name: w for w in (CodedIso(), EfGames(), ReductionOracle(), CodingRoundtrip())}
