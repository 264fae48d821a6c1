"""Oracle-level reduction from directed graphs to tagged block structures.

The output structure lives on the naturals, partitioned by the Cantor
pairing: part 0 holds the vertex markers, and part p+1 is the block of the
ordered vertex pair coded by p. Each block carries a copy of the tail-0 tag
structure when the pair is an edge and the tail-1 copy otherwise; the
block membership relations N and O tie blocks to their vertex pair. The
decoder reads the graph back off any oracle presenting such a structure by
hunting for a generator trace inside each block.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from math import isqrt
from typing import Callable, Iterator, Optional

from .core import (
    AtomOracle,
    DiGraph,
    Fact,
    Morphism,
    all_strings,
    cantor_pair,
    cantor_unpair,
)
from . import shelah
from .search import is_embedding

S0 = "S0"
S1 = "S1"
UNKNOWN = "Unknown"

EdgeOracle = Callable[[int, int], bool]


class ContradictoryEvidence(Exception):
    """A block element exhibited both generator traces; the input is not a
    copy of any reduction output."""


class DecodeIncomplete(Exception):
    """Some blocks could not be classified within the given bounds."""

    def __init__(self, pairs: list[tuple[int, int]], partial: DiGraph):
        super().__init__(f"unclassified blocks: {pairs}")
        self.pairs = pairs
        self.partial = partial


def graph_edge_oracle(g: DiGraph) -> EdgeOracle:
    """A finite graph as a total edge oracle on omega (False off the graph)."""
    return lambda m, n: (m, n) in g.edges


# ---------------------------------------------------------------------------
# Point coding


def vertex_code(i: int) -> int:
    return cantor_pair(0, i)


def block_code(m: int, n: int, k: int) -> int:
    return cantor_pair(cantor_pair(m, n) + 1, k)


def decompose(code: int) -> tuple:
    """('vertex', i) or ('block', m, n, k); every natural decomposes uniquely."""
    part, k = cantor_unpair(code)
    if part == 0:
        return ("vertex", k)
    m, n = cantor_unpair(part - 1)
    return ("block", m, n, k)


# ---------------------------------------------------------------------------
# The reduction itself


def reduction_relation(index: int) -> tuple[str, int]:
    """Signature enumeration: W/1, N/2, O/3, then the tag relations."""
    if index == 0:
        return ("W", 1)
    if index == 1:
        return ("N", 2)
    if index == 2:
        return ("O", 3)
    return shelah.tag_relation(index - 3)


def reduction_rel_bound(nu_bound: int) -> int:
    """Relation count covering W, N, O and every tag relation with |nu| <= nu_bound."""
    return 3 + 2 * ((1 << (nu_bound + 1)) - 1)


def block_type(edge_oracle: EdgeOracle, m: int, n: int) -> str:
    """S0 exactly on edges."""
    return S0 if edge_oracle(m, n) else S1


def _block_elem(edge_oracle: EdgeOracle, m: int, n: int, k: int) -> shelah.SElem:
    tail = 0 if edge_oracle(m, n) else 1
    return shelah.nth_elem(tail, k)


def build_f(edge_oracle: EdgeOracle) -> AtomOracle:
    """The reduction applied to an edge oracle, presented as an atom oracle.

    Element handles are the natural numbers themselves. The decider is pure
    given a pure edge oracle; it decomposes only the arguments it needs, and
    stays independent of the lister so that tests and the brute-force
    restrict can check one against the other. The fact lister unpairs each
    handle once, into (part, k), with the square root inline rather than a
    call, and each block's part - 1 once per block, without decompose. It
    looks up a block's marker positions once and reads W, N and O off the
    vertex markers and blocks it finds, blocks in order of first appearance
    and members in handle order, and builds block elements only for the
    tag relations, which shelah.tag_facts lists block by block.
    """

    def holds(name: str, tup: tuple) -> bool:
        if name == "W":
            (x,) = tup
            return decompose(x)[0] == "vertex"
        if name == "N":
            x, y = tup
            dy = decompose(y)
            return dy[0] == "block" and x == vertex_code(dy[1])
        if name == "O":
            x, y, z = tup
            dz = decompose(z)
            return dz[0] == "block" and x == vertex_code(dz[1]) and y == vertex_code(dz[2])
        kind, nu = shelah.split_rel_name(name)
        if kind == "R":
            (x,) = tup
            dx = decompose(x)
            if dx[0] != "block":
                return False
            return shelah.holds_R(nu, _block_elem(edge_oracle, dx[1], dx[2], dx[3]))
        x, y = tup
        dx = decompose(x)
        if dx[0] != "block":
            return False
        dy = decompose(y)
        if dy[0] != "block" or dx[1:3] != dy[1:3]:
            return False
        ex = _block_elem(edge_oracle, dx[1], dx[2], dx[3])
        ey = _block_elem(edge_oracle, dy[1], dy[2], dy[3])
        return shelah.holds_graphF(nu, ex, ey)

    def facts(handles: list, rels: list[tuple[str, int]]) -> Iterator[Fact]:
        vertices: dict[int, int] = {}
        parts: dict[int, dict[int, int]] = {}  # part -> {k: position}
        for i, code in enumerate(handles):
            w = (isqrt(8 * code + 1) - 1) // 2  # cantor_unpair, inline
            k = code - w * (w + 1) // 2
            part = w - k
            if part == 0:
                vertices[k] = i
            elif part in parts:
                parts[part][k] = i
            else:
                parts[part] = {k: i}
        # (m, n, m's marker position, n's, members); None where no marker
        blocks = []
        for part, members in parts.items():
            m, n = cantor_unpair(part - 1)
            blocks.append((m, n, vertices.get(m), vertices.get(n), members))
        tag_rels = []
        for name, arity in rels:
            if name == "W":
                for i in vertices.values():
                    yield name, (i,)
            elif name == "N":
                for _, _, x, _, members in blocks:
                    if x is not None:
                        for i in members.values():
                            yield name, (x, i)
            elif name == "O":
                for _, _, x, y, members in blocks:
                    if x is not None and y is not None:
                        for i in members.values():
                            yield name, (x, y, i)
            else:
                tag_rels.append((name, arity))
        if tag_rels:
            yield from shelah.tag_facts(
                (
                    {_block_elem(edge_oracle, m, n, k): i for k, i in members.items()}
                    for m, n, _, _, members in blocks
                ),
                tag_rels,
            )

    return AtomOracle(
        relation=reduction_relation,
        element=lambda i: i,
        holds=holds,
        num_relations=None,
        num_elements=None,
        facts=facts,
    )


def build_f_graph(g: DiGraph) -> AtomOracle:
    return build_f(graph_edge_oracle(g))


# ---------------------------------------------------------------------------
# Induced embeddings


def induced_embedding(source: DiGraph, target: DiGraph, g: Morphism) -> Callable[[int], int]:
    """Lift a graph embedding to a total point map between reduction outputs.

    The finite embedding is first extended along the isolated co-finite
    remainders of both edge oracles (vertex source.size + j goes to
    target.size + j), which keeps it an embedding of the infinite graphs.
    Vertex markers map through the extension and block elements keep their
    within-block index.
    """
    if not g.is_total() or not is_embedding(source, target, g):
        raise ValueError("morphism is not a graph embedding")
    mapping = g.mapping()

    def gamma(i: int) -> int:
        if i < source.size:
            return mapping[i]
        return target.size + (i - source.size)

    def point_map(code: int) -> int:
        d = decompose(code)
        if d[0] == "vertex":
            return vertex_code(gamma(d[1]))
        _, m, n, k = d
        return block_code(gamma(m), gamma(n), k)

    return point_map


# ---------------------------------------------------------------------------
# Block classification and decoding


def classify_block(
    oracle: AtomOracle,
    x,
    y,
    nu_bound: int,
    budget: int,
    scan_cap: int = 4096,
) -> str:
    """Classify the block of the vertex pair (x, y) by generator trace.

    Scans the oracle's enumeration for elements j with O(x, y, j) and
    inspects up to `budget` of them in order, computing each one's
    distinguishing trace at the given bound. The first element whose trace
    is exactly the all-zeros (resp. all-ones) generator trace decides S0
    (resp. S1); if the inspections are used up without a decisive trace the
    answer is Unknown, as it always is at bound 0. An element claiming both full-length generator
    prefixes raises ContradictoryEvidence: no string starts with both, so
    the input is not a copy of any reduction output.
    """
    if not oracle.holds("W", (x,)) or not oracle.holds("W", (y,)):
        raise ValueError("classify_block needs two W elements")
    inspected = 0
    limit = oracle.element_count(scan_cap)
    for idx in range(limit):
        if inspected >= budget:
            break
        j = oracle.element(idx)
        if not oracle.holds("O", (x, y, j)):
            continue
        inspected += 1
        tag = _judge_trace(_trace(oracle, j, nu_bound), nu_bound, j)
        if tag is not None:
            return tag
    return UNKNOWN


def _judge_trace(
    trace: set, nu_bound: int, j, generators: Optional[tuple[set, set]] = None
) -> Optional[str]:
    """Map a distinguishing trace to a tag, None when indecisive.

    generators, when given, are the two generator traces at nu_bound, so
    that a caller judging many traces builds them once.
    At bound 0 both generator traces are {""}, so no trace is decisive.
    """
    if nu_bound == 0:
        return None
    if "0" * nu_bound in trace and "1" * nu_bound in trace:
        raise ContradictoryEvidence(f"element {j!r} carries both generator traces")
    if generators is None:
        generators = (shelah.generator_trace(0, nu_bound), shelah.generator_trace(1, nu_bound))
    if trace == generators[0]:
        return S0
    if trace == generators[1]:
        return S1
    return None


def _trace(oracle: AtomOracle, handle, nu_bound: int) -> set[str]:
    """handle's trace as far as _judge_trace needs it: the two full-length
    generator strings, and the other strings only if exactly one holds."""
    def holds(nu: str) -> bool:
        return oracle.holds(shelah.rel_name("R", nu), (handle,))

    ends = ("0" * nu_bound, "1" * nu_bound)
    held = {nu for nu in dict.fromkeys(ends) if holds(nu)}
    if len(held) != 1:
        return held
    return held | {nu for nu in all_strings(nu_bound) if nu not in ends and holds(nu)}


def default_scan_cap(k: int) -> int:
    """Enough enumeration to reach every block generator for vertices < k
    in a canonically coded oracle."""
    if k == 0:
        return 1
    return block_code(k - 1, k - 1, 0) + 1


def decode_f(
    oracle: AtomOracle,
    k: int,
    nu_bound: int = 3,
    budget: int = 50,
    scan_cap: Optional[int] = None,
) -> DiGraph:
    """Read a graph on the first k vertex markers back off an oracle.

    Edge (m, n) is declared exactly when the block of (a_m, a_n) classifies
    as S0. Raises DecodeIncomplete (carrying the partial graph) if any block
    stays Unknown within the bounds, rather than guessing. The W, O and R
    facts come from oracle.facts when the oracle has it, otherwise from
    asking holds point by point; both give the same answer.
    """
    assert k >= 0
    if k == 0:
        return DiGraph.of(0)
    if scan_cap is None:
        scan_cap = default_scan_cap(k)
    limit = oracle.element_count(scan_cap)
    if oracle.facts is not None:
        return _decode_listed(oracle, k, nu_bound, budget, limit)

    vertices = []
    for idx in range(limit):
        if len(vertices) >= k:
            break
        h = oracle.element(idx)
        if oracle.holds("W", (h,)):
            vertices.append(h)
    if len(vertices) < k:
        raise DecodeIncomplete(
            [(m, n) for m in range(k) for n in range(k)], DiGraph.of(0)
        )

    undecided = [(m, n) for m in range(k) for n in range(k)]
    decided: dict[tuple[int, int], str] = {}
    inspected: dict[tuple[int, int], int] = {}

    if budget > 0:
        for idx in range(limit):
            if not undecided:
                break
            j = oracle.element(idx)
            if oracle.holds("W", (j,)):
                continue
            for pair in list(undecided):
                m, n = pair
                if not oracle.holds("O", (vertices[m], vertices[n], j)):
                    continue
                inspected[pair] = inspected.get(pair, 0) + 1
                tag = _judge_trace(_trace(oracle, j, nu_bound), nu_bound, j)
                if tag is not None:
                    decided[pair] = tag
                    undecided.remove(pair)
                elif inspected[pair] >= budget:
                    undecided.remove(pair)  # inspections spent, stays Unknown
                break

    return _decoded(k, decided)


def _decode_listed(oracle: AtomOracle, k: int, nu_bound: int, budget: int, limit: int) -> DiGraph:
    """decode_f on an oracle with a fact lister: one listing of W and O,
    and the traces listed a batch at a time.

    The vertex markers are the first k W points. Each marker pair collects
    the sorted points, not W points, that carry its O fact, and the pairs
    are walked on a heap keyed by (next point, pair). So points come in
    index order, each is inspected once, for the least of its undecided
    pairs, as in the decider loop, and the walk costs one heap step per
    pair and point inspected or passed over, not one per scanned point.
    When the point at the heap's head has no trace yet, one listing of the
    R facts gives the traces of every point then at the head of a pair's
    walk and still without one; on a conforming oracle every pair is
    decided at its first point, so that is the only trace listing. A trace
    is judged only when its point is inspected.
    """
    handles = list(map(oracle.element, range(limit)))
    w_points: set[int] = set()
    o_points: defaultdict[tuple[int, int], list[int]] = defaultdict(list)  # (x, y) -> the js of O(x, y, j)
    for name, tup in oracle.facts(handles, [("W", 1), ("O", 3)]):
        if name == "W":
            w_points.add(tup[0])
        else:
            x, y, j = tup
            o_points[x, y].append(j)
    markers = sorted(w_points)[:k]
    if len(markers) < k:
        raise DecodeIncomplete(
            [(m, n) for m in range(k) for n in range(k)], DiGraph.of(0)
        )
    vertex = {idx: m for m, idx in enumerate(markers)}
    walks = {}
    for (x, y), points in o_points.items():
        if x in vertex and y in vertex:
            points = sorted(j for j in points if j not in w_points)
            if points:
                walks[vertex[x], vertex[y]] = iter(points)

    nu_of = {shelah.rel_name("R", nu): nu for nu in all_strings(nu_bound)}
    r_rels = [(name, 1) for name in nu_of]
    generators = (shelah.generator_trace(0, nu_bound), shelah.generator_trace(1, nu_bound))
    heap = [(next(walk), pair) for pair, walk in walks.items()] if budget > 0 else []
    heapq.heapify(heap)

    def advance(pair: tuple[int, int]) -> None:
        j = next(walks[pair], None)
        if j is not None:
            heapq.heappush(heap, (j, pair))

    traces: dict[int, set[str]] = {}
    decided: dict[tuple[int, int], str] = {}
    inspected: dict[tuple[int, int], int] = {}
    while heap:
        j, pair = heapq.heappop(heap)
        if j not in traces:
            batch = sorted({j, *(h for h, _ in heap if h not in traces)})
            for i in batch:
                traces[i] = set()
            for name, (i,) in oracle.facts([handles[i] for i in batch], r_rels):
                traces[batch[i]].add(nu_of[name])
        inspected[pair] = inspected.get(pair, 0) + 1
        tag = _judge_trace(traces[j], nu_bound, handles[j], generators)
        if tag is not None:
            decided[pair] = tag
        elif inspected[pair] < budget:  # else its inspections are spent: Unknown
            advance(pair)
        while heap and heap[0][0] == j:  # the other pairs at j pass it over
            advance(heapq.heappop(heap)[1])
    return _decoded(k, decided)


def _decoded(k: int, decided: dict[tuple[int, int], str]) -> DiGraph:
    """The graph of the S0 blocks, or DecodeIncomplete naming the rest."""
    edges = {pair for pair, tag in decided.items() if tag == S0}
    graph = DiGraph.of(k, edges, allow_loops=any(u == v for u, v in edges))
    leftover = sorted(
        p for p in ((m, n) for m in range(k) for n in range(k)) if p not in decided
    )
    if leftover:
        raise DecodeIncomplete(leftover, graph)
    return graph
