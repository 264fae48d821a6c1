"""Coding of finite relational structures as directed graphs, with decoder.

The coded graph has three hub vertices a, b, c tagged by the unique 3-, 5-
and 7-cycle (one directed edge from the hub to a cycle entry, cycle edges
oriented cyclically). Every element x gets a spoke a -> v_x. Every tuple of
every relation gets a gadget: one chain per tuple position, all chains
meeting in a shared junction y, with y -> b when the fact holds and y -> c
when it does not. The chain reached from position k of an arity-i tuple has
i+k vertices counting the junction, so the chain-length profile identifies
the position and, through the arity, the relation.

When a signature contains several relations of the same arity the profile
alone cannot tell them apart, so each relation is given a chain-length
offset (cumulative in signature order). Signatures with pairwise distinct
arities always get zero offsets and hence the plain i+k shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Iterator, Optional

from .core import BudgetExhausted, DiGraph, FinStructure, Morphism, Signature, atoms
from .search import is_embedding

Role = tuple

CYCLE_TAGS = (3, 5, 7)


class MalformedCoding(Exception):
    """The graph is not an isomorphic copy of any coded structure."""


@dataclass(frozen=True)
class CodedGraph:
    graph: DiGraph
    structure: FinStructure  # the structure encode coded

    @cached_property
    def provenance(self) -> tuple[tuple[int, Role], ...]:
        """(v, role) for each vertex v, built on first read."""
        return tuple(enumerate(_roles(self.structure)))

    def roles(self) -> dict[int, Role]:
        return dict(self.provenance)

    def vertex_of(self) -> dict[Role, int]:
        flipped = {role: v for v, role in self.provenance}
        assert len(flipped) == len(self.provenance)
        return flipped


def chain_offsets(sig: Signature) -> dict[str, int]:
    """Per-relation chain-length offset; all zero when arities are distinct."""
    if sig.arities_distinct():
        return {name: 0 for name, _ in sig.relations}
    offsets = {}
    acc = 0
    for name, arity in sig.relations:
        offsets[name] = acc
        acc += 2 * arity
    return offsets


def interior_lengths(arity: int, offset: int) -> tuple[int, ...]:
    """Interior node counts of the gadget chains, position k = 1..arity."""
    return tuple(offset + arity + k - 1 for k in range(1, arity + 1))


# encode's numbering: the hubs a, b, c are 0, 1, 2, the vertex at position
# pos of the tag cycle is CYCLE_START[tag] + pos, and element i is ELEM_BASE + i
CYCLE_START = {3: 3, 5: 6, 7: 11}
ELEM_BASE = 18


def _layout(sig: Signature, size: int) -> tuple[dict[str, tuple[int, int]], int]:
    """encode's gadget numbering in closed form, and its vertex count.

    Maps each relation to (its first gadget's junction, the gadget width):
    the gadgets follow the elements, relations in signature order, tuples in
    product order, and a gadget is its junction and then its chains'
    interiors in position order. The width is 1 + sum(interior_lengths), so
    no tuple of arity entries is built.
    """
    offsets = chain_offsets(sig)
    bases = {}
    at = ELEM_BASE + size
    for name, arity in sig.relations:
        width = 1 + arity * (offsets[name] + arity) + arity * (arity - 1) // 2
        bases[name] = (at, width)
        at += size ** arity * width
    return bases, at


def coded_size(sig: Signature, size: int) -> int:
    """The vertex count of encode over size elements, without encoding:
    18 + size + the sum over relations of size^arity * gadget width."""
    return _layout(sig, size)[1]


# Round trips encode and decode the same structure several times in a row:
# canonical_iso(s) re-encodes s and re-decodes its graph, lambda_graph(g)
# re-decodes g, whose check re-encodes the result (equal to the structure g
# came from), and encode_morphism(a, b, h) is followed by encode(a) and encode(b).
# Two entries serve all of these. Results are frozen, and lru_cache is
# thread-safe and caches no exception. Measured gain, with the list-built
# edges below: coding-roundtrip 50.7 -> 113.2 verdicts/s (medians of 10
# alternating pairs of 20 s runs, 2-core VM, Python 3.11.7). Size bound:
# over that workload's seed-1 structures, a coding holds up to 1.3 MB and its
# decoding up to 0.35 MB, 0.17 MB a pair on average (tracemalloc), so 512
# entries would hold about 86 MB; a coding whose provenance has been read
# holds up to 1.2 MB more.
@lru_cache(maxsize=2)
def encode(s: FinStructure, budget: Optional[int] = None) -> CodedGraph:
    """Deterministic coding; vertex 0, 1, 2 are the hubs a, b, c.

    Only the edges are built: each cycle, spoke run and chain goes in as a
    run of consecutive vertices of encode's numbering. The vertices' roles
    are built on first read of the coding's provenance.

    With a budget, raises BudgetExhausted before allocating anything when
    the coding would have more than budget vertices (see coded_size).
    """
    if budget is not None:
        # when size > 1 and an arity has more bits than the budget, size^arity
        # alone is over it, so that power is not formed
        if s.size > 1 and any(arity > budget.bit_length() for _, arity in s.sig.relations):
            raise BudgetExhausted(f"encode needs more than {budget} vertices", budget=budget)
        used = coded_size(s.sig, s.size)
        if used > budget:
            raise BudgetExhausted(f"encode needs {used} vertices, more than {budget}",
                                  used=used, budget=budget)
    offsets = chain_offsets(s.sig)
    a, b, c = 0, 1, 2
    edges: list[tuple[int, int]] = []  # distinct by construction
    for hub, tag in zip((a, b, c), CYCLE_TAGS):
        first = CYCLE_START[tag]
        edges.append((hub, first))
        edges.extend(zip(range(first, first + tag), [*range(first + 1, first + tag), first]))
    edges.extend(zip(repeat(a), range(ELEM_BASE, ELEM_BASE + s.size)))

    v = ELEM_BASE + s.size  # the next vertex
    # chain lengths at a relation's first tuple: none on an empty universe
    rel = None
    for name, tup in atoms(s.sig, range(s.size)):
        if name != rel:
            rel, lengths = name, interior_lengths(len(tup), offsets[name])
        y = v
        v += 1
        for x, length in zip(tup, lengths):
            end = v + length
            edges.append((ELEM_BASE + x, v))
            edges.extend(zip(range(v, end - 1), range(v + 1, end)))
            edges.append((end - 1, y))
            v = end
        edges.append((y, b if s.holds(name, tup) else c))
    return CodedGraph(DiGraph._built(v, frozenset(edges)), s)


def _roles(s: FinStructure) -> list[Role]:
    """The role of each vertex of encode(s), in encode's numbering."""
    offsets = chain_offsets(s.sig)
    roles: list[Role] = [("A",), ("B",), ("C",)]
    for tag in CYCLE_TAGS:
        roles.extend(("cycle", tag, pos) for pos in range(tag))
    roles.extend(("elem", x) for x in range(s.size))
    rel = None
    for name, tup in atoms(s.sig, range(s.size)):
        if name != rel:
            rel, lengths = name, interior_lengths(len(tup), offsets[name])
        roles.append(("junction", name, tup))
        for k, length in enumerate(lengths, 1):
            roles.extend(("chain", name, tup, k, pos) for pos in range(1, length + 1))
    return roles


# ---------------------------------------------------------------------------
# Decoding


@dataclass(frozen=True)
class DecodeResult:
    structure: FinStructure
    elements: tuple[int, ...]  # vertex of element index i, enumeration order
    image: tuple[int, ...]  # vertex v goes to image[v] in encode(structure)
    coded: CodedGraph = field(repr=False, compare=False)  # encode(structure)

    @cached_property
    def roles(self) -> tuple[tuple[int, Role], ...]:
        """(v, role) for each vertex v: the coding's role at image[v], the
        same object. The pairs, and the coding's provenance if it has not
        been read, are built on first use."""
        provenance = self.coded.provenance
        return tuple(zip(range(len(self.image)), [provenance[i][1] for i in self.image]))


def _tag_cycles(size: int, outdeg: list[int], succ: list[int]) -> list[list[int]]:
    """The cycles of v -> succ[v] on the vertices of out-degree 1, each in
    cycle order from its vertex first reached, in order of the walk that
    found it. A walk starts at each vertex of out-degree 1 that no walk has
    stepped on, in vertex order; it marks what it steps on and stops at a
    marked vertex, so every vertex is stepped on once."""
    # state[v] is 1 while v has out-degree 1 and is unmarked; the walk from
    # start marks with -1 - start, so the next start is a C-level index of 1
    state = outdeg[:]
    cycles = []
    for start in _positions(state, 1):
        mark = -1 - start
        v = start
        while state[v] == 1:
            state[v] = mark
            v = succ[v]
        if state[v] == mark:
            cycle = [v]
            w = succ[v]
            while w != v:
                cycle.append(w)
                w = succ[w]
            cycles.append(cycle)
    return cycles


def _positions(values: list[int], x: int) -> Iterator[int]:
    """Each index i with values[i] == x, in order. Each is found by a
    C-level scan on from the one before, so values may change behind it."""
    i = -1
    while True:
        try:
            i = values.index(x, i + 1)
        except ValueError:
            return
        yield i


@lru_cache(maxsize=2)  # see encode
def decode_full(g: DiGraph, sig: Optional[Signature] = None) -> DecodeResult:
    """Decode any isomorphic copy of a coded graph; raises MalformedCoding.

    One pass over the edges gives each vertex its out-degree, successor and
    in-neighbour, on integer arrays (a list only where the in-degree is 2
    or more). The tag cycles are the cycles of v -> succ[v] on the vertices
    of out-degree 1, and the hubs their entries. The elements are hub a's
    spokes in vertex order, read off the in-neighbour array, and each
    junction's chains are walked back on that array through in-degree-1
    vertices to the element they start at; no list is kept per chain, as
    the image writes walk each chain again. Each vertex's image, its number
    in encode of the decoded structure, is written by arithmetic on
    encode's numbering (_layout), and g is
    accepted exactly when that image maps it bijectively onto the coding,
    edge set onto edge set. That check is the only judge: the reading
    before it only keeps the candidate well formed and the coding no
    larger than g. It lets through graphs that are not codings (a fourth
    cycle through a vertex of out-degree 2, say), and the check rejects
    them, since a coding has exactly three cycles. A vertex's role is the
    coding's provenance entry at its image (DecodeResult.roles). With sig
    the decoded structure uses its relation names and must have one gadget
    per tuple per relation; without it, relation names are synthesized as
    R<arity> (this requires pairwise distinct arities, which is the only
    case shape inference can justify).
    """
    if g.allow_loops and any(u == v for u, v in g.edges):
        raise MalformedCoding("self-loop present")
    size = g.size
    outdeg = [0] * size
    succ = [0] * size  # the out-neighbour, where the out-degree is 1
    # the in-neighbour where the in-degree is 1; -1 where it is 0, and -2
    # where it is 2 or more, with the in-neighbours in inns
    pred = [-1] * size
    inns: dict[int, list[int]] = {}
    for u, v in g.edges:
        outdeg[u] += 1
        succ[u] = v
        p = pred[v]
        if p == -1:
            pred[v] = u
        elif p >= 0:
            pred[v] = -2
            inns[v] = [p, u]
        else:
            inns[v].append(u)

    def inn(v: int) -> list[int]:
        p = pred[v]
        return [p] if p >= 0 else inns[v] if p == -2 else []

    cycles = _tag_cycles(size, outdeg, succ)
    if len(cycles) != 3:
        raise MalformedCoding(f"expected 3 cycles of out-degree-1 vertices, found {len(cycles)}")
    image = [-1] * size
    hubs: dict[int, int] = {}
    for cycle in cycles:
        tag = len(cycle)
        if tag not in CYCLE_TAGS or tag in hubs:
            raise MalformedCoding(f"unexpected cycle of length {tag}")
        on_cycle = set(cycle)
        entries = [(u, pos) for pos, v in enumerate(cycle) for u in inn(v) if u not in on_cycle]
        if len(entries) != 1:
            raise MalformedCoding(f"{tag}-cycle needs exactly one entry edge, found {len(entries)}")
        hubs[tag], shift = entries[0]
        for pos, v in enumerate(cycle):
            image[v] = CYCLE_START[tag] + (pos - shift) % tag
    a, b, c = hubs[3], hubs[5], hubs[7]
    image[a], image[b], image[c] = 0, 1, 2

    # a's successors are the 3-cycle's entry vertex (in-degree 2), the
    # vertices whose one in-neighbour is a, and any others of in-degree 2 or
    # more; those are looked for only when the first two fall short of a's
    # out-degree
    entry = image.index(CYCLE_START[3])
    elements = list(_positions(pred, a))
    if len(elements) + 1 < outdeg[a]:
        elements = sorted(elements + [v for v, us in inns.items() if a in us and v != entry])
    # from here until the gadgets' images are written, image[v] >= ELEM_BASE
    # exactly at the elements
    for i, v in enumerate(elements, ELEM_BASE):
        image[v] = i

    expected: dict[tuple[int, ...], str] = {}  # relation by chain profile
    if sig is not None:
        offsets = chain_offsets(sig)
        # no gadget has more chains than the graph has vertices
        expected = {interior_lengths(arity, offsets[name]): name
                    for name, arity in sig.relations if arity <= size}

    positive = set(inn(b))
    decided: dict[tuple[str, tuple[int, ...]], bool] = {}
    # per gadget: relation, tuple, junction, and (length, starting element,
    # last node) of each chain in position order
    gadgets: list[tuple[str, tuple[int, ...], int, list[tuple[int, int, int]]]] = []
    observed_arities: set[int] = set()
    for y in sorted(positive.union(inn(c))):
        if pred[y] == -1:
            raise MalformedCoding(f"junction {y} has no chains")
        chains = []
        for last in sorted(inn(y)):
            node = last
            length = 1
            while True:
                p = pred[node]
                if p < 0:
                    raise MalformedCoding(f"chain node {node} has in-degree {len(inn(node))}")
                if image[p] >= ELEM_BASE:
                    break
                if outdeg[p] != 1 or length > size:
                    raise MalformedCoding(f"bad chain predecessor {p}")
                length += 1
                node = p
            # the walk checked every other interior node's out-degree
            if outdeg[last] != 1:
                raise MalformedCoding("chain node with out-degree != 1")
            chains.append((length, p, last))
        chains.sort()
        key = tuple([length for length, _, _ in chains])
        if sig is not None:
            if key not in expected:
                raise MalformedCoding(f"chain profile {key} matches no relation")
            name = expected[key]
        else:
            arity = len(key)
            if key != tuple(range(arity, 2 * arity)):
                raise MalformedCoding(f"chain profile {key} is not a plain gadget")
            name = f"R{arity}"
            observed_arities.add(arity)
        # the profile's lengths are distinct, one per tuple position in
        # order, so the sorted chains are in position order
        tup = tuple([image[starter] - ELEM_BASE for _, starter, _ in chains])
        decided[(name, tup)] = y in positive
        gadgets.append((name, tup, y, chains))

    if sig is None:
        sig = Signature(tuple((f"R{i}", i) for i in sorted(observed_arities)))
    n = len(elements)
    # an empty universe has no tuples, however large the arities
    for name, arity in sig.relations if n else ():
        if arity > size:
            raise MalformedCoding(
                f"relation {name} of arity {arity} needs gadgets of {arity} chains,"
                f" more than the graph's {size} vertices")
    # both counted before encode is called, so that encode builds no more
    # vertices than g has
    if len(decided) != sum(n ** arity for _, arity in sig.relations):
        raise MalformedCoding(f"{len(decided)} gadgets are not one per tuple over {n} elements")
    bases, coded_count = _layout(sig, n)
    if coded_count != size:
        raise MalformedCoding(f"the coding of the decoded structure has {coded_count} vertices,"
                              f" the graph {size}")
    for name, tup, y, chains in gadgets:
        first, width = bases[name]
        rank = 0  # tup's place in product order: its digits in base n
        for x in tup:
            rank = rank * n + x
        end = first + rank * width
        image[y] = end
        # each chain's interior again, from its last node back
        for length, _, node in chains:
            start = end
            end += length
            for i in range(end, start, -1):
                image[node] = i
                node = pred[node]
    if -1 in image:
        unclassified = [v for v in range(size) if image[v] == -1]
        raise MalformedCoding(f"unclassified vertices: {unclassified}")

    facts = frozenset(fk for fk, truth in decided.items() if truth)
    structure = FinStructure(sig, n, facts)
    coded = encode(structure)
    edges = coded.graph.edges
    # an injective image maps g's edges to distinct edges, so containment
    # and equal counts make the edge sets equal
    if (coded.graph.size != size or len(set(image)) != size or len(g.edges) != len(edges)
            or not all((image[u], image[v]) in edges for u, v in g.edges)):
        raise MalformedCoding("roles do not map the graph onto the coding of its decoding")
    return DecodeResult(structure, tuple(elements), tuple(image), coded)


def decode(g: DiGraph, sig: Optional[Signature] = None) -> FinStructure:
    return decode_full(g, sig).structure


# ---------------------------------------------------------------------------
# Canonical isomorphisms and morphism transport


def canonical_iso(s: FinStructure) -> Morphism:
    """The isomorphism s -> decode(encode(s)) through the element enumeration."""
    enc = encode(s)
    res = decode_full(enc.graph, s.sig)
    position = {v: i for i, v in enumerate(res.elements)}
    m = Morphism.from_image(res.structure.size, [position[ELEM_BASE + x] for x in range(s.size)])
    if not (m.is_bijective() and is_embedding(s, res.structure, m)):
        raise MalformedCoding("round trip did not produce an isomorphism")
    return m


def map_role(role: Role, point_map: Callable[[int], int]) -> Role:
    """Move a role's element codes through point_map; hub and cycle roles stay."""
    kind = role[0]
    if kind == "elem":
        return ("elem", point_map(role[1]))
    if kind == "chain":
        _, name, tup, k, pos = role
        return ("chain", name, tuple(point_map(x) for x in tup), k, pos)
    if kind == "junction":
        _, name, tup = role
        return ("junction", name, tuple(point_map(x) for x in tup))
    return role


def encode_morphism(src: FinStructure, dst: FinStructure, h: Morphism) -> Morphism:
    """Transport an embedding src -> dst to a graph embedding of the codings.

    Hubs and cycles map pointwise; element spokes and gadgets follow h. The
    junction polarity agrees on both sides exactly because h preserves and
    reflects facts, which is why h must be an embedding.
    """
    if not h.is_total() or not is_embedding(src, dst, h):
        raise ValueError("morphism is not an embedding, junctions would not transport")
    enc_src = encode(src)
    enc_dst = encode(dst)
    dst_vertex = enc_dst.vertex_of()
    point_map = h.mapping().__getitem__
    mapping = {
        v: dst_vertex[map_role(role, point_map)] for v, role in enc_src.provenance
    }
    m = Morphism.from_mapping(enc_src.graph.size, enc_dst.graph.size, mapping)
    if not is_graph_embedding(enc_src.graph, enc_dst.graph, m):
        raise MalformedCoding("transported map is not a graph embedding")
    return m


def lambda_graph(g: DiGraph, sig: Optional[Signature] = None) -> Morphism:
    """The role-respecting isomorphism g -> encode(decode(g)).

    decode_full builds it for its acceptance check, and accepts g only when
    it is a bijection carrying g's edges onto the coding's edges.
    """
    return Morphism.from_image(g.size, decode_full(g, sig).image)


def is_graph_embedding(source: DiGraph, target: DiGraph, m: Morphism) -> bool:
    """Edge-level embedding check, linear in the edge sets."""
    if not m.is_total() or m.source_size != source.size or m.target_size != target.size:
        return False
    mapping = m.mapping()
    image = set(mapping.values())
    inverse = {t: s for s, t in mapping.items()}
    for u, v in source.edges:
        if (mapping[u], mapping[v]) not in target.edges:
            return False
    for x, y in target.edges:
        if x in image and y in image and (inverse[x], inverse[y]) not in source.edges:
            return False
    return True


# ---------------------------------------------------------------------------
# Provenance sidecar text


def render_role(role: Role) -> str:
    kind = role[0]
    if kind in ("A", "B", "C"):
        return f"role={kind}"
    if kind == "cycle":
        return f"role=CycleVertex tag={role[1]} pos={role[2]}"
    if kind == "elem":
        return f"role=Element x={role[1]}"
    if kind == "chain":
        _, name, tup, k, pos = role
        return f"role=ChainNode {name} {','.join(map(str, tup))} k={k} pos={pos}"
    if kind == "junction":
        _, name, tup = role
        return f"role=Junction {name} {','.join(map(str, tup))}"
    raise ValueError(f"unknown role {role!r}")


def render_provenance(coded: CodedGraph) -> str:
    return "".join(f"v {v} {render_role(role)}\n" for v, role in coded.provenance)
