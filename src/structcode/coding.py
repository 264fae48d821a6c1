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

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .core import DiGraph, FinStructure, Morphism, Signature, _cyclic_components, adjacency, atoms
from .search import is_embedding

Role = tuple

CYCLE_TAGS = (3, 5, 7)
HUB_ROLES = (("A",), ("B",), ("C",))


class MalformedCoding(Exception):
    """The graph is not an isomorphic copy of any coded structure."""


@dataclass(frozen=True)
class CodedGraph:
    graph: DiGraph
    provenance: tuple[tuple[int, Role], ...]

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


# Round trips encode and decode the same structure several times in a row:
# canonical_iso(s) re-encodes s and re-decodes its graph, lambda_graph(g)
# re-decodes g, whose check re-encodes the result (equal to the structure g
# came from), and encode_morphism(a, b, h) is followed by encode(a) and encode(b).
# Two entries serve all of these. Results are frozen, and lru_cache is
# thread-safe and caches no exception. Measured gain, with the list-built
# edges below: coding-roundtrip 50.7 -> 113.2 verdicts/s (medians of 10
# alternating pairs of 20 s runs, 2-core VM, Python 3.11.7). Size bound:
# there, a coding holds up to 2.1 MB and its decoding up to 1.2 MB, 0.34 MB
# a pair on average (tracemalloc), so 512 entries would hold about 170 MB.
@lru_cache(maxsize=2)
def encode(s: FinStructure) -> CodedGraph:
    """Deterministic coding; vertex 0, 1, 2 are the hubs a, b, c."""
    offsets = chain_offsets(s.sig)
    a, b, c = 0, 1, 2
    roles: list[Role] = [("A",), ("B",), ("C",)]
    edges: list[tuple[int, int]] = []  # distinct by construction
    for hub, tag in zip((a, b, c), CYCLE_TAGS):
        first = len(roles)
        edges.append((hub, first))
        for pos in range(tag):
            roles.append(("cycle", tag, pos))
            edges.append((first + pos, first + (pos + 1) % tag))

    elem_base = len(roles)
    for x in range(s.size):
        edges.append((a, len(roles)))
        roles.append(("elem", x))

    # chain lengths at a relation's first tuple: none on an empty universe
    rel = None
    for name, tup in atoms(s.sig, range(s.size)):
        if name != rel:
            rel, lengths = name, interior_lengths(len(tup), offsets[name])
        y = len(roles)
        roles.append(("junction", name, tup))
        for k, length in enumerate(lengths, 1):
            prev = elem_base + tup[k - 1]
            for pos in range(1, length + 1):
                v = len(roles)
                edges.append((prev, v))
                roles.append(("chain", name, tup, k, pos))
                prev = v
            edges.append((prev, y))
        edges.append((y, b if s.holds(name, tup) else c))

    graph = DiGraph(len(roles), frozenset(edges))
    return CodedGraph(graph, tuple(enumerate(roles)))


# ---------------------------------------------------------------------------
# Decoding


@dataclass(frozen=True)
class DecodeResult:
    structure: FinStructure
    roles: tuple[tuple[int, Role], ...]
    elements: tuple[int, ...]  # vertex of element index i, enumeration order
    image: tuple[int, ...]  # vertex v goes to image[v] in encode(structure)


def _find_cycles(g: DiGraph, out: list[list[int]]):
    """The three tagged cycles as {tag: list of vertices in cycle order}.

    The components of more than one vertex are checked in order of their
    least vertex, so on a graph with several faults the one reported first
    does not depend on how the components were found.
    """
    comps = _cyclic_components(g.size, out)
    if len(comps) != 3:
        raise MalformedCoding(f"expected 3 cycles, found {len(comps)} nontrivial components")
    by_tag: dict[int, list[int]] = {}
    for comp in comps:
        comp_set = set(comp)
        for v in comp:
            succ = [w for w in out[v] if w in comp_set]
            if len(succ) != 1 or len(out[v]) != 1:
                raise MalformedCoding(f"cycle vertex {v} has out-degree != 1")
        # a strongly connected component whose every vertex has its one
        # out-edge inside it is a single cycle: the walk from start returns
        # to start after exactly len(comp) steps
        start = comp[0]
        order = [start]
        cur = out[start][0]
        while cur != start:
            order.append(cur)
            cur = out[cur][0]
        tag = len(order)
        if tag not in CYCLE_TAGS or tag in by_tag:
            raise MalformedCoding(f"unexpected cycle of length {tag}")
        by_tag[tag] = order
    return by_tag


@lru_cache(maxsize=2)  # see encode
def decode_full(g: DiGraph, sig: Optional[Signature] = None) -> DecodeResult:
    """Decode any isomorphic copy of a coded graph; raises MalformedCoding.

    The hubs, elements and gadgets are read off g, one role per vertex, and
    g is accepted exactly when these roles map it bijectively onto encode of
    the decoded structure, edge set onto edge set: the coded shape is the one
    encode writes. With sig the decoded structure uses its relation names
    and must have one gadget per tuple per relation; without it, relation
    names are synthesized as R<arity> (this requires pairwise distinct
    arities, which is the only case shape inference can justify).
    """
    if g.allow_loops and any(u == v for u, v in g.edges):
        raise MalformedCoding("self-loop present")
    out, inn = adjacency(g)
    roles: dict[int, Role] = {}

    def assign(v: int, role: Role) -> None:
        if v in roles:
            raise MalformedCoding(f"vertex {v} has roles {roles[v]} and {role}")
        roles[v] = role

    hubs: dict[int, int] = {}
    for tag, order in _find_cycles(g, out).items():
        comp_set = set(order)
        entries = [(u, v) for v in order for u in inn[v] if u not in comp_set]
        if len(entries) != 1:
            raise MalformedCoding(f"{tag}-cycle needs exactly one entry edge, found {len(entries)}")
        hubs[tag], entry = entries[0]
        shift = order.index(entry)
        for pos, v in enumerate(order[shift:] + order[:shift]):
            assign(v, ("cycle", tag, pos))
    a, b, c = hubs[3], hubs[5], hubs[7]
    for hub, role in zip((a, b, c), HUB_ROLES):
        assign(hub, role)

    elements = sorted(v for v in out[a] if roles.get(v) != ("cycle", 3, 0))
    elem_index = {v: i for i, v in enumerate(elements)}
    for v, i in elem_index.items():
        assign(v, ("elem", i))

    expected: dict[tuple[int, ...], tuple[str, int, int]] = {}
    if sig is not None:
        offsets = chain_offsets(sig)
        # no gadget has more chains than the graph has vertices
        expected = {interior_lengths(arity, offsets[name]): (name, arity, offsets[name])
                    for name, arity in sig.relations if arity <= g.size}

    positive = set(inn[b])
    decided: dict[tuple[str, tuple[int, ...]], bool] = {}
    observed_arities: set[int] = set()
    for y in sorted(positive.union(inn[c])):
        if not inn[y]:
            raise MalformedCoding(f"junction {y} has no chains")
        chains = []
        for last in inn[y]:
            interior = [last]
            node = last
            while True:
                preds = inn[node]
                if len(preds) != 1:
                    raise MalformedCoding(f"chain node {node} has in-degree {len(preds)}")
                p = preds[0]
                if p in elem_index:
                    starter = p
                    break
                if p in roles or len(out[p]) != 1 or len(interior) > g.size:
                    raise MalformedCoding(f"bad chain predecessor {p}")
                interior.append(p)
                node = p
            # the walk checked every other interior node's out-degree
            if len(out[last]) != 1:
                raise MalformedCoding("chain node with out-degree != 1")
            chains.append((len(interior), starter, list(reversed(interior))))
        key = tuple(sorted(length for length, _, _ in chains))
        if sig is not None:
            if key not in expected:
                raise MalformedCoding(f"chain profile {key} matches no relation")
            name, arity, offset = expected[key]
        else:
            arity = len(key)
            if key != tuple(range(arity, 2 * arity)):
                raise MalformedCoding(f"chain profile {key} is not a plain gadget")
            name, offset = f"R{arity}", 0
            observed_arities.add(arity)
        # the profile's lengths are distinct, one per tuple position
        by_length = {length: (starter, nodes) for length, starter, nodes in chains}
        tup = tuple(
            elem_index[by_length[offset + arity + k - 1][0]] for k in range(1, arity + 1)
        )
        decided[(name, tup)] = y in positive
        assign(y, ("junction", name, tup))
        for k in range(1, arity + 1):
            for pos, node in enumerate(by_length[offset + arity + k - 1][1], 1):
                assign(node, ("chain", name, tup, k, pos))

    if sig is None:
        sig = Signature(tuple((f"R{i}", i) for i in sorted(observed_arities)))
    size = len(elements)
    # an empty universe has no tuples, however large the arities
    for name, arity in sig.relations if size else ():
        if arity > g.size:
            raise MalformedCoding(
                f"relation {name} of arity {arity} needs gadgets of {arity} chains,"
                f" more than the graph's {g.size} vertices")
    # counted before encode is called, so that encode builds no more
    # vertices than g has
    if len(decided) != sum(size ** arity for _, arity in sig.relations):
        raise MalformedCoding(f"{len(decided)} gadgets are not one per tuple over {size} elements")
    if len(roles) != g.size:
        unclassified = [v for v in range(g.size) if v not in roles]
        raise MalformedCoding(f"unclassified vertices: {unclassified}")

    facts = frozenset(fk for fk, truth in decided.items() if truth)
    structure = FinStructure(sig, size, facts)
    coded = encode(structure)
    vertex_of = coded.vertex_of()
    ordered = tuple(sorted(roles.items()))
    image = tuple(vertex_of[role] for _, role in ordered)
    edges = coded.graph.edges
    # an injective image maps g's edges to distinct edges, so containment
    # and equal counts make the edge sets equal
    if (coded.graph.size != g.size or len(set(image)) != g.size or len(g.edges) != len(edges)
            or not all((image[u], image[v]) in edges for u, v in g.edges)):
        raise MalformedCoding("roles do not map the graph onto the coding of its decoding")
    return DecodeResult(structure, ordered, tuple(elements), image)


def decode(g: DiGraph, sig: Optional[Signature] = None) -> FinStructure:
    return decode_full(g, sig).structure


# ---------------------------------------------------------------------------
# Canonical isomorphisms and morphism transport


def canonical_iso(s: FinStructure) -> Morphism:
    """The isomorphism s -> decode(encode(s)) through the element enumeration."""
    enc = encode(s)
    res = decode_full(enc.graph, s.sig)
    position = {v: i for i, v in enumerate(res.elements)}
    mapping = {role[1]: position[v] for v, role in enc.provenance if role[0] == "elem"}
    m = Morphism.from_mapping(s.size, res.structure.size, mapping)
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
    return Morphism(g.size, g.size, tuple(enumerate(decode_full(g, sig).image)))


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
