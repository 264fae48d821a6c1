"""Seeded random corpora: structures, graphs, embedding instances, patterns.

Everything is driven by an explicit random.Random so identical seeds give
identical corpora, which the CLI's determinism guarantee relies on.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import DiGraph, FinStructure, Morphism, Signature, atoms

_REL_NAMES = ("R", "S", "T", "U")


def random_signature(rng: random.Random, max_relations: int = 3, max_arity: int = 3) -> Signature:
    """Random signature with pairwise distinct arities (the coding's home turf)."""
    count = rng.randint(1, min(max_relations, max_arity))
    arities = sorted(rng.sample(range(1, max_arity + 1), count))
    return Signature(tuple((_REL_NAMES[i], a) for i, a in enumerate(arities)))


def random_structure(
    rng: random.Random,
    max_size: int = 4,
    sig: Optional[Signature] = None,
    max_relations: int = 3,
    max_arity: int = 3,
) -> FinStructure:
    if sig is None:
        sig = random_signature(rng, max_relations, max_arity)
    size = rng.randint(0, max_size)
    density = rng.choice((0.2, 0.5, 0.8))
    facts = frozenset(atom for atom in atoms(sig, range(size)) if rng.random() < density)
    return FinStructure(sig, size, facts)


def random_graph(rng: random.Random, max_size: int = 6, min_size: int = 0) -> DiGraph:
    size = rng.randint(min_size, max_size)
    density = rng.choice((0.2, 0.4, 0.6))
    edges = {
        (u, v)
        for u in range(size)
        for v in range(size)
        if u != v and rng.random() < density
    }
    return DiGraph.of(size, edges)


def random_permuted_copy(rng: random.Random, s: FinStructure) -> tuple[FinStructure, Morphism]:
    """An isomorphic copy via a random permutation, plus the witnessing map."""
    perm = list(range(s.size))
    rng.shuffle(perm)
    facts = frozenset(
        (name, tuple(perm[x] for x in tup)) for name, tup in s.facts
    )
    copy = FinStructure(s.sig, s.size, facts)
    return copy, Morphism.from_mapping(s.size, s.size, {i: perm[i] for i in range(s.size)})


def random_permuted_graph(rng: random.Random, g: DiGraph) -> tuple[DiGraph, Morphism]:
    perm = list(range(g.size))
    rng.shuffle(perm)
    edges = frozenset((perm[u], perm[v]) for u, v in g.edges)
    copy = DiGraph(g.size, edges, g.allow_loops)
    return copy, Morphism.from_mapping(g.size, g.size, {i: perm[i] for i in range(g.size)})


def random_embedded_pair(
    rng: random.Random,
    max_size: int = 4,
    sig: Optional[Signature] = None,
    max_relations: int = 3,
    max_arity: int = 3,
) -> tuple[FinStructure, FinStructure, Morphism]:
    """(source, target, embedding): source is an induced substructure of target."""
    target = random_structure(rng, max_size, sig, max_relations, max_arity)
    source, h = random_induced_substructure(rng, target)
    return source, target, h


def random_graph_embedding(
    rng: random.Random, max_size: int = 5, min_size: int = 0
) -> tuple[DiGraph, DiGraph, Morphism]:
    """(source, target, embedding): source an induced subgraph of target."""
    target = random_graph(rng, max_size, min_size)
    source, h = random_induced_subgraph(rng, target)
    return source, target, h


def random_induced_substructure(
    rng: random.Random, target: FinStructure
) -> tuple[FinStructure, Morphism]:
    """Carve a random induced substructure out of a given structure."""
    k = rng.randint(0, target.size)
    chosen = sorted(rng.sample(range(target.size), k))
    back = {v: i for i, v in enumerate(chosen)}
    facts = frozenset(
        (name, tuple(back[x] for x in tup))
        for name, tup in target.facts
        if all(x in back for x in tup)
    )
    source = FinStructure(target.sig, k, facts)
    return source, Morphism.from_mapping(k, target.size, {i: chosen[i] for i in range(k)})


def random_induced_subgraph(rng: random.Random, target: DiGraph) -> tuple[DiGraph, Morphism]:
    """Carve a random induced subgraph out of a given graph."""
    k = rng.randint(0, target.size)
    chosen = sorted(rng.sample(range(target.size), k))
    back = {v: i for i, v in enumerate(chosen)}
    edges = frozenset(
        (back[u], back[v]) for u, v in target.edges if u in back and v in back
    )
    source = DiGraph(k, edges, target.allow_loops)
    return source, Morphism.from_mapping(k, target.size, {i: chosen[i] for i in range(k)})


def random_induced_chain(rng: random.Random, top):
    """(a, h1, b, h2, top): b induced in top, a induced in b, h1 and h2 the inclusions.

    top is a structure or a graph; each carve draws from rng in that order.
    """
    carve = random_induced_subgraph if isinstance(top, DiGraph) else random_induced_substructure
    b, h2 = carve(rng, top)
    a, h1 = carve(rng, b)
    return a, h1, b, h2, top


def random_bits(rng: random.Random, max_len: int) -> str:
    """A bit string whose length is drawn first, uniformly from 0..max_len."""
    return "".join(str(rng.randint(0, 1)) for _ in range(rng.randint(0, max_len)))


def random_pattern(rng: random.Random, stabilize_by: int = 20) -> str:
    """A flip history of the given length followed by its constant limit bit."""
    assert stabilize_by >= 1
    return "".join(str(rng.randint(0, 1)) for _ in range(stabilize_by)) + str(rng.randint(0, 1))


def complete_graph_structure(n: int) -> FinStructure:
    """n elements, one binary relation holding on every ordered pair of
    distinct elements (the symmetric clique used in the pinned game values)."""
    sig = Signature.of(("E", 2))
    facts = {("E", (u, v)) for u in range(n) for v in range(n) if u != v}
    return FinStructure(sig, n, frozenset(facts))


def pure_set_structure(n: int) -> FinStructure:
    """n elements over the one-binary-relation signature, no facts."""
    return FinStructure(Signature.of(("E", 2)), n, frozenset())
