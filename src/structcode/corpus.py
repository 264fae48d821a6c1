"""Seeded random corpora: structures, graphs, embedding instances, patterns.

Everything is driven by an explicit random.Random so identical seeds give
identical corpora, which the CLI's determinism guarantee relies on.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, TypeVar

from .core import DiGraph, Fact, FinStructure, Morphism, Signature, atoms

_REL_NAMES = ("R", "S", "T", "U")

Struct = TypeVar("Struct", FinStructure, DiGraph)


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


def _like(s: Struct, size: int, facts: Iterable[Fact]) -> Struct:
    """A structure of s's kind on size elements: a DiGraph keeps its
    allow_loops and takes the tuples of facts as edges, a FinStructure its sig."""
    if isinstance(s, DiGraph):
        return DiGraph(size, frozenset(tup for _, tup in facts), s.allow_loops)
    return FinStructure(s.sig, size, frozenset(facts))


def random_permuted_copy(rng: random.Random, s: Struct) -> tuple[Struct, Morphism]:
    """An isomorphic copy of a structure or graph via a random permutation,
    in the kind it was given, plus the witnessing map."""
    perm = list(range(s.size))
    rng.shuffle(perm)
    copy = _like(s, s.size, ((name, tuple(perm[x] for x in tup)) for name, tup in s.facts))
    return copy, Morphism(s.size, s.size, tuple(enumerate(perm)))


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
    source, h = random_induced_substructure(rng, target)
    return source, target, h


def random_induced_substructure(rng: random.Random, target: Struct) -> tuple[Struct, Morphism]:
    """Carve a random induced substructure (or subgraph) out of a given
    structure (or graph), in the kind it was given."""
    k = rng.randint(0, target.size)
    chosen = sorted(rng.sample(range(target.size), k))
    back = {v: i for i, v in enumerate(chosen)}
    source = _like(target, k, ((name, tuple(back[x] for x in tup))
                               for name, tup in target.facts if all(x in back for x in tup)))
    return source, Morphism(k, target.size, tuple(enumerate(chosen)))


# the graph names of the two samplers above
random_permuted_graph = random_permuted_copy
random_induced_subgraph = random_induced_substructure


def random_induced_chain(rng: random.Random, top: Struct):
    """(a, h1, b, h2, top): b induced in top, a induced in b, h1 and h2 the inclusions.

    top is a structure or a graph; each carve draws from rng in that order.
    """
    b, h2 = random_induced_substructure(rng, top)
    a, h1 = random_induced_substructure(rng, b)
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
