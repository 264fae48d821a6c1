"""Verdict checks that share no code with the paths the benchmark times.

Everything here works from the plain data of structures and graphs
(`size`, `sig.relations`, `holds`, `edges`) with itertools, so a bug in
the package's search, coding or game code cannot also hide in its check.
"""

from __future__ import annotations

from itertools import permutations, product


def is_structure_iso(a, b, mapping: dict) -> bool:
    """`mapping` is a bijection a -> b that preserves and reflects every fact."""
    if a.size != b.size or a.sig.relations != b.sig.relations:
        return False
    if sorted(mapping) != list(range(a.size)) or sorted(mapping.values()) != list(range(b.size)):
        return False
    for name, arity in a.sig.relations:
        for tup in product(range(a.size), repeat=arity):
            if a.holds(name, tup) != b.holds(name, tuple(mapping[x] for x in tup)):
                return False
    return True


def is_graph_iso(g, h, mapping: dict) -> bool:
    """`mapping` is a bijection g -> h carrying the edge set onto the edge set."""
    if g.size != h.size:
        return False
    if sorted(mapping) != list(range(g.size)) or sorted(mapping.values()) != list(range(h.size)):
        return False
    return {(mapping[u], mapping[v]) for u, v in g.edges} == set(h.edges)


def brute_isomorphic(a, b) -> bool:
    """Isomorphism by trying every permutation (small structures only)."""
    if a.size != b.size or len(a.facts) != len(b.facts):
        return False
    return any(is_structure_iso(a, b, dict(enumerate(p))) for p in permutations(range(a.size)))


def ef_closed_form(n: int, m: int, rounds: int) -> bool:
    """Duplicator wins the game on two pure sets (or two cliques) of sizes n, m."""
    return n == m or min(n, m) >= rounds


def transfers(src, target_holds, images: list) -> bool:
    """C7-style sweep: the injective point map preserves and reflects every
    fact of the restriction `src` against the target oracle's decider."""
    if len(set(images)) != len(images):
        return False
    for name, arity in src.sig.relations:
        for tup in product(range(src.size), repeat=arity):
            if src.holds(name, tup) != target_holds(name, tuple(images[x] for x in tup)):
                return False
    return True
