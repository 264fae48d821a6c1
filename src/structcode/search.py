"""Exhaustive embedding and isomorphism search with correctness-neutral pruning.

Embedding means the strong relational sense: an injective map that preserves
and reflects every relation, i.e. an isomorphism onto an induced
substructure. Searches are deterministic given their inputs and raise
BudgetExhausted instead of guessing when the node cap is hit.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple, Optional, Union

from .core import (
    BudgetExhausted,
    DEFAULT_BUDGET,
    DiGraph,
    FinStructure,
    Morphism,
    structure_of_graph,
)

Structish = Union[FinStructure, DiGraph]


def _as_structure(x: Structish) -> FinStructure:
    if isinstance(x, DiGraph):
        return structure_of_graph(x)
    return x


def _facts_by_elem(s: FinStructure) -> dict[int, list[tuple[str, tuple[int, ...]]]]:
    by_elem: dict[int, list[tuple[str, tuple[int, ...]]]] = {i: [] for i in range(s.size)}
    for name, tup in s.facts:
        for x in set(tup):
            by_elem[x].append((name, tup))
    return by_elem


def _profile(s: FinStructure) -> dict[int, tuple[tuple[str, int, int], ...]]:
    """Per element: sorted (relation, position, count) occurrence vector."""
    counts: dict[int, dict[tuple[str, int], int]] = {i: {} for i in range(s.size)}
    for name, tup in s.facts:
        for pos, x in enumerate(tup):
            key = (name, pos)
            counts[x][key] = counts[x].get(key, 0) + 1
    return {
        i: tuple(sorted((name, pos, c) for (name, pos), c in counts[i].items()))
        for i in range(s.size)
    }


def _dominates(big: tuple[tuple[str, int, int], ...], small: tuple[tuple[str, int, int], ...]) -> bool:
    lookup = {(name, pos): c for name, pos, c in big}
    return all(lookup.get((name, pos), 0) >= c for name, pos, c in small)


def _canon_colors(keys: dict[int, object]) -> dict[int, int]:
    """Replace comparable keys by dense ids, stable across processes."""
    ranking = {k: rank for rank, k in enumerate(sorted(set(keys.values())))}
    return {i: ranking[k] for i, k in keys.items()}


def _refine_colors(s: FinStructure, rounds: int = 4) -> dict[int, int]:
    """Color refinement: iso-invariant vertex colors, used only for iso pruning."""
    color = _canon_colors(dict(_profile(s)))
    by_elem = _facts_by_elem(s)
    for _ in range(rounds):
        keys: dict[int, object] = {}
        for i in range(s.size):
            env = sorted(
                (name, tuple(pos for pos, e in enumerate(tup) if e == i),
                 tuple(color[e] for e in tup))
                for name, tup in by_elem[i]
            )
            keys[i] = (color[i], tuple(env))
        nxt = _canon_colors(keys)
        if len(set(nxt.values())) == len(set(color.values())):
            return nxt
        color = nxt
    return color


class _Searcher:
    def __init__(self, source: FinStructure, target: FinStructure, budget: int,
                 order_by_constraint: bool, iso: bool):
        if source.sig != target.sig:
            raise ValueError("source and target must share a signature")
        self.source = source
        self.target = target
        self.budget = budget
        self.nodes = 0
        self.src_facts = _facts_by_elem(source)
        self.dst_facts = _facts_by_elem(target)
        self.src_profile = _profile(source)
        self.dst_profile = _profile(target)
        if order_by_constraint:
            self.order = sorted(
                range(source.size),
                key=lambda i: (-sum(c for _, _, c in self.src_profile[i]), i),
            )
        else:
            self.order = list(range(source.size))
        self.candidates: dict[int, list[int]] = {}
        if iso:
            src_color = _refine_colors(source)
            dst_color = _refine_colors(target)
            src_hist = sorted(src_color.values())
            dst_hist = sorted(dst_color.values())
            self.feasible = src_hist == dst_hist
            for i in range(source.size):
                self.candidates[i] = [
                    t for t in range(target.size)
                    if dst_color[t] == src_color[i]
                ]
        else:
            self.feasible = True
            for i in range(source.size):
                self.candidates[i] = [
                    t for t in range(target.size)
                    if _dominates(self.dst_profile[t], self.src_profile[i])
                ]

    def _consistent(self, fwd: dict[int, int], bwd: dict[int, int], x: int, t: int) -> bool:
        fwd[x] = t
        bwd[t] = x
        try:
            for name, tup in self.src_facts[x]:
                if all(e in fwd for e in tup):
                    if not self.target.holds(name, tuple(fwd[e] for e in tup)):
                        return False
            for name, tup in self.dst_facts[t]:
                if all(e in bwd for e in tup):
                    if not self.source.holds(name, tuple(bwd[e] for e in tup)):
                        return False
            return True
        finally:
            del fwd[x]
            del bwd[t]

    def run(self, cap: Optional[int]) -> tuple[list[Morphism], bool]:
        """Collect embeddings; cap=None means stop at the first one.

        Depth-first over self.order with an explicit stack of per-depth
        candidate iterators, so the Python stack does not grow with the
        source size.
        """
        if not self.feasible:
            return [], True
        found: list[Morphism] = []
        fwd: dict[int, int] = {}
        bwd: dict[int, int] = {}
        stack: list[Iterator[int]] = []
        while True:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExhausted(
                    f"embedding search exceeded {self.budget} nodes",
                    used=self.nodes, budget=self.budget,
                )
            if len(stack) == len(self.order):
                if cap is not None and len(found) == cap:
                    return found, False
                found.append(Morphism.from_mapping(self.source.size, self.target.size, fwd))
                if cap is None:
                    return found, True
            else:
                stack.append(iter(self.candidates[self.order[len(stack)]]))
            # Move the deepest level to its next consistent candidate,
            # dropping exhausted levels; an empty stack ends the search.
            while stack:
                x = self.order[len(stack) - 1]
                if x in fwd:
                    del bwd[fwd.pop(x)]
                t = next((t for t in stack[-1]
                          if t not in bwd and self._consistent(fwd, bwd, x, t)), None)
                if t is not None:
                    fwd[x] = t
                    bwd[t] = x
                    break
                stack.pop()
            else:
                return found, True


def find_embedding(source: Structish, target: Structish,
                   budget: int = DEFAULT_BUDGET) -> Optional[Morphism]:
    """First embedding found, or None after exhausting the search space."""
    src, dst = _as_structure(source), _as_structure(target)
    if src.size > dst.size:
        return None
    searcher = _Searcher(src, dst, budget, order_by_constraint=True, iso=False)
    found, _ = searcher.run(cap=None)
    return found[0] if found else None


def find_isomorphism(a: Structish, b: Structish,
                     budget: int = DEFAULT_BUDGET) -> Optional[Morphism]:
    """A bijective embedding, or None; color refinement prunes the search."""
    sa, sb = _as_structure(a), _as_structure(b)
    if sa.size != sb.size or len(sa.facts) != len(sb.facts):
        return None
    searcher = _Searcher(sa, sb, budget, order_by_constraint=True, iso=True)
    found, _ = searcher.run(cap=None)
    return found[0] if found else None


class Embeddings(NamedTuple):
    morphisms: list[Morphism]
    complete: bool


def enumerate_embeddings(a: Structish, b: Structish, cap: int,
                         budget: int = DEFAULT_BUDGET) -> Embeddings:
    """All embeddings in index-lexicographic order, up to cap.

    complete=False flags that the cap cut the enumeration short.
    """
    src, dst = _as_structure(a), _as_structure(b)
    if src.size > dst.size:
        return Embeddings([], True)
    searcher = _Searcher(src, dst, budget, order_by_constraint=False, iso=False)
    found, complete = searcher.run(cap=cap)
    return Embeddings(found, complete)


def automorphisms(s: Structish, budget: int = DEFAULT_BUDGET) -> list[Morphism]:
    """Every automorphism (embeddings of a structure into itself are bijective)."""
    struct = _as_structure(s)
    total = 1
    for i in range(2, struct.size + 1):
        total *= i
    return enumerate_embeddings(struct, struct, cap=total + 1, budget=budget).morphisms


def is_embedding(source: Structish, target: Structish, m: Morphism) -> bool:
    """Independent verifier: total, injective, preserves and reflects all facts.

    Deliberately naive (quantifies over every tuple of mapped elements) so
    that search results are checked by code that shares nothing with the
    search.
    """
    src, dst = _as_structure(source), _as_structure(target)
    if src.sig != dst.sig:
        return False
    if m.source_size != src.size or m.target_size != dst.size:
        return False
    if not m.is_total():
        return False
    mapping = m.mapping()
    for name, arity in src.sig.relations:
        for tup in product(range(src.size), repeat=arity):
            image = tuple(mapping[x] for x in tup)
            if src.holds(name, tup) != dst.holds(name, image):
                return False
    return True


def is_isomorphism(a: Structish, b: Structish, m: Morphism) -> bool:
    return m.is_bijective() and is_embedding(a, b, m)
