"""Exhaustive embedding and isomorphism search with correctness-neutral pruning.

Embedding means the strong relational sense: an injective map that preserves
and reflects every relation, i.e. an isomorphism onto an induced
substructure. Searches are deterministic given their inputs and raise
BudgetExhausted instead of guessing when the node cap is hit.

Isomorphism search first refines the disjoint union of its two inputs to a
stable colour partition, so colours compare across the two sides. It stops
with "not isomorphic" at the first round whose colour histograms differ
between the sides; otherwise each element may only map to elements of its
own colour. Embedding search prunes by occurrence counts alone.
"""

from __future__ import annotations

from collections import Counter
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


def _joint_colors(a: FinStructure, b: FinStructure,
                  profile_a: dict[int, tuple[tuple[str, int, int], ...]],
                  profile_b: dict[int, tuple[tuple[str, int, int], ...]],
                  ) -> tuple[list[int], list[int], bool]:
    """Stable colour refinement of the disjoint union a + b.

    Returns (colors_a, colors_b, balanced). Colours are ids shared by both
    sides, so an isomorphism maps each element to one of the same colour.
    Before each round the two halves' colour histograms are compared;
    balanced=False means they differed (so a and b are not isomorphic) and
    the colours are those of the round that showed it. Otherwise the
    refinement runs until no class splits. A round re-keys only the elements
    that share a fact with an element whose colour changed in the previous
    round (Paige & Tarjan 1987; Berkholz, Bonsma & Grohe 2013); the others'
    surroundings are unchanged, so they keep their colour.
    """
    n = a.size
    ids: dict[object, int] = {}
    color = [ids.setdefault(p, len(ids))
             for p in [*profile_a.values(), *profile_b.values()]]
    incident: list[list[tuple[str, tuple[int, ...], tuple[int, ...]]]] = [
        [] for _ in color]
    for shift, s in ((0, a), (n, b)):
        for name, tup in s.facts:
            tup = tuple(x + shift for x in tup)
            for x in set(tup):
                incident[x].append((name, tuple(p for p, e in enumerate(tup) if e == x), tup))
    class_size = Counter(color)
    fresh = len(ids)
    changed = range(len(color))
    while True:
        if Counter(color[:n]) != Counter(color[n:]):
            return color[:n], color[n:], False
        rekey = sorted({e for y in changed for _, _, tup in incident[y] for e in tup})
        if not rekey:
            return color[:n], color[n:], True
        groups: dict[int, dict[tuple, list[int]]] = {}
        for x in rekey:
            env = tuple(sorted((name, pos, tuple([color[e] for e in tup]))
                               for name, pos, tup in incident[x]))
            groups.setdefault(color[x], {}).setdefault(env, []).append(x)
        changed = []
        for c, by_env in groups.items():
            # Members not re-keyed keep the class id; if there are none,
            # the first group keeps it. Every other group gets a fresh id.
            members = iter(by_env.values())
            if sum(map(len, by_env.values())) == class_size[c]:
                next(members)
            for group in members:
                class_size[c] -= len(group)
                class_size[fresh] = len(group)
                for x in group:
                    color[x] = fresh
                changed.extend(group)
                fresh += 1


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
            src_color, dst_color, self.feasible = _joint_colors(
                source, target, self.src_profile, self.dst_profile)
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
    """A bijective embedding, or None.

    Joint colour refinement of a + b prunes the search: None without search
    when the two sides' colour histograms differ at some round, otherwise
    candidates restricted to the same stable colour.
    """
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
