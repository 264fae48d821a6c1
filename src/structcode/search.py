"""Exhaustive embedding and isomorphism search with correctness-neutral pruning.

Embedding means the strong relational sense: an injective map that preserves
and reflects every relation, i.e. an isomorphism onto an induced
substructure. One generator, _Searcher.embeddings, yields the embeddings in
a fixed order and each public search takes what it needs; a search raises
BudgetExhausted instead of guessing when the node cap is hit.

Isomorphism search first refines the disjoint union of its two inputs to a
stable colour partition, so colours compare across the two sides. It stops
with "not isomorphic" at the first round whose colour histograms differ
between the sides; otherwise each element may only map to elements of its
own colour. Embedding search prunes by occurrence counts alone.

Each search reads each structure's facts once, into a per-element index
(_incidence). The consistency check, the search order, the embedding
candidates and the colour refinement all read that index. Both structures
must share a signature; a mismatch raises ValueError before any size or
fact-count shortcut answers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from heapq import merge
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .core import (
    BudgetExhausted,
    DEFAULT_BUDGET,
    DiGraph,
    FinStructure,
    Morphism,
    atoms,
    structure_of_graph,
)

Structish = Union[FinStructure, DiGraph]


def _as_structure(x: Structish) -> FinStructure:
    if isinstance(x, DiGraph):
        return structure_of_graph(x)
    return x


# one element's facts: (relation, positions of the element, tuple) for each
# fact that contains it
Incidence = list[tuple[str, tuple[int, ...], tuple[int, ...]]]


def _incidence(s: FinStructure) -> list[Incidence]:
    """The fact index of a search, read once per structure: inc[x] is x's Incidence."""
    inc: list[Incidence] = [[] for _ in range(s.size)]
    for name, tup in s.facts:
        if len(set(tup)) == len(tup):
            for p, x in enumerate(tup):
                inc[x].append((name, (p,), tup))
        else:
            for x in set(tup):
                inc[x].append((name, tuple(p for p, e in enumerate(tup) if e == x), tup))
    return inc


def _profile(facts: Incidence) -> tuple[tuple[str, int], ...]:
    """The (relation, position) pairs the element occupies, sorted: how often
    it sits at each."""
    return tuple(sorted([(name, p) for name, positions, _ in facts for p in positions]))


def _joint_colors(inc_a: list[Incidence], inc_b: list[Incidence],
                  ) -> tuple[list[int], list[int], bool]:
    """Stable colour refinement of the disjoint union a + b, from their incidence lists.

    Returns (colors_a, colors_b, balanced). Colours are ids shared by both
    sides, so an isomorphism maps each element to one of the same colour;
    the initial colour of an element is its _profile. Before each round the
    two halves' colour histograms are compared; balanced=False means they
    differed (so a and b are not isomorphic) and the colours are those of
    the round that showed it. Otherwise the refinement runs until no class
    splits. A round re-keys only the elements that share a fact with an
    element whose colour changed in the previous round (Paige & Tarjan
    1987; Berkholz, Bonsma & Grohe 2013); the others' surroundings are
    unchanged, so they keep their colour.

    Element x of b is element n + x of the union, n = len(inc_a); the
    union's incidence is built once, with b's tuples shifted by n. The
    histogram check is kept running: per class, its members in a minus its
    members in b, and the number of classes where that is not zero; both
    change only when a group of elements moves to a fresh class.
    """
    n = len(inc_a)
    incident = inc_a + [[(name, pos, tuple([e + n for e in tup])) for name, pos, tup in f]
                        for f in inc_b]
    ids: dict[tuple, int] = {}
    color = [ids.setdefault(_profile(f), len(ids)) for f in incident]
    size = [0] * len(ids)
    surplus = [0] * len(ids)  # per class: members in a minus members in b
    for x, c in enumerate(color):
        size[c] += 1
        surplus[c] += 1 if x < n else -1
    unbalanced = len(surplus) - surplus.count(0)
    changed = range(len(color))
    get = color.__getitem__
    while unbalanced == 0:
        rekey = sorted({e for y in changed for _, _, tup in incident[y] for e in tup})
        if not rekey:
            return color[:n], color[n:], True
        groups: dict[int, dict[tuple, list[int]]] = {}
        for x in rekey:
            env = tuple(sorted([(name, pos, tuple(map(get, tup)))
                                for name, pos, tup in incident[x]]))
            groups.setdefault(color[x], {}).setdefault(env, []).append(x)
        changed = []
        for c, by_env in groups.items():
            # Members not re-keyed keep the class id, or else the largest
            # group does (Hopcroft 1971); every other group gets a fresh id.
            moving = list(by_env.values())
            if sum(map(len, moving)) == size[c]:
                moving.remove(max(moving, key=len))
            for group in moving:
                fresh = len(size)
                # the group's surplus; its a-members come first, as rekey is sorted
                moved = 2 * bisect_left(group, n) - len(group)
                unbalanced -= surplus[c] != 0
                surplus[c] -= moved
                unbalanced += (surplus[c] != 0) + (moved != 0)
                size[c] -= len(group)
                size.append(len(group))
                surplus.append(moved)
                for x in group:
                    color[x] = fresh
                changed.extend(group)
    return color[:n], color[n:], False


class _Searcher:
    """One source/target search: embeddings() walks it, counting nodes against budget."""

    def __init__(self, source: FinStructure, target: FinStructure, budget: int,
                 order_by_constraint: bool, iso: bool):
        self.source = source
        self.target = target
        self.budget = budget
        self.nodes = 0
        self.src_inc = _incidence(source)
        self.dst_inc = _incidence(target)
        if order_by_constraint:
            self.order = sorted(
                range(source.size),
                key=lambda i: (-sum(len(pos) for _, pos, _ in self.src_inc[i]), i),
            )
        else:
            self.order = list(range(source.size))
        if iso:
            src_color, dst_color, self.feasible = _joint_colors(self.src_inc, self.dst_inc)
            bucket: dict[int, list[int]] = {}
            for t, c in enumerate(dst_color):
                bucket.setdefault(c, []).append(t)
            self.candidates = [bucket.get(c, []) for c in src_color].__getitem__
        else:
            self.feasible = True
            # Target elements bucketed by occurrence profile: t is a candidate
            # for x iff t's profile dominates x's, so x's candidates, in index
            # order, merge the buckets that dominate x's profile. Nothing of
            # size source.size * target.size is built up front.
            buckets: dict[tuple, list[int]] = {}
            for t, f in enumerate(self.dst_inc):
                buckets.setdefault(_profile(f), []).append(t)
            self.buckets = [(Counter(p), ts) for p, ts in buckets.items()]
            self.src_profile = [_profile(f) for f in self.src_inc]
            self.dominating: dict[tuple, list[list[int]]] = {}
            self.candidates = self._dominating

    def _dominating(self, x: int) -> Iterable[int]:
        """x's embedding candidates in index order. The buckets they come
        from are found on first use, once per source profile."""
        profile = self.src_profile[x]
        lists = self.dominating.get(profile)
        if lists is None:
            occ = Counter(profile)
            lists = self.dominating[profile] = [ts for dst, ts in self.buckets
                                                if not (occ - dst)]
        return lists[0] if len(lists) == 1 else merge(*lists)

    def _consistent(self, fwd: dict[int, int], bwd: dict[int, int], x: int, t: int) -> bool:
        fwd[x] = t
        bwd[t] = x
        try:
            for name, _, tup in self.src_inc[x]:
                if all(e in fwd for e in tup):
                    if not self.target.holds(name, tuple(fwd[e] for e in tup)):
                        return False
            for name, _, tup in self.dst_inc[t]:
                if all(e in bwd for e in tup):
                    if not self.source.holds(name, tuple(bwd[e] for e in tup)):
                        return False
            return True
        finally:
            del fwd[x]
            del bwd[t]

    def embeddings(self) -> Iterator[Morphism]:
        """Yield each embedding at its leaf, depth-first over self.order with
        an explicit stack of per-depth candidate iterators, so the Python
        stack does not grow with the source size."""
        if not self.feasible:
            return
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
                yield Morphism.from_mapping(self.source.size, self.target.size, fwd)
            else:
                stack.append(iter(self.candidates(self.order[len(stack)])))
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
                return


def _same_signature(a: Structish, b: Structish) -> tuple[FinStructure, FinStructure]:
    sa, sb = _as_structure(a), _as_structure(b)
    if sa.sig != sb.sig:
        raise ValueError("source and target must share a signature")
    return sa, sb


def find_embedding(source: Structish, target: Structish,
                   budget: int = DEFAULT_BUDGET) -> Optional[Morphism]:
    """First embedding found, or None after exhausting the search space."""
    src, dst = _same_signature(source, target)
    if src.size > dst.size:
        return None
    searcher = _Searcher(src, dst, budget, order_by_constraint=True, iso=False)
    return next(searcher.embeddings(), None)


def find_isomorphism(a: Structish, b: Structish,
                     budget: int = DEFAULT_BUDGET) -> Optional[Morphism]:
    """A bijective embedding, or None.

    Joint colour refinement of a + b prunes the search: None without search
    when the two sides' colour histograms differ at some round, otherwise
    candidates restricted to the same stable colour.
    """
    sa, sb = _same_signature(a, b)
    if sa.size != sb.size or len(sa.facts) != len(sb.facts):
        return None
    searcher = _Searcher(sa, sb, budget, order_by_constraint=True, iso=True)
    return next(searcher.embeddings(), None)


class Embeddings(NamedTuple):
    morphisms: list[Morphism]
    complete: bool


def enumerate_embeddings(a: Structish, b: Structish, cap: int,
                         budget: int = DEFAULT_BUDGET) -> Embeddings:
    """All embeddings in index-lexicographic order, up to cap.

    complete=False flags that the cap cut the enumeration short.
    """
    src, dst = _same_signature(a, b)
    if src.size > dst.size:
        return Embeddings([], True)
    found = _Searcher(src, dst, budget, order_by_constraint=False, iso=False).embeddings()
    morphisms = list(islice(found, cap))
    return Embeddings(morphisms, next(found, None) is None)


def automorphisms(s: Structish, budget: int = DEFAULT_BUDGET) -> list[Morphism]:
    """Every automorphism (embeddings of a structure into itself are bijective)."""
    struct = _as_structure(s)
    return list(_Searcher(struct, struct, budget, order_by_constraint=False,
                          iso=False).embeddings())


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
    return all(src.holds(name, tup) == dst.holds(name, tuple(mapping[x] for x in tup))
               for name, tup in atoms(src.sig, range(src.size)))


def is_isomorphism(a: Structish, b: Structish, m: Morphism) -> bool:
    return m.is_bijective() and is_embedding(a, b, m)
