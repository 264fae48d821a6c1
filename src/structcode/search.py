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

Each search, and efgames.equiv_n, reads the facts of both structures once,
into per-element rows of their disjoint union (_union_rows: the source's
element x is x, the target's element t is source.size + t). The colour
refinement, the consistency check, the search order and the candidate
buckets all read those rows. _refine takes a colouring that is stable
except around a worklist of elements, so a caller can split one class of
a stable colouring and refine from that split alone.
Both structures must share a signature; a mismatch raises ValueError
before any size or fact-count shortcut answers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
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
Row = list[tuple[str, tuple[int, ...], tuple[int, ...]]]


def _union_rows(a: FinStructure, b: FinStructure) -> list[Row]:
    """The fact index of a search: every fact of a and b read once into rows
    of their disjoint union, where b's element x is element a.size + x."""
    n = a.size
    rows: list[Row] = [[] for _ in range(n + b.size)]
    for shift, facts in ((0, a.facts), (n, b.facts)):
        for name, tup in facts:
            if shift:
                tup = tuple([e + shift for e in tup])
            if len(set(tup)) == len(tup):
                for p, x in enumerate(tup):
                    rows[x].append((name, (p,), tup))
            else:
                for x in set(tup):
                    rows[x].append((name, tuple(p for p, e in enumerate(tup) if e == x), tup))
    return rows


def _profile(row: Row) -> tuple[tuple[str, int], ...]:
    """The (relation, position) pairs the element occupies, sorted: how often
    it sits at each."""
    return tuple(sorted([(name, p) for name, positions, _ in row for p in positions]))


def _refine(rows: list[Row], color: list[int], n: int, changed: Iterable[int]) -> bool:
    """Refine color, a colouring of the union a + b (elements below n are
    a's), in place to a stable partition, and return whether it is balanced.
    changed is the worklist: every element whose colour changed since color
    was last stable, or every element for a colouring never refined, as
    _joint_colors passes.

    Before each round the two halves' colour histograms are compared;
    False means they differed (so a and b are not isomorphic), and color is
    left as the round that showed it. Otherwise the refinement runs until
    no class splits. A round re-keys only the elements that share a fact
    with an element in changed, which starts as the caller's worklist and
    is then the elements whose colour changed in the previous round (Paige
    & Tarjan 1987; Berkholz, Bonsma & Grohe 2013); the others' surroundings
    are unchanged, so they keep their colour.

    An element's key is its colour and the sorted (relation, positions,
    colours of the tuple) of each of its facts. The histogram check is kept
    running: per class, its members in a minus its members in b, and the
    number of classes where that is not zero; both change only when a group
    of elements moves to a fresh class.
    """
    size = [0] * (max(color, default=-1) + 1)
    surplus = size[:]  # per class: members in a minus members in b
    for x, c in enumerate(color):
        size[c] += 1
        surplus[c] += 1 if x < n else -1
    unbalanced = len(surplus) - surplus.count(0)
    get = color.__getitem__
    while unbalanced == 0:
        rekey = sorted({e for y in changed for _, _, tup in rows[y] for e in tup})
        if not rekey:
            return True
        groups: defaultdict[tuple, list[int]] = defaultdict(list)
        for x in rekey:
            # one- and two-fact elements, nearly all of a coding's vertices,
            # are keyed without a sorted call
            row = rows[x]
            if len(row) == 1:
                (name, pos, tup), = row
                key = (color[x], (name, pos, *map(get, tup)))
            elif len(row) == 2:
                (name, pos, tup), (name2, pos2, tup2) = row
                f, g = (name, pos, *map(get, tup)), (name2, pos2, *map(get, tup2))
                key = (color[x], f, g) if f <= g else (color[x], g, f)
            else:
                key = (color[x], *sorted([(name, pos, *map(get, tup)) for name, pos, tup in row]))
            groups[key].append(x)
        by_class: defaultdict[int, list[list[int]]] = defaultdict(list)
        for key, group in groups.items():
            by_class[key[0]].append(group)
        changed = []
        for c, moving in by_class.items():
            # Members not re-keyed keep the class id, or else the largest
            # group does (Hopcroft 1971); every other group gets a fresh id.
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
    return False


def _joint_colors(rows: list[Row], n: int) -> tuple[list[int], bool]:
    """Stable colour refinement of the union a + b from the rows of
    _union_rows(a, b), n = a.size: (colours, balanced).

    Colours are ids shared by both sides, so an isomorphism maps each
    element to one of the same colour; the initial colour of an element is
    its _profile, and _refine takes it from there with every element in its
    worklist.
    """
    ids: dict[tuple, int] = {}
    color = [ids.setdefault(_profile(row), len(ids)) for row in rows]
    return color, _refine(rows, color, n, range(len(color)))


class _Searcher:
    """One source/target search: embeddings() walks it, counting nodes against budget.

    Target element t is element n + t of the union rows, n = source.size;
    candidates are union numbers, fwd maps source elements to target
    elements and bwd maps union numbers back to source elements.
    """

    def __init__(self, source: FinStructure, target: FinStructure, budget: int,
                 order_by_constraint: bool, iso: bool):
        self.source = source
        self.target = target
        self.budget = budget
        self.nodes = 0
        self.n = n = source.size
        self.rows = rows = _union_rows(source, target)
        if order_by_constraint:
            self.order = sorted(range(n), key=lambda i: (-sum(len(pos) for _, pos, _ in rows[i]), i))
        else:
            self.order = list(range(n))
        if iso:
            color, self.feasible = _joint_colors(rows, n)
            bucket: dict[int, list[int]] = {}
            for u in range(n, len(rows)):
                bucket.setdefault(color[u], []).append(u)
            self.candidates = [bucket.get(c, []) for c in color[:n]].__getitem__
        else:
            self.feasible = True
            # Target elements bucketed by occurrence profile: t is a candidate
            # for x iff t's profile dominates x's, so x's candidates, in index
            # order, merge the buckets that dominate x's profile. Nothing of
            # size source.size * target.size is built up front.
            buckets: dict[tuple, list[int]] = {}
            for u in range(n, len(rows)):
                buckets.setdefault(_profile(rows[u]), []).append(u)
            self.buckets = [(Counter(p), us) for p, us in buckets.items()]
            self.src_profile = [_profile(row) for row in rows[:n]]
            self.dominating: dict[tuple, list[list[int]]] = {}
            self.candidates = self._dominating

    def _dominating(self, x: int) -> Iterable[int]:
        """x's embedding candidates in index order. The buckets they come
        from are found on first use, once per source profile."""
        profile = self.src_profile[x]
        lists = self.dominating.get(profile)
        if lists is None:
            occ = Counter(profile)
            lists = self.dominating[profile] = [us for dst, us in self.buckets
                                                if not (occ - dst)]
        return lists[0] if len(lists) == 1 else merge(*lists)

    def _consistent(self, fwd: dict[int, int], bwd: dict[int, int], x: int, u: int) -> bool:
        fwd[x] = u - self.n
        bwd[u] = x
        try:
            for name, _, tup in self.rows[x]:
                if all(e in fwd for e in tup):
                    if not self.target.holds(name, tuple(fwd[e] for e in tup)):
                        return False
            for name, _, tup in self.rows[u]:
                if all(e in bwd for e in tup):
                    if not self.source.holds(name, tuple(bwd[e] for e in tup)):
                        return False
            return True
        finally:
            del fwd[x]
            del bwd[u]

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
                    del bwd[fwd.pop(x) + self.n]
                u = next((u for u in stack[-1]
                          if u not in bwd and self._consistent(fwd, bwd, x, u)), None)
                if u is not None:
                    fwd[x] = u - self.n
                    bwd[u] = x
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
