"""Exhaustive embedding and isomorphism search with correctness-neutral pruning.

Embedding means the strong relational sense: an injective map that preserves
and reflects every relation, i.e. an isomorphism onto an induced
substructure. One generator, _Searcher.embeddings, yields the embeddings in
a fixed order, and find_embedding, enumerate_embeddings and automorphisms
each take what they need. Embedding search prunes by occurrence counts
alone. A search raises BudgetExhausted instead of guessing when the node
cap is hit.

Isomorphism search is individualization-refinement (_isomorphism_search;
McKay & Piperno 2014). It first refines the disjoint union of its two
inputs to a stable colour partition, so colours compare across the two
sides, and stops with "not isomorphic" at the first round whose colour
histograms differ between the sides. While some class holds more than
one element of each side, it matches the least source element of such a
class with each target of its class in turn, gives the two a fresh colour
and refines from that split alone; a branch whose histograms differ is
pruned. A partition into pairs gives the map, which is checked against
the target's facts. The search keeps one colouring and unwinds it from a
trail of class moves, so a node costs what its refinement re-keys, and a
frame adds one C-level scan of the target side for its candidates.

Each search, and efgames.equiv_n, reads the facts of both structures once,
into per-element rows of their disjoint union (_union_rows: the source's
element x is x, the target's element t is source.size + t). The colour
refinement and the embedding search's consistency check, search order and
candidate buckets all read those rows. The embedding search's state is
numbered the same way: one pair map takes a matched source element to its
union number and back, and one union fact set checks preservation and
reflection together. A DiGraph is searched as it is, as a structure over
core.GRAPH_SIG.
Both structures must share a signature; a mismatch raises ValueError
before any size or fact-count shortcut answers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from heapq import merge
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .core import BudgetExhausted, DEFAULT_BUDGET, DiGraph, FinStructure, Morphism, atoms

Structish = Union[FinStructure, DiGraph]


# one element's facts: (relation, positions of the element, tuple) for each
# fact that contains it
Row = list[tuple[str, tuple[int, ...], tuple[int, ...]]]


def _union_rows(a: Structish, b: Structish) -> list[Row]:
    """The fact index of a search: every fact of a and b read once into rows
    of their disjoint union, where b's element x is element a.size + x."""
    n = a.size
    rows: list[Row] = [[] for _ in range(n + b.size)]
    # one positions tuple per position, shared by the rows
    at = [(p,) for p in range(max((arity for _, arity in a.sig.relations), default=0))]
    for shift, facts in ((0, a.facts), (n, b.facts)):
        for name, tup in facts:
            if shift:
                tup = tuple([e + shift for e in tup])
            if len(set(tup)) == len(tup):
                for p, x in enumerate(tup):
                    rows[x].append((name, at[p], tup))
            else:
                for x in set(tup):
                    rows[x].append((name, tuple(p for p, e in enumerate(tup) if e == x), tup))
    return rows


def _profile(row: Row) -> tuple[tuple[str, int], ...]:
    """The (relation, position) pairs the element occupies, sorted: how often
    it sits at each."""
    return tuple(sorted([(name, p) for name, positions, _ in row for p in positions]))


def _class_counts(color: list[int], n: int) -> tuple[list[int], list[int]]:
    """Per class of a colouring of the union a + b: its size, and its
    surplus, the members in a minus the members in b."""
    size = [0] * (max(color, default=-1) + 1)
    surplus = size[:]
    for x, c in enumerate(color):
        size[c] += 1
        surplus[c] += 1 if x < n else -1
    return size, surplus


def _refine(rows: list[Row], color: list[int], n: int, changed: Iterable[int],
            size: list[int], surplus: list[int],
            trail: Optional[list[tuple[int, list[int]]]] = None) -> bool:
    """Refine color, a balanced colouring of the union a + b (elements
    below n are a's) with the class counts of _class_counts, in place to a
    stable partition, and return whether it is balanced. changed is the
    worklist: every element whose colour changed since color was last
    stable, or every element for a colouring never refined, as
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
    running: size and surplus are updated in place, and the number of
    classes whose surplus is not zero is counted; they change only when a
    group of elements moves to a fresh class, whose id is len(size). Each
    such move is appended to trail, if given, as (old class, group), so a
    caller can undo it, as _isomorphism_search does.
    """
    unbalanced = 0
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
                if trail is not None:
                    trail.append((c, group))
    return False


def _joint_colors(rows: list[Row], n: int) -> tuple[list[int], bool, list[int], list[int]]:
    """Stable colour refinement of the union a + b from the rows of
    _union_rows(a, b), n = a.size: (colours, balanced, and the class counts
    of _class_counts, size and surplus, which _refine kept exact).

    Colours are ids shared by both sides, so an isomorphism maps each
    element to one of the same colour; the initial colour of an element is
    its _profile, and _refine takes it from there with every element in its
    worklist.
    """
    ids: dict[tuple, int] = {}
    color = [ids.setdefault(_profile(row), len(ids)) for row in rows]
    size, surplus = _class_counts(color, n)
    balanced = not any(surplus) and _refine(rows, color, n, range(len(color)), size, surplus)
    return color, balanced, size, surplus


def _isomorphism_search(a: Structish, b: Structish, budget: int) -> Optional[Morphism]:
    """find_isomorphism's search, individualization-refinement (McKay &
    Piperno 2014) on one colouring of the union a + b that backtracking
    unwinds from a trail.

    The root is the stable colouring of _joint_colors; None if it is not
    balanced. At a balanced stable colouring, the least source element x
    whose class is not a pair is matched in turn with each target u of its
    class: x and u get one fresh colour, and _refine splits from those two
    alone. An unbalanced result prunes the branch. A colouring of pairs
    only is discrete and gives the map x -> the target in x's class. It is
    accepted iff every fact of a maps into b.facts; the sizes and fact
    counts are equal, so that also covers reflection.

    Every class move, the individualization's and _refine's, goes on the
    trail as (old class, group), in the order of the fresh ids, and
    backtracking pops it. A frame is [x, x's class c, next union index i,
    trail length], with i starting at n. Unwinding to the frame restores
    the colouring it was made at, so its next candidate is the first
    target of class c at or past i, color.index(c, i); candidates are tried
    in index order at every depth. x only moves forward along a path, as
    classes only split going deeper.

    Nodes count the root and each individualization. BudgetExhausted is
    raised before the node past the budget does any work.
    """
    n = a.size
    rows = _union_rows(a, b)
    color, balanced, size, surplus = _joint_colors(rows, n)
    if not balanced:
        return None
    trail: list[tuple[int, list[int]]] = []
    stack: list[list[int]] = []
    facts = b.facts
    nodes = 0
    x, u = 0, None
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(f"isomorphism search exceeded {budget} nodes",
                                  used=nodes, budget=budget)
        balanced = True
        if u is not None:
            c = color[x]
            color[x] = color[u] = len(size)
            size[c] -= 2
            size.append(2)
            surplus.append(0)
            trail.append((c, [x, u]))
            balanced = _refine(rows, color, n, (x, u), size, surplus, trail)
        if balanced:
            while x < n and size[color[x]] == 2:
                x += 1
            if x < n:
                stack.append([x, color[x], n, len(trail)])
            else:
                target = [0] * len(size)
                for t in range(n, len(color)):
                    target[color[t]] = t - n
                image = [target[c] for c in color[:n]]
                get = image.__getitem__
                if all((name, tuple(map(get, tup))) in facts for name, tup in a.facts):
                    return Morphism.from_image(n, image)
        # Unwind to the deepest frame with a candidate left, and take it.
        while stack:
            frame = stack[-1]
            x, c, i, mark = frame
            while len(trail) > mark:
                old, group = trail.pop()
                for y in group:
                    color[y] = old
                size[old] += size.pop()
                surplus[old] += surplus.pop()
            try:
                u = color.index(c, i)
            except ValueError:
                stack.pop()
                continue
            frame[2] = u + 1
            break
        else:
            return None


class _Searcher:
    """One embedding search: embeddings() walks it, counting nodes against budget.

    Target element t is element n + t of the union rows, n = source.size.
    Candidates are union numbers, and the search state is one dict, pair,
    that maps a matched source element x to its union number u and u back
    to x. facts holds both structures' facts in the union numbering, so
    one lookup checks a fact's image on either side.
    """

    def __init__(self, source: Structish, target: Structish, budget: int,
                 order_by_constraint: bool):
        self.m = target.size
        self.budget = budget
        self.nodes = 0
        self.n = n = source.size
        self.rows = rows = _union_rows(source, target)
        self.facts = set(source.facts)
        self.facts.update((name, tup) for row in rows[n:] for name, _, tup in row)
        if order_by_constraint:
            self.order = sorted(range(n), key=lambda i: (-sum(len(pos) for _, pos, _ in rows[i]), i))
        else:
            self.order = list(range(n))
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

    def candidates(self, x: int) -> Iterable[int]:
        """x's embedding candidates in index order. The buckets they come
        from are found on first use, once per source profile."""
        profile = self.src_profile[x]
        lists = self.dominating.get(profile)
        if lists is None:
            occ = Counter(profile)
            lists = self.dominating[profile] = [us for dst, us in self.buckets
                                                if not (occ - dst)]
        return lists[0] if len(lists) == 1 else merge(*lists)

    def _consistent(self, pair: dict[int, int], x: int, u: int) -> bool:
        pair[x] = u
        pair[u] = x
        try:
            image = pair.__getitem__
            for name, _, tup in chain(self.rows[x], self.rows[u]):
                if all(e in pair for e in tup) and (name, tuple(map(image, tup))) not in self.facts:
                    return False
            return True
        finally:
            del pair[x]
            del pair[u]

    def embeddings(self) -> Iterator[Morphism]:
        """Yield each embedding at its leaf, depth-first over self.order with
        an explicit stack of per-depth candidate iterators, so the Python
        stack does not grow with the source size."""
        n = self.n
        pair: dict[int, int] = {}
        stack: list[Iterator[int]] = []
        while True:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExhausted(
                    f"embedding search exceeded {self.budget} nodes",
                    used=self.nodes, budget=self.budget,
                )
            if len(stack) == len(self.order):
                yield Morphism.from_image(self.m, [pair[x] - n for x in range(n)])
            else:
                stack.append(iter(self.candidates(self.order[len(stack)])))
            # Move the deepest level to its next consistent candidate,
            # dropping exhausted levels; an empty stack ends the search.
            while stack:
                x = self.order[len(stack) - 1]
                if x in pair:
                    del pair[pair.pop(x)]
                u = next((u for u in stack[-1]
                          if u not in pair and self._consistent(pair, x, u)), None)
                if u is not None:
                    pair[x] = u
                    pair[u] = x
                    break
                stack.pop()
            else:
                return


def _same_signature(a: Structish, b: Structish) -> None:
    if a.sig != b.sig:
        raise ValueError("source and target must share a signature")


def find_embedding(source: Structish, target: Structish,
                   budget: int = DEFAULT_BUDGET) -> Optional[Morphism]:
    """First embedding found, or None after exhausting the search space."""
    _same_signature(source, target)
    if source.size > target.size:
        return None
    searcher = _Searcher(source, target, budget, order_by_constraint=True)
    return next(searcher.embeddings(), None)


def find_isomorphism(a: Structish, b: Structish,
                     budget: int = DEFAULT_BUDGET) -> Optional[Morphism]:
    """A bijective embedding, or None.

    None without search when the sizes or fact counts differ, or when the
    two sides' colour histograms differ at some round of joint colour
    refinement; otherwise individualization-refinement
    (_isomorphism_search).
    """
    _same_signature(a, b)
    if a.size != b.size or len(a.facts) != len(b.facts):
        return None
    return _isomorphism_search(a, b, budget)


class Embeddings(NamedTuple):
    morphisms: list[Morphism]
    complete: bool


def enumerate_embeddings(a: Structish, b: Structish, cap: int,
                         budget: int = DEFAULT_BUDGET) -> Embeddings:
    """All embeddings in index-lexicographic order, up to cap.

    complete=False flags that the cap cut the enumeration short.
    """
    _same_signature(a, b)
    if a.size > b.size:
        return Embeddings([], True)
    found = _Searcher(a, b, budget, order_by_constraint=False).embeddings()
    morphisms = list(islice(found, cap))
    return Embeddings(morphisms, next(found, None) is None)


def automorphisms(s: Structish, budget: int = DEFAULT_BUDGET) -> list[Morphism]:
    """Every automorphism (embeddings of a structure into itself are bijective)."""
    return list(_Searcher(s, s, budget, order_by_constraint=False).embeddings())


def is_embedding(source: Structish, target: Structish, m: Morphism) -> bool:
    """Independent verifier: total, injective, preserves and reflects all facts.

    Deliberately naive (quantifies over every tuple of mapped elements) so
    that search results are checked by code that shares nothing with the
    search.
    """
    if source.sig != target.sig:
        return False
    if m.source_size != source.size or m.target_size != target.size:
        return False
    if not m.is_total():
        return False
    mapping = m.mapping()
    return all(source.holds(name, tup) == target.holds(name, tuple(mapping[x] for x in tup))
               for name, tup in atoms(source.sig, range(source.size)))


def is_isomorphism(a: Structish, b: Structish, m: Morphism) -> bool:
    return m.is_bijective() and is_embedding(a, b, m)
