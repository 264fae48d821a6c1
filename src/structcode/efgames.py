"""Exact n-round Ehrenfeucht-Fraisse game solving on finite structures.

Two deliberately different algorithms answer the same question:

* ef_winner explores the alternating game tree move by move, memoized on
  the position: the sorted set of pebbled pairs and the rounds left;
* equiv_n evaluates the back-and-forth hierarchy on unordered partial maps.

Each evaluator, the strategy verifier included, walks Spoiler's moves in
play order (left elements first, then right) in one pass per position,
each move answered by the pairs it yields in Duplicator's order. Both
solvers test a reply with _extends, which checks only what the new pair
can break. _pebbles_partial_iso stays the naive full check behind the win
condition and the strategy verifier, and shares no code with it.

Their agreement on small structures is one of the package's standing checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import Optional, Sequence

from .core import BudgetExhausted, DEFAULT_BUDGET, FinStructure, atoms
from .search import Structish, _as_structure, _incidence, _joint_colors

DUPLICATOR = "Duplicator"
SPOILER = "Spoiler"


@dataclass(frozen=True)
class GameState:
    left: FinStructure
    right: FinStructure
    pebbles: tuple[tuple[int, int], ...]
    rounds_left: int

    def __post_init__(self):
        assert self.rounds_left >= 0
        for l, r in self.pebbles:
            assert 0 <= l < self.left.size and 0 <= r < self.right.size


def partial_iso_check(state: GameState) -> bool:
    """Win condition: the pebble correspondence is a partial isomorphism."""
    return _pebbles_partial_iso(state.left, state.right, state.pebbles)


def _pebbles_partial_iso(left: FinStructure, right: FinStructure,
                         pebbles: Sequence[tuple[int, int]]) -> bool:
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for l, r in pebbles:
        if fwd.setdefault(l, r) != r:
            return False
        if bwd.setdefault(r, l) != l:
            return False
    return all(left.holds(name, tup) == right.holds(name, tuple(fwd[x] for x in tup))
               for name, tup in atoms(left.sig, sorted(fwd)))


def _extends(left: FinStructure, right: FinStructure, fwd: dict[int, int],
             a: int, b: int) -> bool:
    """True iff the partial isomorphism fwd stays one with a mapped to b.

    fwd must be a partial isomorphism: only injectivity and the atoms on
    tuples that mention a are tested. A pair already in fwd extends it.
    """
    if a in fwd:
        return fwd[a] == b
    if b in fwd.values():
        return False
    fwd = {**fwd, a: b}
    image = fwd.__getitem__
    lfacts, rfacts = left.facts, right.facts
    for name, arity in left.sig.relations:
        for tup in product(fwd, repeat=arity):
            if a in tup and ((name, tup) in lfacts) != ((name, tuple(map(image, tup))) in rfacts):
                return False
    return True


# ---------------------------------------------------------------------------
# Game-tree search


class GameSolver:
    """Memoized alternating search for one pair.

    A position is the sorted tuple of its distinct pebbled pairs, since its
    value depends only on that set; the memo is keyed on (position, rounds
    left), and states counts the distinct keys solved. moves numbers
    Spoiler's moves in play order: left element i for i < left.size, then
    right element i - left.size. Their replies are generated on demand, so
    no structure of size left.size * right.size is ever built.
    """

    def __init__(self, left: FinStructure, right: FinStructure,
                 budget: int = DEFAULT_BUDGET):
        if left.sig != right.sig:
            raise ValueError("structures must share a signature")
        self.left = left
        self.right = right
        self.budget = budget
        self.states = 0
        self.memo: dict[tuple[tuple[tuple[int, int], ...], int], bool] = {}
        self.moves = range(left.size + right.size)

    def answer(self, pebbles: tuple[tuple[int, int], ...], fwd: dict[int, int],
               i: int, rounds: Optional[int]):
        """Duplicator's first reply to Spoiler's move i that keeps a partial
        isomorphism and, unless rounds is None, wins the rounds left.

        fwd is dict(pebbles). Returns (pair, position) or None; re-pebbling
        a pebbled pair keeps the position.
        """
        lsize = self.left.size  # moves from lsize on pebble a right element
        replies = (zip(repeat(i), range(self.right.size)) if i < lsize
                   else zip(range(lsize), repeat(i - lsize)))
        for e, f in replies:
            if _extends(self.left, self.right, fwd, e, f):
                new = pebbles if e in fwd else tuple(sorted(pebbles + ((e, f),)))
                if rounds is None or self.duplicator_wins(new, rounds):
                    return (e, f), new
        return None

    def duplicator_wins(self, pebbles: tuple[tuple[int, int], ...], k: int) -> bool:
        key = (pebbles, k)
        if key in self.memo:
            return self.memo[key]
        self.states += 1
        if self.states > self.budget:
            raise BudgetExhausted(
                f"game search exceeded {self.budget} states", used=self.states, budget=self.budget
            )
        if k == 0:
            self.memo[key] = True
            return True
        fwd = dict(pebbles)
        result = True
        for i in self.moves:
            if self.answer(pebbles, fwd, i, k - 1) is None:
                result = False
                break
        self.memo[key] = result
        return result


def ef_winner(left: Structish, right: Structish, n: int,
              budget: int = DEFAULT_BUDGET) -> str:
    """Exact winner of the n-round game from the empty position."""
    assert n >= 0
    solver = GameSolver(_as_structure(left), _as_structure(right), budget)
    return DUPLICATOR if solver.duplicator_wins((), n) else SPOILER


def ef_trace(left: Structish, right: Structish, n: int,
             budget: int = DEFAULT_BUDGET) -> tuple[str, list[tuple[str, int, Optional[int]]]]:
    """One principal line of play: (winner, [(side, spoiler move, response)]).

    The winning player follows an optimal strategy; the loser plays the
    least legal move. A None response means Duplicator had no legal reply.
    """
    assert n >= 0
    ls, rs = _as_structure(left), _as_structure(right)
    solver = GameSolver(ls, rs, budget)
    winner = DUPLICATOR if solver.duplicator_wins((), n) else SPOILER
    trace: list[tuple[str, int, Optional[int]]] = []
    pebbles: tuple[tuple[int, int], ...] = ()
    for k in range(n, 0, -1):
        fwd = dict(pebbles)
        if solver.duplicator_wins(pebbles, k):
            if not solver.moves:
                break
            i, reply = 0, solver.answer(pebbles, fwd, 0, k - 1)
            assert reply is not None
        else:
            i = next(i for i in solver.moves if solver.answer(pebbles, fwd, i, k - 1) is None)
            reply = solver.answer(pebbles, fwd, i, None)
        side, e = ("left", i) if i < ls.size else ("right", i - ls.size)
        if reply is None:
            trace.append((side, e, None))
            break
        (a, b), pebbles = reply
        trace.append((side, e, b if side == "left" else a))
    return winner, trace


# ---------------------------------------------------------------------------
# Back-and-forth hierarchy


class _SameColorFirst(dict):
    """Replies per colour c: colour c first, index order within; built on first use."""

    def __init__(self, colors: list[int]):
        self.colors = colors

    def __missing__(self, c: int) -> list[int]:
        self[c] = order = sorted(range(len(self.colors)), key=lambda x: self.colors[x] != c)
        return order


def equiv_n(left: Structish, right: Structish, n: int,
            budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the structures are n-back-and-forth equivalent.

    Computes membership of partial maps in the hierarchy level by level:
    a map is n-good iff every element on either side extends it to an
    (n-1)-good map. Maps are unordered sets of pairs, memoized per level.
    Joint colours of both structures (search's refinement of their disjoint
    union) put same-colour response candidates first; the order is a
    heuristic only, and the scan is exhaustive.
    """
    ls, rs = _as_structure(left), _as_structure(right)
    if ls.sig != rs.sig:
        raise ValueError("structures must share a signature")
    assert n >= 0
    lcol, rcol, _ = _joint_colors(_incidence(ls), _incidence(rs))
    right_for, left_for = _SameColorFirst(rcol), _SameColorFirst(lcol)
    lsize = ls.size
    memo: dict[tuple[frozenset[tuple[int, int]], int], bool] = {}
    visited = 0

    def good(pairs: frozenset[tuple[int, int]], k: int) -> bool:
        nonlocal visited
        key = (pairs, k)
        if key in memo:
            return memo[key]
        visited += 1
        if visited > budget:
            raise BudgetExhausted(f"hierarchy exceeded {budget} maps", used=visited, budget=budget)
        if k == 0:
            memo[key] = True
            return True
        fwd = dict(pairs)
        result = True
        # Spoiler's move i pebbles left element i, then right element i - lsize;
        # its replies are zipped on demand, never stored
        for i in range(lsize + rs.size):
            replies = (zip(repeat(i), right_for[lcol[i]]) if i < lsize
                       else zip(left_for[rcol[i - lsize]], repeat(i - lsize)))
            if not any(_extends(ls, rs, fwd, a, b) and good(pairs | {(a, b)}, k - 1)
                       for a, b in replies):
                result = False
                break
        memo[key] = result
        return result

    return good(frozenset(), n)


# ---------------------------------------------------------------------------
# Strategy verification for the tag-structure reducts


def verify_duplicator_strategy(leftR: FinStructure, rightR: FinStructure,
                               strategy: Sequence[int], n: int) -> bool:
    """Check a positional Duplicator strategy against every Spoiler line.

    strategy[i] is Duplicator's answer (a rightR index) when Spoiler plays
    left element i. A Spoiler move on the right is answered through the
    inverse, which pebbles the same pair as the matching left move, so the
    left moves alone cover every line. Returns True iff the pebble position
    is a partial isomorphism after each of the n rounds on every branch.
    ValueError unless strategy is a bijection between equal universes.
    """
    if leftR.size != rightR.size or sorted(strategy) != list(range(rightR.size)):
        raise ValueError("strategy must be a bijection between equal universes")
    pairs = list(enumerate(strategy))

    def play(pebbles: tuple[tuple[int, int], ...], k: int) -> bool:
        return k == 0 or all(
            _pebbles_partial_iso(leftR, rightR, pebbles + (pair,)) and play(pebbles + (pair,), k - 1)
            for pair in pairs
        )

    return play((), n)


def verify_reduct_strategy(m: int, n: int, nu_bound: Optional[int] = None,
                           log2_size: int = 3) -> bool:
    """Verify the flip-above-m translation strategy on matched reduct restrictions.

    Builds the paired restrictions from the shelah module (left universe the
    closure of the all-zeros string, right its flip image in the same order)
    and plays every Spoiler line of the n-round game against the identity
    index strategy.
    """
    from .shelah import paired_reduct_restrictions

    if nu_bound is None:
        nu_bound = m
    left, right, strategy = paired_reduct_restrictions(m, nu_bound, log2_size)
    return verify_duplicator_strategy(left, right, strategy, n)
