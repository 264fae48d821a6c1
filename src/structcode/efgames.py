"""Exact n-round Ehrenfeucht-Fraisse game solving on finite structures.

One memoized game search, GameSolver.duplicator_wins, answers both public
questions. Positions are sets of pebbled pairs; Spoiler's moves are walked
in play order (left elements first, then right) in one pass per position.
ef_winner and ef_trace answer each move in index order; equiv_n answers it
same-colour first under the joint colour refinement. A reply is tested
with _extends, which checks only what the new pair can break.

Two checks share no code with that search: _pebbles_partial_iso, the naive
full check behind the win condition and the strategy verifier, and
_rank_type, the naive rank-n type that C5 compares the game value against
(Duplicator wins n rounds iff the rank-n types agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product, repeat
from typing import Optional, Sequence

from .core import BudgetExhausted, DEFAULT_BUDGET, FinStructure, atoms
from .search import Structish, _joint_colors, _union_rows

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


class _SameColorFirst(dict):
    """Replies per colour c: colour c first, index order within; built on first use."""

    def __init__(self, colors: list[int]):
        self.colors = colors

    def __missing__(self, c: int) -> list[int]:
        self[c] = order = sorted(range(len(self.colors)), key=lambda x: self.colors[x] != c)
        return order


class GameSolver:
    """Memoized alternating search for one pair.

    A position is the sorted tuple of its distinct pebbled pairs, since its
    value depends only on that set; the memo is keyed on (position, rounds
    left), and states counts the distinct keys solved. moves numbers
    Spoiler's moves in play order: left element i for i < left.size, then
    right element i - left.size. Each move's replies put the mover's colour
    first, index order within; colors=(left colours, right colours), and
    None gives every element colour 0, which is plain index order. Replies
    are generated on demand, so no structure of size left.size * right.size
    is ever built. Callers cap the rounds at len(moves), left.size +
    right.size, beyond which no position's value changes: Duplicator wins at
    every round count iff the position extends to an isomorphism, and
    otherwise Spoiler wins by pebbling the rest of the larger side.
    """

    def __init__(self, left: Structish, right: Structish,
                 budget: int = DEFAULT_BUDGET,
                 colors: Optional[tuple[list[int], list[int]]] = None):
        if left.sig != right.sig:
            raise ValueError("structures must share a signature")
        self.left = left
        self.right = right
        self.budget = budget
        self.states = 0
        self.memo: dict[tuple[tuple[tuple[int, int], ...], int], bool] = {}
        self.moves = range(left.size + right.size)
        self.lcol, self.rcol = colors or ([0] * left.size, [0] * right.size)
        self.right_for, self.left_for = _SameColorFirst(self.rcol), _SameColorFirst(self.lcol)

    def answer(self, pebbles: tuple[tuple[int, int], ...], fwd: dict[int, int],
               i: int, rounds: Optional[int]):
        """Duplicator's first reply to Spoiler's move i that keeps a partial
        isomorphism and, unless rounds is None, wins the rounds left.

        fwd is dict(pebbles). Returns (pair, position) or None; re-pebbling
        a pebbled pair keeps the position.
        """
        lsize = self.left.size  # moves from lsize on pebble a right element
        replies = (zip(repeat(i), self.right_for[self.lcol[i]]) if i < lsize
                   else zip(self.left_for[self.rcol[i - lsize]], repeat(i - lsize)))
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
    solver = GameSolver(left, right, budget)
    return DUPLICATOR if solver.duplicator_wins((), min(n, len(solver.moves))) else SPOILER


def ef_trace(left: Structish, right: Structish, n: int,
             budget: int = DEFAULT_BUDGET) -> tuple[str, list[tuple[str, int, Optional[int]]]]:
    """One principal line of play: (winner, [(side, spoiler move, response)]).

    The winning player follows an optimal strategy; the loser plays the
    least legal move. A None response means Duplicator had no legal reply.
    """
    assert n >= 0
    solver = GameSolver(left, right, budget)
    cap = len(solver.moves)
    if solver.duplicator_wins((), min(n, cap)):
        # Spoiler's least move re-pebbles the first pair each round, and
        # _extends allows only its partner
        if n == 0 or cap == 0:
            return DUPLICATOR, []
        (_, b), _ = solver.answer((), {}, 0, min(n - 1, cap))
        return DUPLICATOR, [("left", 0, b)] * n
    trace: list[tuple[str, int, Optional[int]]] = []
    pebbles: tuple[tuple[int, int], ...] = ()
    for k in range(n, 0, -1):
        fwd = dict(pebbles)
        i = next(i for i in solver.moves
                 if solver.answer(pebbles, fwd, i, min(k - 1, cap)) is None)
        reply = solver.answer(pebbles, fwd, i, None)
        side, e = ("left", i) if i < left.size else ("right", i - left.size)
        if reply is None:
            trace.append((side, e, None))
            break
        (a, b), pebbles = reply
        trace.append((side, e, b if side == "left" else a))
    return SPOILER, trace


# ---------------------------------------------------------------------------
# Back-and-forth hierarchy


def equiv_n(left: Structish, right: Structish, n: int,
            budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the structures are n-back-and-forth equivalent.

    Runs GameSolver with replies same-colour first under the joint colours
    of both structures (search's refinement of their disjoint union). The
    order is a heuristic only, and the scan is exhaustive; budget bounds the
    maps (positions) solved.
    """
    assert n >= 0
    color, *_ = _joint_colors(_union_rows(left, right), left.size)
    solver = GameSolver(left, right, budget, colors=(color[:left.size], color[left.size:]))
    try:
        return solver.duplicator_wins((), min(n, len(solver.moves)))
    except BudgetExhausted as err:
        raise BudgetExhausted(f"hierarchy exceeded {budget} maps",
                              used=err.used, budget=budget) from None


# ---------------------------------------------------------------------------
# Rank-n types: the reference that shares no code with the game search


def _rank_type(s: FinStructure, n: int, tup: tuple[int, ...] = ()) -> tuple:
    """The rank-n type of tup in s, built naively: the equality pattern and
    atoms of tup, and for n > 0 the set of rank-(n-1) types of tup + (x,)
    over every element x. By the Ehrenfeucht-Fraisse theorem (Fraisse 1954;
    Ehrenfeucht 1961), Duplicator wins the n-round game on a and b from the
    empty position iff _rank_type(a, n) == _rank_type(b, n).
    """
    atomic = (tuple(map(tup.index, tup)),
              tuple(s.holds(name, [tup[p] for p in pos])
                    for name, pos in atoms(s.sig, range(len(tup)))))
    if n == 0:
        return atomic
    return atomic, frozenset(_rank_type(s, n - 1, tup + (x,)) for x in range(s.size))


# ---------------------------------------------------------------------------
# Strategy verification for the tag-structure reducts


def verify_duplicator_strategy(leftR: FinStructure, rightR: FinStructure,
                               strategy: Sequence[int], n: int,
                               budget: Optional[int] = None) -> bool:
    """Check a positional Duplicator strategy against every Spoiler line.

    strategy[i] is Duplicator's answer (a rightR index) when Spoiler plays
    left element i; a right move is answered through the inverse, which
    pebbles the same pair. A line's position is the set of pairs it has
    pebbled, and every set of at most n pairs is some line's, so the
    strategy wins n rounds iff each set of min(n, size) pairs is a partial
    isomorphism. ValueError unless strategy is a bijection between equal
    universes; BudgetExhausted, before any set is checked, when there are
    more than budget such sets.
    """
    if leftR.size != rightR.size or sorted(strategy) != list(range(rightR.size)):
        raise ValueError("strategy must be a bijection between equal universes")
    _check_pebble_sets(leftR.size, n, budget)
    pairs = list(enumerate(strategy))
    # a subset of pebbles checks a subset of the atoms, so the largest sets suffice
    return all(_pebbles_partial_iso(leftR, rightR, p)
               for p in combinations(pairs, min(n, len(pairs))))


def _check_pebble_sets(size: int, n: int, budget: Optional[int]) -> None:
    """BudgetExhausted when C(size, min(n, size)) is over budget.

    C(size, i) grows with i up to size / 2, so the product runs to the
    nearer of r and size - r and stops at the first partial count over the
    budget, which it reports as used; no larger number is formed.
    """
    if budget is None:
        return
    r = min(n, size)
    sets, i = 1, 0
    while sets <= budget and i < min(r, size - r):
        sets = sets * (size - i) // (i + 1)  # C(size, i + 1), exactly
        i += 1
    if sets > budget:
        raise BudgetExhausted(f"strategy check needs more than {budget} pebble sets",
                              used=sets, budget=budget)


def verify_reduct_strategy(m: int, n: int, nu_bound: Optional[int] = None,
                           log2_size: int = 3, budget: Optional[int] = None) -> bool:
    """Verify the flip-above-m translation strategy on matched reduct restrictions.

    Builds the paired restrictions from the shelah module (left universe the
    closure of the all-zeros string, right its flip image in the same order)
    and checks the identity index strategy for n rounds. With a budget,
    raises BudgetExhausted before building them when the 2^log2_size
    elements or the pebble sets (see verify_duplicator_strategy) are over it.
    """
    from .shelah import closure_size, paired_reduct_restrictions

    if budget is not None:
        _check_pebble_sets(closure_size(log2_size, budget, "strategy check"), n, budget)
    if nu_bound is None:
        nu_bound = m
    left, right, strategy = paired_reduct_restrictions(m, nu_bound, log2_size)
    return verify_duplicator_strategy(left, right, strategy, n, budget=budget)
