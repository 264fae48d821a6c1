import random
import tracemalloc
from itertools import product

import pytest

from structcode import coding, corpus
from structcode.core import BudgetExhausted, FinStructure, Signature
from structcode.efgames import (
    DUPLICATOR,
    SPOILER,
    GameSolver,
    GameState,
    _extends,
    _pebbles_partial_iso,
    _rank_type,
    ef_trace,
    ef_winner,
    equiv_n,
    partial_iso_check,
    verify_duplicator_strategy,
    verify_reduct_strategy,
)
from structcode.search import find_isomorphism
from structcode.shelah import paired_reduct_restrictions

SIG = Signature.of(("E", 2))
K2 = corpus.complete_graph_structure(2)
K3 = corpus.complete_graph_structure(3)


def rand_binary(rng, max_size):
    size = rng.randint(0, max_size)
    facts = frozenset(
        ("E", (u, v)) for u in range(size) for v in range(size) if rng.random() < 0.4
    )
    return FinStructure(SIG, size, facts)


# ---------------------------------------------------------------------------
# win condition


def test_partial_iso_empty_is_ok():
    assert partial_iso_check(GameState(K2, K3, (), 0))


def test_partial_iso_rejects_non_function():
    assert not partial_iso_check(GameState(K2, K3, ((0, 0), (0, 1)), 0))
    assert not partial_iso_check(GameState(K2, K3, ((0, 0), (1, 0)), 0))


def test_partial_iso_checks_atoms():
    edgeless = corpus.pure_set_structure(3)
    assert not partial_iso_check(GameState(K2, edgeless, ((0, 0), (1, 1)), 0))
    assert partial_iso_check(GameState(K2, K3, ((0, 2), (1, 0)), 0))


def test_partial_iso_repeated_pebbles_allowed():
    assert partial_iso_check(GameState(K2, K2, ((0, 1), (0, 1)), 0))


# ---------------------------------------------------------------------------
# one-step extension check against the naive full check

MIXED = Signature.of(("U", 1), ("E", 2), ("T", 3))


def rand_mixed(rng, size):
    # every tuple is a candidate fact, so many repeat an element
    return FinStructure(MIXED, size, frozenset(
        (name, tup) for name, arity in MIXED.relations
        for tup in product(range(size), repeat=arity) if rng.random() < 0.3
    ))


def test_extends_matches_full_check():
    # _extends assumes the position is a partial isomorphism, so it must
    # agree with the full check on the extended position exactly when the
    # position passes that check; otherwise the extension fails either way.
    rng = random.Random(23)
    seen = {"legal": 0, "illegal": 0, "repebbled": 0, "a_taken": 0,
            "b_taken": 0, "bad_position": 0}
    for _ in range(4000):
        # a move needs an element on each side, so sizes start at 1
        left = rand_mixed(rng, rng.randint(1, 5))
        if rng.random() < 0.6:
            right, iso = corpus.random_permuted_copy(rng, left)
            perm = [dict(iso.pairs)[x] for x in range(left.size)]
            if rng.random() < 0.3 and right.facts:  # drop one fact: a near copy
                right = FinStructure(MIXED, right.size,
                                     right.facts - {rng.choice(sorted(right.facts))})
        else:
            right = rand_mixed(rng, rng.randint(1, 5))
            perm = [rng.randrange(right.size) for _ in range(left.size)]
        dom = rng.sample(range(left.size), rng.randint(0, min(3, left.size)))
        p = tuple((x, perm[x] if rng.random() < 0.8 else rng.randrange(right.size))
                  for x in dom)
        if p and rng.random() < 0.2:
            p += (rng.choice(p),)  # a pair pebbled twice
        fwd = dict(p)
        roll = rng.random()
        if p and roll < 0.2:
            a, b = rng.choice(p)
        elif p and roll < 0.3:
            a, b = rng.choice(p)[0], rng.randrange(right.size)
        elif p and roll < 0.4 and len(fwd) < left.size:
            a = rng.choice([x for x in range(left.size) if x not in fwd])
            b = rng.choice(p)[1]
        else:
            a = rng.randrange(left.size)
            b = perm[a] if rng.random() < 0.7 else rng.randrange(right.size)
        full = _pebbles_partial_iso(left, right, p + ((a, b),))
        if not _pebbles_partial_iso(left, right, p):
            seen["bad_position"] += 1
            assert not full
            continue
        assert _extends(left, right, fwd, a, b) == full, (left, right, p, a, b)
        if a in fwd:
            seen["repebbled" if fwd[a] == b else "a_taken"] += 1
        elif b in fwd.values():
            seen["b_taken"] += 1
        else:
            seen["legal" if full else "illegal"] += 1
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# pinned game values


def test_k2_k3():
    assert ef_winner(K2, K3, 2) == DUPLICATOR
    assert ef_winner(K2, K3, 3) == SPOILER


def test_pure_sets():
    two = corpus.pure_set_structure(2)
    three = corpus.pure_set_structure(3)
    assert ef_winner(two, three, 2) == DUPLICATOR
    assert ef_winner(two, three, 3) == SPOILER


@pytest.mark.parametrize("make, a, b", [
    (corpus.pure_set_structure, 8, 9),
    (corpus.complete_graph_structure, 7, 8),
])
def test_symmetric_pairs_closed_form_within_budget(make, a, b):
    # Duplicator wins n rounds iff the sizes are equal or both are >= n. A
    # budget of 10,000 leaves no room to enumerate the 9! automorphisms of a
    # 9-element set.
    n = 3
    left, right = make(a), make(b)
    expected = DUPLICATOR if a == b or min(a, b) >= n else SPOILER
    assert ef_winner(left, right, n, budget=10_000) == expected
    assert equiv_n(left, right, n, budget=10_000) == (expected == DUPLICATOR)
    assert ef_trace(left, right, n, budget=10_000)[0] == expected


def test_pure_set_game_fits_small_budget():
    # a position is its set of pebbled pairs: 892 states, where memoizing on
    # ordered pebble sequences took 1,899 and ran out of this budget
    p7 = corpus.pure_set_structure(7)
    assert ef_winner(p7, p7, 3, budget=1_000) == DUPLICATOR
    assert equiv_n(p7, p7, 3, budget=1_000)
    assert ef_trace(p7, p7, 3, budget=1_000)[0] == DUPLICATOR
    solver = GameSolver(p7, p7, budget=1_000)
    assert solver.duplicator_wins((), 3)
    assert solver.states == 892


def test_identical_structures_duplicator_wins():
    rng = random.Random(5)
    for _ in range(10):
        s = rand_binary(rng, 4)
        for n in range(4):
            assert ef_winner(s, s, n) == DUPLICATOR


# ---------------------------------------------------------------------------
# agreement of ef_winner, equiv_n and rank-n types


def assert_agree(a, b, n):
    # Duplicator wins n rounds iff the rank-n types agree (Ehrenfeucht-Fraisse)
    game = ef_winner(a, b, n) == DUPLICATOR
    assert game == equiv_n(a, b, n) == (_rank_type(a, n) == _rank_type(b, n)), (a, b, n)


def test_agreement_exhaustive_two_elements():
    structures = []
    pairs = [(u, v) for u in range(2) for v in range(2)]
    for bits in range(16):
        facts = frozenset(("E", pairs[i]) for i in range(4) if bits >> i & 1)
        structures.append(FinStructure(SIG, 2, facts))
    for a in structures:
        for b in structures:
            for n in range(4):
                assert_agree(a, b, n)


def test_agreement_sampled_four_elements():
    rng = random.Random(17)
    for _ in range(60):
        a, b = rand_binary(rng, 4), rand_binary(rng, 4)
        for n in range(4):
            assert_agree(a, b, n)


def test_agreement_mixed_arities():
    # unary, binary and ternary relations, sizes 0-3: 900 checks
    rng = random.Random(29)
    for _ in range(300):
        a, b = rand_mixed(rng, rng.randint(0, 3)), rand_mixed(rng, rng.randint(0, 3))
        for n in range(3):
            assert_agree(a, b, n)


def test_rank_types_do_not_share_the_extension_check(monkeypatch):
    # With an _extends that checks only that facts are preserved, both game
    # solvers let Duplicator pebble a loop-free element onto a loop; the
    # rank types, which never call _extends, still tell the two apart.
    from structcode import efgames

    def preserve_only(left, right, fwd, a, b):
        if a in fwd:
            return fwd[a] == b
        if b in fwd.values():
            return False
        fwd = {**fwd, a: b}
        return all((name, tuple(fwd[x] for x in tup)) in right.facts
                   for name, tup in left.facts if all(x in fwd for x in tup))

    monkeypatch.setattr(efgames, "_extends", preserve_only)
    point = corpus.pure_set_structure(1)
    loop = FinStructure(SIG, 1, frozenset({("E", (0, 0))}))
    assert ef_winner(point, loop, 1) == DUPLICATOR
    assert equiv_n(point, loop, 1)
    assert _rank_type(point, 1) != _rank_type(loop, 1)


def test_monotone_in_rounds():
    rng = random.Random(19)
    for _ in range(30):
        a, b = rand_binary(rng, 4), rand_binary(rng, 4)
        wins = [ef_winner(a, b, n) == DUPLICATOR for n in range(5)]
        # once Spoiler wins, more rounds never help Duplicator
        for earlier, later in zip(wins, wins[1:]):
            assert earlier or not later


def test_isomorphic_inputs_duplicator_wins_up_to_size():
    rng = random.Random(37)
    for _ in range(8):
        a = rand_binary(rng, 4)
        b, _ = corpus.random_permuted_copy(rng, a)
        assert find_isomorphism(a, b) is not None
        for n in range(a.size + 1):
            assert ef_winner(a, b, n) == DUPLICATOR


def test_coding_compatibility_on_isomorphic_pairs():
    rng = random.Random(41)
    for _ in range(3):
        a = corpus.random_structure(rng, max_size=2, max_relations=1, max_arity=2)
        b, _ = corpus.random_permuted_copy(rng, a)
        ga, gb = coding.encode(a).graph, coding.encode(b).graph
        for n in range(4):
            assert equiv_n(ga, gb, n, budget=2_000_000)


def test_budget_exhaustion():
    with pytest.raises(BudgetExhausted):
        ef_winner(K3, K3, 3, budget=3)
    with pytest.raises(BudgetExhausted):
        equiv_n(K3, K3, 3, budget=3)


def test_game_budget_exhaustion_reports_states():
    with pytest.raises(BudgetExhausted) as err:
        ef_winner(K3, K3, 3, budget=3)
    assert str(err.value) == "game search exceeded 3 states"
    assert (err.value.used, err.value.budget) == (4, 3)


def test_hierarchy_budget_exhaustion_reports_maps():
    with pytest.raises(BudgetExhausted) as err:
        equiv_n(K3, K3, 3, budget=3)
    assert str(err.value) == "hierarchy exceeded 3 maps"
    assert (err.value.used, err.value.budget) == (4, 3)


def test_large_pair_small_budget_builds_nothing_quadratic():
    # Duplicator's replies are generated move by move: at 0 rounds, or with
    # a budget of 10, two edgeless 1,000-element structures take memory in
    # proportion to their size, not to the 10^6 pairs between them. A
    # 1,000-vertex directed path refines to 1,000 colours; equiv_n builds
    # a colour's reply order only when a move of that colour is answered
    big = FinStructure(SIG, 1000, frozenset())
    path = FinStructure(SIG, 1000, frozenset(("E", (i, i + 1)) for i in range(999)))
    tracemalloc.start()
    try:
        assert ef_winner(big, big, 0) == DUPLICATOR
        assert equiv_n(big, big, 0)
        assert ef_trace(big, big, 0) == (DUPLICATOR, [])
        for s in (big, path):
            for solve in (ef_winner, equiv_n, ef_trace):
                with pytest.raises(BudgetExhausted) as err:
                    solve(s, s, 1, budget=10)
                assert err.value.used == 11
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# traces


def test_trace_shows_spoiler_win():
    winner, trace = ef_trace(K2, K3, 3)
    assert winner == SPOILER
    assert trace[-1][2] is None  # Duplicator ran out of answers


def test_trace_duplicator_line_is_legal():
    winner, trace = ef_trace(K2, K3, 2)
    assert winner == DUPLICATOR
    assert all(resp is not None for _, _, resp in trace)


def _graph(size, *edges):
    return FinStructure(SIG, size, frozenset(("E", e) for e in edges))


@pytest.mark.parametrize("left, right, winner", [
    (_graph(1), _graph(1), DUPLICATOR),
    (_graph(2, (0, 1)), _graph(2, (1, 0)), DUPLICATOR),
    (_graph(2, (0, 1)), _graph(2), SPOILER),
    (_graph(1), _graph(2, (0, 1)), SPOILER),
])
@pytest.mark.parametrize("n", [500, 5000])
def test_many_rounds_answer(left, right, winner, n):
    # Rounds beyond left.size + right.size change no value, so these
    # answer as fast as 3 rounds do; uncapped, 500 rounds ran out of stack
    assert ef_winner(left, right, n) == winner
    assert equiv_n(left, right, n) == (winner == DUPLICATOR)
    short = ef_trace(left, right, 3)[1]
    # the extra rounds re-pebble the first pair
    assert ef_trace(left, right, n) == (winner, short[:1] * (n - 3) + short)


def _seeded_pair(seed):
    rng = random.Random(seed)
    return rand_binary(rng, 4), rand_binary(rng, 4)


# recorded from the solver that memoized ordered pebble sequences
@pytest.mark.parametrize("pair, n, expected", [
    ((K2, K3), 2, (DUPLICATOR, [("left", 0, 0), ("left", 0, 0)])),
    ((K2, K3), 3, (SPOILER, [("left", 0, 0), ("left", 1, 1), ("right", 2, None)])),
    (_seeded_pair(23), 1, (SPOILER, [("right", 0, None)])),
    (_seeded_pair(23), 2, (SPOILER, [("left", 0, 1), ("left", 1, None)])),
    (_seeded_pair(23), 3, (SPOILER, [("left", 0, 1), ("left", 0, 1), ("left", 1, None)])),
    (_seeded_pair(58), 1, (DUPLICATOR, [("left", 0, 2)])),
    (_seeded_pair(58), 2, (SPOILER, [("left", 0, 2), ("left", 3, None)])),
    (_seeded_pair(58), 3, (SPOILER, [("left", 0, 2), ("left", 0, 2), ("left", 3, None)])),
])
def test_trace_golden(pair, n, expected):
    assert ef_trace(*pair, n) == expected


# ---------------------------------------------------------------------------
# golden work counts: GameSolver.states, equiv_n's exact map count and the
# ef_trace line, recorded from the solver with mirrored left/right loops.
# Trace sides are abbreviated L and R.

# (_seeded_pair seed, rounds, states, maps, winner, trace)
SEEDED = [
    (0, 0, 1, 1, "D", []),
    (0, 1, 4, 4, "D", [("L", 0, 0)]),
    (0, 2, 3, 3, "S", [("L", 0, 0), ("L", 1, None)]),
    (0, 3, 4, 4, "S", [("L", 0, 0), ("L", 0, 0), ("L", 1, None)]),
    (1, 0, 1, 1, "D", []),
    (1, 1, 1, 1, "S", [("L", 0, None)]),
    (1, 2, 1, 1, "S", [("L", 0, None)]),
    (1, 3, 1, 1, "S", [("L", 0, None)]),
    (2, 0, 1, 1, "D", []),
    (2, 1, 1, 1, "D", []),
    (2, 2, 1, 1, "D", []),
    (2, 3, 1, 1, "D", []),
    (3, 0, 1, 1, "D", []),
    (3, 1, 1, 1, "S", [("L", 0, None)]),
    (3, 2, 1, 1, "S", [("L", 0, None)]),
    (3, 3, 1, 1, "S", [("L", 0, None)]),
    (4, 0, 1, 1, "D", []),
    (4, 1, 2, 2, "S", [("R", 0, None)]),
    (4, 2, 5, 5, "S", [("L", 0, 1), ("R", 0, None)]),
    (4, 3, 7, 7, "S", [("L", 0, 1), ("L", 0, 1), ("R", 0, None)]),
    (5, 0, 1, 1, "D", []),
    (5, 1, 1, 1, "S", [("L", 0, None)]),
    (5, 2, 1, 1, "S", [("L", 0, None)]),
    (5, 3, 1, 1, "S", [("L", 0, None)]),
    (6, 0, 1, 1, "D", []),
    (6, 1, 7, 6, "D", [("L", 0, 0)]),
    (6, 2, 10, 10, "S", [("L", 0, 0), ("L", 2, None)]),
    (6, 3, 13, 13, "S", [("L", 0, 0), ("L", 0, 0), ("L", 2, None)]),
    (7, 0, 1, 1, "D", []),
    (7, 1, 1, 1, "S", [("L", 0, None)]),
    (7, 2, 1, 1, "S", [("L", 0, None)]),
    (7, 3, 1, 1, "S", [("L", 0, None)]),
    (8, 0, 1, 1, "D", []),
    (8, 1, 2, 2, "S", [("R", 1, None)]),
    (8, 2, 3, 3, "S", [("L", 0, 0), ("R", 1, None)]),
    (8, 3, 4, 4, "S", [("L", 0, 0), ("L", 0, 0), ("R", 1, None)]),
    (9, 0, 1, 1, "D", []),
    (9, 1, 1, 1, "S", [("L", 0, None)]),
    (9, 2, 1, 1, "S", [("L", 0, None)]),
    (9, 3, 1, 1, "S", [("L", 0, None)]),
    (10, 0, 1, 1, "D", []),
    (10, 1, 6, 6, "D", [("L", 0, 0)]),
    (10, 2, 3, 3, "S", [("L", 0, 0), ("L", 1, None)]),
    (10, 3, 4, 4, "S", [("L", 0, 0), ("L", 0, 0), ("L", 1, None)]),
    (11, 0, 1, 1, "D", []),
    (11, 1, 1, 1, "S", [("L", 0, None)]),
    (11, 2, 1, 1, "S", [("L", 0, None)]),
    (11, 3, 1, 1, "S", [("L", 0, None)]),
]
# (left size, right size, states, maps, winner, trace) at 3 rounds, the
# same for pure sets and for cliques
SYMMETRIC = [
    (2, 2, 14, 14, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (2, 3, 22, 22, "S", [("L", 0, 0), ("L", 1, 1), ("R", 2, None)]),
    (2, 4, 37, 37, "S", [("L", 0, 0), ("L", 1, 1), ("R", 2, None)]),
    (2, 5, 56, 56, "S", [("L", 0, 0), ("L", 1, 1), ("R", 2, None)]),
    (2, 6, 79, 79, "S", [("L", 0, 0), ("L", 1, 1), ("R", 2, None)]),
    (3, 2, 13, 13, "S", [("L", 0, 0), ("L", 1, 1), ("L", 2, None)]),
    (3, 3, 44, 44, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (3, 4, 79, 79, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (3, 5, 136, 136, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (3, 6, 221, 221, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (4, 2, 15, 15, "S", [("L", 0, 0), ("L", 1, 1), ("L", 2, None)]),
    (4, 3, 79, 79, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (4, 4, 124, 124, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (4, 5, 193, 193, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (4, 6, 292, 292, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (5, 2, 17, 17, "S", [("L", 0, 0), ("L", 1, 1), ("L", 2, None)]),
    (5, 3, 136, 136, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (5, 4, 193, 193, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (5, 5, 276, 276, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (5, 6, 391, 391, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (6, 2, 19, 19, "S", [("L", 0, 0), ("L", 1, 1), ("L", 2, None)]),
    (6, 3, 221, 221, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (6, 4, 292, 292, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (6, 5, 391, 391, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
    (6, 6, 524, 524, "D", [("L", 0, 0), ("L", 0, 0), ("L", 0, 0)]),
]


SIDES = {"L": "left", "R": "right"}


def _check_golden(left, right, n, states, maps, winner, trace):
    solver = GameSolver(left, right)
    solver.duplicator_wins((), n)
    assert solver.states == states
    equiv_n(left, right, n, budget=maps)
    with pytest.raises(BudgetExhausted) as err:
        equiv_n(left, right, n, budget=maps - 1)
    assert err.value.used == maps
    expected = [(SIDES[side], e, resp) for side, e, resp in trace]
    assert ef_trace(left, right, n) == ({"D": DUPLICATOR, "S": SPOILER}[winner], expected)


@pytest.mark.parametrize("seed, n, states, maps, winner, trace", SEEDED)
def test_golden_counts_seeded(seed, n, states, maps, winner, trace):
    _check_golden(*_seeded_pair(seed), n, states, maps, winner, trace)


@pytest.mark.parametrize("make", [corpus.pure_set_structure, corpus.complete_graph_structure])
@pytest.mark.parametrize("a, b, states, maps, winner, trace", SYMMETRIC)
def test_golden_counts_symmetric(make, a, b, states, maps, winner, trace):
    _check_golden(make(a), make(b), 3, states, maps, winner, trace)


# ---------------------------------------------------------------------------
# reduct strategy verification


def test_reduct_strategy_wins():
    assert verify_reduct_strategy(2, 2)
    assert verify_reduct_strategy(1, 1, log2_size=2)


def test_zero_rounds_trivially_true():
    left, right, strategy = paired_reduct_restrictions(2, 2, 3)
    assert verify_duplicator_strategy(left, right, strategy, 0)


def test_corrupted_strategy_fails():
    left, right, strategy = paired_reduct_restrictions(2, 2, 3)
    corrupted = list(strategy)
    corrupted[0], corrupted[1] = corrupted[1], corrupted[0]
    assert not verify_duplicator_strategy(left, right, corrupted, 2)


def test_strategy_must_be_bijective():
    left, right, strategy = paired_reduct_restrictions(1, 1, 2)
    with pytest.raises(ValueError):
        verify_duplicator_strategy(left, right, [0] * left.size, 1)


def test_strategy_out_of_range_is_rejected():
    # injective but not onto: an answer outside the right universe
    left, right, _ = paired_reduct_restrictions(2, 2, 3)
    assert left.size == 8
    with pytest.raises(ValueError):
        verify_duplicator_strategy(left, right, [*range(7), 99], 1)


def test_strategy_plays_each_pair_once_per_position(monkeypatch):
    # each set of min(n, size) pebbled pairs is checked once, so 8 elements
    # at 3 rounds check C(8, 3) sets
    from structcode import efgames

    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _pebbles_partial_iso(*args)

    monkeypatch.setattr(efgames, "_pebbles_partial_iso", counted)
    left, right, strategy = paired_reduct_restrictions(2, 2, 3)
    assert verify_duplicator_strategy(left, right, strategy, 3)
    assert calls == 56


def _raises(*args):
    raise AssertionError("a pebble set was checked")


def test_strategy_budget_counts_pebble_sets(monkeypatch):
    # 8 elements at 4 rounds check C(8, 4) = 70 sets; an over-budget check
    # raises before it checks any
    from structcode import efgames

    assert verify_reduct_strategy(2, 4, budget=70)
    with pytest.raises(BudgetExhausted, match="more than 69 pebble sets") as exc:
        verify_reduct_strategy(2, 4, budget=69)
    assert (exc.value.used, exc.value.budget) == (70, 69)
    monkeypatch.setattr(efgames, "_pebbles_partial_iso", _raises)
    left, right, strategy = paired_reduct_restrictions(2, 2, 3)
    with pytest.raises(BudgetExhausted) as exc:
        verify_duplicator_strategy(left, right, strategy, 5, budget=55)
    assert exc.value.used == 56  # C(8, 5) = C(8, 3), counted to the nearer end
    with pytest.raises(BudgetExhausted, match="needs 8 elements, more than 7"):
        verify_reduct_strategy(2, 0, budget=7)


def test_strategy_budget_is_checked_before_building():
    # 1,024 elements at 3 rounds: C(1024, 3) = 178,433,024 sets, and
    # building the two restrictions alone peaks at about 4 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted, match="more than 1000000 pebble sets") as exc:
            verify_reduct_strategy(2, 3, log2_size=10, budget=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.used > exc.value.budget == 10**6
    assert peak < 10**5
    # 2^(10^9) alone would take 125 MB
    with pytest.raises(BudgetExhausted, match="more than 1000 elements") as exc:
        verify_reduct_strategy(2, 3, log2_size=10**9, budget=1000)
    assert exc.value.used is None and exc.value.budget == 1000


def _walk_lines(left, right, strategy, n):
    """Reference verifier: play every Spoiler line of n left moves, checking
    the pebble position after each round."""
    pairs = list(enumerate(strategy))

    def play(pebbles, k):
        return k == 0 or all(
            _pebbles_partial_iso(left, right, pebbles + (pair,)) and play(pebbles + (pair,), k - 1)
            for pair in pairs
        )

    return play((), n)


@pytest.mark.parametrize("sig", [SIG, Signature.of(("E", 2), ("U", 1), ("T", 3))])
def test_strategy_verifier_matches_line_walker(sig):
    # an isomorphic copy with at most one atom toggled, answered by the
    # copying permutation or by a random bijection
    rng = random.Random(21)
    verdicts = set()
    for _ in range(100):
        left = corpus.random_structure(rng, max_size=5, sig=sig)
        right, perm = corpus.random_permuted_copy(rng, left)
        if left.size and rng.random() < 0.5:
            name, arity = rng.choice(sig.relations)
            atom = (name, tuple(rng.randrange(left.size) for _ in range(arity)))
            right = FinStructure(sig, right.size, right.facts ^ {atom})
        strategy = [t for _, t in perm.pairs]
        if rng.random() < 0.5:
            rng.shuffle(strategy)
        n = rng.randint(0, 6)
        want = _walk_lines(left, right, strategy, n)
        assert verify_duplicator_strategy(left, right, strategy, n) == want
        verdicts.add(want)
    assert verdicts == {True, False}
