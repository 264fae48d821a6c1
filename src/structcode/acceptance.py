"""The package's acceptance criteria as callable, self-reporting checks.

Each criterion function runs at its pinned scale and tolerance and returns
a CriterionResult whose line() is stable across runs for a fixed seed (no
timing in the line; elapsed time only gates criteria that carry an explicit
time bound). Both the pytest acceptance module and the CLI selftest
subcommand drive these functions.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import coding, corpus, efgames, functors, limits, reduction, search, shelah
from .core import (
    BudgetExhausted,
    FinStructure,
    Signature,
    atoms,
    restrict,
    simple_cycles,
    xor_bits,
)

DEFAULT_SEED = 20260808


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    metrics: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def line(self) -> str:
        parts = [f"criterion={self.cid}", f"pass={'yes' if self.passed else 'no'}"]
        parts.extend(f"{k}={v}" for k, v in self.metrics.items())
        for note in self.notes:
            parts.append(f"note={note}")
        return " ".join(parts)


def _timed(criterion: Callable[[int], CriterionResult]) -> Callable[[int], CriterionResult]:
    """Wrap a criterion so that its result carries its wall time in elapsed."""

    @functools.wraps(criterion)
    def timed(seed: int = DEFAULT_SEED) -> CriterionResult:
        start = time.monotonic()
        result = criterion(seed)
        result.elapsed = time.monotonic() - start
        return result

    return timed


# ---------------------------------------------------------------------------
# C1: coding round-trip through the canonical isomorphism


def _coding_corpus(seed: int):
    """The 200 structures that C1 and C4 both check."""
    rng = random.Random(seed)
    for _ in range(200):
        yield corpus.random_structure(rng, max_size=4, max_relations=3, max_arity=3)


@_timed
def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    start = time.monotonic()
    failures = 0
    for s in _coding_corpus(seed):
        try:
            coding.canonical_iso(s)  # verifies pointwise internally
            back = coding.decode(coding.encode(s).graph, s.sig)
            if search.find_isomorphism(s, back) is None:
                failures += 1
        except coding.MalformedCoding:
            failures += 1
    result = CriterionResult("C1", failures == 0, {"checked": 200, "failures": failures})
    if time.monotonic() - start >= 30.0:
        result.passed = False
        result.notes.append("time-bound-30s-exceeded")
    return result


# ---------------------------------------------------------------------------
# C2: isomorphism equivalence through the coding


def _random_binary_structure(rng: random.Random, max_size: int) -> FinStructure:
    sig = Signature.of(("E", 2))
    size = rng.randint(0, max_size)
    density = rng.choice((0.3, 0.5, 0.7))
    facts = frozenset(
        ("E", (u, v)) for u in range(size) for v in range(size) if rng.random() < density
    )
    return FinStructure(sig, size, facts)


@_timed
def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 2)
    disagreements = 0
    iso_pairs = 0
    for _ in range(500):
        a = _random_binary_structure(rng, 3)
        if rng.random() < 0.5:
            b, _ = corpus.random_permuted_copy(rng, a)
        else:
            b = _random_binary_structure(rng, 3)
        s_iso = search.find_isomorphism(a, b) is not None
        g_iso = (
            search.find_isomorphism(coding.encode(a).graph, coding.encode(b).graph)
            is not None
        )
        if s_iso:
            iso_pairs += 1
        if s_iso != g_iso:
            disagreements += 1
    return CriterionResult(
        "C2",
        disagreements == 0,
        {"checked": 500, "isomorphic_pairs": iso_pairs, "disagreements": disagreements},
    )


# ---------------------------------------------------------------------------
# C3: embedding forward transfer, reverse direction probed and reported


@_timed
def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 3)
    failures = 0
    for _ in range(200):
        a, b, h = corpus.random_embedded_pair(rng, max_size=4, max_relations=3, max_arity=3)
        try:
            gm = coding.encode_morphism(a, b, h)
        except (ValueError, coding.MalformedCoding):
            failures += 1
            continue
        if not coding.is_graph_embedding(coding.encode(a).graph, coding.encode(b).graph, gm):
            failures += 1

    # Reverse probe: coded-graph embeddability vs structure embeddability
    # on fresh unplanted pairs. Mismatches where the graphs embed but the
    # structures do not are findings, not failures (only the elementary
    # version is claimed); the other direction failing would contradict
    # forward transfer and does count as a failure.
    findings = 0
    skipped = 0
    for _ in range(60):
        a = corpus.random_structure(rng, max_size=2, max_relations=2, max_arity=2)
        b = corpus.random_structure(rng, max_size=2, sig=a.sig)
        s_emb = search.find_embedding(a, b) is not None
        try:
            g_emb = (
                search.find_embedding(
                    coding.encode(a).graph, coding.encode(b).graph, budget=300_000
                )
                is not None
            )
        except BudgetExhausted:
            skipped += 1
            continue
        if g_emb and not s_emb:
            findings += 1
        if s_emb and not g_emb:
            failures += 1
    result = CriterionResult(
        "C3",
        failures == 0,
        {
            "forward_checked": 200,
            "failures": failures,
            "reverse_probed": 60,
            "reverse_findings": findings,
            "reverse_skipped": skipped,
        },
    )
    if findings:
        result.notes.append("reverse-direction-counterexamples-found")
    return result


# ---------------------------------------------------------------------------
# C4: cycle uniqueness on the coding corpus


@_timed
def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    failures = 0
    for s in _coding_corpus(seed):
        cycles = simple_cycles(coding.encode(s).graph)
        if sorted(len(c) for c in cycles) != [3, 5, 7]:
            failures += 1
    return CriterionResult("C4", failures == 0, {"checked": 200, "failures": failures})


# ---------------------------------------------------------------------------
# C5: EF solver cross-validation


def _all_binary_structures(n: int):
    sig = Signature.of(("E", 2))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for bits in range(1 << len(pairs)):
        facts = frozenset(("E", pairs[i]) for i in range(len(pairs)) if bits >> i & 1)
        yield FinStructure(sig, n, facts)


def _canonical_binary_structures(max_size: int) -> list[FinStructure]:
    reps = []
    seen = set()
    for n in range(max_size + 1):
        for s in _all_binary_structures(n):
            best = None
            for perm in itertools.permutations(range(n)):
                facts = tuple(sorted((perm[u], perm[v]) for _, (u, v) in s.facts))
                if best is None or facts < best:
                    best = facts
            key = (n, best)
            if key not in seen:
                seen.add(key)
                reps.append(s)
    return reps


def pinned_k2_k3() -> bool:
    """K2 and K3 agree for 2 rounds; Spoiler tells them apart in 3."""
    k2 = corpus.complete_graph_structure(2)
    k3 = corpus.complete_graph_structure(3)
    return (
        efgames.ef_winner(k2, k3, 2) == efgames.DUPLICATOR
        and efgames.ef_winner(k2, k3, 3) == efgames.SPOILER
    )


@_timed
def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    def rank_types(s: FinStructure) -> list[tuple]:
        return [efgames._rank_type(s, n) for n in range(4)]

    # exhaustive over all one-binary-relation structures with <= 3
    # elements, up to isomorphism (the game value is an isomorphism
    # invariant, and the solvers are permutation-blind), then a seeded
    # sample at 4 elements; each structure's rank types are built once
    reps = _canonical_binary_structures(3)
    rep_types = [rank_types(s) for s in reps]
    pairs = [(reps[i], reps[j], rep_types[i], rep_types[j])
             for i in range(len(reps)) for j in range(i, len(reps))]
    rng = random.Random(seed + 5)
    for _ in range(500):
        a = _random_binary_structure(rng, 4)
        b = _random_binary_structure(rng, 4)
        pairs.append((a, b, rank_types(a), rank_types(b)))
    # the game search in both reply orders against rank-type equality
    checked, disagreements = 4 * len(pairs), 0
    for a, b, ta, tb in pairs:
        for n in range(4):
            game = efgames.ef_winner(a, b, n) == efgames.DUPLICATOR
            if not game == efgames.equiv_n(a, b, n) == (ta[n] == tb[n]):
                disagreements += 1
    pinned_ok = pinned_k2_k3()
    return CriterionResult(
        "C5",
        disagreements == 0 and pinned_ok,
        {
            "exhaustive_reps": len(reps),
            "checked": checked,
            "disagreements": disagreements,
            "pinned_ok": int(pinned_ok),
        },
    )


# ---------------------------------------------------------------------------
# C6: tag-structure laws


def _random_selem(rng: random.Random, max_prefix: int = 6) -> shelah.SElem:
    tail = rng.randint(0, 1)
    return shelah.SElem.make(corpus.random_bits(rng, max_prefix), tail)


def eval_F_law_failures(rng: random.Random, count: int, draw_elem) -> int:
    """Involution and composition failures of F on count (nu, mu, x); x from draw_elem(rng)."""
    failures = 0
    for _ in range(count):
        nu, mu = corpus.random_bits(rng, 6), corpus.random_bits(rng, 6)
        x = draw_elem(rng)
        failures += shelah.eval_F(nu, shelah.eval_F(nu, x)) != x
        failures += shelah.eval_F(mu, shelah.eval_F(nu, x)) != shelah.eval_F(xor_bits(mu, nu), x)
    return failures


def reduct_iso_failures(rng: random.Random, count: int, draw_elem) -> int:
    """R and graph(F) queries that reduct_iso(m) does not preserve; elements from draw_elem(rng)."""
    failures = 0
    for _ in range(count):
        m = rng.randint(0, 4)
        h = shelah.reduct_iso(m)
        nu = corpus.random_bits(rng, m)
        x, y = draw_elem(rng), draw_elem(rng)
        failures += shelah.holds_R(nu, x) != shelah.holds_R(nu, h(x))
        failures += shelah.holds_graphF(nu, x, y) != shelah.holds_graphF(nu, h(x), h(y))
    return failures


@_timed
def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 6)
    failures = eval_F_law_failures(rng, 1000, _random_selem)
    closure_failures = 0
    for _ in range(20):
        x = _random_selem(rng)
        for bound in range(7):
            if len(shelah.closure(x, bound)) != (1 << bound):
                closure_failures += 1
    reduct_failures = reduct_iso_failures(rng, 500, _random_selem)
    total = failures + closure_failures + reduct_failures
    return CriterionResult(
        "C6",
        total == 0,
        {
            "law_samples": 1000,
            "law_failures": failures,
            "closure_failures": closure_failures,
            "reduct_queries": 500,
            "reduct_failures": reduct_failures,
        },
    )


# ---------------------------------------------------------------------------
# C7: reduction round-trip and induced-embedding transfer


@_timed
def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 7)
    failures = 0
    for _ in range(500):
        g = corpus.random_graph(rng, max_size=6)
        try:
            if reduction.decode_f(reduction.build_f_graph(g), g.size, nu_bound=3, budget=50) != g:
                failures += 1
        except (reduction.DecodeIncomplete, reduction.ContradictoryEvidence):
            failures += 1

    transfer_failures = 0
    rel_bound = reduction.reduction_rel_bound(3)
    for _ in range(100):
        g1, g2, h = corpus.random_graph_embedding(rng, max_size=5)
        point_map = reduction.induced_embedding(g1, g2, h)
        src = restrict(reduction.build_f_graph(g1), 30, rel_bound)
        images = [point_map(code) for code in range(30)]
        if not _oracle_embedding_check(src, reduction.build_f_graph(g2), images):
            transfer_failures += 1
    return CriterionResult(
        "C7",
        failures == 0 and transfer_failures == 0,
        {
            "round_trips": 500,
            "round_trip_failures": failures,
            "embeddings": 100,
            "transfer_failures": transfer_failures,
        },
    )


def _oracle_embedding_check(src: FinStructure, target_oracle, images: list[int]) -> bool:
    """Preserve-and-reflect check of an injective map against an oracle.

    Quantifies over every tuple of the source restriction, so both
    directions are covered: a missing image fact fails preservation, an
    extra one fails reflection.
    """
    if len(set(images)) != len(images):
        return False
    return all(src.holds(name, tup) == target_oracle.holds(name, tuple(images[x] for x in tup))
               for name, tup in atoms(src.sig, range(src.size)))


# ---------------------------------------------------------------------------
# C8: limit construction


def stage_chain(approx: limits.Approximation, stages: int) -> tuple[int, limits.StageStructure]:
    """Build stages 0..stages; return the count of steps that do not nest, and the last stage."""
    prev = limits.build_stage(approx, 0, 0)
    breaks = 0
    for s in range(1, stages + 1):
        cur = limits.build_stage(approx, 0, s)
        breaks += not limits.is_substage(prev, cur)
        prev = cur
    return breaks, prev


@_timed
def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 8)
    nesting_failures = 0
    classify_failures = 0
    iso_failures = 0
    for _ in range(100):
        pattern = corpus.random_pattern(rng, stabilize_by=20)
        approx = limits.Approximation.from_pattern(pattern)
        breaks, stage = stage_chain(approx, 30)
        nesting_failures += breaks
        promised = "S0" if pattern[-1] == "0" else "S1"
        if limits.classify_limit(approx, 0, approx.promised_stabilization) != promised:
            classify_failures += 1
        left = limits.stage_restriction(stage, 3)
        right = limits.limit_restriction(approx, 0, stage, approx.promised_stabilization, 3)
        if search.find_isomorphism(left, right) is None:
            iso_failures += 1

    # jump locality: agreement through a stage never pins the limit
    locality_failures = 0
    for _ in range(20):
        prefix = "".join(str(rng.randint(0, 1)) for _ in range(10))
        a0 = limits.Approximation.from_pattern(prefix + "0")
        a1 = limits.Approximation.from_pattern(prefix + "1")
        if limits.build_stage(a0, 0, 10) != limits.build_stage(a1, 0, 10):
            locality_failures += 1
        if limits.classify_limit(a0, 0, 10) == limits.classify_limit(a1, 0, 10):
            locality_failures += 1
    total = nesting_failures + classify_failures + iso_failures + locality_failures
    return CriterionResult(
        "C8",
        total == 0,
        {
            "approximations": 100,
            "nesting_failures": nesting_failures,
            "classify_failures": classify_failures,
            "iso_failures": iso_failures,
            "locality_pairs": 20,
            "locality_failures": locality_failures,
        },
    )


# ---------------------------------------------------------------------------
# C9: functor layer


def chain_laws(functor: functors.Functor, chains: list[tuple]) -> functors.LawReport:
    """Identity laws on each chain's bottom object, composition laws along each chain."""
    return functors.check_functor_laws(functor, [chain[0] for chain in chains], chains)


def commuting_square_failures(rng: random.Random, count: int) -> int:
    """Sample count embedded pairs; count those where canonical_iso's square fails to commute."""
    ident = functors.identity_functor()
    round_trip = functors.round_trip_functor()
    failures = 0
    for _ in range(count):
        a, b, gamma = corpus.random_embedded_pair(rng, max_size=3, max_relations=2, max_arity=2)
        failures += not functors.check_commuting_square(
            coding.canonical_iso, ident, round_trip, a, gamma, b
        )
    return failures


@_timed
def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 9)
    violations = 0
    morphisms_checked = 0

    # 50 structure chains for the encode functor; 50 graph chains for
    # the reduction functor and, at desk scale, the composite
    chains = [
        corpus.random_induced_chain(
            rng, corpus.random_structure(rng, max_size=4, max_relations=2, max_arity=2)
        )
        for _ in range(50)
    ]
    gchains = [
        corpus.random_induced_chain(rng, corpus.random_graph(rng, max_size=5))
        for _ in range(50)
    ]
    for functor, sample in (
        (functors.encode_functor(), chains),
        (functors.reduction_functor(probe_size=25), gchains),
        (functors.composed_functor(restrict_size=5, nu_bound=0), gchains),
    ):
        # each chain is one identity morphism and a composable pair
        morphisms_checked += 3 * len(sample)
        violations += len(chain_laws(functor, sample).violations)

    # commuting squares for the canonical isomorphism family
    squares = 50
    square_failures = commuting_square_failures(rng, squares)

    passed = violations == 0 and square_failures == 0
    return CriterionResult(
        "C9",
        passed,
        {
            "morphisms_checked": morphisms_checked,
            "law_violations": violations,
            "squares": squares,
            "square_failures": square_failures,
        },
    )


# ---------------------------------------------------------------------------


ACCEPTANCE: list[tuple[str, str, Callable[[int], CriterionResult]]] = [
    ("C1", "coding round-trip via canonical isomorphism", criterion_1),
    ("C2", "isomorphism equivalence through the coding", criterion_2),
    ("C3", "embedding forward transfer (reverse probed)", criterion_3),
    ("C4", "cycle uniqueness of coded graphs", criterion_4),
    ("C5", "EF game solver cross-validation", criterion_5),
    ("C6", "tag-structure laws", criterion_6),
    ("C7", "reduction round-trip and induced embeddings", criterion_7),
    ("C8", "limit-stage construction", criterion_8),
    ("C9", "functor laws and commuting squares", criterion_9),
]


def run_criteria(which: Optional[list[str]] = None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    wanted = None if which is None else {w.upper() for w in which}
    results = []
    for cid, _desc, fn in ACCEPTANCE:
        if wanted is None or cid in wanted:
            results.append(fn(seed))
    return results
