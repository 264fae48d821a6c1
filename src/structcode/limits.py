"""Stage-wise construction of a structure whose type encodes a promised limit.

Given a total 0/1 stage function converging in s, the builder grows a chain
of finite structures around a distinguished element a whose bit string is
s -> eval(i, s). Stage s materializes the terms F_g(k)(a) for k <= s
(deduplicated by XOR normal form, so F_"0"(a) is a itself) and decides the
prefix facts R_g(l) for l <= s on every term. Facts never flip across
stages because each one only reads a fixed finite part of the stage
function, so the stages nest; the limit structure is the tail-0 tag
structure when the limit is 0 and the tail-1 one otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .core import FinStructure, all_strings, enum_string, xor_bits
from . import shelah

S0 = "S0"
S1 = "S1"


@dataclass(frozen=True)
class Approximation:
    """Total two-valued stage function with a promised limit."""

    eval: Callable[[int, int], int]
    promised_stabilization: Optional[int] = None

    @classmethod
    def constant(cls, bit: int) -> "Approximation":
        assert bit in (0, 1)
        return cls(lambda i, s: bit, 0)

    @classmethod
    def from_pattern(cls, bits: str, index: int = 0) -> "Approximation":
        """Explicit flip history, then constant at the last bit (all other
        indices are constantly that last bit)."""
        assert bits and all(c in "01" for c in bits)

        def f(i: int, s: int) -> int:
            if i != index or s >= len(bits):
                return int(bits[-1])
            return int(bits[s])

        return cls(f, len(bits) - 1)

    def string_prefix(self, i: int, n: int) -> str:
        return "".join(str(self.eval(i, j)) for j in range(n))


def norm_term(nu: str) -> str:
    """XOR normal form of a term index: trailing zero bits act as identity."""
    return nu.rstrip("0")


@dataclass(frozen=True)
class StageStructure:
    """One stage: universe of term indices (normal form, a = '') plus the
    decided prefix facts, keyed (relation string, term)."""

    stage: int
    universe: tuple[str, ...]
    facts: tuple[tuple[tuple[str, str], bool], ...]

    @cached_property
    def fact_map(self) -> dict[tuple[str, str], bool]:
        """The facts as a dict, built on first use; read-only by convention."""
        return dict(self.facts)

    def holds(self, mu: str, term: str) -> bool:
        return self.fact_map.get((mu, term), False)

    def decided(self, mu: str, term: str) -> bool:
        return (mu, term) in self.fact_map


def build_stage(approx: Approximation, i: int, s: int) -> StageStructure:
    """The structure after stage s; stage 0 is the bare element a."""
    assert s >= 0
    if s == 0:
        return StageStructure(0, ("",), ())
    # k <= s, so enum_string(k) has at most log2(s + 1) <= s bits
    universe = tuple(dict.fromkeys(norm_term(enum_string(k)) for k in range(s + 1)))
    prefix = approx.string_prefix(i, s)
    facts = []
    for l in range(s + 1):
        mu = enum_string(l)
        for term in universe:
            facts.append(((mu, term), _prefix_holds(mu, prefix, term)))
    return StageStructure(s, universe, tuple(sorted(facts)))


def _prefix_holds(mu: str, a_bits: str, term: str) -> bool:
    """Is mu an initial segment of the string of F_term(a)?"""
    assert len(mu) <= len(a_bits)
    for j in range(len(mu)):
        bit = int(a_bits[j]) ^ (int(term[j]) if j < len(term) else 0)
        if bit != int(mu[j]):
            return False
    return True


def is_substage(earlier: StageStructure, later: StageStructure) -> bool:
    """Universe inclusion plus agreement of every decided fact."""
    if not set(earlier.universe) <= set(later.universe):
        return False
    late = later.fact_map
    return all(key in late and late[key] == val for key, val in earlier.facts)


def query_fact(approx: Approximation, i: int, mu: str, nu: str) -> bool:
    """Decide R_mu(F_nu(a)) directly, without knowledge of the limit.

    Only the stage-function values at positions below |mu| matter, so the
    answer agrees with build_stage once the stage covers both indices.
    """
    for j in range(len(mu)):
        bit = approx.eval(i, j) ^ (int(nu[j]) if j < len(nu) else 0)
        if bit != int(mu[j]):
            return False
    return True


def classify_limit(approx: Approximation, i: int, stabilization_bound: int) -> str:
    """S0 when the promised limit is 0, S1 when it is 1.

    The bound is the caller's promise that the stage function is constant
    from there on; it plays the role of the jump oracle, and nothing short
    of it can decide the answer.
    """
    assert stabilization_bound >= 0
    return S0 if approx.eval(i, stabilization_bound) == 0 else S1


# ---------------------------------------------------------------------------
# Finite restrictions for isomorphism checks


def stage_restriction(stage: StageStructure, nu_bound: int) -> FinStructure:
    """The stage as a finite structure over the tag signature.

    Prefix facts come from the stage's decided facts; map-graph facts are
    term arithmetic (F_nu sends term t to norm(t XOR nu)), so they need no
    stage data. Relations with undecided prefix facts simply stay false, so
    compare only at stages that have decided every |mu| <= nu_bound.
    """
    sig = shelah.tag_signature(nu_bound)
    index = {term: p for p, term in enumerate(stage.universe)}
    facts = set()
    fact_map = stage.fact_map
    for nu in all_strings(nu_bound):
        for term, p in index.items():
            if fact_map.get((nu, term), False):
                facts.add((shelah.rel_name("R", nu), (p,)))
            image = norm_term(xor_bits(term, nu))
            if image in index:
                facts.add((shelah.rel_name("gF", nu), (p, index[image])))
    return FinStructure(sig, len(index), frozenset(facts))


def limit_restriction(approx: Approximation, i: int, stage: StageStructure,
                      stabilization_bound: int, nu_bound: int) -> FinStructure:
    """The true tag-structure restriction the stage should be isomorphic to.

    Evaluates honest tag-structure elements: a is the eventually-constant
    string promised by the approximation, and each term acts on it by XOR.
    """
    tail = 0 if classify_limit(approx, i, stabilization_bound) == S0 else 1
    a = shelah.SElem.make(approx.string_prefix(i, stabilization_bound + 1), tail)
    elems = [shelah.eval_F(term, a) for term in stage.universe]
    return shelah.reduct_restriction(elems, nu_bound)


def decided_bound(stage: StageStructure) -> int:
    """Largest nu_bound with every prefix relation decided at this stage
    (-1 for the bare stage 0).

    Stage s >= 1 decides the strings of enum_string indices 0..s, and those
    of length <= b are indices 0..2^(b+1) - 2, so b is the largest with
    2^(b+1) <= s + 2.
    """
    if stage.stage == 0:
        return -1
    return (stage.stage + 2).bit_length() - 2
