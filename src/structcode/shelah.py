"""The two minimal tag structures built from eventually-constant bit strings.

An element is an infinite bit string that is eventually constant, stored as
(finite prefix, eventual bit) with the prefix never ending in the eventual
bit, so the representation is unique. S0 is the orbit of the all-zeros
string under the XOR maps, S1 the orbit of the all-ones string; both carry
unary prefix relations and the graphs of the XOR maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    AtomOracle,
    BudgetExhausted,
    Fact,
    FinStructure,
    Signature,
    all_strings,
    enum_string,
    string_index,
    xor_bits,
)

Nu = str  # a finite bit string indexing one XOR map / prefix relation


@dataclass(frozen=True)
class SElem:
    """Eventually-constant bit string prefix . tail^omega, normalized."""

    prefix: str
    tail: int

    def __post_init__(self):
        assert self.tail in (0, 1)
        assert not self.prefix.strip("01")
        if self.prefix.endswith(str(self.tail)):
            raise ValueError(f"prefix {self.prefix!r} not normalized for tail {self.tail}")

    @classmethod
    def make(cls, bits: str, tail: int) -> "SElem":
        """Build from any finite approximation, stripping redundant tail bits."""
        return cls(bits.rstrip(str(tail)), tail)

    def bit(self, i: int) -> int:
        if i < len(self.prefix):
            return int(self.prefix[i])
        return self.tail

    def bits(self, n: int) -> str:
        """The first n bits of the infinite string."""
        return (self.prefix + str(self.tail) * n)[:n]

    def __str__(self) -> str:
        return f"{self.prefix}:{self.tail}"

    @classmethod
    def parse(cls, text: str) -> "SElem":
        prefix, sep, tail = text.partition(":")
        if sep != ":" or tail not in ("0", "1") or not all(c in "01" for c in prefix):
            raise ValueError(f"bad element literal {text!r}, expected PREFIX:TAILBIT")
        return cls(prefix, int(tail))


ZERO = SElem("", 0)
ONE = SElem("", 1)


def eval_F(nu: Nu, x: SElem) -> SElem:
    """XOR x's infinite string with nu (padded with 0s); the tail is unchanged."""
    n = max(len(nu), len(x.prefix))
    return SElem.make(xor_bits(x.bits(n), nu), x.tail)


def holds_R(nu: Nu, x: SElem) -> bool:
    """True iff nu is an initial segment of x's infinite string."""
    return x.bits(len(nu)) == nu


def holds_graphF(nu: Nu, x: SElem, y: SElem) -> bool:
    return eval_F(nu, x) == y


def enumerate_elems(b: int, n: int) -> list[SElem]:
    """The first n elements with tail b, prefixes in length-lex order.

    Index 0 is the constant string; see nth_elem for the closed form.
    """
    return [nth_elem(b, k) for k in range(n)]


def nth_elem(b: int, k: int) -> SElem:
    """k-th element of the tail-b structure under the length-lex enumeration.

    Index 0 is the empty prefix. A normalized prefix of length l >= 1 is a
    body of length l - 1 followed by 1-b, so the elements past index 0 run
    through the bodies in core's length-lex order.
    """
    assert k >= 0 and b in (0, 1)
    if k == 0:
        return SElem("", b)
    return SElem(enum_string(k - 1) + str(1 - b), b)


def elem_index(x: SElem) -> int:
    """Inverse of nth_elem for x within its own tail structure."""
    if not x.prefix:
        return 0
    return string_index(x.prefix[:-1]) + 1


def closure(seed: SElem, max_len: int) -> set[SElem]:
    """Close {seed} under every XOR map indexed by a string of length <= max_len.

    A shorter nu acts as nu padded with 0s to length max_len, and F_mu after
    F_nu is F_(nu XOR mu), so the closure is the coset {F_nu(seed) : |nu| =
    max_len}: exactly 2^max_len members, and {seed} for max_len <= 0. The
    strings of length w are enum_string's indices 2^w - 1 to 2^(w+1) - 2.
    """
    width = max(max_len, 0)
    return {eval_F(enum_string(k), seed) for k in range((1 << width) - 1, (2 << width) - 1)}


def closure_size(bound: int, budget: int, what: str) -> int:
    """2^bound, the size of a closure at that bound; BudgetExhausted, naming
    what needs it, when that is over budget. Past budget's bit length
    2^bound alone is over it, so it is not formed."""
    if bound > budget.bit_length():
        raise BudgetExhausted(f"{what} needs more than {budget} elements", budget=budget)
    size = 1 << bound
    if size > budget:
        raise BudgetExhausted(f"{what} needs {size} elements, more than {budget}",
                              used=size, budget=budget)
    return size


def reduct_iso(m: int) -> Callable[[SElem], SElem]:
    """The bijection flipping every bit at position >= m.

    Restricted to the sublanguage of strings of length <= m it preserves and
    reflects all prefix relations and XOR-map graphs, and it swaps the two
    tail structures. It is an involution.
    """
    assert m >= 0

    def h(x: SElem) -> SElem:
        n = max(m, len(x.prefix))
        return SElem.make(xor_bits(x.bits(n), "0" * m + "1" * (n - m)), 1 - x.tail)

    return h


def distinguishing_trace(x: SElem, bound: int) -> set[Nu]:
    """All strings of length <= bound that are initial segments of x."""
    return {x.bits(k) for k in range(bound + 1)}


def generator_trace(b: int, bound: int) -> set[Nu]:
    """The trace of the constant-b string: {b^k : k <= bound}."""
    return {str(b) * k for k in range(bound + 1)}


# ---------------------------------------------------------------------------
# Relational presentation


def rel_name(kind: str, nu: Nu) -> str:
    assert kind in ("R", "gF")
    return f"{kind}_{nu}"


def split_rel_name(name: str) -> tuple[str, Nu]:
    kind, sep, nu = name.partition("_")
    if sep != "_" or kind not in ("R", "gF") or nu.strip("01"):
        raise ValueError(f"not a tag-structure relation name: {name!r}")
    return kind, nu


def tag_relation(index: int) -> tuple[str, int]:
    """Relation enumeration for the tag structures: R_nu/1 and gF_nu/2 alternating."""
    nu = enum_string(index // 2)
    if index % 2 == 0:
        return rel_name("R", nu), 1
    return rel_name("gF", nu), 2


def tag_signature(nu_bound: int) -> Signature:
    """All R_nu/1 and gF_nu/2 with |nu| <= nu_bound, enumeration order."""
    rels = []
    for nu in all_strings(nu_bound):
        rels.append((rel_name("R", nu), 1))
        rels.append((rel_name("gF", nu), 2))
    return Signature(tuple(rels))


def shelah_oracle(b: int) -> AtomOracle:
    """The tail-b structure as an atom oracle (handles are SElem values)."""

    def holds(name: str, tup: tuple) -> bool:
        kind, nu = split_rel_name(name)
        if kind == "R":
            (x,) = tup
            return holds_R(nu, x)
        x, y = tup
        return holds_graphF(nu, x, y)

    return AtomOracle(
        relation=tag_relation,
        element=lambda i: nth_elem(b, i),
        holds=holds,
        num_relations=None,
        num_elements=None,
    )


# reduction.decode_f lists each inspected point's trace with its own
# tag_facts call over the same R_ names, so the parse is kept per tuple of
# relations. Measured gain: a 6-vertex decode at nu_bound 3 (36 such calls
# of 15 names) took 4.04 ms without it and 3.43 ms with it (best of 5 over
# 12 graphs, 2-core VM, Python 3.11.7). Size bound: an entry holds about
# 100 bytes per name (0.9 KB for the 30 names at index length 3, by
# tracemalloc), and 4 entries cover a decode's R_ names and a restriction's
# tag relations at two index lengths.
@lru_cache(maxsize=4)
def _parsed_rels(rels: tuple) -> tuple[tuple[tuple[str, bool, int, int], ...], int]:
    """(name, is R, |nu|, nu as an integer) per relation, and the longest |nu|."""
    parsed = []
    for name, _ in rels:
        kind, nu = split_rel_name(name)
        parsed.append((name, kind == "R", len(nu), int(nu or "0", 2)))
    return tuple(parsed), max((length for _, _, length, _ in parsed), default=0)


def tag_facts(
    groups: Iterable[dict[SElem, int]], rels: Sequence[tuple[str, int]]
) -> Iterator[Fact]:
    """The tag facts among each group's elements, at the group's positions.

    A group maps elements to positions. Within it, R_nu(i) holds where nu is
    an initial segment of x, and gF_nu(i, j) where x XOR nu is the element at
    j in the same group. rels are (name, arity) pairs of tag relations,
    parsed once per tuple of rels (see _parsed_rels). Facts come group by
    group, then relation by relation in the given order, then element by
    element in group order.

    Each element is read once per group, as (c, tail) with c the integer of
    its first `width` bits, width being the longest nu or prefix in play.
    Two elements with one tail agree on all bits iff they agree on those, so
    R_nu is a shift and compare and gF_nu one XOR and one dict lookup. This
    shares no code with holds_R and eval_F, the deciders it is checked
    against.
    """
    parsed, longest_nu = _parsed_rels(tuple(rels))
    for group in groups:
        read = [(x.prefix, x.tail, i) for x, i in group.items()]
        width = max([longest_nu, *(len(prefix) for prefix, _, _ in read)])
        coded = [(int(prefix.ljust(width, str(tail)) or "0", 2), tail, i)
                 for prefix, tail, i in read]
        at = {(c, tail): i for c, tail, i in coded}
        for name, is_r, length, value in parsed:
            shift = width - length
            if is_r:
                for c, _, i in coded:
                    if c >> shift == value:
                        yield name, (i,)
            else:
                mask = value << shift
                for c, tail, i in coded:
                    j = at.get((c ^ mask, tail))
                    if j is not None:
                        yield name, (i, j)


def reduct_restriction(elems: Sequence[SElem], nu_bound: int) -> FinStructure:
    """Finite structure on the given elements with all relations |nu| <= nu_bound."""
    sig = tag_signature(nu_bound)
    index = {x: i for i, x in enumerate(elems)}
    assert len(index) == len(elems), "duplicate elements"
    return FinStructure(sig, len(elems), frozenset(tag_facts([index], sig.relations)))


def paired_reduct_restrictions(
    m: int, nu_bound: int, log2_size: int
) -> tuple[FinStructure, FinStructure, list[int]]:
    """Matched restrictions of the two tag structures, closed under the flip map.

    Left universe is the closure of the all-zeros string under strings of
    length <= log2_size: the tail-0 elements whose prefix has at most
    log2_size bits, which are the first 2^log2_size in enumeration order.
    Right universe is its image under reduct_iso(m), in the same order, so
    the translation strategy is the identity on indices.
    """
    h = reduct_iso(m)
    left_elems = enumerate_elems(0, 1 << log2_size)
    right_elems = [h(x) for x in left_elems]
    left = reduct_restriction(left_elems, nu_bound)
    right = reduct_restriction(right_elems, nu_bound)
    return left, right, list(range(len(left_elems)))
