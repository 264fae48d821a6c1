"""Signatures, finite structures, directed graphs, oracles, and text formats.

Everything downstream builds on the value types here. All values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat
from typing import Callable, ClassVar, Iterable, Iterator, Optional, Sequence

DEFAULT_BUDGET = 10 ** 7


class BudgetExhausted(Exception):
    """A bounded search or oracle scan ran out of its state/query budget.

    used is the count that went over the budget (nodes, states, maps or
    tuples) and budget the bound it passed; both are None when the raiser
    does not give them.
    """

    def __init__(self, *args, used: Optional[int] = None, budget: Optional[int] = None):
        super().__init__(*args)
        self.used = used
        self.budget = budget


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


# ---------------------------------------------------------------------------
# Pairing and string enumeration


def cantor_pair(m: int, n: int) -> int:
    """Bijection omega x omega -> omega, (m+n)(m+n+1)/2 + n."""
    assert m >= 0 and n >= 0
    return (m + n) * (m + n + 1) // 2 + n


def cantor_unpair(z: int) -> tuple[int, int]:
    """Inverse of cantor_pair."""
    assert z >= 0
    w = (math.isqrt(8 * z + 1) - 1) // 2
    n = z - w * (w + 1) // 2
    return w - n, n


def enum_string(k: int) -> str:
    """Length-lex bijection omega -> {0,1}*: 0 -> '', 1 -> '0', 2 -> '1', 3 -> '00', ...

    The k-th string is k+1 written in binary with the leading 1 removed.
    """
    assert k >= 0
    return bin(k + 1)[3:]


def string_index(s: str) -> int:
    """Inverse of enum_string."""
    assert all(c in "01" for c in s)
    return int("1" + s, 2) - 1


def all_strings(max_len: int) -> Iterator[str]:
    """All bit strings of length <= max_len in length-lex order: the first
    2^(max_len+1) - 1 strings of enum_string, none for max_len < 0."""
    return map(enum_string, range((1 << max(max_len + 1, 0)) - 1))


def xor_bits(a: str, b: str) -> str:
    """Bitwise XOR, the shorter string padded with 0s."""
    if len(a) < len(b):
        a, b = b, a
    return "".join(
        "1" if (a[i] != (b[i] if i < len(b) else "0")) else "0" for i in range(len(a))
    )


# ---------------------------------------------------------------------------
# Signatures and finite structures


@dataclass(frozen=True)
class Signature:
    """An ordered list of (relation name, arity) pairs; names unique, arities >= 1."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names in {names}")
        for name, arity in self.relations:
            if arity < 1:
                raise ValueError(f"relation {name} has arity {arity} < 1")
            if not name or "/" in name or any(c.isspace() for c in name):
                raise ValueError(f"bad relation name {name!r}")

    @classmethod
    def of(cls, *relations: tuple[str, int]) -> "Signature":
        return cls(tuple(relations))

    def arity(self, name: str) -> int:
        for rel, arity in self.relations:
            if rel == name:
                return arity
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def __contains__(self, name: str) -> bool:
        return any(rel == name for rel, _ in self.relations)

    def arities_distinct(self) -> bool:
        arities = [a for _, a in self.relations]
        return len(set(arities)) == len(arities)


Fact = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class FinStructure:
    """Finite relational structure with universe {0, ..., size-1}."""

    sig: Signature
    size: int
    facts: frozenset[Fact]

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative size")
        arities = dict(self.sig.relations)
        size = self.size
        for name, tup in self.facts:
            arity = arities[name]  # raises KeyError on unknown relation
            if len(tup) != arity:
                raise ValueError(f"fact {name}{tup}: expected arity {arity}")
            for i in tup:
                if not 0 <= i < size:
                    raise ValueError(f"fact {name}{tup}: element out of range")

    @classmethod
    def of(cls, sig: Signature, size: int, facts: Iterable[Fact] = ()) -> "FinStructure":
        return cls(sig, size, frozenset((name, tuple(tup)) for name, tup in facts))

    def holds(self, name: str, tup: Sequence[int]) -> bool:
        return (name, tuple(tup)) in self.facts


def atoms(sig: Signature, elems: Sequence[int]) -> Iterator[Fact]:
    """Every atom (name, tuple) of sig over elems: relations in signature
    order, each one's tuples in product order. On an empty elems nothing is
    allocated, whatever the arities; product would allocate arity slots."""
    if elems:
        for name, arity in sig.relations:
            yield from zip(repeat(name), product(elems, repeat=arity))


GRAPH_SIG = Signature.of(("E", 2))


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on {0, ..., size-1}. Self-loops rejected unless allow_loops.

    A digraph is a structure over GRAPH_SIG, the one binary relation E:
    sig, facts and holds are FinStructure's, so searches and games take a
    graph as it is. facts is built on first read and kept with the graph.
    """

    sig: ClassVar[Signature] = GRAPH_SIG
    size: int
    edges: frozenset[tuple[int, int]]
    allow_loops: bool = False

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative size")
        for u, v in self.edges:
            if not (0 <= u < self.size and 0 <= v < self.size):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v and not self.allow_loops:
                raise ValueError(f"self-loop ({u},{u}) not permitted")

    @classmethod
    def of(cls, size: int, edges: Iterable[tuple[int, int]] = (), allow_loops: bool = False) -> "DiGraph":
        return cls(size, frozenset((u, v) for u, v in edges), allow_loops)

    @cached_property
    def facts(self) -> frozenset[Fact]:
        return frozenset(zip(repeat("E"), self.edges))

    def holds(self, name: str, tup: Sequence[int]) -> bool:
        return name == "E" and tuple(tup) in self.edges

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges


def structure_of_graph(g: DiGraph) -> FinStructure:
    """The digraph as a FinStructure over GRAPH_SIG."""
    return FinStructure(GRAPH_SIG, g.size, g.facts)


def _successors(size: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Sorted successor lists indexed by vertex, one for each of range(size)."""
    out: list[list[int]] = [[] for _ in range(size)]
    for u, v in edges:
        out[u].append(v)
    for lst in out:
        lst.sort()
    return out


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class Morphism:
    """Injective partial map between element indices of two structures."""

    source_size: int
    target_size: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            return
        sources, targets = zip(*self.pairs)
        if list(sources) != sorted(set(sources)):
            raise ValueError("pairs must be sorted by source index, each source once")
        if len(set(targets)) != len(targets):
            raise ValueError("map not injective")
        if (sources[0] < 0 or sources[-1] >= self.source_size
                or min(targets) < 0 or max(targets) >= self.target_size):
            raise ValueError("pair out of range")

    @classmethod
    def from_mapping(cls, source_size: int, target_size: int, mapping: dict[int, int]) -> "Morphism":
        return cls(source_size, target_size, tuple(sorted(mapping.items())))

    @classmethod
    def identity(cls, size: int) -> "Morphism":
        return cls(size, size, tuple((i, i) for i in range(size)))

    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    def __call__(self, i: int) -> int:
        for s, t in self.pairs:
            if s == i:
                return t
        raise KeyError(i)

    def is_total(self) -> bool:
        return len(self.pairs) == self.source_size

    def is_bijective(self) -> bool:
        return self.is_total() and self.source_size == self.target_size

    def then(self, other: "Morphism") -> "Morphism":
        """Composite x -> other(self(x)); defined where both legs are."""
        if self.target_size != other.source_size:
            raise ValueError("composition size mismatch")
        om = other.mapping()
        pairs = tuple(sorted((s, om[t]) for s, t in self.pairs if t in om))
        return Morphism(self.source_size, other.target_size, pairs)

    def invert(self) -> "Morphism":
        if not self.is_bijective():
            raise ValueError("only bijective morphisms invert")
        return Morphism(self.target_size, self.source_size, tuple(sorted((t, s) for s, t in self.pairs)))


# ---------------------------------------------------------------------------
# Atom oracles: a structure presented as enumerator + fact decider


@dataclass(frozen=True)
class AtomOracle:
    """A (possibly infinite) structure given by pure enumerators and a decider.

    relation(i) yields the i-th signature symbol as (name, arity);
    element(i) yields the i-th universe member (any hashable handle);
    holds(name, handles) decides an atomic fact. num_relations/num_elements
    are None for infinite families. All three callables must be
    deterministic: same query, same answer.

    facts, when given, lists facts instead of deciding them one at a time:
    facts(handles, rels) takes distinct handles and (name, arity) pairs and
    returns every (name, index tuple) with name among rels for which holds
    is true on the handles at those indices. It must agree with holds on
    every tuple of the given handles; restrict and reduction.decode_f trust
    it without asking holds.
    """

    relation: Callable[[int], tuple[str, int]]
    element: Callable[[int], object]
    holds: Callable[[str, tuple], bool]
    num_relations: Optional[int] = None
    num_elements: Optional[int] = None
    facts: Optional[Callable[[list, list[tuple[str, int]]], Iterable[Fact]]] = None

    def element_count(self, n: int) -> int:
        """How many handles elements(n) returns."""
        return max(0, n if self.num_elements is None else min(n, self.num_elements))

    def elements(self, n: int) -> list:
        return [self.element(i) for i in range(self.element_count(n))]

    def relations(self, bound: int) -> Iterator[tuple[str, int]]:
        """The first bound relations, enumerated lazily so a caller can stop early."""
        cap = bound if self.num_relations is None else min(bound, self.num_relations)
        return map(self.relation, range(cap))


def oracle_of_structure(s: FinStructure) -> AtomOracle:
    """Present a finite structure through the oracle interface (handles = indices)."""
    rels = s.sig.relations
    return AtomOracle(
        relation=lambda i: rels[i],
        element=lambda i: i,
        holds=lambda name, tup: s.holds(name, tup),
        num_relations=len(rels),
        num_elements=s.size,
    )


def restrict(
    oracle: AtomOracle,
    n: int,
    rel_bound: Optional[int] = None,
    query_budget: Optional[int] = None,
) -> FinStructure:
    """Finite restriction: first n enumerated elements, first rel_bound relations.

    Element handles become indices 0..n-1 in enumeration order. The facts
    come from oracle.facts when the oracle has it, otherwise from asking
    holds on every tuple. Either way, raises BudgetExhausted before building
    the handle list when the tuple count (elements^arity summed over the
    relations) exceeds query_budget. A first pass counts over the relations
    without keeping them, so the relation that goes over is the last one
    asked for and memory does not grow with the budget; a second pass
    collects them. A relation counts at least 1, so with no elements the
    budget still stops an infinite or long enumeration of relations.
    """
    if rel_bound is None:
        if oracle.num_relations is None:
            raise ValueError("rel_bound required for an infinite signature")
        rel_bound = oracle.num_relations
    cap = oracle.element_count(n)
    if query_budget is not None:
        tuples = 0
        for _, arity in oracle.relations(rel_bound):
            tuples += cap ** arity or 1
            if tuples > query_budget:
                raise BudgetExhausted(f"restrict exceeded {query_budget} oracle queries",
                                      used=tuples, budget=query_budget)
    rels = list(oracle.relations(rel_bound))
    sig = Signature(tuple(rels))
    handles = oracle.elements(n)
    if oracle.facts is not None:
        return FinStructure(sig, cap, frozenset(oracle.facts(handles, rels)))
    facts = frozenset((name, tup) for name, tup in atoms(sig, range(cap))
                      if oracle.holds(name, tuple(handles[i] for i in tup)))
    return FinStructure(sig, cap, facts)


# ---------------------------------------------------------------------------
# Atomic diagrams


def kth_tuple(arity: int, k: int) -> tuple[int, ...]:
    """The k-th variable tuple of given arity, graded by max entry then lex."""
    assert arity >= 1 and k >= 0
    m = 0
    while True:
        layer = (m + 1) ** arity - m ** arity
        if k < layer:
            break
        k -= layer
        m += 1
    for tup in product(range(m + 1), repeat=arity):
        if m in tup:
            if k == 0:
                return tup
            k -= 1
    raise AssertionError("unreachable")


def atomic_sentence(sig: Signature, i: int) -> tuple[str, tuple[int, ...]]:
    """The i-th atomic sentence under the fixed dovetailed enumeration.

    Dovetails relation indices round-robin; per relation, tuples come in the
    kth_tuple order. Variable x_j is interpreted as element j downstream.
    """
    if not sig.relations:
        raise ValueError("empty signature has no atomic sentences")
    r = i % len(sig.relations)
    k = i // len(sig.relations)
    name, arity = sig.relations[r]
    return name, kth_tuple(arity, k)


def atomic_diagram_prefix(s: FinStructure, n: int) -> str:
    """First n bits of the atomic diagram: bit i is 1 iff sentence i holds in s.

    Sentences mentioning elements >= s.size get bit 0.
    """
    assert n >= 0
    if not s.sig.relations:
        return "0" * n
    bits = []
    for i in range(n):
        name, tup = atomic_sentence(s.sig, i)
        ok = all(x < s.size for x in tup) and s.holds(name, tup)
        bits.append("1" if ok else "0")
    return "".join(bits)


# ---------------------------------------------------------------------------
# Text formats
#
# Structure:  "sig NAME/ARITY ..." / "size N" / "fact NAME i1 ... ik" lines.
# Graph:      "graph N" / "e u v" lines.
# '#' starts a comment (rest of line); blank lines are skipped.


def _logical_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _int_token(tok: str, lineno: int, col: int, what: str) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"expected {what}, got {tok!r}", lineno, col) from None
    if value < 0:
        raise ParseError(f"{what} must be non-negative, got {tok!r}", lineno, col)
    return value


def parse_signature(text: str, line: int = 1, column: int = 1) -> Signature:
    """Whitespace-separated NAME/ARITY tokens; line and column place text[0] in errors."""
    rels = []
    for tok in text.split():
        col = column + text.index(tok)
        if "/" not in tok:
            raise ParseError(f"expected NAME/ARITY, got {tok!r}", line, col)
        name, _, arity_s = tok.rpartition("/")
        rels.append((name, _int_token(arity_s, line, col, "arity")))
    try:
        return Signature(tuple(rels))
    except ValueError as e:
        raise ParseError(str(e), line) from None


def parse_structure(text: str) -> FinStructure:
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError("empty input, expected a 'sig' line", 1)
    lineno, header = lines[0]
    toks = header.split()
    if toks[0] != "sig":
        raise ParseError(f"expected 'sig', got {toks[0]!r}", lineno)
    sig = parse_signature(header[len("sig"):], lineno, len("sig") + 1)

    if len(lines) < 2:
        raise ParseError("expected a 'size' line", lineno + 1)
    lineno, size_line = lines[1]
    toks = size_line.split()
    if toks[0] != "size" or len(toks) != 2:
        raise ParseError(f"expected 'size N', got {size_line!r}", lineno)
    size = _int_token(toks[1], lineno, size_line.index(toks[1]) + 1, "size")

    facts = set()
    for lineno, line in lines[2:]:
        toks = line.split()
        if toks[0] != "fact":
            raise ParseError(f"expected 'fact', got {toks[0]!r}", lineno)
        if len(toks) < 2:
            raise ParseError("fact needs a relation name", lineno)
        name = toks[1]
        if name not in sig:
            raise ParseError(f"unknown relation {name!r}", lineno, line.index(name) + 1)
        arity = sig.arity(name)
        args = toks[2:]
        if len(args) != arity:
            raise ParseError(
                f"relation {name} has arity {arity}, got {len(args)} arguments", lineno
            )
        tup = []
        for tok in args:
            v = _int_token(tok, lineno, line.index(tok) + 1, "element index")
            if v >= size:
                raise ParseError(f"element {v} out of range (size {size})", lineno, line.index(tok) + 1)
            tup.append(v)
        facts.add((name, tuple(tup)))
    return FinStructure(sig, size, frozenset(facts))


def serialize_structure(s: FinStructure) -> str:
    lines = [("sig " + " ".join(f"{name}/{arity}" for name, arity in s.sig.relations)).rstrip()]
    lines.append(f"size {s.size}")
    order = {name: i for i, (name, _) in enumerate(s.sig.relations)}
    for name, tup in sorted(s.facts, key=lambda f: (order[f[0]], f[1])):
        lines.append("fact " + name + "".join(f" {i}" for i in tup))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> DiGraph:
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError("empty input, expected a 'graph' line", 1)
    lineno, header = lines[0]
    toks = header.split()
    if toks[0] != "graph" or len(toks) != 2:
        raise ParseError(f"expected 'graph N', got {header!r}", lineno)
    size = _int_token(toks[1], lineno, header.index(toks[1]) + 1, "size")
    edges = set()
    for lineno, line in lines[1:]:
        toks = line.split()
        if toks[0] != "e" or len(toks) != 3:
            raise ParseError(f"expected 'e u v', got {line!r}", lineno)
        u = _int_token(toks[1], lineno, line.index(toks[1]) + 1, "vertex")
        v = _int_token(toks[2], lineno, line.rindex(toks[2]) + 1, "vertex")
        for x in (u, v):
            if x >= size:
                raise ParseError(f"vertex {x} out of range (graph {size})", lineno)
        if u == v:
            raise ParseError(f"self-loop ({u},{v}) not permitted", lineno)
        edges.add((u, v))
    return DiGraph(size, frozenset(edges))


def serialize_graph(g: DiGraph) -> str:
    lines = [f"graph {g.size}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def load_any(text: str) -> FinStructure | DiGraph:
    """Parse either format, sniffing the header line."""
    for _, line in _logical_lines(text):
        head = line.split()[0]
        if head == "graph":
            return parse_graph(text)
        return parse_structure(text)
    raise ParseError("empty input", 1)


# ---------------------------------------------------------------------------
# Cycle enumeration and strongly connected components (Tarjan)


def strongly_connected_components(g: DiGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    return _components(range(g.size), _successors(g.size, g.edges))


def _cyclic_components(size: int, out: list[list[int]]) -> list[list[int]]:
    """The strongly connected components of more than one vertex, each sorted,
    in order of their least vertex.

    First peels, in Kahn order, every vertex whose in-degree drops to 0 once
    its peeled predecessors are gone (the "trim" step of SCC algorithms).
    The peeled vertices form a DAG, so none lies on a cycle. A vertex that is
    left has no edge to a peeled one, since that edge would have kept the
    peeled vertex's in-degree above 0. So Tarjan, run only from the vertices
    that are left, finds exactly the components it would find on the whole
    graph among them. On a coded graph only the 15 cycle vertices are left.
    """
    indegree = [0] * size
    for succ in out:
        for w in succ:
            indegree[w] += 1
    peeled = [v for v in range(size) if not indegree[v]]
    for v in peeled:  # grows while it is walked
        for w in out[v]:
            indegree[w] -= 1
            if not indegree[w]:
                peeled.append(w)
    left = [v for v in range(size) if indegree[v]]
    return sorted(comp for comp in _components(left, out) if len(comp) > 1)


def _components(roots: Iterable[int], out: list[list[int]]) -> list[list[int]]:
    """Tarjan's components of every vertex reachable from roots, each sorted,
    in reverse topological order; roots are tried in the order given."""
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in roots:
        if root in index_of:
            continue
        work = [(root, iter(out[root]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(out[w])))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    return components


def simple_cycles(g: DiGraph) -> list[tuple[int, ...]]:
    """All simple directed cycles, each rotated to start at its least vertex.

    Only the components of more than one vertex can hold a cycle longer than
    a self-loop, and `_cyclic_components` finds them after peeling the
    acyclic part. Per such component and per start vertex, a depth-first
    walk extends simple paths through larger vertices and records a cycle on
    each edge back to the start. The walk keeps an explicit stack, so depth
    does not grow the call stack. It has no Johnson-style blocking, so its
    time follows the number of simple paths rather than of cycles, which on
    dense SCCs is far larger. Self-loops (with allow_loops) are listed once
    each. Output is sorted, so it is deterministic and usable as a test
    oracle; a cycle's vertex sequence from its least vertex is fixed by the
    cycle, so the successor lists need no order.
    """
    out: list[list[int]] = [[] for _ in range(g.size)]
    for u, v in g.edges:
        out[u].append(v)
    cycles: list[tuple[int, ...]] = []
    if g.allow_loops:
        for u, v in g.edges:
            if u == v:
                cycles.append((u,))

    for comp in _cyclic_components(g.size, out):
        comp_set = set(comp)
        succ = {v: [w for w in out[v] if w in comp_set and w != v] for v in comp}
        # enumerate cycles whose least vertex is `start`
        for start in comp:
            path = [start]
            on_path = {start}
            work = [iter(succ[start])]
            while work:
                for w in work[-1]:
                    if w == start:
                        cycles.append(tuple(path))
                    elif w > start and w not in on_path:
                        path.append(w)
                        on_path.add(w)
                        work.append(iter(succ[w]))
                        break
                else:
                    work.pop()
                    on_path.discard(path.pop())
    return sorted(cycles)
