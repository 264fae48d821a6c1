"""Structure transformers as functors, with extensional law verification.

A Functor packages an object map, a morphism map, and enough plumbing to
compare morphisms extensionally on finite probes. Three instances matter
here: the coding functor (structures to coded graphs), the reduction
functor (graphs to block-structure oracles, morphisms to point maps), and
their desk-scale composite (graphs to coded restrictions of the reduction).
Equality of morphisms is always extensional on declared finite probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .core import DiGraph, FinStructure, Morphism, restrict
from .coding import CodedGraph, decode_full, encode, encode_morphism, map_role
from .reduction import (
    DecodeIncomplete,
    build_f_graph,
    decode_f,
    induced_embedding,
    reduction_rel_bound,
)

@dataclass(frozen=True)
class Functor:
    """Object map plus morphism map, with probe machinery for comparisons.

    mor(src, h, dst) produces an F-morphism, a callable evaluated at probe
    elements; probe(F_obj) lists the elements used for extensional
    equality. Source-category identities are Morphism.identity(obj.size).
    """

    name: str
    obj: Callable[[Any], Any]
    mor: Callable[[Any, Any, Any], Any]
    probe: Callable[[Any], Sequence]


def identity_functor() -> Functor:
    return Functor(
        name="identity",
        obj=lambda s: s,
        mor=lambda src, h, dst: h,
        probe=lambda s: range(s.size),
    )


def encode_functor() -> Functor:
    """Finite structures with embeddings, to coded graphs with embeddings."""
    return Functor(
        name="encode",
        obj=encode,
        mor=lambda src, h, dst: encode_morphism(src, dst, h),
        probe=lambda coded: range(coded.graph.size),
    )


def reduction_functor(probe_size: int = 30) -> Functor:
    """Graphs with embeddings, to block-structure oracles with point maps."""
    return Functor(
        name="reduction",
        obj=build_f_graph,
        mor=lambda src, h, dst: induced_embedding(src, dst, h),
        probe=lambda oracle: range(probe_size),
    )


def round_trip_functor() -> Functor:
    """decode o encode on structures; element maps go through the coded graphs."""

    def obj(s: FinStructure) -> FinStructure:
        return decode_full(encode(s).graph, s.sig).structure

    def mor(src: FinStructure, h: Morphism, dst: FinStructure) -> Morphism:
        gm = encode_morphism(src, dst, h)
        res_src = decode_full(encode(src).graph, src.sig)
        res_dst = decode_full(encode(dst).graph, dst.sig)
        pos_dst = {v: i for i, v in enumerate(res_dst.elements)}
        mapping = {
            i: pos_dst[gm(v)] for i, v in enumerate(res_src.elements)
        }
        return Morphism.from_mapping(len(res_src.elements), len(res_dst.elements), mapping)

    return Functor(
        name="decode-encode",
        obj=obj,
        mor=mor,
        probe=lambda s: range(s.size),
    )


# ---------------------------------------------------------------------------
# The composite graph -> graph functor at desk scale


class RoleMap:
    """Morphism of coded reduction restrictions, represented on roles.

    Vertices whose transported role is a role of the target coding map to
    that target vertex; the rest stay symbolic as ('virtual', role), which
    keeps the map total and composition associative on every probe element.
    Both restrictions share one signature, so the target's roles are exactly
    the transported roles whose codes all lie inside the target restriction.
    """

    def __init__(self, point_map: Callable[[int], int], source: CodedGraph,
                 target: CodedGraph):
        self.point_map = point_map
        self._source_roles = source.roles()
        self._target_vertex = target.vertex_of()

    def __call__(self, e):
        if isinstance(e, tuple) and e and e[0] == "virtual":
            role = e[1]
        else:
            role = self._source_roles[e]
        moved = map_role(role, self.point_map)
        return self._target_vertex.get(moved, ("virtual", moved))


def composed_functor(restrict_size: int = 5, nu_bound: int = 0) -> Functor:
    """encode o restrict o reduction: graphs to coded graphs, desk scale.

    The reduction output is cut to its first restrict_size points and to the
    tag relations with index strings of length <= nu_bound before coding.
    The restriction signature repeats arities, so the coding runs with
    chain-length offsets.
    """
    rel_bound = reduction_rel_bound(nu_bound)

    def obj(g: DiGraph) -> CodedGraph:
        return encode(restrict(build_f_graph(g), restrict_size, rel_bound))

    def mor(src: DiGraph, h: Morphism, dst: DiGraph) -> RoleMap:
        # a source role's codes are restriction points, so one fixed-size
        # table serves them; virtual roles' codes still go through lifted
        lifted = induced_embedding(src, dst, h)
        table = [lifted(c) for c in range(restrict_size)]
        return RoleMap(
            point_map=lambda c: table[c] if c < restrict_size else lifted(c),
            source=obj(src),
            target=obj(dst),
        )

    return Functor(
        name=f"encode-after-reduction(n={restrict_size},nu={nu_bound})",
        obj=obj,
        mor=mor,
        probe=lambda coded: range(coded.graph.size),
    )


# ---------------------------------------------------------------------------
# Law checking


@dataclass
class LawReport:
    functor: str
    identity_checked: int = 0
    composition_checked: int = 0
    violations: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


def check_functor_laws(
    functor: Functor,
    objects: Sequence,
    triples: Sequence[tuple],
) -> LawReport:
    """Extensional identity and composition laws.

    objects feed the identity law; triples are (A, h1, B, h2, C) with
    h1: A -> B and h2: B -> C composable in the source category.
    """
    report = LawReport(functor=functor.name)
    for a in objects:
        fa = functor.obj(a)
        fid = functor.mor(a, Morphism.identity(a.size), a)
        for e in functor.probe(fa):
            report.identity_checked += 1
            got = fid(e)
            if got != e:
                report.violations.append(
                    f"identity on {a!r}: probe {e!r} went to {got!r}"
                )
    for a, h1, b, h2, c in triples:
        composite = functor.mor(a, h1.then(h2), c)
        m1 = functor.mor(a, h1, b)
        m2 = functor.mor(b, h2, c)
        fa = functor.obj(a)
        for e in functor.probe(fa):
            report.composition_checked += 1
            lhs = composite(e)
            rhs = m2(m1(e))
            if lhs != rhs:
                report.violations.append(
                    f"composition at probe {e!r}: {lhs!r} != {rhs!r}"
                )
    return report


def check_commuting_square(
    lam: Callable[[Any], Morphism],
    f_functor: Functor,
    g_functor: Functor,
    a,
    gamma: Morphism,
    b,
) -> bool:
    """Does lam^B o F(gamma) = G(gamma) o lam^A hold pointwise on the probe?"""
    fm = f_functor.mor(a, gamma, b)
    gm = g_functor.mor(a, gamma, b)
    lam_a = lam(a)
    lam_b = lam(b)
    for e in f_functor.probe(f_functor.obj(a)):
        lhs = lam_b(fm(e))
        rhs = gm(lam_a(e))
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Pseudo-inverse report for the reduction and its decoder


@dataclass
class PseudoInverseItem:
    graph: DiGraph
    round_trip_exact: Optional[bool]  # None when the decoder reported Unknowns
    oracle_match: Optional[bool]
    unknown_pairs: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class PseudoInverseReport:
    nu_bound: int
    budget: int
    items: list[PseudoInverseItem] = field(default_factory=list)

    def failures(self) -> list[PseudoInverseItem]:
        return [
            item for item in self.items
            if item.round_trip_exact is False or item.oracle_match is False
        ]

    def unknowns(self) -> list[PseudoInverseItem]:
        return [item for item in self.items if item.round_trip_exact is None]

    def ok(self) -> bool:
        return not self.failures()


def pseudo_inverse_report(
    graphs: Sequence[DiGraph],
    nu_bound: int = 3,
    budget: int = 50,
    probe_elems: int = 20,
    probe_nu: int = 1,
) -> PseudoInverseReport:
    """Check both composites of the reduction and its decoder on a corpus.

    decode(build(g)) is compared for exact equality; build(decode(build(g)))
    is compared with build(g) extensionally on a finite restriction. Blocks
    left Unknown by the decoder (small budgets) are reported as unknowns,
    never as failures; the nu_bound/budget parameters are the report's
    record that decoding is not free.
    """
    report = PseudoInverseReport(nu_bound=nu_bound, budget=budget)
    rel_bound = reduction_rel_bound(probe_nu)
    for g in graphs:
        oracle = build_f_graph(g)
        item = PseudoInverseItem(graph=g, round_trip_exact=None, oracle_match=None)
        try:
            decoded = decode_f(oracle, g.size, nu_bound=nu_bound, budget=budget)
        except DecodeIncomplete as exc:
            item.unknown_pairs = list(exc.pairs)
            report.items.append(item)
            continue
        item.round_trip_exact = decoded == g
        rebuilt = build_f_graph(decoded)
        item.oracle_match = restrict(rebuilt, probe_elems, rel_bound) == restrict(
            oracle, probe_elems, rel_bound
        )
        report.items.append(item)
    return report
