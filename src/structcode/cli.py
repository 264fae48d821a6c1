"""Command-line entry point.

Exit codes: 0 success / positive answer, 1 negative answer (no embedding,
Spoiler, incomplete decode), 2 budget exhausted, 3 input error (a bad file,
a path that cannot be read or written, or a bad argument), 4 internal error
(a crash, never reported as an answer). Reports are line-oriented key=value
text and byte-identical across runs for identical invocations and seeds.
STRUCTCODE_BUDGET overrides the default search budget; a value that is not
a non-negative integer is an input error (exit 3).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import acceptance, coding, corpus, efgames, limits, reduction, search, selfcheck, shelah
from .core import (
    BudgetExhausted,
    DEFAULT_BUDGET,
    ParseError,
    load_any,
    oracle_of_structure,
    parse_graph,
    parse_signature,
    parse_structure,
    restrict,
    serialize_graph,
    serialize_structure,
)

# Where each operation is surfaced; the suite checks this table for
# exactly-one coverage of the package's public operations.
COMMAND_TABLE: dict[str, str] = {
    "core.atomic_diagram_prefix": "selftest",
    "core.cantor_pair": "selftest",
    "core.enum_string": "selftest",
    "core.restrict": "reduce-f",
    "core.parse_structure": "encode",
    "core.serialize_structure": "decode",
    "core.parse_graph": "decode",
    "core.serialize_graph": "encode",
    "shelah.eval_F": "shelah",
    "shelah.holds_R": "shelah",
    "shelah.holds_graphF": "shelah",
    "shelah.enumerate_elems": "shelah",
    "shelah.closure": "shelah",
    "shelah.reduct_iso": "shelah",
    "shelah.distinguishing_trace": "shelah",
    "reduction.build_f": "reduce-f",
    "reduction.block_type": "selftest",
    "reduction.induced_embedding": "selftest",
    "reduction.classify_block": "selftest",
    "reduction.decode_f": "decode-f",
    "coding.encode": "encode",
    "coding.decode": "decode",
    "coding.canonical_iso": "selftest",
    "coding.encode_morphism": "selftest",
    "coding.lambda_graph": "selftest",
    "efgames.partial_iso_check": "selftest",
    "efgames.ef_winner": "ef",
    "efgames.equiv_n": "ef",
    "efgames.verify_duplicator_strategy": "shelah",
    "search.find_embedding": "embed",
    "search.enumerate_embeddings": "embed",
    "search.find_isomorphism": "iso",
    "limits.build_stage": "limit-demo",
    "limits.query_fact": "limit-demo",
    "limits.classify_limit": "limit-demo",
    "functors.composed_functor": "selftest",
    "functors.check_functor_laws": "selftest",
    "functors.check_commuting_square": "selftest",
    "functors.pseudo_inverse_report": "selftest",
}

SUBCOMMANDS = (
    "encode", "decode", "reduce-f", "decode-f", "ef", "embed", "iso",
    "shelah", "limit-demo", "selftest", "corpus",
)


def default_budget() -> int:
    """STRUCTCODE_BUDGET if set, else DEFAULT_BUDGET; ValueError unless a non-negative int."""
    env = os.environ.get("STRUCTCODE_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        return _count(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"STRUCTCODE_BUDGET: {exc}") from None


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _print_found(m) -> int:
    """found=no (exit 1), or found=yes and one `map` line per pair (exit 0)."""
    if m is None:
        print("found=no")
        return 1
    print("found=yes")
    for s, t in m.pairs:
        print(f"map {s} {t}")
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns an exit code)


def cmd_encode(args) -> int:
    s = parse_structure(_read(args.structure))
    coded = coding.encode(s, budget=args.budget)
    text = serialize_graph(coded.graph)
    if args.provenance == "-":
        text += coding.render_provenance(coded)
    elif args.provenance:
        # written before any output, so a path that cannot be written leaves stdout empty
        Path(args.provenance).write_text(coding.render_provenance(coded), encoding="utf-8")
    sys.stdout.write(text)
    return 0


def cmd_decode(args) -> int:
    g = parse_graph(_read(args.graph))
    sig = parse_signature(args.sig) if args.sig else None
    s = coding.decode(g, sig)
    sys.stdout.write(serialize_structure(s))
    return 0


def cmd_reduce_f(args) -> int:
    g = parse_graph(_read(args.graph))
    oracle = reduction.build_f_graph(g)
    rel_bound = reduction.reduction_rel_bound(args.nu_bound)
    s = restrict(oracle, args.restrict, rel_bound, query_budget=args.budget)
    sys.stdout.write(serialize_structure(s))
    return 0


def cmd_decode_f(args) -> int:
    s = parse_structure(_read(args.structure))
    oracle = oracle_of_structure(s)
    try:
        g = reduction.decode_f(oracle, args.vertices, args.nu_bound, args.budget)
    except reduction.DecodeIncomplete as exc:
        sys.stdout.write(serialize_graph(exc.partial))
        for m, n in exc.pairs:
            print(f"# unknown {m} {n}")
        return 1
    sys.stdout.write(serialize_graph(g))
    return 0


def cmd_ef(args) -> int:
    left = load_any(_read(args.left))
    right = load_any(_read(args.right))
    if args.trace:
        winner, trace = efgames.ef_trace(left, right, args.rounds, budget=args.budget)
        print(f"winner={winner}")
        for rnd, (side, spoiler, response) in enumerate(trace, start=1):
            resp = "none" if response is None else response
            print(f"round={rnd} side={side} spoiler={spoiler} response={resp}")
    else:
        winner = efgames.ef_winner(left, right, args.rounds, budget=args.budget)
        print(f"winner={winner}")
    if args.check:
        agree = (winner == efgames.DUPLICATOR) == efgames.equiv_n(
            left, right, args.rounds, budget=args.budget
        )
        print(f"hierarchy_agrees={'yes' if agree else 'no'}")
        if not agree:
            return 1
    return 0 if winner == efgames.DUPLICATOR else 1


def cmd_embed(args) -> int:
    source = load_any(_read(args.source))
    target = load_any(_read(args.target))
    if args.all:
        result = search.enumerate_embeddings(source, target, cap=args.cap, budget=args.budget)
        print(f"count={len(result.morphisms)} complete={'yes' if result.complete else 'no'}")
        for i, m in enumerate(result.morphisms):
            print(f"embedding={i} " + " ".join(f"{s}:{t}" for s, t in m.pairs))
        # an incomplete enumeration stopped at the cap, so an embedding exists
        return 0 if result.morphisms or not result.complete else 1
    return _print_found(search.find_embedding(source, target, budget=args.budget))


def cmd_iso(args) -> int:
    left = load_any(_read(args.left))
    right = load_any(_read(args.right))
    return _print_found(search.find_isomorphism(left, right, budget=args.budget))


def cmd_shelah(args) -> int:
    action = args.action
    if action == "eval":
        print(shelah.eval_F(args.nu, shelah.SElem.parse(args.elem)))
    elif action == "holds-r":
        ok = shelah.holds_R(args.nu, shelah.SElem.parse(args.elem))
        print("holds=yes" if ok else "holds=no")
        return 0 if ok else 1
    elif action == "graphf":
        x = shelah.SElem.parse(args.elem)
        y = shelah.SElem.parse(args.other)
        ok = shelah.holds_graphF(args.nu, x, y)
        print("holds=yes" if ok else "holds=no")
        return 0 if ok else 1
    elif action == "enum":
        for k in range(args.count):
            print(shelah.nth_elem(args.tail, k))
    elif action == "closure":
        shelah.closure_size(args.bound, args.budget, "closure")
        elems = sorted(shelah.closure(shelah.SElem.parse(args.elem), args.bound),
                       key=shelah.elem_index)
        print(f"size={len(elems)}")
        for e in elems:
            print(e)
    elif action == "trace":
        trace = shelah.distinguishing_trace(shelah.SElem.parse(args.elem), args.bound)
        print("trace=" + ",".join(sorted(trace, key=lambda s: (len(s), s))))
    elif action == "reduct":
        h = shelah.reduct_iso(args.m)
        print(h(shelah.SElem.parse(args.elem)))
    elif action == "game":
        ok = efgames.verify_reduct_strategy(args.m, args.rounds, nu_bound=args.nu_bound,
                                            log2_size=args.log2_size, budget=args.budget)
        print(f"strategy_wins={'yes' if ok else 'no'}")
        return 0 if ok else 1
    return 0


def cmd_limit_demo(args) -> int:
    # counted before anything is built or printed
    used = limits.chain_fact_count(args.stages)
    if used > args.budget:
        raise BudgetExhausted(f"limit-demo needs {used} decided facts, more than {args.budget}",
                              used=used, budget=args.budget)
    approx = limits.Approximation.from_pattern(args.pattern)

    def term_str(term: str) -> str:
        return "a" if term == "" else f"F_{term}(a)"

    for s in range(args.stages + 1):
        stage = limits.build_stage(approx, 0, s)
        universe = ",".join(term_str(t) for t in stage.universe)
        facts = ",".join(
            f"R_{mu}({term_str(t)})" for (mu, t), val in stage.facts if val
        )
        print(f"stage={s} universe={universe} facts={facts}")
    tag = limits.classify_limit(approx, 0, approx.promised_stabilization)
    print(f"classification={tag}")
    return 0


def cmd_selftest(args) -> int:
    sections = args.sections or ["acceptance"]
    criteria = {cid for cid, _, _ in acceptance.ACCEPTANCE}
    failed = False
    for section in sections:
        name = section.lower()
        if name in ("acceptance", "all") or name.upper() in criteria:
            which = [name] if name.upper() in criteria else None
            for result in acceptance.run_criteria(which, seed=args.seed):
                print(result.line())
                failed |= not result.passed
        elif name in selfcheck.SECTIONS:
            try:
                checks = selfcheck.SECTIONS[name](args.seed, args.corpus_size)
            except Exception as exc:  # a crashed section is a failed section
                print(f"check={name} pass=no error={type(exc).__name__}")
                failed = True
                continue
            for check in checks:
                print(check.line())
                failed |= not check.passed
        else:
            raise ValueError(f"unknown selftest section {section!r}")
    return 1 if failed else 0


def cmd_corpus(args) -> int:
    import random as _random

    rng = _random.Random(args.seed)
    items = []
    for _ in range(args.count):
        if args.kind == "structures":
            items.append(serialize_structure(corpus.random_structure(rng, max_size=args.max_size)))
        else:
            items.append(serialize_graph(corpus.random_graph(rng, max_size=args.max_size)))
    ext = "st" if args.kind == "structures" else "g"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(items):
            (out / f"{args.kind[:-1]}_{i:03d}.{ext}").write_text(text, encoding="utf-8")
        print(f"written={len(items)} dir={args.out}")
    else:
        for i, text in enumerate(items):
            print(f"# item {i}")
            sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as an input error: exit 3, since 2 means budget exhausted."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """A non-negative int: counts, sizes, bounds and budgets."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _bits(text: str) -> str:
    """A 01-bit string, possibly empty."""
    if not all(c in "01" for c in text):
        raise argparse.ArgumentTypeError(f"expected a 01 bit string, got {text!r}")
    return text


def _pattern(text: str) -> str:
    """A non-empty 01-bit string."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty 01 bit string")
    return _bits(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="structcode",
        description="Codings between graphs and relational structures: "
        "encode/decode, reductions, EF games, embedding search, limit stages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = default_budget()

    p = sub.add_parser("encode", help="code a structure file as a graph")
    p.add_argument("--structure", required=True, help="structure file")
    p.add_argument("--provenance", help="write role sidecar to PATH ('-' for stdout)")
    p.add_argument("--budget", type=_count, default=budget,
                   help="budget in vertices of the coded graph, checked before it is built")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode a coded graph back to a structure")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--sig", help="signature, e.g. 'R/1 S/2' (names the relations)")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("reduce-f", help="finite restriction of the graph-to-blocks reduction")
    p.add_argument("--graph", required=True)
    p.add_argument("--restrict", type=_count, default=30, help="number of points")
    p.add_argument("--nu-bound", type=_count, default=1, help="max index-string length")
    p.add_argument(
        "--budget", type=_count, default=budget,
        help="budget in tuples swept (points^arity summed over the relations)",
    )
    p.set_defaults(fn=cmd_reduce_f)

    p = sub.add_parser("decode-f", help="read a graph back off a reduction restriction")
    p.add_argument("--structure", required=True, help="restriction in structure format")
    p.add_argument("--vertices", type=_count, required=True, help="vertices to recover")
    p.add_argument("--nu-bound", type=_count, default=3)
    p.add_argument("--budget", type=_count, default=50, help="trace inspections per block")
    p.set_defaults(fn=cmd_decode_f)

    p = sub.add_parser("ef", help="solve an n-round back-and-forth game")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--rounds", type=_count, required=True)
    p.add_argument("--trace", action="store_true", help="print one line of play")
    p.add_argument("--check", action="store_true", help="cross-validate with the hierarchy")
    p.add_argument("--budget", type=_count, default=budget)
    p.set_defaults(fn=cmd_ef)

    p = sub.add_parser("embed", help="search for an embedding")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--all", action="store_true", help="enumerate embeddings")
    p.add_argument("--cap", type=_count, default=100, help="enumeration cap with --all")
    p.add_argument("--budget", type=_count, default=budget)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("iso", help="search for an isomorphism")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--budget", type=_count, default=budget)
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("shelah", help="tag-structure operations")
    p.add_argument("action", choices=(
        "eval", "holds-r", "graphf", "enum", "closure", "trace", "reduct", "game"))
    p.add_argument("--nu", type=_bits, default="", help="index bit string (empty for epsilon)")
    p.add_argument("--elem", default=":0", help="element literal PREFIX:TAILBIT")
    p.add_argument("--other", default=":0", help="second element for graphf")
    p.add_argument("--tail", type=int, default=0, choices=(0, 1))
    p.add_argument("--count", type=_count, default=8)
    p.add_argument("--bound", type=_count, default=3)
    p.add_argument("--m", type=_count, default=2, help="flip-above position")
    p.add_argument("--rounds", type=_count, default=2)
    p.add_argument("--nu-bound", type=_count, default=None)
    p.add_argument("--log2-size", type=_count, default=3)
    p.add_argument("--budget", type=_count, default=budget,
                   help="game: budget in pebble sets (and elements); closure: budget in "
                   "elements; checked before building")
    p.set_defaults(fn=cmd_shelah)

    p = sub.add_parser("limit-demo", help="stage-wise limit construction demo")
    p.add_argument("--pattern", type=_pattern, required=True,
                   help="flip history bits, then constant")
    p.add_argument("--stages", type=_count, default=8)
    p.add_argument("--budget", type=_count, default=budget,
                   help="budget in decided facts over all stages, checked before building")
    p.set_defaults(fn=cmd_limit_demo)

    p = sub.add_parser("selftest", help="acceptance criteria and module checks")
    p.add_argument("sections", nargs="*",
                   help="acceptance (default), C1..C9, or a module section: "
                   + ", ".join(sorted(selfcheck.SECTIONS)))
    p.add_argument("--all", dest="sections", action="store_const", const=["acceptance"],
                   help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--corpus-size", type=_count, default=20)
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("corpus", help="emit a seeded random corpus")
    p.add_argument("--kind", choices=("structures", "graphs"), default="structures")
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--max-size", type=_count, default=4)
    p.add_argument("--out", help="directory for one file per item (default: stdout)")
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a bad argument (3)
        return exc.code
    except ValueError as exc:  # a bad STRUCTCODE_BUDGET
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.fn(args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError, ValueError, KeyError,
            coding.MalformedCoding, reduction.ContradictoryEvidence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must not read as exit 1, a negative answer
        print(f"error: internal: {type(exc).__name__}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
