import dataclasses
import hashlib
import io
import os
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

import pytest
from hypothesis import given, strategies as st

from structcode import cli, coding
from structcode.core import (
    DiGraph,
    FinStructure,
    Signature,
    parse_graph,
    parse_structure,
    serialize_graph,
    serialize_structure,
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


K2 = "graph 2\ne 0 1\ne 1 0\n"
K3 = "graph 3\ne 0 1\ne 0 2\ne 1 0\ne 1 2\ne 2 0\ne 2 1\n"
FIG = "sig R/3\nsize 3\nfact R 0 1 2\n"
EDGE = "graph 2\ne 0 1\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("k2.g", K2), ("k3.g", K3), ("fig.st", FIG), ("edge.g", EDGE)):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_encode_decode_round_trip(files, tmp_path):
    code, graph_text = run_cli(["encode", "--structure", files["fig.st"]])
    assert code == 0
    coded = tmp_path / "fig.g"
    coded.write_text(graph_text)
    code, structure_text = run_cli(["decode", "--graph", str(coded), "--sig", "R/3"])
    assert code == 0
    assert parse_structure(structure_text) == parse_structure(FIG)


def test_encode_provenance_sidecar(files, tmp_path):
    sidecar = tmp_path / "roles.txt"
    code, _ = run_cli(["encode", "--structure", files["fig.st"], "--provenance", str(sidecar)])
    assert code == 0
    lines = sidecar.read_text().splitlines()
    assert lines[0] == "v 0 role=A"
    assert any("role=ChainNode R" in line for line in lines)


def test_encode_provenance_on_stdout(files):
    # '-' appends the role lines to the graph on stdout
    code, out = run_cli(["encode", "--structure", files["fig.st"], "--provenance", "-"])
    coded = coding.encode(parse_structure(FIG))
    assert code == 0
    assert out == serialize_graph(coded.graph) + coding.render_provenance(coded)
    assert "v 0 role=A\n" in out


def test_encode_budget_exits_2_before_writing(files, tmp_path, capsys, monkeypatch):
    # sig R/3 over 3 elements codes as 18 + 3 + 27 * 13 = 372 vertices
    sidecar = tmp_path / "roles.txt"
    code, out = run_cli(["encode", "--structure", files["fig.st"], "--budget", "371",
                         "--provenance", str(sidecar)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: encode needs 372 vertices, more than 371\n"
    assert not sidecar.exists()
    code, out = run_cli(["encode", "--structure", files["fig.st"], "--budget", "372"])
    assert code == 0 and out == serialize_graph(coding.encode(parse_structure(FIG)).graph)
    monkeypatch.setenv("STRUCTCODE_BUDGET", "371")
    assert run_cli(["encode", "--structure", files["fig.st"]])[0] == 2


def test_decode_malformed_exits_3(files, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("graph 3\ne 0 1\ne 1 2\ne 2 0\n")
    code, _ = run_cli(["decode", "--graph", str(bad)])
    assert code == 3


def test_ef_pins(files):
    code, out = run_cli(["ef", "--left", files["k2.g"], "--right", files["k3.g"], "--rounds", "2"])
    assert code == 0 and "winner=Duplicator" in out
    code, out = run_cli(["ef", "--left", files["k2.g"], "--right", files["k3.g"], "--rounds", "3"])
    assert code == 1 and "winner=Spoiler" in out


def test_ef_trace_and_check(files):
    code, out = run_cli([
        "ef", "--left", files["k2.g"], "--right", files["k3.g"],
        "--rounds", "3", "--trace", "--check",
    ])
    assert code == 1
    assert "hierarchy_agrees=yes" in out
    assert "response=none" in out


def test_embed_exit_codes(files):
    code, out = run_cli(["embed", "--source", files["k2.g"], "--target", files["k3.g"]])
    assert code == 0 and "found=yes" in out
    code, out = run_cli(["embed", "--source", files["k3.g"], "--target", files["k2.g"]])
    assert code == 1 and "found=no" in out


def test_embed_all_counts(files):
    code, out = run_cli(["embed", "--source", files["k2.g"], "--target", files["k3.g"], "--all"])
    assert code == 0
    assert "count=6 complete=yes" in out


def test_embed_all_cap_0_exits_0_when_an_embedding_exists(files, tmp_path):
    # complete=no means the cap cut the enumeration short, so one exists
    path = tmp_path / "p3.g"
    path.write_text("graph 3\ne 0 1\ne 1 2\n")
    code, out = run_cli(["embed", "--source", str(path), "--target", str(path),
                         "--all", "--cap", "0"])
    assert (code, out) == (0, "count=0 complete=no\n")
    code, out = run_cli(["embed", "--source", files["k3.g"], "--target", files["k2.g"],
                         "--all", "--cap", "0"])
    assert (code, out) == (1, "count=0 complete=yes\n")


@pytest.mark.parametrize("argv", [
    ["iso", "--left", "r1-2.st", "--right", "e3.g"],
    ["iso", "--left", "r1-3.st", "--right", "e3.g"],
    ["embed", "--source", "e3.g", "--target", "r1-2.st"],
    ["embed", "--source", "e3.g", "--target", "r1-2.st", "--all"],
])
def test_signature_mismatch_is_input_error(tmp_path, argv):
    # R/1 structures against an edgeless 3-vertex graph: a size mismatch
    # used to print found=no (or count=0) and exit 1
    for name, text in (("r1-2.st", "sig R/1\nsize 2\n"), ("r1-3.st", "sig R/1\nsize 3\n"),
                       ("e3.g", "graph 3\n")):
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith((".st", ".g")) else a for a in argv]
    assert run_cli(argv) == (3, "")


def test_iso_round_trip(files):
    code, out = run_cli(["iso", "--left", files["k2.g"], "--right", files["k2.g"]])
    assert code == 0 and "found=yes" in out


def test_iso_answers_pairs_colour_refinement_does_not_split(tmp_path):
    # the prism C_32 x K_2 against the Moebius ladder on 64 vertices, both
    # 3-regular, answer "no" within 200 nodes; the codings of C2's hardest
    # pair answer "yes"
    def undirected(size, pairs):
        return DiGraph.of(size, [e for u, v in pairs for e in ((u, v), (v, u))])

    n = 32
    prism = undirected(2 * n, [(i, (i + 1) % n) for i in range(n)]
                       + [(n + i, n + (i + 1) % n) for i in range(n)]
                       + [(i, n + i) for i in range(n)])
    mobius = undirected(2 * n, [(j, (j + 1) % (2 * n)) for j in range(2 * n)]
                        + [(j, j + n) for j in range(n)])
    sig = Signature.of(("E", 2))
    a = FinStructure.of(sig, 3, [("E", (0, 1)), ("E", (1, 0)), ("E", (2, 2))])
    b = FinStructure.of(sig, 3, [("E", (0, 0)), ("E", (1, 2)), ("E", (2, 1))])
    paths = {}
    for name, g in (("prism", prism), ("mobius", mobius),
                    ("a", coding.encode(a).graph), ("b", coding.encode(b).graph)):
        paths[name] = tmp_path / f"{name}.g"
        paths[name].write_text(serialize_graph(g))
    code, out = run_cli(["iso", "--left", str(paths["prism"]), "--right", str(paths["mobius"]),
                         "--budget", "200"])
    assert code == 1 and "found=no" in out
    code, out = run_cli(["iso", "--left", str(paths["a"]), "--right", str(paths["b"])])
    assert code == 0 and "found=yes" in out


def test_reduce_f_then_decode_f(files, tmp_path):
    code, restriction = run_cli([
        "reduce-f", "--graph", files["k2.g"], "--restrict", "30", "--nu-bound", "2",
    ])
    assert code == 0
    s = parse_structure(restriction)
    assert "W" in s.sig and "O" in s.sig
    rest = tmp_path / "restriction.st"
    rest.write_text(restriction)
    code, decoded = run_cli([
        "decode-f", "--structure", str(rest), "--vertices", "2", "--nu-bound", "2",
    ])
    assert code == 0
    assert parse_graph(decoded) == parse_graph(K2)


# sha256 of reduce-f's stdout, recorded before the tag-fact lister worked on
# integers; at --nu-bound 0 the tag relations cannot see the edges, so the
# three graphs print alike
GOLDEN_REDUCE_F = {
    ("k2.g", 12, 0): "7905ee43ca8e8c219f169dd3a81ca49f8255c3fcb0f028a4bf947ecb74a921e8",
    ("k2.g", 12, 1): "1e1483fcd37b5c8cdf0b3f7025e70ddc250f0959224f1d8107fe057cdc7636e3",
    ("k2.g", 12, 3): "a5f722e1ef9784d814986966d32658f9ad5d4f1b908492f8fbb853b85106527c",
    ("k2.g", 30, 0): "9e32d0dc2bcaf246f1229d27c891ad274e74df3c2f6561c4259d2d6808658835",
    ("k2.g", 30, 1): "91b0fc8eee93d7331a4d58f2b1673dc2913ffc054be012a93746957b277eb71a",
    ("k2.g", 30, 3): "1bc492c2184241594285032430459704d7cd230d7418fd93b52111eb41d55313",
    ("k3.g", 12, 0): "7905ee43ca8e8c219f169dd3a81ca49f8255c3fcb0f028a4bf947ecb74a921e8",
    ("k3.g", 12, 1): "c9df3bd29554286154e509628bd85cac6c4816b7d63ad0555e689e5be5886a49",
    ("k3.g", 12, 3): "a9b4a7ca8e0a4437738209fa4c12dc1ed4dda55b27170635ffe578c96d579792",
    ("k3.g", 30, 0): "9e32d0dc2bcaf246f1229d27c891ad274e74df3c2f6561c4259d2d6808658835",
    ("k3.g", 30, 1): "cc460154adaf14ba721f7b19b76652daeeb616f19e8b63526ea9476af0222d7d",
    ("k3.g", 30, 3): "e267b7121765e66408c3c0f19d67122ca5f10d14ec6607b52e8974c5e7e6ca0e",
    ("edge.g", 12, 0): "7905ee43ca8e8c219f169dd3a81ca49f8255c3fcb0f028a4bf947ecb74a921e8",
    ("edge.g", 12, 1): "d96ba6e15dd80d5ad73373cc9cab780aace69d50edf952e9b8f193fb1253984c",
    ("edge.g", 12, 3): "78016969700a7bb003a94ca9a4e32b3030b89561f4a4e14f09e26731913216c0",
    ("edge.g", 30, 0): "9e32d0dc2bcaf246f1229d27c891ad274e74df3c2f6561c4259d2d6808658835",
    ("edge.g", 30, 1): "0b0410e1aa08dfe024eaf0996f6d481e583c1adad48f1bed953efa78deb93fdc",
    ("edge.g", 30, 3): "2851a605be7667f65bfa8a9c0eda465dd12c8371f31fd9e34aa530020de35dae",
}


@pytest.mark.parametrize("graph, size, nu_bound", sorted(GOLDEN_REDUCE_F))
def test_golden_reduce_f(files, graph, size, nu_bound):
    code, out = run_cli([
        "reduce-f", "--graph", files[graph], "--restrict", str(size), "--nu-bound", str(nu_bound),
    ])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REDUCE_F[graph, size, nu_bound]


def test_decode_f_incomplete_is_exit_1(files, tmp_path):
    code, restriction = run_cli([
        "reduce-f", "--graph", files["k2.g"], "--restrict", "4", "--nu-bound", "1",
    ])
    rest = tmp_path / "tiny.st"
    rest.write_text(restriction)
    code, out = run_cli(["decode-f", "--structure", str(rest), "--vertices", "2"])
    assert code == 1
    assert "# unknown" in out
    # a bound-0 trace tells no block's tag, even on a full restriction:
    # incomplete, not contradictory
    code, restriction = run_cli(["reduce-f", "--graph", files["k2.g"], "--restrict", "30"])
    rest.write_text(restriction)
    code, out = run_cli([
        "decode-f", "--structure", str(rest), "--vertices", "2", "--nu-bound", "0",
    ])
    assert code == 1
    assert out.splitlines()[1:] == [f"# unknown {m} {n}" for m in range(2) for n in range(2)]


def test_decode_f_long_nu_bound_stays_fast(files, tmp_path, monkeypatch):
    # no point of this restriction has an R_ fact of index length above 1,
    # so two queries judge each point whatever the bound; asking every
    # string up to the bound took 2^19 queries a point and seconds in all
    code, restriction = run_cli(["reduce-f", "--graph", files["edge.g"], "--restrict", "12"])
    rest = tmp_path / "r12.st"
    rest.write_text(restriction)
    asked = []
    present = cli.oracle_of_structure

    def counted(s):
        oracle = present(s)
        return dataclasses.replace(
            oracle, holds=lambda name, tup: asked.append(name) or oracle.holds(name, tup))

    monkeypatch.setattr(cli, "oracle_of_structure", counted)
    code, out = run_cli([
        "decode-f", "--structure", str(rest), "--vertices", "2", "--nu-bound", "18",
    ])
    assert code == 1
    assert out.splitlines()[1:] == [f"# unknown {m} {n}" for m in range(2) for n in range(2)]
    assert len(asked) < 100


def test_ef_many_rounds_answer(tmp_path):
    # uncapped rounds ended in a RecursionError (exit 4) from about 500 on
    one = tmp_path / "one.st"
    one.write_text("sig E/2\nsize 1\n")
    code, out = run_cli([
        "ef", "--left", str(one), "--right", str(one), "--rounds", "5000", "--trace", "--check",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "winner=Duplicator" and lines[-1] == "hierarchy_agrees=yes"
    assert len(lines) == 5002


def test_shelah_actions():
    code, out = run_cli(["shelah", "eval", "--nu", "01", "--elem", ":1"])
    assert code == 0 and out.strip() == "10:1"
    code, out = run_cli(["shelah", "trace", "--elem", ":0", "--bound", "2"])
    assert code == 0 and out.strip() == "trace=,0,00"
    code, out = run_cli(["shelah", "enum", "--tail", "0", "--count", "3"])
    assert out.splitlines() == [":0", "1:0", "01:0"]
    code, out = run_cli(["shelah", "closure", "--elem", ":0", "--bound", "2"])
    assert "size=4" in out
    code, out = run_cli(["shelah", "reduct", "--m", "2", "--elem", ":0"])
    assert out.strip() == "00:1"
    code, out = run_cli(["shelah", "game", "--m", "2", "--rounds", "2"])
    assert code == 0 and "strategy_wins=yes" in out
    code, out = run_cli(["shelah", "holds-r", "--nu", "1", "--elem", ":0"])
    assert code == 1 and "holds=no" in out


@pytest.mark.parametrize("other, code, answer", [("1:0", 0, "yes"), (":0", 1, "no")])
def test_shelah_graphf_exit_codes(other, code, answer):
    # F_1 flips the first bit, so it maps :0 to 1:0 and not to itself
    assert run_cli(["shelah", "graphf", "--nu", "1", "--elem", ":0", "--other", other]) == (
        code, f"holds={answer}\n")


def test_shelah_game_many_rounds():
    # the verifier checks pebble sets of at most the universe's size, so
    # 3000 rounds cost what 8 do; walking every line recursed too deep
    code, out = run_cli(["shelah", "game", "--m", "2", "--rounds", "3000"])
    assert code == 0 and out == "strategy_wins=yes\n"


def test_shelah_game_budget_exits_2_at_once(capsys, monkeypatch):
    # C(32, 16) = 601,080,390 pebble sets, over the default budget of 10^7;
    # unbudgeted, 4 rounds already took seconds and each round about 5x more
    code, out = run_cli(["shelah", "game", "--log2-size", "5", "--rounds", "16"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: strategy check needs more than 10000000 pebble sets\n"
    code, out = run_cli(["shelah", "game", "--rounds", "4", "--budget", "70"])
    assert (code, out) == (0, "strategy_wins=yes\n")
    monkeypatch.setenv("STRUCTCODE_BUDGET", "69")
    assert run_cli(["shelah", "game", "--rounds", "4"]) == (2, "")


def test_shelah_closure_output():
    code, out = run_cli(["shelah", "closure", "--elem", ":0", "--bound", "2"])
    assert (code, out) == (0, "size=4\n:0\n1:0\n01:0\n11:0\n")


def test_shelah_closure_budget_exits_2_at_once(capsys, monkeypatch):
    # 2^40 elements are not formed: 40 is past the budget's bit length
    code, out = run_cli(["shelah", "closure", "--bound", "40", "--budget", "1000"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: closure needs more than 1000 elements\n"
    code, out = run_cli(["shelah", "closure", "--bound", "10", "--budget", "1023"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: closure needs 1024 elements, more than 1023\n"
    code, out = run_cli(["shelah", "closure", "--bound", "10", "--budget", "1024"])
    assert code == 0 and out.startswith("size=1024\n:0\n")
    monkeypatch.setenv("STRUCTCODE_BUDGET", "3")
    assert run_cli(["shelah", "closure", "--bound", "2"]) == (2, "")


def test_shelah_enum_prints_without_building_the_list():
    # each element is printed as it is made; building the list first took
    # 16 MB at this count (by tracemalloc) and 217 MB peak RSS at a million
    sink = open(os.devnull, "w")
    tracemalloc.start()
    try:
        with sink, redirect_stdout(sink):
            code = cli.main(["shelah", "enum", "--tail", "1", "--count", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000


# sha256 of stdout, recorded when the tag elements, closures and stage
# universes were enumerated by loops of their own
GOLDEN_LENGTH_LEX = {
    ("shelah", "enum", "--tail", "1", "--count", "2000"):
        "397d0a783723c09e522f8a84f0bb51bfd38097dd7ac111ace6aa75b4d7f6ce89",
    ("shelah", "closure", "--elem", "0110:1", "--bound", "8"):
        "6e541163ffba0ca6c6041b85d817acf6ffb3182e653118973fe670a01a2c7f28",
    ("limit-demo", "--pattern", "0110101", "--stages", "60"):
        "bf256ef94d583570bd301bb5c63e940ef7cdbaae56dffdbfa320d0e318842185",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_LENGTH_LEX), ids=" ".join)
def test_golden_length_lex_outputs(argv):
    code, out = run_cli(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LENGTH_LEX[argv]


def test_reduce_f_on_no_points_is_budgeted(files, capsys):
    # every relation counts at least one unit, so 0 points cannot sweep
    # the 2^62 relations of nu-bound 60 one by one
    code, out = run_cli(["reduce-f", "--graph", files["edge.g"], "--restrict", "0",
                         "--nu-bound", "60", "--budget", "1000"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: restrict exceeded 1000 oracle queries\n"


def test_limit_demo():
    code, out = run_cli(["limit-demo", "--pattern", "110", "--stages", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stage=0 universe=a facts="
    assert lines[-1] == "classification=S0"


def test_selftest_module_section():
    code, out = run_cli(["selftest", "limits", "--corpus-size", "5"])
    assert code == 0
    assert "check=limits.build_stage pass=yes" in out


def test_selftest_single_criterion():
    code, out = run_cli(["selftest", "C6", "--seed", "1"])
    assert code == 0
    assert out.startswith("criterion=C6 pass=yes")


def test_selftest_rejects_unknown_section():
    code, _ = run_cli(["selftest", "nonsense"])
    assert code == 3


def test_corpus_writes_files(tmp_path):
    out_dir = tmp_path / "corp"
    code, out = run_cli([
        "corpus", "--kind", "graphs", "--count", "4", "--seed", "9", "--out", str(out_dir),
    ])
    assert code == 0 and "written=4" in out
    files = sorted(out_dir.iterdir())
    assert len(files) == 4
    parse_graph(files[0].read_text())


def test_determinism_byte_identical():
    first = run_cli(["selftest", "shelah", "--seed", "5", "--corpus-size", "6"])
    second = run_cli(["selftest", "shelah", "--seed", "5", "--corpus-size", "6"])
    assert first == second
    a = run_cli(["corpus", "--kind", "structures", "--count", "3", "--seed", "2"])
    b = run_cli(["corpus", "--kind", "structures", "--count", "3", "--seed", "2"])
    assert a == b


def test_missing_file_is_input_error():
    code, _ = run_cli(["encode", "--structure", "/nonexistent/x.st"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["iso", "--left", "dir", "--right", "dir"],
    ["decode", "--graph", "dir"],
    ["corpus", "--out", "k2.g"],
    ["encode", "--structure", "fig.st", "--provenance", "dir"],
], ids=["iso-dir", "decode-dir", "corpus-out-file", "encode-provenance-dir"])
def test_bad_path_is_input_error(files, argv, capsys):
    # a directory where a file is read, or a file where a directory is made
    argv = [str(files.get(a, a)) for a in argv]
    code, out = run_cli(argv)
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize("sig,fault", [
    ("R/x", "expected arity, got 'x'"),
    ("R/0", "arity 0 < 1"),
    ("R/-1", "arity must be non-negative, got '-1'"),
    ("/2", "bad relation name ''"),
    ("R", "expected NAME/ARITY, got 'R'"),
    ("R/1 R/1", "duplicate relation names"),
])
def test_decode_bad_sig_is_input_error(files, sig, fault, capsys):
    code, out = run_cli(["decode", "--graph", files["k2.g"], "--sig", sig])
    assert code == 3 and out == ""
    assert fault in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["shelah", "eval", "--nu", "2", "--elem", ":1"],
    ["shelah", "holds-r", "--nu", "2x", "--elem", ":1"],
    ["ef", "--left", "k2.g", "--right", "k3.g", "--rounds", "-1"],
    ["limit-demo", "--pattern", ""],
    ["corpus", "--count", "-1"],
], ids=["eval-nu", "holds-r-nu", "ef-rounds", "limit-demo-pattern", "corpus-count"])
def test_invalid_argument_is_input_error(files, argv, capsys):
    # these used to print an answer (exit 0 or 1) or trip an assert (exit 4)
    argv = [files.get(a, a) for a in argv]
    code, out = run_cli(argv)
    assert code == 3 and out == ""
    assert "error: argument" in capsys.readouterr().err


def test_internal_error_is_exit_4(files, monkeypatch, capsys):
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_iso", crash)
    code, out = run_cli(["iso", "--left", files["k2.g"], "--right", files["k2.g"]])
    assert code == 4 and out == ""
    assert capsys.readouterr().err == "error: internal: RecursionError\n"


def test_reduce_f_budget_checked_before_sweep(files, monkeypatch):
    # 10^6 + 10^12 + 10^18 + ... tuples against a budget of 10^5: exit 2
    # before any handle is built or any fact asked for
    calls = []
    build = cli.reduction.build_f_graph

    def counted(g):
        def count(*args):
            calls.append(args)

        return dataclasses.replace(build(g), element=count, holds=count, facts=count)

    monkeypatch.setattr(cli.reduction, "build_f_graph", counted)
    code, out = run_cli([
        "reduce-f", "--graph", files["k2.g"], "--restrict", "1000000",
        "--nu-bound", "3", "--budget", "100000",
    ])
    assert code == 2 and out == "" and calls == []


def test_budget_env_override(files, monkeypatch):
    monkeypatch.setenv("STRUCTCODE_BUDGET", "3")
    assert cli.default_budget() == 3
    # a starved game search exits 2 instead of answering
    code, _ = run_cli([
        "ef", "--left", files["k3.g"], "--right", files["k3.g"], "--rounds", "3",
    ])
    assert code == 2
    monkeypatch.delenv("STRUCTCODE_BUDGET")
    assert cli.default_budget() == 10 ** 7


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_budget_env_is_input_error(files, monkeypatch, capsys, value):
    # read while the parser is built, so it needs its own input-error path
    monkeypatch.setenv("STRUCTCODE_BUDGET", value)
    code, out = run_cli(["iso", "--left", files["k2.g"], "--right", files["k2.g"]])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        f"error: STRUCTCODE_BUDGET: expected a non-negative integer, got {value!r}\n"
    )


def test_decode_huge_declared_arity(tmp_path, capsys):
    # memory and time used to grow with the declared arity, not with the input
    empty = tmp_path / "empty.g"
    empty.write_text(serialize_graph(coding.encode(FinStructure.of(Signature(()), 0)).graph))
    code, out = run_cli(["decode", "--graph", str(empty), "--sig", "R/2000000"])
    assert code == 0 and out == "sig R/2000000\nsize 0\n"
    one = tmp_path / "one.g"
    one.write_text(serialize_graph(coding.encode(FinStructure.of(Signature(()), 1)).graph))
    capsys.readouterr()
    code, out = run_cli(["decode", "--graph", str(one), "--sig", "R/2000000"])
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert err.startswith("error: relation R of arity 2000000") and len(err) < 200


# ---------------------------------------------------------------------------
# CLI fuzz: encode and decode on generated files


@st.composite
def structures(draw):
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    sig = Signature(tuple((f"R{i}", arity) for i, arity in enumerate(arities)))
    size = draw(st.integers(0, 3))
    tuples = sorted((name, t) for name, arity in sig.relations
                    for t in product(range(size), repeat=arity))
    facts = draw(st.sets(st.sampled_from(tuples))) if tuples else set()
    return FinStructure(sig, size, frozenset(facts))


# (operation, edge pick, vertex pick): drop, add or redirect one edge
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["drop", "add", "redirect"]), st.integers(0, 10**6),
              st.integers(0, 10**6)),
    max_size=3,
)


def _mutate(g, mutations):
    edges = set(g.edges)
    for op, i, j in mutations:
        if op == "add":
            u = i % g.size
            edges.add((u, (u + 1 + j % (g.size - 1)) % g.size))
        elif edges:
            u, v = sorted(edges)[i % len(edges)]
            edges.discard((u, v))
            if op == "redirect":
                edges.add((u, (u + 1 + j % (g.size - 1)) % g.size))
    return DiGraph.of(g.size, edges)


def _run_twice(argv):
    """Exit code, stdout and stderr of two identical calls, which must agree."""
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code in (0, 3) and "Traceback" not in err
    assert (err == "") == (code == 0) and err.count("\n") <= 1
    return code, out


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(structures(), MUTATIONS, st.booleans())
def test_cli_encode_decode_fuzz(fuzz_dir, s, mutations, with_sig):
    st_file, g_file = fuzz_dir / "fuzz.st", fuzz_dir / "fuzz.g"
    st_file.write_text(serialize_structure(s))
    code, out = _run_twice(["encode", "--structure", str(st_file)])
    assert code == 0 and out == serialize_graph(coding.encode(s).graph)

    g = _mutate(coding.encode(s).graph, mutations)
    g_file.write_text(serialize_graph(g))
    sig_args = ["--sig", " ".join(f"{n}/{a}" for n, a in s.sig.relations)] if with_sig else []
    code, out = _run_twice(["decode", "--graph", str(g_file), *sig_args])
    sig = s.sig if with_sig else None
    if code == 0:
        assert out == serialize_structure(coding.decode(g, sig))
    else:
        assert out == ""
        with pytest.raises(coding.MalformedCoding):
            coding.decode(g, sig)
    if not mutations and with_sig:
        assert parse_structure(out) == s


@st.composite
def graphs(draw):
    size = draw(st.integers(0, 4))
    pairs = [(u, v) for u in range(size) for v in range(size) if u != v]
    return DiGraph.of(size, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


SEARCH_COMMANDS = st.sampled_from([
    ["iso", "--left", "--right"],
    ["embed", "--source", "--target"],
    ["embed", "--all", "--cap", "3", "--source", "--target"],
    ["ef", "--rounds", "2", "--left", "--right"],
    ["ef", "--rounds", "3", "--trace", "--check", "--left", "--right"],
])


# two graphs, or any two inputs (a structure and a graph is an input error)
INPUT_PAIRS = st.one_of(st.tuples(graphs(), graphs()),
                        st.tuples(graphs() | structures(), graphs() | structures()))


def _write_input(path, x):
    path.write_text(serialize_graph(x) if isinstance(x, DiGraph) else serialize_structure(x))
    return str(path)


def _run_any(argv):
    """Exit code and stdout of one call that may end in any of the four ways."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    # 0/1 answer, 2 budget spent, 3 input error (e.g. mixed signatures)
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
    assert (err.getvalue() == "") == (code in (0, 1))
    return code, out.getvalue()


@given(INPUT_PAIRS, SEARCH_COMMANDS, st.integers(0, 30))
def test_cli_search_fuzz(fuzz_dir, pair, command, budget):
    files = [_write_input(fuzz_dir / f"{side}.in", x) for side, x in zip(("left", "right"), pair)]
    *head, left_flag, right_flag = command
    _run_any([*head, left_flag, files[0], right_flag, files[1], "--budget", str(budget)])


def _shelah_argv(action, nu, elem, other, tail, count, bound, m, rounds, nu_bound, log2_size):
    argv = ["shelah", action, "--nu", nu, "--elem", elem, "--other", other, "--tail", tail,
            "--count", str(count), "--bound", str(bound), "--m", str(m),
            "--rounds", str(rounds), "--log2-size", str(log2_size)]
    return argv if nu_bound is None else [*argv, "--nu-bound", str(nu_bound)]


# element literals PREFIX:TAILBIT, normalized, or loose text that is mostly malformed
ELEMENTS = st.one_of(
    st.builds(lambda bits, tail: f"{bits.rstrip(tail)}:{tail}",
              st.text("01", max_size=4), st.sampled_from("01")),
    st.text("01:", max_size=6),
)

# argv with None standing for the generated input file; tails are drawn
# loosely too, so malformed arguments (exit 3) come up as well
OTHER_COMMANDS = st.one_of(
    st.builds(lambda r, nu, budget: ["reduce-f", "--graph", None, "--restrict", str(r),
                                     "--nu-bound", str(nu), "--budget", str(budget)],
              st.integers(0, 40), st.integers(0, 3), st.integers(0, 10**5)),
    st.builds(lambda k, nu, budget: ["decode-f", "--structure", None, "--vertices", str(k),
                                     "--nu-bound", str(nu), "--budget", str(budget)],
              st.integers(0, 5), st.integers(0, 3), st.integers(0, 50)),
    st.builds(_shelah_argv,
              st.sampled_from(["eval", "holds-r", "graphf", "enum", "closure", "trace",
                               "reduct", "game"]),
              st.text("01", max_size=4), ELEMENTS, ELEMENTS,
              st.sampled_from(["0", "1", "2"]), st.integers(0, 12), st.integers(0, 4),
              st.integers(0, 5), st.integers(0, 3), st.none() | st.integers(0, 3),
              st.integers(0, 3)),
    st.builds(lambda pattern, stages: ["limit-demo", "--pattern", pattern, "--stages", str(stages)],
              st.text("01", max_size=6), st.integers(0, 12)),
    st.builds(lambda kind, count, seed, size, out: [
        "corpus", "--kind", kind, "--count", str(count), "--seed", str(seed),
        "--max-size", str(size), *(["--out", None] if out else [])],
              st.sampled_from(["structures", "graphs"]), st.integers(0, 5),
              st.integers(-3, 3), st.integers(0, 4), st.booleans()),
)


@given(OTHER_COMMANDS, graphs() | structures())
def test_cli_other_commands_fuzz(fuzz_dir, command, x):
    path = _write_input(fuzz_dir / "other.in", x)
    if command[0] == "corpus":
        path = str(fuzz_dir / "corpus")
    _run_any([path if arg is None else arg for arg in command])


@given(graphs(), st.integers(0, 40), st.integers(0, 3), st.integers(0, 5), st.integers(0, 3),
       st.integers(0, 50))
def test_cli_reduce_f_output_decodes(fuzz_dir, g, restrict, rel_bound, k, nu_bound, budget):
    # a genuine restriction is never an input error, whatever the bounds
    graph = _write_input(fuzz_dir / "reduce.g", g)
    code, restriction = _run_any(["reduce-f", "--graph", graph, "--restrict", str(restrict),
                                  "--nu-bound", str(rel_bound)])
    assert code == 0
    rest = fuzz_dir / "reduce.st"
    rest.write_text(restriction)
    code, _ = _run_any(["decode-f", "--structure", str(rest), "--vertices", str(k),
                        "--nu-bound", str(nu_bound), "--budget", str(budget)])
    assert code in (0, 1)


# ---------------------------------------------------------------------------
# operation coverage over the command table

EXPECTED_OPERATIONS = {
    "core.atomic_diagram_prefix", "core.cantor_pair", "core.enum_string",
    "core.restrict", "core.parse_structure", "core.serialize_structure",
    "core.parse_graph", "core.serialize_graph",
    "shelah.eval_F", "shelah.holds_R", "shelah.holds_graphF",
    "shelah.enumerate_elems", "shelah.closure", "shelah.reduct_iso",
    "shelah.distinguishing_trace",
    "reduction.build_f", "reduction.block_type", "reduction.induced_embedding",
    "reduction.classify_block", "reduction.decode_f",
    "coding.encode", "coding.decode", "coding.canonical_iso",
    "coding.encode_morphism", "coding.lambda_graph",
    "efgames.partial_iso_check", "efgames.ef_winner", "efgames.equiv_n",
    "efgames.verify_duplicator_strategy",
    "search.find_embedding", "search.enumerate_embeddings", "search.find_isomorphism",
    "limits.build_stage", "limits.query_fact", "limits.classify_limit",
    "functors.composed_functor", "functors.check_functor_laws",
    "functors.check_commuting_square", "functors.pseudo_inverse_report",
}


def test_command_table_covers_each_operation_once():
    assert set(cli.COMMAND_TABLE) == EXPECTED_OPERATIONS
    assert set(cli.COMMAND_TABLE.values()) <= set(cli.SUBCOMMANDS)


def test_command_table_names_resolve():
    import importlib

    for dotted in cli.COMMAND_TABLE:
        module_name, attr = dotted.rsplit(".", 1)
        module = importlib.import_module(f"structcode.{module_name}")
        assert hasattr(module, attr), dotted


def test_every_subcommand_appears_in_parser():
    parser = cli.build_parser()
    choices = next(
        set(a.choices)
        for a in parser._subparsers._actions
        if getattr(a, "choices", None)
    )
    assert choices == set(cli.SUBCOMMANDS)
