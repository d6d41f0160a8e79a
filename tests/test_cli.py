import pytest

from nfai.automata import InstanceBundle, Nfa
from nfai.cli import main
from nfai.fileformat import parse_automaton, parse_bundle, serialize_bundle
from nfai.hardness import clique_bundle, serialize_graph
from nfai.products import DEFAULT_STATE_BUDGET
from nfai.relations import equality_relation
from nfai.fileformat import serialize_automaton

from helpers import capped_cli, example_clique_graph


@pytest.fixture
def clique_file(tmp_path):
    bundle = clique_bundle(example_clique_graph(), 4)
    path = tmp_path / "clique.nfa"
    path.write_text(serialize_bundle(bundle))
    return path


@pytest.fixture
def empty_file(tmp_path):
    a = Nfa(2, 2, ((0, 0, 1),), 0, frozenset({1}))  # accepts only "a"
    b = Nfa(2, 2, ((0, 1, 1),), 0, frozenset({1}))  # accepts only "b"
    path = tmp_path / "empty.nfa"
    path.write_text(serialize_bundle(InstanceBundle((a, b))))
    return path


def test_decide_nonempty(clique_file, capsys):
    assert main(["decide", str(clique_file)]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "NONEMPTY 0 1 3 4"
    assert "explored_states=" in out.err


def test_decide_empty(empty_file, capsys):
    assert main(["decide", str(empty_file)]) == 1
    assert capsys.readouterr().out.strip() == "EMPTY"


def test_decide_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.nfa"
    bad.write_text("nfa\nstates 1\n")
    assert main(["decide", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_product_writes_automaton_and_stats(empty_file, tmp_path, capsys):
    out_file = tmp_path / "prod.enfa"
    assert main(["product", "--construction", "nodding", str(empty_file), "-o", str(out_file)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "construction,k,l,n,m,states_acc,trans_acc,m_leq_k"
    assert err.splitlines()[1].startswith("nodding,2,2,2,1,")
    parsed = parse_automaton(out_file.read_text())
    assert parsed.n_states >= 1


def test_product_deterministic_output(empty_file, tmp_path):
    out1, out2 = tmp_path / "p1.nfa", tmp_path / "p2.nfa"
    main(["product", "--construction", "catchup", str(empty_file), "-o", str(out1)])
    main(["product", "--construction", "catchup", str(empty_file), "-o", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_product_unknown_construction(empty_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["product", "--construction", "zigzag", str(empty_file)])
    assert exc.value.code == 2


def test_product_empty_bundle_file(tmp_path):
    path = tmp_path / "none.nfa"
    path.write_text("# nothing\n")
    assert main(["product", "--construction", "nodding", str(path)]) == 2


def test_certify_verify_pipeline(clique_file, empty_file, tmp_path, capsys):
    for source, kind in ((clique_file, "pathset"), (empty_file, "cut")):
        cert = tmp_path / f"{kind}.cert"
        assert main(["certify", str(source), "-o", str(cert)]) == 0
        capsys.readouterr()
        assert main(["verify", str(source), str(cert)]) == 0
        assert capsys.readouterr().out.strip() == f"VALID {kind}"


def test_verify_tampered_cut(empty_file, tmp_path, capsys):
    cert = tmp_path / "cut.cert"
    main(["certify", str(empty_file), "-o", str(cert)])
    lines = cert.read_text().splitlines()
    tampered = []
    for line in lines:
        if line.startswith("set 1 0 "):
            mask = int.from_bytes(bytes.fromhex(line.split()[-1]), "little")
            low = mask & -mask
            line = f"set 1 0 {(mask ^ low).to_bytes(1, 'little').hex()}"
        tampered.append(line)
    cert.write_text("\n".join(tampered) + "\n")
    capsys.readouterr()
    assert main(["verify", str(empty_file), str(cert)]) == 1
    out = capsys.readouterr().out
    assert "INVALID cut:" in out
    assert any(cond in out for cond in ("closure", "initial-missing", "base-copy-mismatch"))


def test_verify_refuses_a_repeated_set_line(empty_file, tmp_path, capsys):
    cert = tmp_path / "cut.cert"
    main(["certify", str(empty_file), "-o", str(cert)])
    text = cert.read_text()
    first_set = next(line for line in text.splitlines() if line.startswith("set "))
    cert.write_text(text + first_set + "\n")
    capsys.readouterr()
    assert main(["verify", str(empty_file), str(cert)]) == 2
    n_lines = len(text.splitlines()) + 1
    assert capsys.readouterr().err == f"error: line {n_lines}: duplicate '{' '.join(first_set.split()[:3])}' line\n"


def test_verify_tampered_pathset(clique_file, tmp_path, capsys):
    cert = tmp_path / "ps.cert"
    main(["certify", str(clique_file), "-o", str(cert)])
    text = cert.read_text().replace("word 0 1 3 4", "word 0 1 3 3")
    cert.write_text(text)
    capsys.readouterr()
    assert main(["verify", str(clique_file), str(cert)]) == 1
    assert "INVALID pathset:" in capsys.readouterr().out


def test_gen_clique_from_graph_file(tmp_path, capsys):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text(serialize_graph(example_clique_graph()))
    out = tmp_path / "bundle.nfa"
    assert main(["gen", "clique", "--graph", str(graph_file), "--k", "4", "-o", str(out)]) == 0
    bundle = parse_bundle(out.read_text())
    assert bundle.k == 3
    assert main(["decide", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "NONEMPTY 0 1 3 4"


@pytest.mark.parametrize(
    "text,line",
    [("graph x\n", 1), ("graph 3\nedge 1 y\n", 2), ("# vertices\ngraph -3\n", 2)],
    ids=["graph-x", "edge-y", "graph-negative"],
)
def test_gen_clique_malformed_graph_file(tmp_path, capsys, text, line):
    graph_file = tmp_path / "bad.graph"
    graph_file.write_text(text)
    out = tmp_path / "bundle.nfa"
    assert main(["gen", "clique", "--graph", str(graph_file), "--k", "4", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: line {line}: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_gen_clique_random_graph(tmp_path):
    out1 = tmp_path / "b1.nfa"
    out2 = tmp_path / "b2.nfa"
    for out in (out1, out2):
        assert main(["gen", "clique", "--graph", "random:6,0.5,13", "--k", "3", "-o", str(out)]) == 0
    assert out1.read_text() == out2.read_text()


def test_gen_bad_random_spec(tmp_path):
    assert main(["gen", "clique", "--graph", "random:6,0.5", "--k", "3"]) == 2


def test_gen_refuses_graphs_over_the_state_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NFAI_STATE_BUDGET", "1000")
    graph_file = tmp_path / "huge.graph"
    graph_file.write_text("graph 99999999\nedge 0 1\nedge 1 2\nedge 0 2\n")
    out = tmp_path / "bundle.nfa"
    assert main(["gen", "clique", "--graph", str(graph_file), "--k", "4", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: 99999999 vertices")
    assert main(["gen", "clique", "--graph", "random:1001,0.5,1", "--k", "4", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: random graph has 1001 vertices, over the state budget of 1000\n"
    # 1000 vertices are within the budget, but not p * n(n-1)/2 = 4995 expected edges
    assert main(["gen", "clique", "--graph", "random:1000,0.01,1", "--k", "3", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: random graph expects 4995 edges, over the state budget of 1000\n"
    # the reduction's n·k(k-1)/2 + 2|E|(k-1) transitions, counted before it is built
    assert main(["gen", "clique", "--graph", "random:8,0.5,1", "--k", "20000", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: clique reduction has 1600599966 transitions, over the state budget of 1000\n")
    assert not out.exists()
    # 150 vertices, 68 edges: a reduction of 150 * 3 + 4 * 68 = 722 transitions
    assert main(["gen", "clique", "--graph", "random:150,0.005,1", "--k", "3", "-o", str(out)]) == 0


def test_decide_reports_the_line_of_a_mismatched_block(tmp_path, capsys):
    bundle = tmp_path / "mixed.nfa"
    bundle.write_text("nfa\nstates 1\nalphabet 1\ninitial 0\n---\nnfa\nstates 1\nalphabet 2\ninitial 0\n")
    assert main(["decide", str(bundle)]) == 2
    assert capsys.readouterr().err == "error: line 6: block alphabet 2 differs from the first block's 1\n"


def test_oracle_subcommand(clique_file, empty_file, capsys):
    assert main(["oracle", str(clique_file), "--max-len", "4"]) == 0
    assert capsys.readouterr().out.strip() == "WITNESS 0 1 3 4"
    assert main(["oracle", str(empty_file), "--max-len", "6"]) == 1
    assert capsys.readouterr().out.strip() == "NONE"


def test_rs_subcommand(tmp_path, capsys):
    a = Nfa(2, 2, ((0, 0, 1),), 0, frozenset({1}))
    bundle_path = tmp_path / "pair.nfa"
    bundle_path.write_text(serialize_bundle(InstanceBundle((a, a))))
    assert main(["rs", str(bundle_path), "--equality"]) == 0
    assert capsys.readouterr().out.strip() == "SATISFIABLE"

    relation_path = tmp_path / "rel.mt"
    dead = equality_relation(2, 2)
    relation_path.write_text(serialize_automaton(dead).replace("final 0", "final"))
    assert main(["rs", str(bundle_path), "--relation", str(relation_path)]) == 1
    assert capsys.readouterr().out.strip() == "UNSATISFIABLE"


def test_bench_deterministic_without_timing(capsys):
    args = [
        "bench", "--k", "2", "--alphabet", "2", "--n", "4",
        "--density", "0.5,1.0", "--seeds", "1,2", "--constructions",
        "nodding,direct", "--no-timing",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0] == (
        "instance,construction,k,l,n,m,states_accessible,transitions_accessible,wall_time_ns,answer"
    )
    assert len(lines) == 1 + 2 * 2 * 2
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] in ("nodding", "direct")
        assert fields[8] == "0"
        assert fields[9] in ("EMPTY", "NONEMPTY", "SKIP")


def test_bench_budget_skip(monkeypatch, capsys):
    # under a budget of 4 the 72 transitions of each component are refused
    # before they are drawn
    monkeypatch.setenv("NFAI_STATE_BUDGET", "4")
    args = [
        "bench", "--k", "2", "--alphabet", "2", "--n", "6", "--density", "1.0",
        "--seeds", "3", "--constructions", "direct", "--no-timing",
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "k2-l2-n6-d1.0-s3,direct,2,2,6,72,0,0,0,SKIP"
    # under 40, each component's 36 transitions are drawn, and the direct
    # walk is refused among the 216 tuples it meets
    monkeypatch.setenv("NFAI_STATE_BUDGET", "40")
    args = [
        "bench", "--k", "3", "--alphabet", "1", "--n", "6", "--density", "1.0",
        "--seeds", "3", "--constructions", "direct", "--no-timing",
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "k3-l1-n6-d1.0-s3,direct,3,1,6,36,0,0,0,SKIP"


@pytest.mark.parametrize("args", [["product", "--construction", "direct", "x.nfa"],
                                  ["bench", "--k", "2", "-l", "1", "--n", "2", "--seeds", "0"]])
def test_budget_flag_is_gone(args, capsys):
    # NFAI_STATE_BUDGET is the only budget
    with pytest.raises(SystemExit) as exc:
        main(args + ["--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_bench_empty_answer(tmp_path, capsys):
    # seeded instances with zero density can never accept a non-empty word,
    # and accept the empty word only if every initial state is final
    args = [
        "bench", "--k", "2", "--alphabet", "1", "--n", "2", "--density", "0.0",
        "--seeds", "5", "--constructions", "nodding", "--no-timing",
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split(",")[9] in ("EMPTY", "NONEMPTY")


def test_bench_dense_nodding_counts(capsys):
    # complete transition relation: every nodding-product transition is
    # accessible, so the counts are exact
    args = [
        "bench", "--k", "2", "--alphabet", "2", "--n", "40", "--density", "1.0",
        "--seeds", "1", "--constructions", "nodding", "--no-timing",
    ]
    assert main(args) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[5] == "3200"  # m = l * n^2
    assert row[6] == "4800"  # (k*l - l + 1) * n^2 states
    assert row[7] == "256000"  # k * m * n transitions
    assert int(row[7]) <= 2 * 3200 * 40


def test_bench_one_letter_k4_within_bounds(capsys):
    # catch-up at l = 1 has more volleys than 2k l^k (2430 transitions
    # against 1944), within the bound only because it is taken at l = 2
    args = [
        "bench", "--k", "4", "-l", "1", "--n", "3", "--density", "1.0", "--seeds", "0",
        "--constructions", "nodding,echoing,catchup,leapfrog,direct", "--no-timing",
    ]
    assert main(args) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[1] for row in rows] == ["nodding", "echoing", "catchup", "leapfrog", "direct"]
    assert all(row[9] == "NONEMPTY" for row in rows)
    assert rows[2][7] == "2430"


def test_bench_workers_match_sequential(capsys):
    args = [
        "bench", "--k", "2", "--alphabet", "2", "--n", "3", "--density",
        "0.5,1.0", "--seeds", "1,2,3", "--constructions", "nodding,leapfrog",
        "--no-timing",
    ]
    assert main(args) == 0
    sequential = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == sequential


def test_state_budget_env_override(empty_file, monkeypatch, capsys):
    monkeypatch.setenv("NFAI_STATE_BUDGET", "2")
    assert main(["product", "--construction", "direct", "--full", str(empty_file)]) == 2
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("NFAI_STATE_BUDGET", "100000")
    assert main(["product", "--construction", "direct", "--full", str(empty_file)]) == 0


def test_decide_and_certify_honour_state_budget(clique_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NFAI_STATE_BUDGET", "10")
    assert main(["decide", str(clique_file)]) == 2
    assert main(["certify", str(clique_file), "-o", str(tmp_path / "c.cert")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "budget" in err


def test_certify_checks_cut_tuple_space_against_budget(tmp_path, monkeypatch, capsys):
    # two 6000-state components with 3 accessible nodding states: the cut
    # would hold 36,000,000 tuples per subset
    block = "nfa\nstates 6000\nalphabet 1\ninitial 0\nfinal {}\ntrans 0 0 {}\n"
    bundle = tmp_path / "wide.nfa"
    bundle.write_text(block.format("1", "1") + "---\n" + block.format("", "0"))
    cert = tmp_path / "wide.cert"
    monkeypatch.setenv("NFAI_STATE_BUDGET", "1000000")
    assert main(["certify", str(bundle), "-o", str(cert)]) == 2
    assert "36000000 tuples" in capsys.readouterr().err
    assert not cert.exists()


# one transition, but a declared 3,000,000 x 2 tuple space and 20 letters:
# preparing it must cost what its transitions cost, not what n * l does
HOSTILE_BUNDLE = (
    "nfa\nstates 3000000\nalphabet 20\ninitial 0\nfinal 1\ntrans 0 0 1\n"
    "---\nnfa\nstates 2\nalphabet 20\ninitial 0\nfinal 1\n"
)


@pytest.mark.parametrize("args, code, message", [
    (["decide", "hostile.nfa"], 1, "explored_states=2"),
    (["certify", "hostile.nfa", "-o", "hostile.cert"], 2, "cut tuple space has 6000000 tuples"),
] + [
    (["product", "--construction", c, "hostile.nfa", "-o", "hostile.out"], 0, f"{c},2,20,3000000,1,")
    for c in ("direct", "nodding", "echoing", "catchup", "leapfrog")
])
def test_hostile_bundle_costs_its_transitions(tmp_path, args, code, message):
    (tmp_path / "hostile.nfa").write_text(HOSTILE_BUNDLE)
    done = capped_cli(tmp_path, *args)
    assert (done.returncode, "Traceback" in done.stderr) == (code, False), done.stderr
    assert message in done.stderr


@pytest.mark.parametrize("args", [["rs", "hostile.nfa", "--equality"], ["oracle", "hostile.nfa", "--max-len", "4"]])
def test_hostile_bundle_refused_before_per_state_tables(tmp_path, args):
    # rs would add 60,000,000 tagged self-loops, and the oracle keep
    # 3,000,000 masks of up to 3,000,000 bits
    (tmp_path / "hostile.nfa").write_text(HOSTILE_BUNDLE)
    done = capped_cli(tmp_path, *args)
    assert done.returncode == 2, done.stderr
    assert "over the state budget" in done.stderr


def test_bench_refuses_a_draw_before_listing_its_triples(tmp_path):
    # 2 * 10^10 (src, letter, dst) triples per component: a SKIP row, not a
    # MemoryError while listing them
    done = capped_cli(tmp_path, "bench", "--k", "2", "-l", "2", "--n", "100000", "--seeds", "0", "--no-timing")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1:] == [
        f"k2-l2-n100000-d1.0-s0,{c},2,2,100000,20000000000,0,0,0,SKIP" for c in ("nodding", "direct")]


def test_equality_relation_refused_before_it_is_built(tmp_path):
    # 2,000,000 declared letters: the equality relation would have 6,000,000
    # transitions, and rs would read its MemoryError as UNSATISFIABLE (exit 1)
    block = "nfa\nstates 2\nalphabet 2000000\ninitial 0\nfinal 1\n"
    (tmp_path / "a3.nfa").write_text("---\n".join([block + "trans 0 0 1\n"] * 2 + [block]))
    done = capped_cli(tmp_path, "rs", "a3.nfa", "--equality")
    assert done.returncode == 2, done.stderr
    assert done.stderr == "error: equality relation has 6000000 transitions, over the state budget of 1000\n"


def test_repeated_final_line_is_refused_at_its_line(tmp_path, capsys):
    # counted once each, the two 'final' lines would make 0 a shared word;
    # keeping only the last would answer EMPTY
    path = tmp_path / "twice.nfa"
    path.write_text("nfa\nstates 2\nalphabet 1\ninitial 0\nfinal 1\nfinal 0\ntrans 0 0 1\n---\n"
                    "nfa\nstates 2\nalphabet 1\ninitial 0\nfinal 1\ntrans 0 0 1\n")
    assert main(["decide", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 6: duplicate 'final' line\n"


def test_random_graph_refused_by_its_expected_edges(tmp_path):
    # 30,000 vertices are within the default budget, but about 225 M
    # expected edges are not: refused before the graph is drawn
    done = capped_cli(tmp_path, "gen", "clique", "--graph", "random:30000,0.5,1", "--k", "4", "-o", "big.nfa",
                      budget=DEFAULT_STATE_BUDGET)
    assert (done.returncode, "Traceback" in done.stderr) == (2, False), done.stderr
    assert done.stderr == "error: random graph expects 224992500 edges, over the state budget of 10000000\n"
    assert not (tmp_path / "big.nfa").exists()


def _letterless_bundle_text(first_final):
    block = "nfa\nstates 1\nalphabet 0\ninitial 0\nfinal {}\n"
    return block.format("0" if first_final else "") + "---\n" + block.format("0")


def test_letterless_certify_verify(tmp_path, capsys):
    empty, nonempty = tmp_path / "empty.nfa", tmp_path / "eps.nfa"
    empty.write_text(_letterless_bundle_text(False))
    nonempty.write_text(_letterless_bundle_text(True))
    cert = tmp_path / "cut.cert"
    assert main(["certify", str(empty), "-o", str(cert)]) == 0
    assert "set " not in cert.read_text()
    capsys.readouterr()
    assert main(["verify", str(empty), str(cert)]) == 0
    assert capsys.readouterr().out == "VALID cut\n"
    # every initial state final: the empty word is in the intersection
    assert main(["verify", str(nonempty), str(cert)]) == 1
    assert capsys.readouterr().out == "INVALID cut: final-present at 0\n"


_CERT_HEADERS = {
    "pathset": ["nfa-cert v1", "pathset", "k 2", "word 0", "run 0"],
    "cut": ["nfa-cert v1", "cut", "k 2", "alphabet 2", "states 2 2"],
}


@pytest.mark.parametrize(
    "kind,line",
    [
        ("pathset", "k"),
        ("pathset", "k two"),
        ("pathset", "word 0 x"),
        ("pathset", "run"),
        ("pathset", "run x"),
        ("pathset", "step 0 0"),
        ("pathset", "step 0 a 1"),
        ("cut", "k"),
        ("cut", "k 2 2"),
        ("cut", "alphabet"),
        ("cut", "alphabet two"),
        ("cut", "states 2 x"),
        ("cut", "set 0 0"),
        ("cut", "set 0 x 0f"),
        ("cut", "set 0 0 zz"),
        ("cut", "set 0 0 abc"),
    ],
)
def test_verify_malformed_certificate_line(empty_file, tmp_path, capsys, kind, line):
    cert = tmp_path / "bad.cert"
    cert.write_text("\n".join(_CERT_HEADERS[kind] + [line]) + "\n")
    assert main(["verify", str(empty_file), str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 6: ")
    assert "Traceback" not in captured.err


def test_product_golden_output(tmp_path, capsys):
    bundle_text = (
        "nfa\nstates 2\nalphabet 1\ninitial 0\nfinal 1\ntrans 0 0 1\n"
        "---\n"
        "nfa\nstates 1\nalphabet 1\ninitial 0\nfinal 0\ntrans 0 0 0\n"
    )
    path = tmp_path / "tiny.nfa"
    path.write_text(bundle_text)
    out = tmp_path / "nod.enfa"
    assert main(["product", "--construction", "nodding", str(path), "-o", str(out)]) == 0
    assert out.read_text() == (
        "enfa\n"
        "states 3\n"
        "alphabet 1\n"
        "initial 0\n"
        "final 2\n"
        "trans 0 0 1\n"
        "trans 1 - 2\n"
    )
    assert capsys.readouterr().err.splitlines()[1] == "nodding,2,1,2,1,3,2,2"
