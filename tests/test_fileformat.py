import pytest

from nfai.automata import EPSILON, EpsilonNfa, Nfa
from nfai.fileformat import (
    FormatError,
    parse_automaton,
    parse_bundle,
    parse_documents,
    serialize_automaton,
    serialize_bundle,
)
from nfai.hardness import clique_bundle, random_nfa
from nfai.relations import MultiTapeAutomaton, equality_relation

from helpers import example_clique_graph

MINIMAL = """
nfa
states 1
alphabet 1
initial 0
final
"""


def test_minimal_file():
    a = parse_automaton(MINIMAL)
    assert a == Nfa(1, 1, (), 0, frozenset())


def test_roundtrip_simple():
    a = Nfa(5, 3, ((0, 1, 3), (3, 2, 4), (4, 0, 4)), 0, frozenset({2, 4}))
    assert parse_automaton(serialize_automaton(a)) == a


def test_roundtrip_epsilon():
    a = EpsilonNfa(3, 2, ((0, EPSILON, 1), (1, 1, 2)), 0, frozenset({2}))
    text = serialize_automaton(a)
    assert "trans 0 - 1" in text
    assert parse_automaton(text) == a


def test_roundtrip_example_clique_dfas():
    bundle = clique_bundle(example_clique_graph(), 4)
    text = serialize_bundle(bundle, headers=["dfa"] * bundle.k)
    assert parse_bundle(text) == bundle


def test_roundtrip_multitape():
    c = equality_relation(3, 2)
    assert parse_automaton(serialize_automaton(c)) == c


def test_roundtrip_random():
    for seed in range(5):
        a = random_nfa(5, 3, 0.4, ("io", seed))
        assert parse_automaton(serialize_automaton(a)) == a


def test_out_of_range_destination_reports_line():
    text = "nfa\nstates 2\nalphabet 1\ninitial 0\ntrans 0 0 2\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert err.value.line_no == 5
    assert "out of declared range" in str(err.value)


def test_letter_out_of_range_reports_line():
    text = "nfa\nstates 2\nalphabet 1\ninitial 0\ntrans 0 3 1\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert err.value.line_no == 5


def test_unknown_directive():
    with pytest.raises(FormatError):
        parse_automaton("nfa\nstates 1\nalphabet 1\ninitial 0\nbogus 1\n")


def test_missing_header():
    with pytest.raises(FormatError):
        parse_automaton("states 1\nalphabet 1\ninitial 0\n")


def test_missing_declaration():
    with pytest.raises(FormatError) as err:
        parse_automaton("nfa\nstates 1\ninitial 0\n")
    assert "alphabet" in str(err.value)


def test_dfa_header_validates_determinism():
    good = "dfa\nstates 2\nalphabet 1\ninitial 0\nfinal 1\ntrans 0 0 1\n"
    assert parse_automaton(good) == Nfa(2, 1, ((0, 0, 1),), 0, frozenset({1}))
    bad = good + "trans 0 0 0\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(bad)
    assert err.value.line_no == 7
    assert "nondeterministic" in str(err.value)


def test_duplicate_transitions_are_dropped():
    text = "nfa\nstates 2\nalphabet 1\ninitial 0\ntrans 0 0 1\ntrans 0 0 1\n"
    assert parse_automaton(text).m == 1


def test_epsilon_only_in_enfa():
    text = "nfa\nstates 2\nalphabet 1\ninitial 0\ntrans 0 - 1\n"
    with pytest.raises(FormatError):
        parse_automaton(text)


def test_letter_name_table():
    text = (
        "nfa\nstates 2\nalphabet 3\nletters a b c\ninitial 0\nfinal 1\n"
        "trans 0 b 1\ntrans 1 2 1\n"
    )
    a = parse_automaton(text)
    assert a.transitions == ((0, 1, 1), (1, 2, 1))


def test_name_table_size_mismatch():
    with pytest.raises(FormatError):
        parse_automaton("nfa\nstates 1\nalphabet 2\nletters a\ninitial 0\n")


def test_bundle_blocks_and_comments():
    text = (
        "# two one-state automata\n"
        "nfa\nstates 1\nalphabet 1\ninitial 0\nfinal 0\ntrans 0 0 0\n"
        "---\n"
        "nfa\nstates 1\nalphabet 1  # same alphabet\ninitial 0\nfinal 0\n"
    )
    bundle = parse_bundle(text)
    assert bundle.k == 2
    assert bundle.automata[0].m == 1


def test_bundle_rejects_epsilon_blocks():
    text = (
        "enfa\nstates 1\nalphabet 1\ninitial 0\nfinal 0\n"
        "---\n"
        "nfa\nstates 1\nalphabet 1\ninitial 0\nfinal 0\n"
    )
    with pytest.raises(ValueError):
        parse_bundle(text)
    with pytest.raises(FormatError, match="^line 1: "):
        parse_bundle(text)


def test_bundle_block_errors_name_the_block_line():
    first = "nfa\nstates 1\nalphabet 1\ninitial 0\n"
    with pytest.raises(FormatError, match="^line 6: block alphabet 2 differs"):
        parse_bundle(first + "---\nnfa\nstates 1\nalphabet 2\ninitial 0\n")
    with pytest.raises(FormatError, match="^line 4: a bundle needs at least two automata"):
        parse_bundle(first)
    with pytest.raises(FormatError, match="^line 4: alphabet size must be non-negative"):
        parse_bundle("nfa\nstates 1\nalphabet -1\ninitial 0\n")  # checked when the block ends


def test_parse_documents_counts_blocks():
    text = MINIMAL + "---\n" + MINIMAL
    assert len(parse_documents(text)) == 2
    with pytest.raises(FormatError):
        parse_automaton(text)


def test_empty_file():
    with pytest.raises(FormatError):
        parse_documents("   \n# nothing here\n")


def test_mtnfa_requires_tapes():
    text = "mtnfa\nstates 1\nalphabet 1\ninitial 0\nfinal 0\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert "tapes" in str(err.value)


@pytest.mark.parametrize("line", ["states 2", "alphabet 1", "tapes 1", "letters a", "initial 0", "final 1"])
def test_repeated_declaration_is_refused_at_its_line(line):
    block = ["mtnfa", "states 2", "alphabet 1", "tapes 1", "letters a", "initial 0", "final 1"]
    at = block.index(line) + 1
    text = "\n".join(block[:at] + [line] + block[at:]) + "\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert err.value.line_no == at + 1
    assert str(err.value) == f"line {at + 1}: duplicate {line.split()[0]!r} line"


def test_mtnfa_roundtrip_and_tape_range():
    c = MultiTapeAutomaton(2, 1, 2, ((0, 0, 0, 1), (1, 0, 1, 0)), 0, frozenset({0}))
    assert parse_automaton(serialize_automaton(c)) == c
    bad = "mtnfa\nstates 1\nalphabet 1\ntapes 2\ninitial 0\ntrans 0 0 2 0\n"
    with pytest.raises(FormatError):
        parse_automaton(bad)
