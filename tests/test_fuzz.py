"""Mutation fuzzing of the untrusted inputs: bundle, graph and certificate
texts.

Valid texts are mutated - tokens swapped, lines dropped, lines inserted,
numbers redeclared as counts up to 64 - and each parser must either parse
the result or raise ``FormatError``; the certificate parser must also
agree with the reference in ``helpers``.  ``cli.main`` must answer 0, 1 or
2 without raising on ``decide``, ``certify``, ``verify``, ``product`` and
``gen``.
"""

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nfai.certificates import (
    extract_short_pathset, extract_staggered_cut, parse_certificate, serialize_certificate,
)
from nfai.cli import main
from nfai.decision import decide_empty
from nfai.fileformat import FormatError, parse_bundle, serialize_automaton, serialize_bundle
from nfai.hardness import clique_bundle, parse_graph, random_bundle, random_graph, serialize_graph
from nfai.products import CONSTRUCTIONS

from helpers import example_clique_graph, parse_certificate_reference


def _certificate(bundle) -> str:
    decided = decide_empty(bundle)
    if decided.empty:
        return serialize_certificate(extract_staggered_cut(bundle))
    return serialize_certificate(extract_short_pathset(bundle, decided))


_BUNDLES = [random_bundle(k, n, l, d, ("fuzz", seed))
            for seed, (k, n, l, d) in enumerate([(2, 3, 2, 0.5), (2, 2, 1, 1.0), (3, 2, 2, 0.5), (2, 4, 3, 0.2)])]
_BUNDLES.append(clique_bundle(example_clique_graph(), 4))
BUNDLE_TEXTS = [serialize_bundle(b) for b in _BUNDLES] + [serialize_automaton(_BUNDLES[0].automata[0])]
PAIRS = [(serialize_bundle(b), _certificate(b)) for b in _BUNDLES]
CERT_TEXTS = [cert for _, cert in PAIRS]
GRAPH_TEXTS = [serialize_graph(example_clique_graph()), serialize_graph(random_graph(6, 0.5, 1))]

COUNT = st.integers(-1, 64)

#: Texts that once escaped the parsers as bare ValueErrors: blocks over
#: different alphabets, a negative alphabet, and a single block.
ESCAPED = [
    "nfa\nstates 1\nalphabet 1\ninitial 0\n---\nnfa\nstates 1\nalphabet 2\ninitial 0\n",
    "nfa\nstates 1\nalphabet -1\ninitial 0\n---\nnfa\nstates 1\nalphabet -1\ninitial 0\n",
    "nfa\nstates 1\nalphabet 1\ninitial 0\n",
]


def _line(words, fields=COUNT):
    """An inserted line: one of ``words`` and up to three fields."""
    return st.builds(lambda word, args: " ".join([word, *map(str, args)]),
                     st.sampled_from(words), st.lists(fields, max_size=3))


BUNDLE_LINES = _line(["nfa", "dfa", "enfa", "mtnfa", "---", "states", "alphabet", "initial", "final",
                      "trans", "tapes", "letters"])
GRAPH_LINES = _line(["graph", "edge"])
CERT_LINES = _line(["nfa-cert v1", "pathset", "cut", "k", "word", "run", "step", "alphabet", "states",
                    "set"], st.one_of(COUNT, st.binary(max_size=4).map(bytes.hex)))


@st.composite
def mutated(draw, texts, inserted):
    lines = [line.split() for line in draw(st.sampled_from(texts)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("swap", "drop", "insert", "count")))
        numbers: dict = {}  # the numeric fields by directive, so that rare declarations get picked
        for i, line in enumerate(lines):
            for j, token in enumerate(line):
                if token.lstrip("-").isdigit():
                    numbers.setdefault(line[0], []).append((i, j))
        if op == "count" and numbers:
            i, j = draw(st.sampled_from(numbers[draw(st.sampled_from(sorted(numbers)))]))
            lines[i][j] = str(draw(COUNT))
        elif op == "insert":
            lines.insert(draw(st.integers(0, len(lines))), draw(inserted).split())
        elif op == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif op == "swap":
            tokens = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
            if tokens:
                (i, j), (p, q) = draw(st.sampled_from(tokens)), draw(st.sampled_from(tokens))
                lines[i][j], lines[p][q] = lines[p][q], lines[i][j]
    return "".join(" ".join(line) + "\n" for line in lines)


def _parses_or_format_error(parse, text):
    try:
        parse(text)
    except FormatError:
        pass


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutated(BUNDLE_TEXTS, BUNDLE_LINES))
@example(ESCAPED[0])
@example(ESCAPED[1])
@example(ESCAPED[2])
def test_bundle_parser_raises_only_format_errors(text):
    _parses_or_format_error(parse_bundle, text)


@FUZZ
@given(mutated(GRAPH_TEXTS, GRAPH_LINES))
def test_graph_parser_raises_only_format_errors(text):
    _parses_or_format_error(parse_graph, text)


@FUZZ
@given(mutated(CERT_TEXTS, CERT_LINES))
def test_certificate_parser_raises_only_format_errors(text):
    _parses_or_format_error(parse_certificate, text)


#: The errors of lines that the reference parser silently kept or dropped: a
#: repeated directive or subset, and a subset outside the declared cut.
NOW_REFUSED = re.compile(r"line \d+: (duplicate '|'set -?\d+ -?\d+' is outside )")

#: A valid cut in the form ``serialize_certificate`` writes.
CUT = "nfa-cert v1\ncut\nk 2\nalphabet 2\nstates 2 3\nset 0 0 0f\nset 0 1 0f\nset 1 0 3f\nset 1 1 3f\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return exc


@FUZZ
@given(mutated(CERT_TEXTS, CERT_LINES))
@example(CUT)
@example(CUT.replace("3f", "3F"))
@example(CUT.replace("set 0 1 0f", "set 0 1 0f # base copy"))
@example(CUT.replace("\n", "\r\n"))
@example(CUT.replace("set 1 0 3f", "set 1 0\x0c3f"))
@example(CUT.replace("k 2", "k 2\x0calphabet 2"))
@example(CUT.replace("k 2", "k \u0662"))
@example(CUT.replace("set 1 1 3f", "set 1 1 3 f"))
@example(CUT.replace("set 1 1 3f", "set 1 1 3\tf"))
@example(CUT.replace("set 0 0 0f", "\tset  0 0\u00a00f  "))
@example(CUT.replace("set 0 0 0f", "set 0 0 0f\u2028"))
def test_certificate_parser_matches_reference(text):
    """The one-pass parser returns the reference's certificate or raises
    its message at its line, except where it refuses a repeated or
    out-of-range line, which the reference kept or dropped: then the
    reference accepts, or fails no earlier than that line."""
    got, want = _outcome(parse_certificate, text), _outcome(parse_certificate_reference, text)
    if isinstance(got, FormatError) and NOW_REFUSED.match(str(got)):
        assert not isinstance(want, FormatError) or want.line_no >= got.line_no
    elif isinstance(want, FormatError):
        assert isinstance(got, FormatError) and str(got) == str(want)
    else:
        assert got == want


def _run(files: dict, *argv) -> int:
    """``cli.main(argv)`` in a fresh directory holding ``files``, output
    swallowed."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        args = [Path(tmp, arg) if arg in files or arg == "out" else arg for arg in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main([str(arg) for arg in args])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(BUNDLE_TEXTS, BUNDLE_LINES), st.sampled_from(("decide", "certify")))
def test_cli_decides_and_certifies_mutated_bundles(text, command):
    argv = ["decide", "b.nfa"] if command == "decide" else ["certify", "b.nfa", "-o", "out"]
    assert _run({"b.nfa": text}, *argv) in (0, 1, 2)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_verifies_mutated_certificates(data):
    bundle, cert = data.draw(st.sampled_from(PAIRS))
    which = data.draw(st.sampled_from(("bundle", "certificate", "both")))
    if which != "certificate":
        bundle = data.draw(mutated([bundle], BUNDLE_LINES))
    if which != "bundle":
        cert = data.draw(mutated([cert], CERT_LINES))
    assert _run({"b.nfa": bundle, "c.cert": cert}, "verify", "b.nfa", "c.cert") in (0, 1, 2)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(BUNDLE_TEXTS, BUNDLE_LINES), st.sampled_from(CONSTRUCTIONS), st.booleans())
def test_cli_builds_products_of_mutated_bundles(text, construction, full):
    argv = ["product", "--construction", construction, "b.nfa", "-o", "out"] + ["--full"] * full
    assert _run({"b.nfa": text}, *argv) in (0, 1, 2)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(GRAPH_TEXTS, GRAPH_LINES), st.integers(1, 6))
def test_cli_generates_from_mutated_graphs(text, k):
    assert _run({"g.graph": text}, "gen", "clique", "--graph", "g.graph", "--k", str(k), "-o", "out") in (0, 1, 2)
