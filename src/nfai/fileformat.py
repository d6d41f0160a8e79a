"""Text format for automata, bundles, and multi-tape automata.

One automaton per file, or several separated by ``---`` lines::

    nfa            # or "enfa" / "dfa" / "mtnfa"
    states 5
    alphabet 3     # optional name table: "letters a b c"
    initial 0
    final 2 4
    trans 0 1 3    # src letter dst; letter "-" means epsilon (enfa only)

A ``dfa`` header additionally validates determinism (at most one outgoing
transition per state and letter).  Multi-tape automata use an ``mtnfa``
header, a ``tapes k`` line, and ``trans src letter tape dst`` lines.
``#`` starts a comment; blank lines are ignored.  Each declaration
(``states``, ``alphabet``, ``tapes``, ``letters``, ``initial``, ``final``)
appears at most once per block; a repeated one is refused at its line.
Duplicate transitions are silently dropped (the transition relation is a
set).

The graph and certificate readers share this module's comment strip and
field reader, so the three untrusted formats read a directive line alike.
"""

from __future__ import annotations

from typing import List, Optional, Union

from .automata import EPSILON, EpsilonNfa, InstanceBundle, Nfa
from .relations import MultiTapeAutomaton

HEADERS = ("nfa", "enfa", "dfa", "mtnfa")

Parsed = Union[Nfa, EpsilonNfa, MultiTapeAutomaton]


class FormatError(ValueError):
    """Parse error carrying the 1-based line number of the offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _strip(line: str) -> str:
    """``line`` without its ``#`` comment and surrounding whitespace."""
    return line.split("#", 1)[0].strip()


def fields(no: int, parts: List[str], usage: str, count: Optional[int] = None, last=int) -> list:
    """The fields after the directive ``parts[0]`` on line ``no``, ``count``
    of them unless None; ``last`` converts the final one, ``int`` the
    others.  Any other line is refused as ``'<directive>' takes <usage>``."""
    args = parts[1:]
    if count is None or len(args) == count:
        try:
            return [int(x) for x in args[:-1]] + [last(x) for x in args[-1:]]
        except ValueError:
            pass
    raise FormatError(f"{parts[0]!r} takes {usage}", no)


def once(old, no: int, parts: List[str], new):
    """``new``, unless an earlier ``parts[0]`` line already gave ``old``."""
    if old is not None:
        raise FormatError(f"duplicate {parts[0]!r} line", no)
    return new


class _BlockParser:
    def __init__(self, numbered_lines):
        self.lines = numbered_lines
        self.header = None
        self.n_states = None
        self.n_letters = None
        self.n_tapes = None
        self.initial = None
        self.finals = None
        self.letter_names = None
        self.transitions = []
        self.dfa_targets = {}

    def parse(self) -> Parsed:
        for no, line in self.lines:
            if self.header is None:
                if line not in HEADERS:
                    raise FormatError(f"expected a header ({', '.join(HEADERS)}), got {line!r}", no)
                self.header = line
                continue
            parts = line.split()
            handler = getattr(self, "_dir_" + parts[0], None)
            if handler is None:
                raise FormatError(f"unknown directive {parts[0]!r}", no)
            handler(parts, no)
        return self._finish()

    def _int(self, text: str, no: int) -> int:
        try:
            return int(text)
        except ValueError:
            raise FormatError(f"expected an integer, got {text!r}", no) from None

    def _state(self, text: str, no: int) -> int:
        if self.n_states is None:
            raise FormatError("state index used before 'states' declaration", no)
        q = self._int(text, no)
        if not (0 <= q < self.n_states):
            raise FormatError(f"state {q} out of declared range [0, {self.n_states})", no)
        return q

    def _letter(self, text: str, no: int) -> int:
        if self.n_letters is None:
            raise FormatError("letter used before 'alphabet' declaration", no)
        if text == "-":
            if self.header != "enfa":
                raise FormatError("epsilon transitions are only allowed under an 'enfa' header", no)
            return EPSILON
        if self.letter_names and text in self.letter_names:
            return self.letter_names[text]
        try:
            letter = int(text)
        except ValueError:
            raise FormatError(f"unknown letter {text!r}", no) from None
        if not (0 <= letter < self.n_letters):
            raise FormatError(f"letter {letter} out of declared range [0, {self.n_letters})", no)
        return letter

    def _dir_states(self, parts, no):
        self.n_states = once(self.n_states, no, parts, fields(no, parts, "one count", 1)[0])

    def _dir_alphabet(self, parts, no):
        self.n_letters = once(self.n_letters, no, parts, fields(no, parts, "one count", 1)[0])

    def _dir_tapes(self, parts, no):
        if self.header != "mtnfa":
            raise FormatError("'tapes' is only valid under an 'mtnfa' header", no)
        self.n_tapes = once(self.n_tapes, no, parts, fields(no, parts, "one count", 1)[0])

    def _dir_letters(self, parts, no):
        args = parts[1:]  # names, not integers, so their count is checked here
        if self.n_letters is None:
            raise FormatError("'letters' must come after 'alphabet'", no)
        if len(args) != self.n_letters:
            raise FormatError(f"name table has {len(args)} entries, alphabet declares {self.n_letters}", no)
        self.letter_names = once(self.letter_names, no, parts, {name: i for i, name in enumerate(args)})
        if len(self.letter_names) != len(args):
            raise FormatError("duplicate letter name", no)

    def _dir_initial(self, parts, no):
        self.initial = once(self.initial, no, parts, self._state(fields(no, parts, "one state", 1)[0], no))

    def _dir_final(self, parts, no):
        states = fields(no, parts, "states")
        self.finals = once(self.finals, no, parts, frozenset(self._state(q, no) for q in states))

    def _dir_trans(self, parts, no):
        want = 4 if self.header == "mtnfa" else 3
        if len(parts) != want + 1:
            raise FormatError(f"'trans' takes {want} fields under a {self.header!r} header", no)
        src = self._state(parts[1], no)
        letter = self._letter(parts[2], no)
        if self.header == "mtnfa":
            if self.n_tapes is None:
                raise FormatError("'trans' before 'tapes' declaration", no)
            tape = self._int(parts[3], no)
            if not (0 <= tape < self.n_tapes):
                raise FormatError(f"tape {tape} out of declared range [0, {self.n_tapes})", no)
            dst = self._state(parts[4], no)
            self.transitions.append((src, letter, tape, dst))
            return
        dst = self._state(parts[3], no)
        if self.header == "dfa":
            prev = self.dfa_targets.setdefault((src, letter), dst)
            if prev != dst:
                raise FormatError(
                    f"nondeterministic: state {src} already maps letter {parts[2]} to {prev}", no
                )
        self.transitions.append((src, letter, dst))

    def _finish(self) -> Parsed:
        last_no = self.lines[-1][0]
        required = [("states", self.n_states), ("alphabet", self.n_letters), ("initial", self.initial)]
        for name, value in required:
            if value is None:
                raise FormatError(f"missing '{name}' declaration", last_no)
        finals = self.finals if self.finals is not None else frozenset()
        if self.header == "mtnfa" and self.n_tapes is None:
            raise FormatError("missing 'tapes' declaration", last_no)
        try:  # the constructors check what the directives do not, such as the counts
            if self.header == "mtnfa":
                return MultiTapeAutomaton(
                    self.n_states, self.n_letters, self.n_tapes,
                    tuple(self.transitions), self.initial, finals,
                )
            cls = EpsilonNfa if self.header == "enfa" else Nfa
            return cls(self.n_states, self.n_letters, tuple(self.transitions), self.initial, finals)
        except ValueError as exc:
            raise FormatError(str(exc), last_no) from None


def _blocks(text: str) -> List[list]:
    """The non-empty ``---``-separated blocks of ``text``, as ``(line
    number, stripped line)`` pairs."""
    blocks: List[list] = [[]]
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if line == "---":
            blocks.append([])
        elif line:
            blocks[-1].append((no, line))
    blocks = [block for block in blocks if block]
    if not blocks:
        raise FormatError("no automaton block found", 1)
    return blocks


def parse_documents(text: str) -> List[Parsed]:
    """Parse every ``---``-separated block in ``text``."""
    return [_BlockParser(block).parse() for block in _blocks(text)]


def parse_automaton(text: str) -> Parsed:
    """Parse a single automaton; error if the text holds more than one."""
    docs = parse_documents(text)
    if len(docs) != 1:
        raise FormatError(f"expected a single automaton, found {len(docs)} blocks", 1)
    return docs[0]


def parse_bundle(text: str) -> InstanceBundle:
    """Parse a ``---``-separated file of plain NFA/DFA blocks as a bundle;
    a block that cannot join the bundle is reported at its header line."""
    blocks = _blocks(text)
    docs = [_BlockParser(block).parse() for block in blocks]
    for block, doc in zip(blocks, docs):
        if not isinstance(doc, Nfa):
            raise FormatError("bundle files may only contain 'nfa' or 'dfa' blocks", block[0][0])
        if doc.n_letters != docs[0].n_letters:
            raise FormatError(
                f"block alphabet {doc.n_letters} differs from the first block's {docs[0].n_letters}", block[0][0])
    if len(docs) < 2:
        raise FormatError("a bundle needs at least two automata", blocks[-1][-1][0])
    return InstanceBundle(tuple(docs))


def serialize_automaton(a: Parsed, header: str = None) -> str:
    """Render an automaton in the text format; round-trips structurally."""
    if header is None:
        if isinstance(a, MultiTapeAutomaton):
            header = "mtnfa"
        elif isinstance(a, EpsilonNfa):
            header = "enfa"
        else:
            header = "nfa"
    lines = [header, f"states {a.n_states}", f"alphabet {a.n_letters}"]
    if header == "mtnfa":
        lines.append(f"tapes {a.n_tapes}")
    lines.append(f"initial {a.initial}")
    lines.append(("final " + " ".join(map(str, sorted(a.finals)))).rstrip())
    if header == "mtnfa":
        for (src, letter, tape, dst) in a.transitions:
            lines.append(f"trans {src} {letter} {tape} {dst}")
    else:
        for (src, letter, dst) in a.transitions:
            label = "-" if letter == EPSILON else str(letter)
            lines.append(f"trans {src} {label} {dst}")
    return "\n".join(lines) + "\n"


def serialize_bundle(bundle: InstanceBundle, headers=None) -> str:
    parts = []
    for i, a in enumerate(bundle.automata):
        header = headers[i] if headers else None
        parts.append(serialize_automaton(a, header=header))
    return "---\n".join(parts)
