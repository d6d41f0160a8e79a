"""The CLI's outputs on the acceptance corpus stay byte-identical: every
command's digest equals the one pinned in ``cli_golden.txt`` (see
``golden_cli.py``, which rewrites it)."""

from golden_cli import GOLDEN, bundle_lines


def _first_difference(expected: list, got: list) -> str:
    for want, have in zip(expected, got):
        if want != have:
            name, _, *tags = want.split()
            changed = [tag for tag, now in zip(tags, have.split()[2:]) if tag != now]
            return f"bundle {name}, command {changed[0].split('=')[0] if changed else '(tags agree, digest differs)'}"
    return f"{len(expected)} golden lines against {len(got)} bundles"


def test_cli_outputs_match_the_golden_digests():
    expected = GOLDEN.read_text().splitlines()
    got = bundle_lines()
    assert got == expected, f"CLI output differs from {GOLDEN.name}: first at {_first_difference(expected, got)}"
