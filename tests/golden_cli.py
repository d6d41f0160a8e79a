"""The CLI's outputs on the acceptance corpus, as digests.

For each corpus bundle, in corpus order, ``cli.main`` runs ``decide``,
``certify``, ``verify`` on the written certificate, and ``product`` under
each construction.  A command's record is its arguments, exit code,
stdout, stderr and the file it wrote, with the scratch directory written
as ``$DIR``.  ``cli_golden.txt`` holds one line per bundle: its name, the
SHA-256 of all its records, then ``command=`` and the first 8 hex digits of
each record's SHA-256, so a mismatch names the command that changed.  The
sweep builds the argument parser once and hands it to every ``cli.main``
call, which would otherwise build the same parser each time (a third of the
sweep).

Rewrite the file, only for an output change named in CHANGES.md, with::

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path
from unittest import mock

from nfai import cli
from nfai.fileformat import serialize_bundle
from nfai.products import CONSTRUCTIONS

from helpers import acceptance_corpus

GOLDEN = Path(__file__).with_name("cli_golden.txt")

#: (command name, arguments over the bundle B, certificate C and output P, written file)
COMMANDS = (
    ("decide", ["decide", "B"], None),
    ("certify", ["certify", "B", "-o", "C"], "C"),
    ("verify", ["verify", "B", "C"], None),
) + tuple((f"product-{c}", ["product", "--construction", c, "B", "-o", "P"], "P") for c in CONSTRUCTIONS)


def _record(args: list, files: dict, written) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([files.get(arg, arg) for arg in args])
    text = Path(files[written]).read_text() if written else ""
    root = str(Path(files["B"]).parent)
    parts = [" ".join(args), str(code), out.getvalue(), err.getvalue(), text]
    return "\0".join(part.replace(root, "$DIR") for part in parts).encode()


def bundle_lines() -> list:
    """One golden line per corpus bundle, in corpus order."""
    lines = []
    parser = cli.build_parser()
    with tempfile.TemporaryDirectory() as root, mock.patch.object(cli, "build_parser", lambda: parser):
        files = {name: str(Path(root) / name) for name in ("B", "C", "P")}
        for name, bundle in acceptance_corpus():
            Path(files["B"]).write_text(serialize_bundle(bundle))
            whole = hashlib.sha256()
            tags = []
            for command, args, written in COMMANDS:
                record = _record(args, files, written)
                whole.update(record + b"\1")
                tags.append(f"{command}={hashlib.sha256(record).hexdigest()[:8]}")
            lines.append(" ".join([name, whole.hexdigest()] + tags))
    return lines


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in bundle_lines()))
    print(f"wrote {GOLDEN}")
