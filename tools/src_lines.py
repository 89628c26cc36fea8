"""Physical and executable lines of Python modules, per module and in total.

Usage:

    python3 tools/src_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively; the default
is ``src/codedswitch``.  A line is executable when some token of code lies on
it: blank lines, comment-only lines and docstring lines (a string literal
that stands alone as a statement) are not.  The last row totals the
modules.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_PATH = "src/codedswitch"
# the tokens, other than comments and blank-line breaks, that are not code:
# they end a statement or change its indentation
STATEMENT_EDGE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def executable_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    rows: set = set()
    for i, tok in enumerate(tokens):
        if tok.type in STATEMENT_EDGE:
            continue
        # a string alone in its statement is a docstring (ENDMARKER ends every list)
        if (tok.type == tokenize.STRING and tokens[i + 1].type in STATEMENT_EDGE
                and (i == 0 or tokens[i - 1].type in STATEMENT_EDGE)):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def count(path: Path) -> tuple:
    """(physical lines, executable lines) of one module."""
    source = path.read_text(encoding="utf-8")
    return len(source.splitlines()), executable_lines(source)


def modules(paths) -> list:
    out = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", default=[DEFAULT_PATH],
                    help=f".py files or directories (default {DEFAULT_PATH})")
    args = ap.parse_args(argv)
    rows = [(str(path), *count(path)) for path in modules(args.paths)]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  physical  executable")
    for name, physical, executable in rows:
        print(f"{name:<{width}}  {physical:>8}  {executable:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
