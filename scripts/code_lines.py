#!/usr/bin/env python3
"""Count code lines: the one definition simplicity PRs quote.

A *code line* is a physical line of a ``.py`` file that is not blank,
not comment-only and not part of a docstring or any other bare string
statement (found with :mod:`ast`, so an ``\"\"\"attribute doc\"\"\"`` under
an assignment does not count either). Denser formatting still moves the
number; deleting docs or comments does not.

    python scripts/code_lines.py src                  # per file, per package
    python scripts/code_lines.py --diff origin/main src
    python scripts/code_lines.py --max 1101 src/repro/core/cache.py ...  # a budget: exit 1 over it

``--diff REV`` prints before / after / delta against ``git show
REV:<path>`` for every file that exists on either side.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from collections import defaultdict
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    strings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - strings)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, stdout=subprocess.PIPE, text=True
    ).stdout


def _working_tree(paths: list[str]) -> dict[str, int]:
    files = (
        file
        for path in map(Path, paths)
        for file in ([path] if path.is_file() else sorted(path.rglob("*.py")))
    )
    return {file.as_posix(): code_lines(file.read_text()) for file in files}


def _at_revision(rev: str, paths: list[str]) -> dict[str, int]:
    listing = _git("ls-tree", "-r", "--name-only", rev, "--", *paths)
    return {
        name: code_lines(_git("show", f"{rev}:{name}"))
        for name in listing.splitlines()
        if name.endswith(".py")
    }


def _report(before: dict[str, int] | None, after: dict[str, int]) -> str:
    """One row per file, one per package (directory), one total."""
    old_counts = before or {}
    files = [
        (name, old_counts.get(name, 0), after.get(name, 0))
        for name in sorted(set(after) | set(old_counts))
    ]
    packages: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for name, old, new in files:
        package = packages[Path(name).parent.as_posix() + "/"]
        package[0] += old
        package[1] += new
    rows = files + [(name, *counts) for name, counts in sorted(packages.items())]
    rows.append(("total", sum(f[1] for f in files), sum(f[2] for f in files)))
    width = max(len(name) for name, __, __ in rows)
    if before is None:
        return "\n".join(f"{name:{width}}  {new:6d}" for name, __, new in rows)
    return "\n".join(
        f"{name:{width}}  {old:6d}  {new:6d}  {new - old:+6d}"
        for name, old, new in rows
        if old != new or name == "total"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--diff", metavar="REV", help="compare against a git revision")
    parser.add_argument(
        "--max", type=int, metavar="N", help="exit 1 if the working tree's total exceeds N"
    )
    args = parser.parse_args(argv)
    before = _at_revision(args.diff, args.paths) if args.diff else None
    after = _working_tree(args.paths)
    print(_report(before, after))
    total = sum(after.values())
    if args.max is not None and total > args.max:
        print(f"code lines: {total} exceeds the budget of {args.max}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
