#!/usr/bin/env python
"""Documentation reference checker: fail on dangling paths and CLI drift.

Scans ``README.md`` and ``docs/*.md`` (or the files given on the command
line) for references to repository files and verifies each one exists:

* inline-code tokens that look like repository paths -- contain a ``/``
  and only path characters (so prose, shell commands, and Python
  expressions are never misread as paths);
* relative markdown link targets ``[text](path)`` (external ``http(s)``
  links and ``#`` anchors are skipped).

Paths are resolved against the repository root first, then against the
referencing document's directory.  A trailing ``/`` means the reference
must be a directory.

It also verifies every documented **CLI invocation** against the live
argparse parser: each ``python -m repro <command> ...`` code span must
name a real subcommand, use only flags that subcommand actually
defines, and give a flag with argparse ``choices`` one of those values
(``--verify full``, not a removed level), so a renamed/removed flag or
value in ``src/repro/cli.py`` fails the docs job instead of silently
stranding the README's flag table.

Used by the CI docs job::

    python tools/check_docs.py

Exit status 0 when every reference resolves, 1 otherwise (each dangling
reference is reported with its file and line).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline code span: `...` (no backticks inside).
_CODE_RE = re.compile(r"`([^`\n]+)`")

#: Markdown link target: [text](target).
_LINK_RE = re.compile(r"\[[^\]\n]*\]\(([^)\s]+)\)")

#: A code token is treated as a repo path only when it is purely
#: path-shaped AND contains a directory separator; bare file names
#: (`data.npy`), commands, and dotted Python names are skipped.
_PATH_TOKEN_RE = re.compile(r"^[A-Za-z0-9_.\-][A-Za-z0-9_.\-/]*/[A-Za-z0-9_.\-/]*$")


def default_docs() -> list[Path]:
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [d for d in docs if d.exists()]


def iter_references(text: str):
    """Yield ``(line_number, reference)`` for every checkable reference."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _CODE_RE.finditer(line):
            token = match.group(1).strip()
            if _PATH_TOKEN_RE.match(token):
                yield lineno, token
        for match in _LINK_RE.finditer(line):
            target = match.group(1).split("#", 1)[0].strip()
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            yield lineno, target


#: CLI invocation inside a code span or console block:
#: ``python -m repro <command> [args...]``.
_CLI_RE = re.compile(r"python -m repro\s+([^`\n]*)")


def _subparsers_action(parser):
    return next(
        (
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        ),
        None,
    )


def _options(parser) -> dict[str, tuple | None]:
    """A parser's option strings, each with its ``choices`` (or None)."""
    return {
        opt: (tuple(str(c) for c in action.choices) if action.choices else None)
        for opt, action in parser._option_string_actions.items()
    }


def _load_cli_commands() -> dict[str, dict[str, tuple | None]]:
    """Map each live CLI subcommand to its accepted option strings, each
    with the values argparse accepts for it (None: any value).

    Imports ``repro.cli`` with ``src/`` on the path; the argparse parser
    itself is the source of truth, so documentation can only drift from
    flags that really exist.  Nested subcommands (``index build``) appear
    as space-joined compound keys next to their parent.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)
    commands: dict[str, dict[str, tuple | None]] = {}
    sub = _subparsers_action(build_parser())
    for name, parser in sub.choices.items():
        commands[name] = _options(parser)
        nested = _subparsers_action(parser)
        if nested is not None:
            for sub_name, sub_parser in nested.choices.items():
                commands[f"{name} {sub_name}"] = {
                    **_options(parser), **_options(sub_parser)
                }
    return commands


def iter_cli_invocations(text: str, nested: tuple[str, ...] = ()):
    """Yield ``(line_number, command, [(flag, value), ...])`` for
    documented CLI calls.

    ``value`` is the flag's ``=value`` or the token after it (None when
    the flag ends the span or a placeholder follows); whether the flag
    takes a value at all is the parser's business, so it is only read
    for flags with ``choices``.  Placeholder spans (``python -m repro
    <experiment>``) and bare mentions without a concrete command are
    skipped.  ``nested`` names commands with sub-subcommands: their
    following bare token joins the command (``index build``), so the
    flag check runs against the right nested parser.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _CLI_RE.finditer(line):
            tokens = [
                tok.rstrip("`|,.;:)")
                for tok in match.group(1).replace("\\", " ").split()
            ]
            command = None
            flags: list[tuple[str, str | None]] = []
            for i, tok in enumerate(tokens):
                if "<" in tok or ">" in tok:
                    continue
                if tok.startswith("--"):
                    flag, eq, value = tok.partition("=")
                    if not eq:
                        nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
                        plain = nxt and not nxt.startswith("-")
                        value = nxt if plain and "<" not in nxt else None
                    flags.append((flag, value))
                elif not tok.startswith("-"):
                    if command is None:
                        command = tok
                    elif command in nested:
                        command = f"{command} {tok}"
            if command is not None:
                yield lineno, command, flags


def check_cli_invocations(
    doc: Path, commands: dict[str, dict[str, tuple | None]]
) -> list[str]:
    """Verify a document's CLI calls (commands, flags and the values of
    flags with ``choices``) against the live parser."""
    errors = []
    try:
        shown = doc.relative_to(REPO_ROOT)
    except ValueError:
        shown = doc
    nested = tuple({k.split()[0] for k in commands if " " in k})
    for lineno, command, flags in iter_cli_invocations(doc.read_text(), nested):
        if command not in commands:
            errors.append(
                f"{shown}:{lineno}: documented CLI command "
                f"`python -m repro {command}` does not exist"
            )
            continue
        for flag, value in flags:
            if flag not in commands[command]:
                errors.append(
                    f"{shown}:{lineno}: `python -m repro {command}` has no "
                    f"`{flag}` flag"
                )
                continue
            choices = commands[command][flag]
            if choices is not None and value is not None and value not in choices:
                errors.append(
                    f"{shown}:{lineno}: `python -m repro {command} {flag}` "
                    f"takes one of {', '.join(choices)}, not `{value}`"
                )
    return errors


def check_file(doc: Path) -> list[str]:
    """Return error strings for the dangling references of one document."""
    errors = []
    for lineno, ref in iter_references(doc.read_text()):
        want_dir = ref.endswith("/")
        candidates = [REPO_ROOT / ref, doc.parent / ref]
        ok = any(
            c.is_dir() if want_dir else c.exists() for c in candidates
        )
        if not ok:
            try:
                shown = doc.relative_to(REPO_ROOT)
            except ValueError:  # document outside the repository
                shown = doc
            errors.append(f"{shown}:{lineno}: dangling reference `{ref}`")
    return errors


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    docs = [Path(a).resolve() for a in args] if args else default_docs()
    try:
        commands = _load_cli_commands()
    except Exception as exc:  # missing numpy, broken parser, ...
        commands = None
        print(f"warning: CLI flag check skipped ({exc})", file=sys.stderr)
    errors: list[str] = []
    checked = 0
    for doc in docs:
        if not doc.exists():
            errors.append(f"{doc}: document not found")
            continue
        checked += 1
        errors.extend(check_file(doc))
        if commands is not None:
            errors.extend(check_cli_invocations(doc, commands))
    for err in errors:
        print(err, file=sys.stderr)
    print(f"checked {checked} document(s): "
          + ("OK" if not errors else f"{len(errors)} problem(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
