"""Compare the CLI's documents field by field between this checkout and another.

    python3 tools/cli_fields.py /path/to/other/checkout

Runs every invocation of ``tools/cli_digest.py`` once from the other
checkout's ``src/`` and once from this one's, one fresh process each. Each
stdout is read as fields: a JSON document, and the plain ``table`` layout of
the same document, by key path, and a CSV table by row and column. Numbers
are compared by value, so a float that canonical JSON prints as ``144``
matches ``144.0``. For every field path that moved (list and row indices
dropped), it prints how many of the invocations that print it moved it, the
largest absolute change, and the largest relative change, taken against the
larger of the two values so that it is at most 2, with the invocation where
that was seen.

Anything else that changed is listed after the table, and the tool then exits
1: an exit code, stderr, a key or column, a string, bool, status or null, a
field's presence, or a number written as an integer on both sides (a count or
cutoff, not a float).
"""

import csv
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
import cli_digest  # noqa: E402

ROOT = cli_digest.ROOT

NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")
INTEGER = re.compile(r"-?\d+")
INDEX = re.compile(r"\[\d+\]")


def _json_fields(value, path: str) -> Iterator[Tuple[str, str]]:
    if isinstance(value, dict):
        if not value:
            yield path, "{}"
        for key, item in value.items():
            yield from _json_fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        if not value:
            yield path, "[]"
        for i, item in enumerate(value):
            yield from _json_fields(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(value)


def _join(names: Sequence[str]) -> str:
    return "".join(name if name.startswith("[") or i == 0 else f".{name}"
                    for i, name in enumerate(names))


def _plain_fields(lines: Sequence[str]) -> Iterator[Tuple[str, str]]:
    """The ``table`` layout: two spaces per level, ``key:`` or ``-`` opens a level."""
    path: List[str] = []
    items: Dict[Tuple[str, ...], int] = {}
    for line in lines:
        text = line.lstrip(" ")
        del path[(len(line) - len(text)) // 2 :]
        if text == "-" or text.startswith("- "):
            index = items[tuple(path)] = items.get(tuple(path), -1) + 1
            name, token, opens = f"[{index}]", text[2:], text == "-"
        elif text.endswith(":") and ": " not in text:
            name, token, opens = text[:-1], "", True
        else:
            name, _, token = text.partition(": ")
            opens = False
        if opens:
            path.append(name)
        else:
            yield _join([*path, name]), token


def fields(text: str) -> Dict[str, str]:
    """Each field of one stdout, by path, as the token it prints."""
    try:
        return dict(_json_fields(json.loads(text), ""))
    except ValueError:
        pass
    lines = text.splitlines()
    if lines and ": " not in lines[0] and "," in lines[0]:
        rows = list(csv.reader(lines))
        return {f"[{i}].{column}": token
                for i, row in enumerate(rows[1:]) for column, token in zip(rows[0], row)}
    return dict(_plain_fields(lines))


def compare(old: str, new: str) -> Tuple[Dict[str, Tuple[float, float]], List[str]]:
    """The numeric moves of one stdout, by path, and every other change, described."""
    before, after = fields(old), fields(new)
    moves: Dict[str, Tuple[float, float]] = {}
    breaks = [f"{path}: only in the other checkout" for path in before if path not in after]
    breaks += [f"{path}: only in this checkout" for path in after if path not in before]
    for path in before.keys() & after.keys():
        a, b = before[path], after[path]
        if a == b:
            continue
        if NUMBER.fullmatch(a) and NUMBER.fullmatch(b):
            x, y = float(a), float(b)
            if x == y:
                continue
            if not (INTEGER.fullmatch(a) and INTEGER.fullmatch(b)):
                change = abs(y - x)
                moves[path] = (change, change / max(abs(x), abs(y)))
                continue
        breaks.append(f"{path}: {a} -> {b}")
    return moves, breaks


def main(args: Sequence[str]) -> int:
    if len(args) != 1:
        raise SystemExit("usage: cli_fields.py OTHER_ROOT")
    other = Path(args[0]).resolve()
    runs = cli_digest.invocations()
    # per field label: invocations printing it, moving it, largest changes, where
    table: Dict[str, list] = {}
    breaks: List[str] = []
    changed = 0
    for env, argv in runs:
        command = cli_digest.command_line(env, argv)
        old, new = cli_digest.run(other, env, argv), cli_digest.run(ROOT, env, argv)
        changed += old.stdout != new.stdout
        if old.returncode != new.returncode:
            breaks.append(f"{command}: exit code {old.returncode} -> {new.returncode}")
        if old.stderr != new.stderr:
            breaks.append(f"{command}: stderr changed")
        moves, others = compare(old.stdout.decode(), new.stdout.decode())
        breaks += [f"{command}: {line}" for line in others]

        def label(path: str) -> str:
            return f"{argv[0]} {INDEX.sub('[]', path)}"

        for name in {label(path) for path in fields(new.stdout.decode())}:
            table.setdefault(name, [0, 0, 0.0, 0.0, ""])[0] += 1
        for name in {label(path) for path in moves}:
            table[name][1] += 1
        for path, (change, relative) in moves.items():
            row = table[label(path)]
            row[2] = max(row[2], change)
            if relative > row[3]:
                row[3], row[4] = relative, command
    print(f"{changed} of {len(runs)} invocations print different stdout")
    print(f"{'field':<44} {'moved':>7} {'max abs':>9} {'max rel':>9}  at")
    for name, (printed, moved, change, relative, where) in sorted(table.items()):
        if moved:
            print(f"{name:<44} {f'{moved}/{printed}':>7} {change:9.2e} {relative:9.2e}  {where}")
    for line in breaks:
        print(f"CHANGED {line}")
    return 1 if breaks else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
