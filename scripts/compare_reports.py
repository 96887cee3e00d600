#!/usr/bin/env python3
"""List how far the numbers of two sets of scenario outputs are apart.

    python3 scripts/compare_reports.py A/out B/out

Each argument is an output root such as ``out/`` after
``scripts/run_experiments.py``: one directory per scenario holding
``report.json`` and ``cases.csv``.  For every scenario the script says
whether both files are byte-identical; if not, it prints each numeric field
of ``report.json`` that moved (list indices dropped, so ``cases.eigenvalue``
covers every case) with its worst absolute change |a - b| and worst
relative change |a - b| / max(|a|, |b|) over all values, and how many
values moved.
"Moves by rounding only" is then a listed number rather than a hash
mismatch.  Anything else that differs (a string, a key, a list length, a
missing file) is printed as a structural difference, and the exit status
is 1 if there is any.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

FILES = ("report.json", "cases.csv")


def _walk(a, b, path: str, numbers: dict, structure: list) -> None:
    """Pair the leaves of two JSON values; numbers go to ``numbers[path]``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                structure.append(f"{sub}: only in {'B' if key not in a else 'A'}")
            else:
                _walk(a[key], b[key], sub, numbers, structure)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            structure.append(f"{path}: {len(a)} against {len(b)} entries")
        for x, y in zip(a, b):
            _walk(x, y, path, numbers, structure)
    elif _is_number(a) and _is_number(b):
        numbers[path].append((float(a), float(b)))
    elif a != b:
        structure.append(f"{path}: {a!r} against {b!r}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _changes(pairs: list[tuple[float, float]]) -> tuple[float, float, int]:
    """Worst absolute and relative change, and how many values moved."""
    worst_abs = worst_rel = 0.0
    moved = 0
    for a, b in pairs:
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        moved += 1
        diff = abs(a - b)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(a), abs(b)))
    return worst_abs, worst_rel, moved


def compare(root_a: Path, root_b: Path) -> int:
    status = 0
    for name in sorted({p.name for p in root_a.iterdir() if p.is_dir()}
                       | {p.name for p in root_b.iterdir() if p.is_dir()}):
        a, b = root_a / name, root_b / name
        missing = [str(d / f) for d in (a, b) for f in FILES if not (d / f).exists()]
        if missing:
            print(f"{name}: missing {', '.join(missing)}")
            status = 1
            continue
        if all((a / f).read_bytes() == (b / f).read_bytes() for f in FILES):
            print(f"{name}: identical")
            continue
        numbers: dict[str, list] = defaultdict(list)
        structure: list[str] = []
        _walk(json.loads((a / "report.json").read_text()),
              json.loads((b / "report.json").read_text()), "", numbers, structure)
        changes = {path: _changes(pairs) for path, pairs in sorted(numbers.items())}
        still = sum(1 for *_, moved in changes.values() if not moved)
        print(f"{name}: differs ({still} numeric fields unchanged)")
        for path, (worst_abs, worst_rel, moved) in changes.items():
            if moved:
                print(f"  {path:<24} abs {worst_abs:.2e}  rel {worst_rel:.2e}  "
                      f"({moved} of {len(numbers[path])} moved)")
        for line in structure:
            print(f"  structure: {line}")
            status = 1
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
