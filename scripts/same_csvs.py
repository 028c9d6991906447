"""Compare two directories of harness CSVs, ignoring each file's timestamp line.

    python scripts/same_csvs.py DIR_A DIR_B

Every ``*.csv`` below either directory is paired with the file at the same
relative path in the other.  A pair is identical when the two files are
equal byte for byte once their ``# timestamp`` lines are dropped; a file with
no partner is missing.  Prints each differing path followed by the names of
the columns whose cells differ ("columns: none" when only the ``#`` lines do),
each missing path, then "N identical, M differing, K missing", and exits 1
unless M = K = 0.
"""

from __future__ import annotations

import csv
import itertools
import sys
from pathlib import Path

TIMESTAMP = b"# timestamp"


def _body(path: Path) -> list[bytes]:
    return [ln for ln in path.read_bytes().splitlines(keepends=True)
            if not ln.startswith(TIMESTAMP)]


def _table(body: list[bytes]) -> tuple[list[str], list[dict[str, str]]]:
    """(header, rows keyed by column) of a CSV body; ``#`` lines are skipped."""
    reader = csv.reader(ln.decode() for ln in body if not ln.startswith(b"#"))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]


def differing_columns(body_a: list[bytes], body_b: list[bytes]) -> list[str]:
    """Columns whose cells differ between two CSV bodies, in header order.

    Rows pair by position, so a row that only one body has differs in every
    column; a column that only one header has differs too.
    """
    (head_a, rows_a), (head_b, rows_b) = _table(body_a), _table(body_b)
    return [name for name in dict.fromkeys(head_a + head_b)
            if name not in head_a or name not in head_b
            or any((ra or {}).get(name) != (rb or {}).get(name)
                   for ra, rb in itertools.zip_longest(rows_a, rows_b))]


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], list[str], list[str]]:
    """(identical, differing, missing) relative paths, each sorted."""
    a = {p.relative_to(dir_a).as_posix() for p in dir_a.rglob("*.csv")}
    b = {p.relative_to(dir_b).as_posix() for p in dir_b.rglob("*.csv")}
    identical, differing = [], []
    for rel in sorted(a & b):
        same = _body(dir_a / rel) == _body(dir_b / rel)
        (identical if same else differing).append(rel)
    return identical, differing, sorted(a ^ b)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    identical, differing, missing = compare(dir_a, dir_b)
    for rel in differing:
        print(f"differs: {rel}")
        cols = differing_columns(_body(dir_a / rel), _body(dir_b / rel))
        print(f"  columns: {', '.join(cols) if cols else 'none'}")
    for rel in missing:
        print(f"missing: {rel}")
    print(f"{len(identical)} identical, {len(differing)} differing, {len(missing)} missing")
    return 1 if differing or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
