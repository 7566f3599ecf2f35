"""Plain-text serialization of edges and capacities.

The on-disk formats are deliberately simple (TSV), matching what one
would feed a real Hadoop job:

* edge files: ``item <TAB> consumer <TAB> weight`` per line;
* capacity files: ``node <TAB> capacity`` per line.

All readers are streaming and validate as they parse.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

__all__ = [
    "write_edges",
    "read_edges",
    "write_capacities",
    "read_capacities",
]

EdgeRow = Tuple[str, str, float]


def write_edges(path: str, edges: Iterable[EdgeRow]) -> int:
    """Write ``(u, v, weight)`` rows as TSV; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for u, v, weight in edges:
            handle.write(f"{u}\t{v}\t{weight!r}\n")
            count += 1
    return count


def read_edges(path: str) -> Iterator[EdgeRow]:
    """Stream ``(u, v, weight)`` rows from a TSV edge file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{line_number}: expected 3 tab-separated "
                    f"fields, got {len(parts)}"
                )
            yield parts[0], parts[1], float(parts[2])


def write_capacities(path: str, capacities: Dict[str, int]) -> int:
    """Write ``node -> capacity`` as TSV (sorted); returns the row count."""
    with open(path, "w", encoding="utf-8") as handle:
        for node in sorted(capacities):
            handle.write(f"{node}\t{capacities[node]}\n")
    return len(capacities)


def read_capacities(path: str) -> Dict[str, int]:
    """Read a ``node -> capacity`` TSV file."""
    capacities: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{line_number}: expected 2 tab-separated "
                    f"fields, got {len(parts)}"
                )
            capacities[parts[0]] = int(parts[1])
    return capacities

