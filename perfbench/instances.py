"""Seeded offline generator of MovingAI `.map`/`.scen` instance files.

`generate(seed, height, width, agents, block_prob)` draws exactly the random
numbers that `tests/conftest.py::random_instance(random.Random(seed), ...)`
draws, so both give the same grid and the same start/goal vertices:

* each cell, row-major, is blocked when `rng.random() < block_prob`;
* vertex ids are assigned row-major over passable cells;
* starts, then goals, are `rng.sample(range(vertex_count), agents)`;
* a draw is rejected (and the next one taken) when the grid has fewer than
  `2 * agents` passable cells or some goal lies outside its start's
  connected component.

The program reads the files only through `daccbs.load_map` and
`daccbs.load_scenario`.  Usage:

    python3 perfbench/instances.py OUT_DIR HEIGHT WIDTH AGENTS BLOCK_PROB SEED
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

MAX_TRIES = 500


@dataclass(frozen=True)
class Generated:
    """One instance: grid rows ('.' passable, '@' blocked), vertex cells, agents."""

    height: int
    width: int
    rows: tuple[str, ...]
    cells: tuple[tuple[int, int], ...]  # vertex id -> (row, col)
    starts: tuple[int, ...]
    goals: tuple[int, ...]


def _components(height: int, width: int, open_: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    label: dict[tuple[int, int], int] = {}
    for cell in sorted(open_):
        if cell in label:
            continue
        label[cell] = len(label)
        comp = label[cell]
        stack = [cell]
        while stack:
            r, c = stack.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in open_ and nb not in label:
                    label[nb] = comp
                    stack.append(nb)
    return label


def generate(seed: int, height: int, width: int, agents: int, block_prob: float) -> Generated:
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        blocked = {
            (r, c) for r in range(height) for c in range(width) if rng.random() < block_prob
        }
        cells = tuple(
            (r, c) for r in range(height) for c in range(width) if (r, c) not in blocked
        )
        if len(cells) < 2 * agents or not cells:
            continue
        vertices = list(range(len(cells)))
        starts = rng.sample(vertices, agents)
        goals = rng.sample(vertices, agents)
        comp = _components(height, width, set(cells))
        if any(comp[cells[s]] != comp[cells[g]] for s, g in zip(starts, goals)):
            continue
        rows = tuple(
            "".join("@" if (r, c) in blocked else "." for c in range(width))
            for r in range(height)
        )
        return Generated(height, width, rows, cells, tuple(starts), tuple(goals))
    raise RuntimeError(f"seed {seed}: no feasible instance in {MAX_TRIES} draws")


def map_text(inst: Generated) -> str:
    return f"type octile\nheight {inst.height}\nwidth {inst.width}\nmap\n" + "\n".join(
        inst.rows
    ) + "\n"


def scen_text(inst: Generated, map_name: str) -> str:
    """MovingAI scenario rows; (x, y) is (col, row); the last field is the
    Manhattan distance, a placeholder the parser does not read."""
    lines = ["version 1"]
    for s, g in zip(inst.starts, inst.goals):
        (sr, sc), (gr, gc) = inst.cells[s], inst.cells[g]
        lines.append(
            "\t".join(
                str(f)
                for f in (0, map_name, inst.width, inst.height, sc, sr, gc, gr,
                          abs(sr - gr) + abs(sc - gc))
            )
        )
    return "\n".join(lines) + "\n"


def write(out_dir: Path, seed: int, height: int, width: int, agents: int,
          block_prob: float) -> tuple[Path, Path]:
    """Write `<stem>.map` and `<stem>.scen` into out_dir; return their paths."""
    inst = generate(seed, height, width, agents, block_prob)
    stem = f"random-{height}-{width}-{round(block_prob * 100)}-n{agents}-s{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    map_path, scen_path = out_dir / f"{stem}.map", out_dir / f"{stem}.scen"
    map_path.write_text(map_text(inst))
    scen_path.write_text(scen_text(inst, map_path.name))
    return map_path, scen_path


def main(argv: list[str]) -> int:
    if len(argv) != 6:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 1
    out, height, width, agents, block, seed = argv
    for path in write(Path(out), int(seed), int(height), int(width), int(agents), float(block)):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
