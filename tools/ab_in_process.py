"""In-process A/B of `psd_block_bounds` between two checkouts, per draw.

Both checkouts' `src/specangles` are imported into one process under two
package names, and every draw of a block-lemma round (made as criterion 09
makes it) is timed with `time.process_time` on both sides in turn, the side
that goes first swapped each draw. Host drift then reaches both sides alike,
where two benchmark processes run minutes apart can differ by 2x:

    git archive PARENT_REV | tar -x -C /tmp/parent
    python3 tools/ab_in_process.py --parent /tmp/parent --change . \\
        --seed 2901 --rounds 5 --out BENCH_x.json

Each round is one warm pass over its draws, then the timed pass. The file
gets the key `in_process_ab`, holding the section `block-lemma`; an existing
file keeps its other keys and sections.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    parser.add_argument("--seed", type=int, default=2901, help="seed base of the first round")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--draws", type=int, default=1000, help="draws per round")
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def load(checkout: Path, name: str):
    """The checkout's `src/specangles` package, imported as `name`."""
    package = checkout / "src" / "specangles"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def block_draw(pkg, index: int, base: int):
    """Draw `index` of a block-lemma round, made as criterion 09 makes it."""
    n = 2 + index % 9
    rng = pkg.PortableRng(base + index)
    g = rng.gaussians(n * n).reshape(n, n)
    v = pkg.SymmetricMatrix(g @ g.T)
    cols = rng.haar_orthogonal(n)[:, : 1 + index % (n - 1)]
    return v, pkg.Projector(pkg.SymmetricMatrix(cols @ cols.T), rank=cols.shape[1])


def run_round(sides: dict, base: int, draws: int) -> tuple[dict, bool]:
    """CPU seconds per side over one round of draws, alternated per draw,
    and whether both sides gave the same triples on every draw."""
    work = {side: [block_draw(pkg, i, base) for i in range(draws)] for side, pkg in sides.items()}
    for side, pkg in sides.items():  # warm pass
        for v, q in work[side]:
            pkg.psd_block_bounds(v, q)
    spent = dict.fromkeys(sides, 0.0)
    same = True
    for i in range(draws):
        triples = {}
        for side in SIDES if i % 2 else SIDES[::-1]:
            v, q = work[side][i]
            start = time.process_time()
            triples[side] = sides[side].psd_block_bounds(v, q)
            spent[side] += time.process_time() - start
        same = same and np.array_equal(triples["parent"], triples["change"])
    return spent, same


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True  # leave no bytecode in either checkout
    sides = {side: load(getattr(args, side), f"specangles_{side}") for side in SIDES}
    ms = {side: [] for side in SIDES}
    ratios, same = [], True
    for r in range(args.rounds):
        spent, equal = run_round(sides, args.seed + r * args.draws, args.draws)
        same = same and equal
        for side in SIDES:
            ms[side].append(round(1e3 * spent[side] / args.draws, 4))
        ratios.append(round(spent["change"] / spent["parent"], 4))
        print(f"round {r}: parent {ms['parent'][-1]} ms/op, change {ms['change'][-1]} "
              f"ms/op, ratio {ratios[-1]}", file=sys.stderr)
    section = {
        "what": (
            f"psd_block_bounds over {args.rounds} rounds of {args.draws} block-lemma draws "
            f"(seed bases {args.seed} + {args.draws}·round), both checkouts imported in one "
            "process by tools/ab_in_process.py, each draw timed with time.process_time on "
            "both sides in turn, the first side swapped each draw, after one warm pass"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_ms_per_op": ms,
        "change_over_parent_per_round": ratios,
        "change_over_parent_median": statistics.median(ratios),
        "change_slower_in": f"{sum(x > 1.0 for x in ratios)} of {len(ratios)} rounds",
        "same_triples_every_draw": same,
    }
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["in_process_ab"] = {**out.get("in_process_ab", {}), "block-lemma": section}
    args.out.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
