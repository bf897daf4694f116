"""Record the golden render hashes that the inflate workload checks against.

Run from the root of the repository, at the commit whose bytes are the
reference:

    python3 perfbench/record_golden.py

It writes perfbench/golden_renders.json: for every letter a and level n of
the inflate workload, the truncated SHA-256 of render_text, render_svg,
render_tikz and stone_render applied to iterate(omega, a, n).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import GOLDEN_RENDERS, InflateWorkload, load_program, render_all, render_hashes


def main() -> int:
    prog = load_program(Path(__file__).resolve().parent.parent / "src")
    U = prog.corpus.builtin("U").payload
    omega = prog.corpus.builtin("omega").payload
    geometry = prog.render.stone_geometry_u()
    golden = {}
    for a in InflateWorkload.LETTERS:
        for level in InflateWorkload.LEVELS:
            w = prog.morphism.iterate(omega, a, level)
            golden[f"{a},{level}"] = render_hashes(render_all(prog, U, geometry, w, level))
    GOLDEN_RENDERS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_RENDERS.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
