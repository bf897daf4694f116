"""Command-line interface.

Tile sets are referenced by built-in name (U, V, W) or by a file in the
tile-set text format; morphisms by built-in name (alpha, beta, gamma, omega)
or by a JSON table file together with --domain/--codomain tile sets.
Exit codes: 0 all claims verified, 1 a claim failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .certify import certify
from .core import ParseError, WangTileSet, emit_tileset, parse_tileset
from .corpus import BUILTIN_NAMES, builtin
from .derivation import MarkerSet, derive, find_marker_candidates, verify_markers
from .morphism import Morphism2d, Word2d, incidence_matrix, iterate
from .render import render, render_morphism, stone_geometry_u, stone_render
from .solver import dominoes_with_surrounding, is_valid_pattern, patterns_with_surrounding
from .spectral import spectral_report
from .suite import run_suite


class UsageError(ValueError):
    pass


def load_tileset(ref: str) -> WangTileSet:
    if ref in BUILTIN_NAMES and builtin(ref).kind == "tileset":
        return builtin(ref).payload
    path = Path(ref)
    if not path.exists():
        raise UsageError(f"no such tile set: {ref!r} (builtins: U, V, W)")
    try:
        return parse_tileset(path.read_text())
    except ParseError as e:
        raise UsageError(f"{ref}: {e}") from e


def load_morphism(ref: str, domain: Optional[str], codomain: Optional[str]) -> Morphism2d:
    if ref in BUILTIN_NAMES and builtin(ref).kind == "morphism":
        return builtin(ref).payload
    path = Path(ref)
    if not path.exists():
        raise UsageError(f"no such morphism: {ref!r} (builtins: alpha, beta, gamma, omega)")
    if domain is None or codomain is None:
        raise UsageError("file morphisms need --domain and --codomain tile sets")
    table = json.loads(path.read_text())
    return Morphism2d.from_json_table(table, load_tileset(domain), load_tileset(codomain))


def _write(out: Optional[str], text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_markers(spec: str, size: int) -> frozenset[int]:
    try:
        indices = frozenset(int(s) for s in spec.replace(",", " ").split())
    except ValueError as e:
        raise UsageError(f"bad marker spec {spec!r}: expected integer indices") from e
    if any(i < 0 or i >= size for i in indices):
        raise UsageError(f"marker index out of range 0..{size - 1}")
    return indices


def _pattern_from_file(path: str) -> Word2d:
    rows = json.loads(Path(path).read_text())
    return Word2d.from_rows(rows)


def cmd_dominoes(args) -> int:
    T = load_tileset(args.tileset)
    pairs = dominoes_with_surrounding(T, args.dir, args.radius)
    if args.json:
        _write(args.out, json.dumps([list(p) for p in pairs]) + "\n")
    else:
        _write(args.out, "".join(f"{i} {j}\n" for i, j in pairs))
    return 0


def cmd_patterns(args) -> int:
    T = load_tileset(args.tileset)
    try:
        w, h = (int(p) for p in args.shape.lower().split("x"))
    except ValueError as e:
        raise UsageError(f"bad shape {args.shape!r}, expected WxH") from e
    pats = patterns_with_surrounding(T, (w, h), args.radius)
    _write(args.out, json.dumps([p.to_rows() for p in pats]) + "\n")
    return 0


def cmd_markers(args) -> int:
    T = load_tileset(args.tileset)
    if args.verify is not None:
        M = _parse_markers(args.verify, len(T))
        report = verify_markers(T, M, args.dir, args.radius)
        _write(args.out, report.summary() + "\n")
        return 0 if report else 1
    found = find_marker_candidates(T, args.dir, args.radius)
    lines = [" ".join(map(str, sorted(m.tile_indices))) for m in found]
    _write(args.out, "".join(line + "\n" for line in lines))
    return 0


def cmd_derive(args) -> int:
    T = load_tileset(args.tileset)
    if args.markers == "auto":
        candidates = find_marker_candidates(T, args.dir, args.radius)
        if not candidates:
            raise UsageError("no verified marker candidates; give --markers explicitly")
        markers = candidates[0]
    else:
        markers = MarkerSet(_parse_markers(args.markers, len(T)), args.dir)
    d = derive(T, markers, args.radius)
    witness = d.class_sorted_permutation()
    doc = {
        "tiles": emit_tileset(d.derived),
        "morphism": d.morphism.to_json_table(),
        "witness": witness,
        "singles": list(d.singles),
        "fusions": [list(p) for p in d.fusions],
        "degenerate": d.degenerate,
    }
    if args.out:
        base = Path(args.out)
        base.with_suffix(".tiles").write_text(doc["tiles"])
        base.with_suffix(".morphism.json").write_text(json.dumps(doc["morphism"], indent=2) + "\n")
        base.with_suffix(".witness.json").write_text(json.dumps(witness) + "\n")
    else:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_iterate(args) -> int:
    m = load_morphism(args.morphism, args.domain, args.codomain)
    w = iterate(m, args.letter, args.steps)
    _write(args.out, json.dumps(w.to_rows()) + "\n")
    return 0


def cmd_render(args) -> int:
    T = load_tileset(args.tileset)
    if args.morphism:
        m = load_morphism(args.morphism, args.domain, args.codomain)
        _write(args.out, render_morphism(m, args.format))
        return 0
    if args.iterate:
        m = load_morphism(args.iterate[0], args.domain, args.codomain)
        pattern = iterate(m, int(args.iterate[1]), int(args.iterate[2]))
    elif args.pattern:
        pattern = _pattern_from_file(args.pattern)
    elif args.letter is not None:
        pattern = Word2d.letter(args.letter)
    else:
        raise UsageError("give one of --pattern, --iterate, --letter, --morphism")
    if any(a < 0 or a >= len(T) for a in pattern.letters()):
        raise UsageError(f"pattern uses tile indices outside 0..{len(T) - 1}")
    if not is_valid_pattern(T, pattern):
        print("warning: pattern has mismatched edges; rendering with markers", file=sys.stderr)
    if args.stone:
        if len(T) != 19:
            raise UsageError("stone geometry is defined for the built-in 19-tile set")
        level = int(args.iterate[2]) if args.iterate else None
        _write(args.out, stone_render(stone_geometry_u(), pattern, level, args.labels))
    else:
        _write(args.out, render(T, pattern, args.format, args.labels, args.ascii))
    return 0


def cmd_spectral(args) -> int:
    m = load_morphism(args.morphism, args.domain, args.codomain)
    _write(args.out, spectral_report(incidence_matrix(m)))
    return 0


def cmd_corpus(args) -> int:
    try:
        artifact = builtin(args.name)
    except LookupError as e:
        raise UsageError(str(e)) from e
    if artifact.kind == "tileset":
        assert isinstance(artifact.payload, WangTileSet)
        _write(args.out, emit_tileset(artifact.payload))
    else:
        assert isinstance(artifact.payload, Morphism2d)
        _write(args.out, json.dumps(artifact.payload.to_json_table(), indent=2) + "\n")
    return 0


def _parse_plan(spec: str):
    if spec == "auto":
        return "auto"
    steps = []
    for part in spec.split(","):
        try:
            d, r = part.strip().split(":")
            direction = {"e1": 1, "e2": 2, "1": 1, "2": 2}[d.strip()]
            steps.append((direction, int(r)))
        except (ValueError, KeyError) as e:
            raise UsageError(
                f"bad plan {spec!r}; expected 'auto' or steps like 'e2:2,e1:1'"
            ) from e
    return steps


def cmd_certify(args) -> int:
    T = load_tileset(args.tileset)
    cert = certify(T, args.tileset, _parse_plan(args.plan))
    _write(args.out, cert.to_json())
    if args.figures:
        _write_figures(args.figures, args.tileset, T)
    return 0 if cert.all_verified() else 1


def _write_figures(directory: str, name: str, T: WangTileSet) -> None:
    """Companion figures for a certification run (only for the built-ins)."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    if name == "U":
        omega = builtin("omega").payload
        assert isinstance(omega, Morphism2d)
        patch = iterate(omega, 4, 5)
        (out / "inflation-patch.svg").write_text(render(T, patch, "svg"))
        (out / "inflation-patch-stone.svg").write_text(
            stone_render(stone_geometry_u(), patch, 5)
        )
        (out / "self-map-images.tikz").write_text(render_morphism(omega, "tikz"))
    else:
        sample = Word2d.letter(0)
        (out / "first-tile.svg").write_text(render(T, sample, "svg"))


def cmd_suite(args) -> int:
    failures, lines = run_suite(args.filter, args.verbose)
    _write(args.out, "".join(line + "\n" for line in lines))
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wangtiles",
        description="Wang tile sets, marker desubstitution, and self-similarity certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("dominoes", help="domino pairs admitting a surrounding")
    p.add_argument("tileset")
    p.add_argument("--dir", type=int, choices=(1, 2), required=True)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--json", action="store_true")
    add_out(p)
    p.set_defaults(fn=cmd_dominoes)

    p = sub.add_parser("patterns", help="rectangular patterns admitting a surrounding")
    p.add_argument("tileset")
    p.add_argument("--shape", required=True, help="WxH")
    p.add_argument("--radius", type=int, default=1)
    add_out(p)
    p.set_defaults(fn=cmd_patterns)

    p = sub.add_parser("markers", help="find or verify marker sets")
    p.add_argument("tileset")
    p.add_argument("--dir", type=int, choices=(1, 2), required=True)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--verify", help="comma-separated tile indices to verify")
    add_out(p)
    p.set_defaults(fn=cmd_markers)

    p = sub.add_parser("derive", help="derive a tile set from markers")
    p.add_argument("tileset")
    p.add_argument("--markers", default="auto", help="'auto' or comma-separated indices")
    p.add_argument("--dir", type=int, choices=(1, 2), required=True)
    p.add_argument("--radius", type=int, default=1)
    add_out(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("iterate", help="iterate a self-morphism on a letter")
    p.add_argument("morphism")
    p.add_argument("letter", type=int)
    p.add_argument("steps", type=int)
    p.add_argument("--domain")
    p.add_argument("--codomain")
    add_out(p)
    p.set_defaults(fn=cmd_iterate)

    p = sub.add_parser("render", help="render a pattern or morphism")
    p.add_argument("tileset")
    p.add_argument("--pattern", help="pattern JSON file (rows, bottom row last)")
    p.add_argument("--letter", type=int, help="render a single tile")
    p.add_argument("--iterate", nargs=3, metavar=("MORPHISM", "LETTER", "N"))
    p.add_argument("--morphism", help="render a morphism image table")
    p.add_argument("--domain")
    p.add_argument("--codomain")
    p.add_argument("--format", default="text", choices=("text", "svg", "tikz"))
    p.add_argument("--labels", default="index", choices=("index", "colors"))
    p.add_argument("--ascii", action="store_true", help="ASCII box drawing")
    p.add_argument("--stone", action="store_true", help="real-size stone rectangles (SVG)")
    add_out(p)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("spectral", help="spectral data of a morphism's incidence matrix")
    p.add_argument("morphism")
    p.add_argument("--domain")
    p.add_argument("--codomain")
    add_out(p)
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("corpus", help="built-in artifacts")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    pe = corpus_sub.add_parser("export", help="write a built-in artifact")
    pe.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    add_out(pe)
    pe.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("certify", help="run the certification pipeline")
    p.add_argument("tileset")
    p.add_argument("--plan", default="auto", help="'auto' or steps like 'e2:2,e1:1'")
    p.add_argument("--figures", help="also write companion figures to this directory")
    add_out(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--filter", default="", help="only criteria whose name matches")
    p.add_argument("--verbose", action="store_true")
    add_out(p)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as e:  # UsageError and JSONDecodeError included
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
