"""Command line interface and serialization formats.

Subcommands: analyze, enumerate, classify, family, equiv, blowup, check, svg.
Vertex lists are always passed as "x,y;x,y;...", a leading minus sign
included.  Exit codes: 0 success, 1 catalog verification found
counterexamples, 2 bad input (parse or validation errors).

Data outputs are deterministic: identical flags give byte-identical JSON and
SVG.  Run metadata (timestamps, worker counts, the package version, the
sha256 of the catalog bytes and the enumeration's EnumerationStats) goes to
a sidecar file next to the catalog, never into the data itself.

A catalog line is formatted directly from its entry by catalog_line, the
one source of the format for files and stdout alike: %-formats per vertex
count and per family tag fill in the integers.  read_catalog decodes each
LF-ended line from ASCII, parses it once with raw_decode, checks it with
entry_from_dict, and then requires its (d, vertices) above the previous
line's, the order in which enumerate_ldp and classify write every catalog.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from functools import cache
from itertools import chain
from typing import Sequence

from . import __version__
from .lattice import LatticeOverflowError, _clipped
from .polygon import (
    LdpPolygon,
    NotCounterclockwise,
    NotStrictlyConvex,
    format_vertices,
    parse_vertices,
    validate_fan,
    validate_ldp_polygon,
)
from .surface import SurfaceReport, analyze, blow_up
from .equivalence import are_equivalent
from .enumeration import (
    CatalogEntry,
    EnumerationStats,
    WorkerPoolError,
    classify_catalog,
    enumerate_ldp,
    verify_catalog,
)
from .families import FAMILY_SPECS, FamilyParams, generate


def report_to_dict(report: SurfaceReport) -> dict:
    return {
        "d": report.d,
        "rho": report.picard_number,
        "dets": list(report.dets),
        "f": list(report.f_values),
        "degrees": [str(x) for x in report.anticanonical_degrees],
        "ldp": report.is_log_del_pezzo,
        "singular": report.singular_count,
    }


_dump = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode  # no data nests itself
_decode = json.JSONDecoder().raw_decode


@cache
def _line_format(d: int) -> str:
    """The %-format of a catalog line of a d-gon; the last two slots take
    the JSON text of its family and three_case."""
    ints = ",".join(["%d"] * d)
    return (
        '{"vertices":[' + ",".join(["[%d,%d]"] * d) + '],"d":%d,"rho":%d,"dets":[' + ints
        + '],"f":[' + ints + '],"singular":%d,"family":%s,"three_case":%s}\n'
    )


# Per family tag, the %-format of its JSON object, filled with FamilyParams.as_tuple().
_FAMILY_FORMATS = {
    tag: '{"family":%s,' % _dump(tag) + ",".join('"%s":%%d' % name for name in spec.params) + "}"
    for tag, spec in FAMILY_SPECS.items()
}


def catalog_line(entry: CatalogEntry) -> str:
    """The catalog line of `entry`, newline included: compact JSON in the
    frozen key order, the surface values read off analyze()'s memo.
    three_case is written through the JSON encoder, since a catalog read
    back in may carry any JSON value there."""
    poly, family, three_case = entry
    d, dets, f_values, singular = analyze(poly)
    family_json = "null" if family is None else _FAMILY_FORMATS[family.family] % family.as_tuple()
    return _line_format(d) % (
        *chain.from_iterable(poly.rays), d, d - 2, *dets, *f_values, singular,
        family_json, "null" if three_case is None else _dump(three_case),
    )


def entry_from_dict(data: dict) -> CatalogEntry:
    """The entry of one catalog line, a JSON object.  Its vertices must pass
    validate_ldp_polygon (int coordinates in the signed 64-bit range).  Then
    each surface key, in catalog order, is checked once and exactly: an int,
    or a list of ints, equal to analyze()'s value.  The first key missing
    raises KeyError, the first that differs ValueError naming it (true or
    1.0 in place of 1 differs).  A family must be a JSON object, before its
    tag is read, with no null parameter.  Canonical form and tags are not checked."""
    if type(data) is not dict:
        raise ValueError("not a JSON object")
    poly = validate_ldp_polygon(data["vertices"])
    d, dets, f_values, singular = analyze(poly)
    for key, derived in zip(("d", "rho", "dets", "f", "singular"), (d, d - 2, list(dets), list(f_values), singular)):
        value = data[key]
        if type(value) is not type(derived) or value != derived or (
            type(value) is list and not all(type(x) is int for x in value)  # not isinstance: bool is an int
        ):
            raise ValueError(f"{key} {_clipped(value)} does not match the vertices, which give {derived}")
    family = data.get("family")
    if family is not None:
        if type(family) is not dict:
            raise ValueError(f"family {_clipped(family)} is not a JSON object")
        params = dict(family)
        if unknown := [name for name in params if name not in FamilyParams._fields]:
            raise ValueError(f"family key {_clipped(unknown[0])} is not one of family, p, q, r, s, t")
        family = FamilyParams(params.pop("family"), **params)
        for name, value in params.items():
            if value is None:
                raise ValueError(f"family {family.family} parameter {name} is null")
    return CatalogEntry(poly, family, data.get("three_case"))


def write_catalog(entries: list[CatalogEntry], path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(map(catalog_line, entries))


def read_catalog(path: str) -> list[CatalogEntry]:
    entries = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode("ascii").strip()
                if line:
                    # A stripped ASCII line holds no BOM and no leading
                    # whitespace, so raw_decode reads it as json.loads does;
                    # json.loads words the error of text after the value.
                    data, end = _decode(line)
                    if end != len(line):
                        json.loads(line)
                    entry = entry_from_dict(data)
                    if entries and (entry.d, entry.vertices) <= (entries[-1].d, entries[-1].vertices):
                        raise ValueError(
                            "(d, vertices) is not above the previous line's: a repeated or misordered class")
                    entries.append(entry)
            except (KeyError, TypeError, ValueError, LatticeOverflowError, RecursionError) as exc:
                raise ValueError(f"bad catalog line {line_no}: {exc}") from None
    return entries


def _parse_polygon_lenient(text: str) -> LdpPolygon:
    """Parse a polygon, also accepting a clockwise vertex listing; an error
    names the rays by their index in the listing as given."""
    points = parse_vertices(text)
    try:
        return validate_ldp_polygon(points)
    except NotCounterclockwise as first:
        try:
            return validate_ldp_polygon(points[::-1])
        except NotCounterclockwise:
            raise first from None
        except NotStrictlyConvex as exc:
            raise NotStrictlyConvex(len(points) + 1 - exc.index) from None


# emit_svg draws one circle per lattice point of the bounding box, so the
# file grows with the product of the coordinate spans.
SVG_MAX_GRID_POINTS = 10_000


def emit_svg(poly: LdpPolygon, path: str) -> None:
    """Write a deterministic SVG: lattice grid, origin marker, the polygon,
    and one determinant label per edge.  Byte-stable for a fixed input.
    Raises ValueError, before opening `path`, when the grid would have more
    than SVG_MAX_GRID_POINTS points."""
    scale = 40
    xs, ys = zip(*poly.vertices)
    x_lo, x_hi = min(xs) - 1, max(xs) + 1
    y_lo, y_hi = min(ys) - 1, max(ys) + 1
    grid = (x_hi - x_lo + 1) * (y_hi - y_lo + 1)
    if grid > SVG_MAX_GRID_POINTS:
        raise ValueError(f"the SVG grid would have {grid} lattice points, more than {SVG_MAX_GRID_POINTS}")
    width = (x_hi - x_lo) * scale
    height = (y_hi - y_lo) * scale

    def px(x_half: int) -> int:
        # Positions arrive doubled so that edge midpoints stay integral.
        return (x_half - 2 * x_lo) * scale // 2

    def py(y_half: int) -> int:
        return (2 * y_hi - y_half) * scale // 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for gx in range(x_lo, x_hi + 1):
        parts.append(
            f'<line x1="{px(2 * gx)}" y1="0" x2="{px(2 * gx)}" y2="{height}" stroke="#dddddd" stroke-width="1"/>'
        )
    for gy in range(y_lo, y_hi + 1):
        parts.append(
            f'<line x1="0" y1="{py(2 * gy)}" x2="{width}" y2="{py(2 * gy)}" stroke="#dddddd" stroke-width="1"/>'
        )
    for gx in range(x_lo, x_hi + 1):
        for gy in range(y_lo, y_hi + 1):
            parts.append(f'<circle cx="{px(2 * gx)}" cy="{py(2 * gy)}" r="2" fill="#bbbbbb"/>')
    points_attr = " ".join(f"{px(2 * x)},{py(2 * y)}" for x, y in poly.vertices)
    parts.append(
        f'<polygon points="{points_attr}" fill="#6699cc" fill-opacity="0.25" stroke="#336699" stroke-width="2"/>'
    )
    parts.append(f'<circle cx="{px(0)}" cy="{py(0)}" r="4" fill="#cc3333"/>')
    for i, det in enumerate(analyze(poly).dets, start=1):
        (ax, ay), (bx, by) = poly.ray(i), poly.ray(i + 1)
        parts.append(
            f'<text x="{px(ax + bx)}" y="{py(ay + by)}" font-size="14" '
            f'font-family="monospace" fill="#336699" text-anchor="middle">{det}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze(validate_fan(parse_vertices(args.vertices)))
    if args.json:
        print(_dump(report_to_dict(report)))
        return 0
    for key, value in report_to_dict(report).items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, list):
            value = " ".join(map(str, value))
        print(f"{key:<10}{value}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    started = time.time()
    stats = EnumerationStats()
    entries = enumerate_ldp(args.box, jobs=args.jobs, stats=stats)
    if args.out is None:
        sys.stdout.writelines(map(catalog_line, entries))
    else:
        write_catalog(entries, args.out)
        with open(args.out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        sidecar = {
            "box": args.box,
            "jobs": args.jobs,
            "classes": len(entries),
            "elapsed_seconds": round(time.time() - started, 3),
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "version": __version__,
            "sha256": digest,
            "stats": vars(stats),
        }
        with open(args.out + ".meta.json", "w", encoding="ascii") as fh:
            fh.write(json.dumps(sidecar, indent=2) + "\n")
        print(f"{len(entries)} classes -> {args.out}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    entries = classify_catalog(read_catalog(args.infile))
    if args.out is None:
        sys.stdout.writelines(map(catalog_line, entries))
    else:
        write_catalog(entries, args.out)
        print(f"{len(entries)} classes -> {args.out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    report = verify_catalog(read_catalog(args.infile))
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def _cmd_family(args: argparse.Namespace) -> int:
    params = FamilyParams(args.family, args.p, args.q, args.r, args.s, args.t)
    print(format_vertices(generate(params).polygon.vertices))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    poly_a = _parse_polygon_lenient(args.a)
    poly_b = _parse_polygon_lenient(args.b)
    m = are_equivalent(poly_a, poly_b)
    if m is None:
        print("inequivalent")
    else:
        print(_dump([[m.a, m.b], [m.c, m.d]]))
    return 0


def _cmd_blowup(args: argparse.Namespace) -> int:
    cycle = validate_fan(parse_vertices(args.vertices))
    print(format_vertices(blow_up(cycle, args.cone).rays))
    return 0


def _cmd_svg(args: argparse.Namespace) -> int:
    emit_svg(validate_ldp_polygon(parse_vertices(args.vertices)), args.out)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldptoric",
        description="Exact tools for complete lattice fans and LDP polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="singularity and degree report for a fan")
    p_analyze.add_argument("vertices", help='ray cycle as "x,y;x,y;..."')
    p_analyze.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_enum = sub.add_parser("enumerate", help="all classes with vertices in a box")
    p_enum.add_argument("--box", type=int, required=True, help="coordinate bound n")
    p_enum.add_argument("--out", default=None, help="JSONL output path (default stdout)")
    p_enum.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count(),
        help="worker processes (default: logical cores)",
    )
    p_enum.set_defaults(func=_cmd_enumerate)

    p_classify = sub.add_parser("classify", help="fill family and case tags in a catalog")
    p_classify.add_argument("--in", dest="infile", required=True, help="JSONL catalog path")
    p_classify.add_argument("--out", default=None, help="JSONL output path (default stdout)")
    p_classify.set_defaults(func=_cmd_classify)

    p_check = sub.add_parser("check", help="run catalog-wide structural checks")
    p_check.add_argument("--in", dest="infile", required=True, help="JSONL catalog path")
    p_check.set_defaults(func=_cmd_check)

    p_family = sub.add_parser("family", help="generate a family polygon from parameters")
    p_family.add_argument("--family", required=True, help="family tag, e.g. two1")
    for name in FamilyParams._fields[1:]:
        p_family.add_argument(f"--{name}", type=int, default=None)
    p_family.set_defaults(func=_cmd_family)

    p_equiv = sub.add_parser("equiv", help="find a unimodular map between two polygons")
    p_equiv.add_argument("--a", required=True, help="first polygon")
    p_equiv.add_argument("--b", required=True, help="second polygon")
    p_equiv.set_defaults(func=_cmd_equiv)

    p_blow = sub.add_parser("blowup", help="subdivide a smooth cone by its ray sum")
    p_blow.add_argument("--vertices", required=True, help="ray cycle")
    p_blow.add_argument("--cone", type=int, required=True, help="1-based cone index")
    p_blow.set_defaults(func=_cmd_blowup)

    p_svg = sub.add_parser("svg", help="draw a polygon with its edge determinants")
    p_svg.add_argument("--vertices", required=True, help="polygon vertex cycle")
    p_svg.add_argument("--out", required=True, help="SVG output path")
    p_svg.set_defaults(func=_cmd_svg)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    # argparse reads a token that begins with "-" as an option unless it is a
    # negative number or holds a space, so a vertex list such as "-1,-1;1,0"
    # gets a leading space, which parse_vertices strips.
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args([" " + arg if re.match(r"-\d+\s*,", arg) else arg for arg in argv])
    # Validation errors (FanValidationError, ConeSingular, ...) are ValueErrors.
    try:
        return args.func(args)
    except (ValueError, LatticeOverflowError, IndexError, OSError, WorkerPoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
