import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ldptoric
from ldptoric import FAMILY_TAGS, CatalogEntry, FamilyParams, analyze, classify_catalog, enumerate_ldp
from ldptoric import enumeration
from ldptoric.cli import (
    SVG_MAX_GRID_POINTS,
    _dump,
    catalog_line,
    entry_from_dict,
    main,
    read_catalog,
    write_catalog,
)
from ldptoric.enumeration import CHECKS, VerificationReport
from ldptoric.families import FAMILY_SPECS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, err = run(capsys, "analyze", "1,0;0,1;-2,-3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d         3"
    assert lines[1] == "rho       1"
    assert lines[2] == "dets      1 2 3"
    assert lines[3] == "f         6 6 6"
    assert lines[4] == "degrees   2 3 1"
    assert lines[5] == "ldp       yes"
    assert lines[6] == "singular  2"


def test_analyze_json(capsys):
    code, out, err = run(capsys, "analyze", "1,0;0,1;-2,-3", "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["d", "rho", "dets", "f", "degrees", "ldp", "singular"]
    assert data == {
        "d": 3,
        "rho": 1,
        "dets": [1, 2, 3],
        "f": [6, 6, 6],
        "degrees": ["2", "3", "1"],
        "ldp": True,
        "singular": 2,
    }


def test_analyze_fractional_degrees(capsys):
    code, out, err = run(capsys, "analyze", "1,0;0,1;-1,0;1,-3;2,-3", "--json")
    assert code == 0
    assert json.loads(out)["degrees"] == ["2/3", "2", "5/3", "1/3", "1/3"]


def test_analyze_non_ldp_fan_still_succeeds(capsys):
    code, out, err = run(capsys, "analyze", "1,0;0,1;-1,2;-1,-1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ldp"] is False
    assert data["f"][1] == 0


def test_family_two1(capsys):
    code, out, err = run(capsys, "family", "--family", "two1", "--p", "2", "--q", "3")
    assert code == 0
    assert out.strip() == "1,0;0,1;-2,-3"


def test_family_three5(capsys):
    code, out, err = run(
        capsys, "family", "--family", "three5",
        "--p", "0", "--q", "1", "--r", "-3", "--s", "2", "--t", "-3",
    )
    assert code == 0
    assert out.strip() == "1,0;0,1;-1,0;1,-3;2,-3"


def test_equiv_swap_matrix(capsys):
    code, out, err = run(
        capsys, "equiv", "--a", "1,0;0,1;-2,-3", "--b", "0,1;1,0;-3,-2",
    )
    assert code == 0
    assert out.strip() == "[[0,1],[1,0]]"


def test_equiv_picks_the_first_of_eight_maps(capsys):
    # The square has eight automorphisms, so eight maps carry it onto this
    # image of it; the first in search order is printed.
    code, out, err = run(
        capsys, "equiv", "--a", "1,1;-1,1;-1,-1;1,-1", "--b", "3,1;1,1;-3,-1;-1,-1",
    )
    assert code == 0 and err == ""
    assert out.strip() == "[[1,2],[0,1]]"


def test_equiv_large_images_get_a_matrix(capsys):
    # Two images of the class 1,0;0,1;-5,-3 with coordinates below 2**30;
    # the checked search overflowed in an intermediate product on this pair.
    a = "1400443,-114818367;156038,-12793115;-7470329,612471180"
    b = "275397,-22910;-10484716,872213;30077163,-2502089"
    code, out, err = run(capsys, "equiv", "--a", a, "--b", b)
    assert code == 0 and err == ""
    (m11, m12), (m21, m22) = json.loads(out)
    assert m11 * m22 - m12 * m21 in (1, -1)
    va = [tuple(map(int, t.split(","))) for t in a.split(";")]
    vb = {tuple(map(int, t.split(","))) for t in b.split(";")}
    assert {(m11 * x + m12 * y, m21 * x + m22 * y) for x, y in va} == vb


def test_equiv_inequivalent(capsys):
    code, out, err = run(capsys, "equiv", "--a", "1,0;0,1;-1,-1", "--b", "1,0;0,1;-1,-2")
    assert code == 0
    assert out.strip() == "inequivalent"


def test_blowup(capsys):
    code, out, err = run(capsys, "blowup", "--vertices", "1,0;0,1;-1,0;1,-3", "--cone", "2")
    assert code == 0
    assert out.strip() == "1,0;0,1;-1,1;-1,0;1,-3"


# Vertex lists that begin with a minus sign, in each place the CLI takes one.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["equiv", "--a", "-1,-1;1,0;0,1", "--b", "1,0;0,1;-1,-1"], "[[0,-1],[1,-1]]"),
        (["equiv", "--a=-1,-1;1,0;0,1", "--b=1,0;0,1;-1,-1"], "[[0,-1],[1,-1]]"),
        (["equiv", "--a", "1,0;0,1;-1,-1", "--b", "-1,-1;1,0;0,1"], "[[-1,1],[-1,0]]"),
        (["blowup", "--vertices", "-1,-1;1,0;0,1", "--cone", "2"], "-1,-1;1,0;1,1;0,1"),
        (["analyze", "-2,-3;1,0;0,1", "--json"], '{"d":3,"rho":1,"dets":[3,1,2],"f":[6,6,6],'
                                                  '"degrees":["1","2","3"],"ldp":true,"singular":2}'),
        (["analyze", "--json", "-2,-3;1,0;0,1"], '{"d":3,"rho":1,"dets":[3,1,2],"f":[6,6,6],'
                                                  '"degrees":["1","2","3"],"ldp":true,"singular":2}'),
    ],
)
def test_vertex_lists_may_begin_with_a_minus_sign(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected + "\n", "")


def test_analyze_text_of_a_negative_vertex_list(capsys):
    code, out, err = run(capsys, "analyze", "-2,-3;1,0;0,1")
    assert code == 0 and err == ""
    assert out.splitlines()[2] == "dets      3 1 2"


def test_svg_of_a_negative_vertex_list(tmp_path, capsys):
    path = tmp_path / "tri.svg"
    code, out, err = run(capsys, "svg", "--vertices", "-2,-3;1,0;0,1", "--out", str(path))
    assert (code, out, err) == (0, f"{path}\n", "")
    assert all(f">{det}</text>" in path.read_text() for det in ("1", "2", "3"))


def test_enumerate_stdout(capsys):
    code, out, err = run(capsys, "enumerate", "--box", "1", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    first = json.loads(lines[0])
    assert list(first) == ["vertices", "d", "rho", "dets", "f", "singular", "family", "three_case"]
    assert first["family"] is None


def test_enumerate_to_file_with_sidecar(tmp_path, capsys):
    out_path = tmp_path / "box1.jsonl"
    code, out, err = run(capsys, "enumerate", "--box", "1", "--jobs", "1", "--out", str(out_path))
    assert code == 0
    assert out.strip() == f"11 classes -> {out_path}"
    entries = read_catalog(str(out_path))
    assert len(entries) == 11
    meta = json.loads((tmp_path / "box1.jsonl.meta.json").read_text())
    assert meta["box"] == 1
    assert meta["jobs"] == 1
    assert meta["classes"] == 11
    assert "elapsed_seconds" in meta and "generated_at" in meta
    assert meta["version"] == ldptoric.__version__
    stats = meta["stats"]
    assert list(stats) == ["roots", "raw_chains", "canonicalizations", "classes", "seconds"]
    assert (stats["roots"], stats["canonicalizations"], stats["classes"]) == (2, 14, 11)
    assert len(stats["raw_chains"]) == 4 and sum(stats["raw_chains"]) == 32
    assert list(stats["seconds"]) == ["dfs", "orbit_test", "canonical_key", "shard_loop", "entries"]
    first_bytes = out_path.read_bytes()
    assert meta["sha256"] == hashlib.sha256(first_bytes).hexdigest()
    # data bytes contain no timestamps: reruns are byte-identical
    run(capsys, "enumerate", "--box", "1", "--jobs", "2", "--out", str(out_path))
    assert out_path.read_bytes() == first_bytes
    meta2 = json.loads((tmp_path / "box1.jsonl.meta.json").read_text())
    assert meta2["sha256"] == meta["sha256"]
    assert meta2["stats"]["raw_chains"] == stats["raw_chains"]
    assert meta2["stats"]["canonicalizations"] == 14


def test_classify_pipeline(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    tagged = tmp_path / "tagged.jsonl"
    run(capsys, "enumerate", "--box", "1", "--jobs", "1", "--out", str(raw))
    code, out, err = run(capsys, "classify", "--in", str(raw), "--out", str(tagged))
    assert code == 0
    entries = read_catalog(str(tagged))
    assert len(entries) == 11
    for entry in entries:
        if entry.singular_count in (1, 2):
            assert entry.family is not None
        if entry.singular_count == 3:
            assert entry.three_case is not None
        if entry.singular_count == 0:
            assert entry.family is None


def test_classify_stdout_roundtrip(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    run(capsys, "enumerate", "--box", "1", "--jobs", "1", "--out", str(raw))
    code, out, err = run(capsys, "classify", "--in", str(raw))
    assert code == 0
    for line in out.strip().splitlines():
        data = json.loads(line)
        entry = entry_from_dict(data)
        assert json.loads(catalog_line(entry)) == data


def test_check_clean_catalog(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    run(capsys, "enumerate", "--box", "1", "--jobs", "1", "--out", str(raw))
    code, out, err = run(capsys, "check", "--in", str(raw))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["total"] == 11
    assert report["one_singular_unmatched"] == []


def test_check_exit_one_on_counterexamples(tmp_path, capsys, monkeypatch):
    raw = tmp_path / "raw.jsonl"
    run(capsys, "enumerate", "--box", "1", "--jobs", "1", "--out", str(raw))
    found = {name: [] for name in CHECKS}
    found["one_singular_unmatched"].append(((1, 0), (0, 1), (-1, -1)))
    bad = VerificationReport(1, found)
    monkeypatch.setattr("ldptoric.cli.verify_catalog", lambda entries: bad)
    code, out, err = run(capsys, "check", "--in", str(raw))
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_check_exit_one_on_a_dropped_family_tag(tmp_path, capsys, monkeypatch):
    # A planted defect in the tagging path, found by the real report.
    raw = tmp_path / "raw.jsonl"
    run(capsys, "enumerate", "--box", "2", "--jobs", "1", "--out", str(raw))
    identify, dropped = enumeration.identify, [[1, 0], [0, 1], [-3, -1]]  # dais1, p = 2

    def dropping(poly):
        return None if [list(v) for v in poly.vertices] == dropped else identify(poly)

    monkeypatch.setattr(enumeration, "identify", dropping)
    code, out, err = run(capsys, "check", "--in", str(raw))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["ok"] is False and report["total"] == 156
    assert {name: report[name] for name in CHECKS} == {
        name: [dropped] if name == "one_singular_unmatched" else [] for name in CHECKS
    }


def test_check_exit_one_on_a_dropped_three_case(tmp_path, capsys, monkeypatch):
    # A planted defect in classify_three, found by the real report.
    raw = tmp_path / "raw.jsonl"
    run(capsys, "enumerate", "--box", "2", "--jobs", "1", "--out", str(raw))
    classify_three, dropped = enumeration.classify_three, [[1, 0], [0, 1], [-5, 2], [-4, 1], [0, -1], [1, -1]]

    def dropping(poly):
        return "none" if [list(v) for v in poly.vertices] == dropped else classify_three(poly)

    monkeypatch.setattr(enumeration, "classify_three", dropping)
    code, out, err = run(capsys, "check", "--in", str(raw))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["ok"] is False and report["total"] == 156
    assert {name: report[name] for name in CHECKS} == {
        name: [dropped] if name == "three_singular_unclassified" else [] for name in CHECKS
    }


# Read from stdin, so a spawned worker has no main module file to re-run.
_DEAD_WORKERS_CLI = """
import multiprocessing, sys
sys.path.insert(0, {src!r})
from ldptoric.cli import main
multiprocessing.set_start_method("spawn")
sys.exit(main(["enumerate", "--box", "2", "--jobs", "2"]))
"""


def test_enumerate_whose_workers_cannot_start_is_exit_two():
    src = str(Path(ldptoric.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-"], input=_DEAD_WORKERS_CLI.format(src=src),
        capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stdout) == (2, "")
    # A dying worker may leave its traceback cut off mid-line, with the
    # error line appended to it, so only the end of stderr is pinned.
    assert out.stderr.endswith(
        "error: a worker of the spawn pool died before returning its shard "
        "(spawn workers re-import the main module, which must be an importable file)\n"
    )


def test_module_entry_point_runs_main(capsys):
    # `python -m ldptoric.cli` runs the __main__ guard, which no in-process
    # call of main reaches.  It runs from the directory holding the package,
    # which -m puts first on sys.path.
    src = Path(ldptoric.__file__).resolve().parent.parent

    def module(*argv):
        args = [sys.executable, "-m", "ldptoric.cli", *argv]
        return subprocess.run(args, cwd=src, capture_output=True, text=True, timeout=60)

    argv = ("analyze", "1,0;0,1;-2,-3", "--json")
    out = module(*argv)
    assert (out.returncode, out.stdout, out.stderr) == run(capsys, *argv)
    assert out.returncode == 0
    bad = module("analyze", "1,0;0,x;-2,-3")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == "error: bad vertex token '0,x': coordinates must be integers\n"


# Every command line the CLI refuses as bad input, with its whole error line;
# OUT stands for an SVG path that must not be written.
@pytest.mark.parametrize("argv, message", [
    pytest.param(("analyze", "1,0;0,2;-1,-1"), "NonPrimitiveRay(2): ray 2 is not primitive",
                 id="analyze-non-primitive"),
    pytest.param(("analyze", "9223372036854775808,1;0,1;-1,-1"),
                 "x coordinate 9223372036854775808 exceeds the signed 64-bit range", id="analyze-x-overflow"),
    pytest.param(("analyze", "3037000500,1;-1,3037000500;-1,-1"),
                 "cone determinant 9223372037000250001 exceeds the signed 64-bit range", id="analyze-det-overflow"),
    pytest.param(("analyze", "1,0;zap;0,1"), "bad vertex token 'zap': expected 'x,y'", id="analyze-token"),
    pytest.param(("analyze", "-1,x;1,0;0,1"), "bad vertex token '-1,x': coordinates must be integers",
                 id="analyze-negative-token"),
    # int() would read 1_0 as 10.
    pytest.param(("analyze", "1_0,1;0,1;-1,-1"), "bad vertex token '1_0,1': coordinates must be integers",
                 id="analyze-underscore-token"),
    # A valid fan: a triangle whose f-values are all I64_MAX + 3.
    pytest.param(("analyze", "1,0;0,1;-9223372036854775807,-2"),
                 "f value 9223372036854775810 exceeds the signed 64-bit range", id="analyze-f-overflow"),
    pytest.param(("family", "--family", "two1", "--p", "9223372036854775807", "--q", "2"),
                 "vertex turn 9223372036854775810 exceeds the signed 64-bit range", id="family-turn-overflow"),
    pytest.param(("family", "--family", "two1", "--p", "1", "--q", "3"), "invalid parameters for two1: violates p >= 2",
                 id="family-constraint"),
    pytest.param(("family", "--family", "two1", "--p", "2"), "family two1 requires parameter q", id="family-missing"),
    pytest.param(("family", "--family", "two1", "--p", "2", "--q", "3", "--s", "1"), "family two1 takes no parameter s",
                 id="family-extra"),
    pytest.param(("family", "--family", "hexagon", "--p", "1"), "unknown family tag 'hexagon'", id="family-tag"),
    # equiv names the rays as given: clockwise with (1, 0), ray 2 lies on the
    # hull's edge; in the second, rays 2 and 3 do not turn counterclockwise,
    # and the reversed listing is no better.
    pytest.param(("equiv", "--a", "1,1;1,0;1,-1;-1,-1;-1,1", "--b", "1,0;0,1;-1,-1"),
                 "NotStrictlyConvex(2): ray 2 is not a strict vertex of the hull", id="equiv-not-strictly-convex"),
    pytest.param(("equiv", "--a", "1,0;0,1;1,1;-1,-1", "--b", "1,0;0,1;-1,-1"),
                 "NotCounterclockwise(2): consecutive rays 2 and 3 do not turn counterclockwise",
                 id="equiv-not-counterclockwise"),
    pytest.param(("blowup", "--vertices", "1,0;0,1;-2,-3", "--cone", "2"),
                 "ConeSingular(2): cone 2 has determinant >= 2, cannot subdivide by ray sum", id="blowup-singular"),
    pytest.param(("blowup", "--vertices", "1,0;0,1;-1,-1", "--cone", "7"), "cone index 7 out of range 1..3",
                 id="blowup-cone-index"),
    pytest.param(("enumerate", "--box", "0"), "box size must be at least 1", id="enumerate-box-0"),
    pytest.param(("enumerate", "--box", "9223372036854775808"),
                 "box size 9223372036854775808 exceeds the signed 64-bit range", id="enumerate-box-overflow"),
    pytest.param(("enumerate", "--box", "1", "--jobs", "0"), "jobs 0 is not None or an integer of at least 1",
                 id="enumerate-jobs-0"),
    pytest.param(("check", "--in", "/nonexistent/catalog.jsonl"),
                 "[Errno 2] No such file or directory: '/nonexistent/catalog.jsonl'", id="check-missing-file"),
    # One grid circle per lattice point of the box [-1001, 2] x [-1000, 2].
    pytest.param(("svg", "--vertices", "1,0;0,1;-1000,-999", "--out", "OUT"),
                 f"the SVG grid would have 1007012 lattice points, more than {SVG_MAX_GRID_POINTS}", id="svg-grid"),
    pytest.param(("svg", "--vertices", "1,0;0,1;-2,-1;-3,-2", "--out", "OUT"),
                 "NotStrictlyConvex(3): ray 3 is not a strict vertex of the hull", id="svg-not-polygon"),
])
def test_cli_refuses_argv(tmp_path, capsys, argv, message):
    svg = tmp_path / "out.svg"
    assert run(capsys, *[str(svg) if arg == "OUT" else arg for arg in argv]) == (2, "", f"error: {message}\n")
    assert not svg.exists()


@pytest.fixture(scope="module")
def box1_tagged_lines(box1_catalog):
    """The lines of the classified box-1 catalog, without their LF."""
    lines = [catalog_line(entry).encode("ascii")[:-1] for entry in classify_catalog(box1_catalog)]
    data = json.loads(lines[0])
    assert data["vertices"] == [[1, 0], [0, 1], [-2, -1]] and data["family"]["family"] == "dais1"
    return lines


def _line(line_no, edit):
    """A catalog edit that sends line `line_no` through `edit`."""
    return lambda lines: lines[:line_no - 1] + [edit(lines[line_no - 1])] + lines[line_no:]


def _first(edit):
    """A catalog edit of line 1, the dais1 triangle, as JSON: `edit` changes its dict."""
    def edit_json(line):
        data = json.loads(line)
        edit(data)
        return json.dumps(data).encode("ascii")

    return _line(1, edit_json)


def _set(key, value):
    return _first(lambda data: data.update({key: value}))


# Every catalog line the CLI refuses, as an edit of the box-1 classified
# catalog, the line it names and its message.  A message ending in "..." is
# CPython's own wording past that point, so only the text before it is pinned.
@pytest.mark.parametrize("edit, line_no, message", [
    # Malformed lines.
    pytest.param(_line(3, lambda line: b'{"vertices": "oops"}'), 3, "vertex 1 'o': not an (x, y) pair",
                 id="vertices-str"),
    pytest.param(_line(3, lambda line: b'{"vertices": 5}'), 3, "vertices 5: not a sequence of (x, y) pairs",
                 id="vertices-int"),
    pytest.param(_line(3, lambda line: b"[" * 200_000), 3,
                 "maximum recursion depth exceeded while decoding a JSON array...", id="deep-nesting"),
    pytest.param(_line(3, lambda line: line[:5] + b"\xc3\xa9" + line[5:]), 3,
                 "'ascii' codec can't decode byte 0xc3 in position 5...", id="non-ascii"),
    pytest.param(_line(3, lambda line: line + b" {}"), 3, "Extra data: line 1 column ...", id="trailing-value"),
    # Only LF ends a line, so two lines joined by a lone CR are one line with text after its value.
    pytest.param(lambda lines: lines[:2] + [lines[2] + b"\r" + lines[3]] + lines[4:], 3,
                 "Extra data: line 1 column ...", id="lone-cr"),
    pytest.param(_line(1, lambda line: b"5"), 1, "not a JSON object", id="line-int"),
    pytest.param(_line(1, lambda line: b"[1]"), 1, "not a JSON object", id="line-list"),
    pytest.param(_line(1, lambda line: b"null"), 1, "not a JSON object", id="line-null"),
    pytest.param(_line(1, lambda line: b'"x"'), 1, "not a JSON object", id="line-str"),
    # A catalog lists its classes in strictly increasing (d, vertices) order,
    # so a repeat cannot be counted twice; each line passes its own checks.
    pytest.param(lambda lines: lines + lines[:1], 12,
                 "(d, vertices) is not above the previous line's: a repeated or misordered class", id="repeated"),
    pytest.param(lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], 4,
                 "(d, vertices) is not above the previous line's: a repeated or misordered class", id="swapped"),
    # Coordinates: json writes 1.7 and Infinity and reads both back as floats.
    pytest.param(_set("vertices", [[1.7, 0], [0, 1], [-2, -1]]), 1, "vertex 1 [1.7, 0]: coordinates must be integers",
                 id="x-float"),
    pytest.param(_set("vertices", [[float("inf"), 0], [0, 1], [-2, -1]]), 1,
                 "vertex 1 [inf, 0]: coordinates must be integers", id="x-inf"),
    pytest.param(_set("vertices", [[1, 0, 0], [0, 1], [-2, -1]]), 1, "vertex 1 [1, 0, 0]: not an (x, y) pair",
                 id="vertex-triple"),
    pytest.param(_set("vertices", [[2**64, 0], [0, 1], [-2, -1]]), 1,
                 "x coordinate 18446744073709551616 exceeds the signed 64-bit range", id="x-above-int64"),
    pytest.param(_set("vertices", [[-(2**63) - 1, 0], [0, 1], [-2, -1]]), 1,
                 "x coordinate -9223372036854775809 exceeds the signed 64-bit range", id="x-below-int64"),
    pytest.param(_set("vertices", [[1, 0], [0, 1], [-2, -1], [-3, -2]]), 1,
                 "NotStrictlyConvex(3): ray 3 is not a strict vertex of the hull", id="vertices"),
    # Surface keys: the first in catalog order that is missing or differs is
    # named; a float or bool in place of an int differs.
    pytest.param(_set("d", 4), 1, "d 4 does not match the vertices, which give 3", id="d"),
    pytest.param(_set("d", 3.0), 1, "d 3.0 does not match the vertices, which give 3", id="d-float"),
    pytest.param(_set("d", True), 1, "d True does not match the vertices, which give 3", id="d-bool"),
    pytest.param(_set("rho", 2), 1, "rho 2 does not match the vertices, which give 1", id="rho"),
    pytest.param(_set("rho", "1"), 1, "rho '1' does not match the vertices, which give 1", id="rho-str"),
    pytest.param(_set("rho", 1.0), 1, "rho 1.0 does not match the vertices, which give 1", id="rho-float"),
    pytest.param(_set("dets", [9, 9, 9]), 1, "dets [9, 9, 9] does not match the vertices, which give [1, 2, 1]",
                 id="dets"),
    pytest.param(_set("dets", [True, 2, 1]), 1,
                 "dets [True, 2, 1] does not match the vertices, which give [1, 2, 1]", id="dets-bool"),
    pytest.param(_set("f", [4, 4, 5]), 1, "f [4, 4, 5] does not match the vertices, which give [4, 4, 4]", id="f"),
    pytest.param(_set("singular", True), 1, "singular True does not match the vertices, which give 1",
                 id="singular-bool"),
    pytest.param(_first(lambda data: data.pop("rho")), 1, "'rho'", id="missing-rho"),
    pytest.param(_first(lambda data: data.update(d=4) or data.pop("rho")), 1,
                 "d 4 does not match the vertices, which give 3", id="wrong-d-before-missing-rho"),
    pytest.param(_first(lambda data: data.update(f=[4, 4, 4.0]) or data.pop("singular")), 1,
                 "f [4, 4, 4.0] does not match the vertices, which give [4, 4, 4]",
                 id="wrong-f-before-missing-singular"),
    # Families: the shape is checked before the tag is read.
    pytest.param(_set("family", "two1"), 1, "family 'two1' is not a JSON object", id="family-str"),
    pytest.param(_set("family", 5), 1, "family 5 is not a JSON object", id="family-int"),
    pytest.param(_set("family", True), 1, "family True is not a JSON object", id="family-bool"),
    pytest.param(_set("family", [["family", "dais1"], ["p", 1]]), 1,
                 "family [['family', 'dais1'], ['p', 1]] is not a JSON object", id="family-list"),
    pytest.param(_set("family", [["family", "dais9"]]), 1, "family [['family', 'dais9']] is not a JSON object",
                 id="family-list-unknown"),
    pytest.param(_set("family", {"family": "dais1", "p": 2.5}), 1, "family dais1 parameter p 2.5 is not an integer",
                 id="family-p"),
    pytest.param(_set("family", {"family": "dais1", "p": 1, "t": None}), 1, "family dais1 parameter t is null",
                 id="family-null-param"),
    pytest.param(_set("family", {"family": "dais1", "p": None}), 1, "family dais1 requires parameter p",
                 id="family-null-required"),
    pytest.param(_set("family", {"family": [1]}), 1, "unknown family tag [1]", id="family-tag-list"),
    pytest.param(_set("family", {"family": "dais1", "p": 1, "zz": 2}), 1,
                 "family key 'zz' is not one of family, p, q, r, s, t", id="family-unknown-key"),
])
def test_tampered_catalog_line_is_bad_input(tmp_path, capsys, box1_tagged_lines, edit, line_no, message):
    path = tmp_path / "edited.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in edit(list(box1_tagged_lines))))
    expected = f"error: bad catalog line {line_no}: {message}\n"
    for command in ("check", "classify"):
        code, out, err = run(capsys, command, "--in", str(path))
        if message.endswith("..."):
            assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith(expected[:-4])
        else:
            assert (code, out, err) == (2, "", expected)


def test_crlf_catalog_reads_as_its_lf_original(tmp_path, capsys, box1_tagged_lines):
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(b"".join(line + b"\r\n" for line in box1_tagged_lines))
    code, out, err = run(capsys, "check", "--in", str(path))
    assert (code, err, json.loads(out)["total"]) == (0, "", 11)
    lf = "".join(line.decode("ascii") + "\n" for line in box1_tagged_lines)
    assert run(capsys, "classify", "--in", str(path)) == (0, lf, "")


def test_svg_output(tmp_path, capsys):
    out_path = tmp_path / "tri.svg"
    code, out, err = run(capsys, "svg", "--vertices", "1,0;0,1;-2,-3", "--out", str(out_path))
    assert code == 0
    assert out.strip() == str(out_path)
    text = out_path.read_text()
    assert text.startswith("<svg")
    assert "</svg>" in text
    for det in ("1", "2", "3"):
        assert f">{det}</text>" in text
    assert text.count("<polygon") == 1


def test_svg_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run(capsys, "svg", "--vertices", "1,0;0,1;-1,0;1,-3;2,-3", "--out", str(a))
    run(capsys, "svg", "--vertices", "1,0;0,1;-1,0;1,-3;2,-3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count(">3</text>") == 3
    assert a.read_text().count(">1</text>") == 2


def test_entry_serialization_roundtrip():
    entries = classify_catalog(enumerate_ldp(1))
    for entry in entries:
        assert entry_from_dict(json.loads(catalog_line(entry))) == entry


def _reference_line(entry):
    """The catalog line of `entry` through the json module's own encoder."""
    report = analyze(entry.poly)
    data = {
        "vertices": [list(v) for v in entry.vertices],
        "d": report.d,
        "rho": report.picard_number,
        "dets": list(report.dets),
        "f": list(report.f_values),
        "singular": report.singular_count,
        "family": None if entry.family is None else entry.family.to_dict(),
        "three_case": entry.three_case,
    }
    return json.dumps(data, separators=(",", ":")) + "\n"


def _assert_line(entry):
    line = catalog_line(entry)
    assert line == _reference_line(entry) == _dump(json.loads(catalog_line(entry))) + "\n"
    assert line.isascii() and entry_from_dict(json.loads(line)) == entry


def test_catalog_line_is_the_json_of_every_box_three_entry(box3_catalog):
    for catalog in (box3_catalog, classify_catalog(box3_catalog)):
        for entry in catalog:
            _assert_line(entry)


@pytest.mark.parametrize("three_case", [7, [1, "x", None], "caf\u00e9", "", "picard_le_two"])
def test_catalog_line_writes_any_three_case_as_json(three_case):
    _assert_line(CatalogEntry(enumerate_ldp(1)[0].poly, None, three_case))


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_catalog_line_writes_each_family_tag(tag):
    # Formatting does not check the family constraints; negative and wide
    # values go through as written.
    values = [-3, 2**62, 0, 5, -(2**63)][: len(FAMILY_SPECS[tag].params)]
    poly = enumerate_ldp(1)[-1].poly
    _assert_line(CatalogEntry(poly, FamilyParams(tag, *values), "none"))


@pytest.mark.parametrize("command", ["enumerate", "classify"])
def test_catalog_stdout_is_the_out_file(tmp_path, capsys, command):
    raw = tmp_path / "raw.jsonl"
    run(capsys, "enumerate", "--box", "2", "--jobs", "1", "--out", str(raw))
    argv = ["enumerate", "--box", "2", "--jobs", "1"] if command == "enumerate" else ["classify", "--in", str(raw)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    written = tmp_path / "out.jsonl"
    run(capsys, *argv, "--out", str(written))
    assert out.encode("ascii") == written.read_bytes() and out.count("\n") == 156


def test_write_read_catalog_roundtrip(tmp_path):
    entries = enumerate_ldp(1)
    path = tmp_path / "cat.jsonl"
    write_catalog(entries, str(path))
    assert read_catalog(str(path)) == entries


# sha256 of the write_catalog bytes of the box-n catalog, raw and classified.
CATALOG_SHA256 = {
    1: (
        "0d83b58204ce52d17c158bc99a43723f90dee68937740e905d9a6fc82cce5f21",
        "50123f45421a1c90bb84f34d9c25fe815e928db9af364d0c001995a64ddf200a",
    ),
    2: (
        "cfd83e29a716aa8f66e3bde566857eb35a5ebb3adb3866e6bf3cdd79dd367cec",
        "ccb604a14416f4eeeeb9564da7ae4ad9693e8373f4a459fa5152eaefb640f8bc",
    ),
}


@pytest.mark.parametrize("n", [1, 2])
def test_catalog_bytes_pinned(tmp_path, request, n):
    entries = request.getfixturevalue(f"box{n}_catalog")
    digests = []
    for name, catalog in (("raw", entries), ("classified", classify_catalog(entries))):
        path = tmp_path / f"{name}.jsonl"
        write_catalog(catalog, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == CATALOG_SHA256[n]


# Coordinates past int()'s 4,300-digit limit, below it but far out of range,
# and a small one after a long run of zeros.
_FUZZ_LONG = ("7" * 4000, "-" + "1" * 5001, "0" * 6000 + "1")


def _fuzz_vertex_text(rng, polygons):
    """Vertex text: half the time a catalog polygon, rotated, perhaps reversed
    or with one coordinate moved by 1; else random tokens, mostly well formed,
    with small or out-of-range ints, now and then one of 4,000 or 5,001
    digits or a small one after 6,000 zeros, and now and then a malformed
    token."""
    if rng.random() < 0.5:
        pts = [list(p) for p in rng.choice(polygons)]
        k = rng.randrange(len(pts))
        pts = pts[k:] + pts[:k]
        if rng.random() < 0.2:
            pts.reverse()
        if rng.random() < 0.3:
            rng.choice(pts)[rng.randrange(2)] += rng.choice((-1, 1))
        return ";".join(f"{x},{y}" for x, y in pts)
    tokens = []
    for _ in range(rng.randint(0, 7)):
        x, y = (rng.choice(_FUZZ_LONG) if rng.random() < 0.05 else
                rng.choice([rng.randint(-3, 3), rng.randint(-40, 40), 2**63, -(2**63) - 1]) for _ in "xy")
        token = rng.choice([f"{x},{y}", f" {x} , {y} ", f"{x},{y},{x}", f"{x}", f"{x},a", "", f"{x}.5,{y}"]
                           if rng.random() < 0.15 else [f"{x},{y}"])
        tokens.append(token)
    return ";".join(tokens)


def _fuzz_catalog_line(rng, line):
    """One box-2 catalog line, mutated as text or as JSON."""
    if rng.random() < 0.5:
        chars = list(line)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                del chars[i]
            else:
                chars[i:i + op - 1] = rng.choice('0123456789-,:[]{}" .eEtrufalsn\\\xe9')
        return "".join(chars)
    data = json.loads(line)
    key = rng.choice(list(data))
    value = rng.choice([None, True, 1.0, -1, 2**64, 10**4000, "1", "x" * 5000, [], {}, [[1, 0]], [[0, 1], [1, 0], [-1, -1]],
                        {"family": "dais1", "p": 1}, {"family": "nope"}, json.loads(line)[key]])
    if rng.random() < 0.2:
        del data[key]
    elif isinstance(data[key], list) and data[key] and rng.random() < 0.5:
        data[key][rng.randrange(len(data[key]))] = value
    else:
        data[key] = value
    return json.dumps(data)


def test_seeded_cli_fuzz_exits_zero_or_two(tmp_path, capsys, box2_catalog):
    # Random vertex text for the polygon commands and mutated box-2 catalog
    # lines for check and classify: every call exits 0 or 2, never 1 (that
    # means counterexamples), never with a traceback, and with a stderr of
    # at most 500 characters, whatever the length of the input it refuses.
    rng = random.Random(2024)
    tagged = tmp_path / "tagged.jsonl"
    write_catalog(classify_catalog(box2_catalog), str(tagged))
    lines = tagged.read_text().splitlines()
    polygons = [entry.vertices for entry in box2_catalog]
    families = [json.loads(line)["family"] for line in lines if '"family":{' in line]
    svg = str(tmp_path / "fuzz.svg")
    catalog = tmp_path / "fuzz.jsonl"
    codes = []
    for case in range(300):
        kind = case % 6
        if kind == 0:
            argv = ["analyze", _fuzz_vertex_text(rng, polygons)] + (["--json"] if rng.random() < 0.5 else [])
        elif kind == 1:
            other = rng.choice([_fuzz_vertex_text(rng, polygons), "1,0;0,1;-1,-1"])
            argv = ["equiv", "--a", _fuzz_vertex_text(rng, polygons), "--b", other]
        elif kind == 2:
            argv = ["blowup", "--vertices", _fuzz_vertex_text(rng, polygons), "--cone", str(rng.randint(-1, 8))]
        elif kind == 3:
            argv = ["svg", "--vertices", _fuzz_vertex_text(rng, polygons), "--out", svg]
        elif kind == 4:
            params = dict(rng.choice(families))
            tag = params.pop("family") if rng.random() < 0.8 else rng.choice(FAMILY_TAGS + ("nope",))
            if rng.random() < 0.5:
                names = rng.sample("pqrst", rng.randint(0, 5))
                params = {name: rng.choice([rng.randint(-6, 6), 2**63, "x"]) for name in names}
            argv = ["family", "--family", tag]
            for name, value in params.items():
                argv += [f"--{name}", str(value)]
        else:
            chosen = [lines[i] for i in sorted(rng.sample(range(len(lines)), 4))]  # in file order
            chosen[rng.randrange(4)] = _fuzz_catalog_line(rng, rng.choice(lines))
            catalog.write_text("\n".join(chosen) + "\n", encoding="utf-8")
            argv = [rng.choice(["check", "classify"]), "--in", str(catalog)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line with 2
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err and len(err) <= 500, (argv, code, err[:1000])
        codes.append(code)
    # Each kind of case both passes and fails somewhere, so none is rejected wholesale.
    assert all(0 in codes[kind::6] and 2 in codes[kind::6] for kind in range(6))
