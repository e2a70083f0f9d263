"""End-to-end command tests driven through ``main`` with captured output."""

import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from subdiv import cli as cli_mod
from subdiv import realroot as realroot_mod
from subdiv import triangulate as triangulate_mod
from subdiv import verify as verify_mod
from subdiv.cli import main
from subdiv.complexes import SimplicialComplex
from subdiv.localh import second_sd_local_h
from subdiv.poly import format_poly
from subdiv.triangulate import (
    barycentric,
    stellar,
    triangulation_to_json,
    trivial,
)
from subdiv.verify import CaseResult, VerifySuiteReport

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, text=True):
    """A fresh interpreter that imports ``subdiv`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=text, timeout=30)


@pytest.fixture
def simplex3(tmp_path):
    path = tmp_path / "simplex3.json"
    path.write_text('{"vertices": [1, 2, 3], "facets": [[1, 2, 3]]}')
    return str(path)


def write_triangulation(tmp_path, T, name="tri.json"):
    path = tmp_path / name
    path.write_text(json.dumps(triangulation_to_json(T)))
    return str(path)


class TestTables:
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_matches_golden_bytes(self, capsys, which):
        code, out, _ = run(capsys, "tables", "--which", str(which), "--n", "4")
        assert code == 0
        assert out == (GOLDEN / f"table{which}.txt").read_text()

    def test_reference_cells(self, capsys):
        _, out, _ = run(capsys, "tables", "--which", "1", "--n", "4")
        assert "2x+8x^2+x^3" in out
        _, out, _ = run(capsys, "tables", "--which", "2", "--n", "2")
        assert out.splitlines()[-1].split()[-1] == "x+x^2"
        _, out, _ = run(capsys, "tables", "--which", "3", "--n", "3")
        assert out.splitlines()[-1].split()[-1] == "3x^2+x^3"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "1", "--n", "2",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",k=0,k=1,k=2"
        assert lines[-1] == "n=2,1+x,x,x"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "3", "--n", "3",
                           "--format", "json")
        assert code == 0
        body = json.loads(out)
        assert body["table"] == 3
        assert body["rows"][-1]["cells"][-1] == "3x^2+x^3"

    def test_bound_enforced(self, capsys):
        code, _, err = run(capsys, "tables", "--which", "1", "--n", "9")
        assert code == 2
        assert "n <= 8" in err


class TestLocalH:
    def test_trivial_simplex_is_zero(self, capsys, simplex3):
        code, out, _ = run(capsys, "localh", "--input", simplex3)
        assert code == 0
        assert out == "0\n"

    def test_two_sd_pipeline(self, capsys, simplex3, tmp_path):
        _, out, _ = run(capsys, "subdivide", "--input", simplex3, "--kind", "sd")
        once = tmp_path / "sd1.json"
        once.write_text(out)
        _, out, _ = run(capsys, "subdivide", "--input", str(once), "--kind", "sd")
        twice = tmp_path / "sd2.json"
        twice.write_text(out)
        code, out, _ = run(capsys, "localh", "--input", str(twice))
        assert code == 0
        assert out.strip() == format_poly(second_sd_local_h(3))

    def test_emit_c(self, capsys, tmp_path):
        path = write_triangulation(tmp_path, barycentric(trivial((1, 2, 3))))
        code, out, _ = run(capsys, "localh", "--input", path, "--emit-c")
        assert code == 0
        body = json.loads(out)
        assert body["n"] == 3
        assert [3, 0, 1] in body["c"]
        assert [1, 1, 3] in body["c"]

    def test_via_uniform_agrees_with_pipeline(self, capsys, tmp_path):
        path = write_triangulation(tmp_path, barycentric(trivial((1, 2, 3))))
        code, out, _ = run(capsys, "localh", "--input", path,
                           "--via-uniform", "sd")
        assert code == 0
        assert out.strip() == format_poly(second_sd_local_h(3))

    def test_json_output(self, capsys, simplex3):
        code, out, _ = run(capsys, "localh", "--input", simplex3,
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"local_h": []}

    def test_schema_error_carries_pointer(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [1, "a"], "facets": [[1]]}')
        code, _, err = run(capsys, "localh", "--input", str(path))
        assert code == 2
        assert "/vertices/1" in err

    def test_non_simplex_base_rejected(self, capsys, tmp_path):
        path = tmp_path / "path.json"
        path.write_text('{"vertices": [1, 2, 3], "facets": [[1, 2], [2, 3]]}')
        code, _, err = run(capsys, "localh", "--input", str(path))
        assert code == 2
        assert "full simplex" in err

    @pytest.mark.parametrize("options", [
        (), ("--emit-c",), ("--via-uniform", "sd"), ("--via-uniform", "esd:1"),
    ], ids=["plain", "emit-c", "via-sd", "via-esd1"])
    def test_non_simplex_base_before_size_guard(self, capsys, tmp_path, options):
        # Nine vertices are past both size guards of --via-uniform, but
        # the base is refused first, with the same line for every mode.
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"vertices": list(range(1, 10)),
                                    "facets": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]}))
        assert run(capsys, "localh", "--input", str(path), *options) == (
            2, "", "error: the base complex must be a full simplex\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "localh", "--input", "/no/such/file.json")
        assert code == 2
        assert "cannot read input" in err


class TestSubdivide:
    def test_output_reloads(self, capsys, simplex3, tmp_path):
        _, out, _ = run(capsys, "subdivide", "--input", simplex3,
                        "--kind", "esd:3")
        path = tmp_path / "esd.json"
        path.write_text(out)
        code, out, _ = run(capsys, "localh", "--input", str(path))
        assert code == 0
        assert out.strip() == "x+x^2"

    def test_stellar_kind(self, capsys, simplex3):
        code, out, _ = run(capsys, "subdivide", "--input", simplex3,
                           "--kind", "stellar:1,2,3")
        assert code == 0
        assert len(json.loads(out)["total"]["facets"]) == 3

    def test_random_requires_trivial_input(self, capsys, tmp_path):
        path = write_triangulation(tmp_path, barycentric(trivial((1, 2))))
        code, _, err = run(capsys, "subdivide", "--input", path,
                           "--kind", "random:3")
        assert code == 2
        assert "single simplex" in err

    def test_random_is_seeded(self, capsys, simplex3):
        _, first, _ = run(capsys, "subdivide", "--input", simplex3,
                          "--kind", "random:4", "--seed", "11")
        _, again, _ = run(capsys, "subdivide", "--input", simplex3,
                          "--kind", "random:4", "--seed", "11")
        assert first == again

    def test_random_rejects_negative_steps(self, capsys, simplex3):
        code, out, err = run(capsys, "subdivide", "--input", simplex3,
                             "--kind", "random:-2")
        assert code == 2
        assert out == ""
        assert err == "error: bad step count in 'random:-2'\n"

    def test_random_past_the_step_cap(self, capsys, simplex3):
        code, out, err = run(capsys, "subdivide", "--input", simplex3,
                             "--kind", "random:65")
        assert code == 2
        assert out == ""
        assert err == "error: random refinement is limited to 64 steps\n"

    def test_unknown_kind(self, capsys, simplex3):
        code, _, err = run(capsys, "subdivide", "--input", simplex3,
                           "--kind", "fold")
        assert code == 2
        assert "unknown kind" in err

    @pytest.mark.parametrize("kind, facets", [
        ("sd", [range(1, 10)]),                    # 9! facets
        ("esd:201", [range(1, 4)]),                # 201^2
        ("esd:6", [range(1, 9)]),                  # 6^7
        ("sd", [range(1, 9), range(2, 10), range(3, 11)]),  # 3 * 8!
        ("esd:" + "9" * 4000, [range(1, 4)]),      # a 4000-digit R
    ], ids=["sd-9", "esd201-3", "esd6-8", "sd-three-8s", "esd-huge-r"])
    def test_size_cap(self, capsys, monkeypatch, tmp_path, kind, facets):
        def refuse(*args, **kwargs):
            raise AssertionError("refinement started before the size check")

        monkeypatch.setattr(triangulate_mod, "barycentric", refuse)
        monkeypatch.setattr(triangulate_mod, "edgewise", refuse)
        path = tmp_path / "complex.json"
        facets = [list(f) for f in facets]
        verts = sorted({v for f in facets for v in f})
        path.write_text(json.dumps({"vertices": verts, "facets": facets}))
        code, out, err = run(capsys, "subdivide", "--input", str(path),
                             "--kind", kind)
        assert code == 2
        assert out == ""
        assert err == f"error: {kind} would build more than 40320 facets\n"

    def test_size_cap_is_inclusive(self, monkeypatch, tmp_path):
        class Reached(Exception):
            pass

        def reached(T):
            raise Reached

        monkeypatch.setattr(triangulate_mod, "barycentric", reached)
        path = tmp_path / "simplex8.json"
        verts = list(range(1, 9))
        path.write_text(json.dumps({"vertices": verts, "facets": [verts]}))
        with pytest.raises(Reached):  # exactly 8! = 40320 facets
            main(["subdivide", "--input", str(path), "--kind", "sd"])

    def test_second_sd_of_four_simplex(self, capsys, tmp_path):
        """The paper's value for sd^2 of the 4-simplex, read from the
        14,400-facet file that two ``subdivide --kind sd`` steps write."""
        path = tmp_path / "simplex5.json"
        path.write_text('{"vertices": [1, 2, 3, 4, 5], "facets": [[1, 2, 3, 4, 5]]}')
        for name in ("sd1.json", "sd2.json"):
            code, out, _ = run(capsys, "subdivide", "--input", str(path),
                               "--kind", "sd")
            assert code == 0
            path = tmp_path / name
            path.write_text(out)
        assert len(json.loads(out)["total"]["facets"]) == 14400
        code, out, _ = run(capsys, "localh", "--input", str(path))
        assert code == 0
        assert out == "541x+5381x^2+5381x^3+541x^4\n"


# interlace F G with --explain, and the json body: the pinned bytes of
# both formats.
PINNED_INTERLACE = [
    ("1+4x+x^2", "x+4x^2+x^3", 0,
     "true\nreason: roots weakly alternate\n"
     "roots of f: (-5, -5/2), (-5/2, 0)\n"
     "roots of g: (-5, -5/2), (-5/16, -5/32), 0\n",
     '"f_roots": "(-5, -5/2), (-5/2, 0)", '
     '"g_roots": "(-5, -5/2), (-5/16, -5/32), 0", '
     '"interlaces": true, "reason": "roots weakly alternate"'),
    ("1+4x+x^2", "1+x^2", 1,
     "false\nreason: second polynomial is not real-rooted\n"
     "roots of f: (-5, -5/2), (-5/2, 0)\n",
     '"f_roots": "(-5, -5/2), (-5/2, 0)", "g_roots": null, '
     '"interlaces": false, "reason": "second polynomial is not real-rooted"'),
    ("2+3x+x^2", "2+5x+4x^2+x^3", 0,
     "true\nreason: roots weakly alternate\n"
     "roots of f: -2, -1\nroots of g: -2, -1 x2\n",
     '"f_roots": "-2, -1", "g_roots": "-2, -1 x2", '
     '"interlaces": true, "reason": "roots weakly alternate"'),
    ("x^2-2", "x+x^2-3", 1,
     "false\nreason: root alternation fails\n"
     "roots of f: (-3, 0), (0, 3)\nroots of g: (-4, 0), (0, 4)\n",
     '"f_roots": "(-3, 0), (0, 3)", "g_roots": "(-4, 0), (0, 4)", '
     '"interlaces": false, "reason": "root alternation fails"'),
    ("1+2x+x^2", "1+x", 1,
     "false\nreason: degree 2 outside window [0, 1]\n"
     "roots of f: -1 x2\nroots of g: -1\n",
     '"f_roots": "-1 x2", "g_roots": "-1", '
     '"interlaces": false, "reason": "degree 2 outside window [0, 1]"'),
]


def pinned_csv(explain):
    ok, reason = explain.splitlines()[:2]
    reason = reason.removeprefix("reason: ")
    if "," in reason:
        reason = f'"{reason}"'
    return f"interlaces,reason\r\n{ok},{reason}\r\n"


class TestInterlace:
    def test_true_case(self, capsys):
        code, out, _ = run(capsys, "interlace", "1+4x+x^2", "x+4x^2+x^3")
        assert code == 0
        assert out == "true\n"

    def test_false_case_exits_one(self, capsys):
        code, out, _ = run(capsys, "interlace", "x+4x^2+x^3", "1+4x+x^2")
        assert code == 1
        assert out.startswith("false")

    def test_explain_shows_roots(self, capsys):
        code, out, _ = run(capsys, "interlace", "1+x", "x+x^2", "--explain")
        assert code == 0
        assert "roots of f: -1" in out

    def test_json_body(self, capsys):
        _, out, _ = run(capsys, "interlace", "1+4x+x^2", "1+x^2",
                        "--format", "json")
        body = json.loads(out)
        assert body["interlaces"] is False
        assert "not real-rooted" in body["reason"]

    def test_bad_polynomial(self, capsys):
        code, _, err = run(capsys, "interlace", "1+!x", "x")
        assert code == 2
        assert "error" in err

    def test_exponent_cap(self, capsys):
        # the cap is parsed and answered; one past it, or far past it,
        # exits 2 before any coefficient list is built
        assert run(capsys, "interlace", "--explain", "--", "x^63", "x^64") == (
            0, "true\nreason: roots weakly alternate\n"
               "roots of f: 0 x63\nroots of g: 0 x64\n", "")
        for exp in ("65", "1000000000"):
            assert run(capsys, "interlace", "--", f"x^{exp}", "1") == (
                2, "", f"error: exponent {exp} in 'x^{exp}' is past the limit of 64\n")

    @pytest.mark.parametrize("f, g, code, explain, body", PINNED_INTERLACE)
    def test_pinned_stdout(self, capsys, f, g, code, explain, body):
        assert run(capsys, "interlace", f, g, "--explain") == (code, explain, "")
        assert run(capsys, "interlace", f, g, "--format", "json") == (
            code, "{" + body + "}\n", "")
        assert run(capsys, "interlace", f, g, "--format", "csv") == (
            code, pinned_csv(explain), "")

    @pytest.mark.parametrize("f, g, code, explain, body", PINNED_INTERLACE)
    def test_answer_alone_isolates_no_roots(self, capsys, monkeypatch, f, g,
                                            code, explain, body):
        def refuse(p):
            raise AssertionError("roots isolated for output that prints none")

        monkeypatch.setattr(realroot_mod, "isolate_roots", refuse)
        assert run(capsys, "interlace", f, g) == (
            code, explain.splitlines()[0] + "\n", "")
        assert run(capsys, "interlace", f, g, "--format", "csv") == (
            code, pinned_csv(explain), "")


class TestFTriangle:
    def test_kind_edgewise(self, capsys):
        code, out, _ = run(capsys, "ftriangle", "--kind", "esd:2", "--n", "3")
        assert code == 0
        assert out.splitlines()[-1].split() == ["j=3", "1", "6", "9", "4"]

    def test_input_route_matches_kind_route(self, capsys, tmp_path):
        path = write_triangulation(tmp_path, barycentric(trivial((1, 2, 3))))
        _, from_input, _ = run(capsys, "ftriangle", "--input", path,
                               "--format", "json")
        _, from_kind, _ = run(capsys, "ftriangle", "--kind", "sd", "--n", "3",
                              "--format", "json")
        assert json.loads(from_input) == json.loads(from_kind)

    def test_non_uniform_input_exits_one(self, capsys, tmp_path):
        path = write_triangulation(
            tmp_path, stellar(trivial((1, 2, 3)), (1, 2)))
        code, _, err = run(capsys, "ftriangle", "--input", path)
        assert code == 1
        assert "not uniform" in err

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_void_input_exits_two(self, capsys, tmp_path, fmt):
        path = tmp_path / "void.json"
        path.write_text('{"vertices": [], "facets": []}')
        assert run(capsys, "ftriangle", "--input", str(path), "--format", fmt) == (
            2, "", "error: the base complex must not be void\n")

    @pytest.mark.parametrize("kind, n, message", [
        ("sd", "9", "sd would build more than 40320 facets"),
        ("esd:1", "9", "a simplex on 9 vertices is past the limit of 8"),
        ("esd:2", "9", "a simplex on 9 vertices is past the limit of 8"),
        ("esd:201", "3", "esd:201 would build more than 40320 facets"),
        ("esd:7", "7", "esd:7 would build more than 40320 facets"),
    ])
    def test_kind_size_cap(self, capsys, monkeypatch, tmp_path, kind, n, message):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration started before the size check")

        for name in ("f_triangle", "c_coefficients"):
            monkeypatch.setattr(cli_mod, name, refuse)
        for name in ("barycentric", "edgewise"):
            monkeypatch.setattr(triangulate_mod, name, refuse)
        assert run(capsys, "ftriangle", "--kind", kind, "--n", n) == (
            2, "", f"error: {message}\n")

        # localh --via-uniform asks the same guard about its input's n and
        # builds nothing either; a verify case reports the guard's message.
        simplex = tmp_path / "simplex.json"
        verts = list(range(1, int(n) + 1))
        simplex.write_text(json.dumps({"vertices": verts, "facets": [verts]}))
        assert run(capsys, "localh", "--input", str(simplex),
                   "--via-uniform", kind) == (2, "", f"error: {message}\n")
        code, out, _ = run(capsys, "verify", "thm-uniform", "--n", n,
                           "--seeds", "1", "--kinds", kind, "--format", "json")
        assert code == 1
        assert [f["detail"] for f in json.loads(out)["failures"]] == [
            f"raised ValueError: {message}"]

    def test_needs_exactly_one_source(self, capsys, simplex3):
        code, _, err = run(capsys, "ftriangle", "--input", simplex3,
                           "--kind", "sd", "--n", "3")
        assert code == 2
        assert "exactly one" in err


class TestInputFacetCap:
    """Input files with a facet past 12 vertices are refused on loading,
    before any command starts its work on them."""

    ENTRIES = [["localh"], ["localh", "--emit-c"], ["ftriangle"],
               ["subdivide", "--kind", "random:1"]]
    COMPUTE = ("local_h", "c_coefficients", "f_triangle_of", "random_triangulation")

    class Reached(Exception):
        pass

    @pytest.fixture
    def patched(self, monkeypatch):
        def reached(*args, **kwargs):
            raise self.Reached

        for name in self.COMPUTE:
            monkeypatch.setattr(cli_mod, name, reached)

    @staticmethod
    def write(tmp_path, n, form):
        verts = list(range(1, n + 1))
        if form == "complex":
            obj = {"vertices": verts, "facets": [verts]}
        elif form == "triangulation":
            obj = triangulation_to_json(trivial(verts))
        else:  # a big total facet over a small base
            obj = {"base": {"vertices": [1, 2, 3], "facets": [[1, 2, 3]]},
                   "total": {"vertices": verts, "facets": [verts]},
                   "carrier": {str(v): [1, 2, 3] for v in verts}}
        path = tmp_path / f"{form}{n}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("form", ["complex", "triangulation", "total"])
    @pytest.mark.parametrize("argv", ENTRIES)
    def test_thirteen_vertices_refused(self, capsys, tmp_path, patched, argv, form):
        path = self.write(tmp_path, 13, form)
        assert run(capsys, argv[0], "--input", path, *argv[1:]) == (
            2, "", "error: input has a facet on 13 vertices; the limit is 12\n")

    @pytest.mark.parametrize("argv", ENTRIES)
    def test_big_base_refused_before_its_faces(self, capsys, monkeypatch,
                                               tmp_path, patched, argv):
        # Checking a carrier against the base lists its 2^18 faces.
        path = self.write(tmp_path, 18, "triangulation")

        def listed(*args):
            raise AssertionError("faces listed before the size check")

        monkeypatch.setattr(SimplicialComplex, "faces", listed)
        monkeypatch.setattr(SimplicialComplex, "face_set", listed)
        monkeypatch.setattr(SimplicialComplex, "faces_of_size", listed)
        assert run(capsys, argv[0], "--input", path, *argv[1:]) == (
            2, "", "error: input has a facet on 18 vertices; the limit is 12\n")

    @pytest.mark.parametrize("argv", ENTRIES)
    def test_twelve_vertices_reach_the_command(self, tmp_path, patched, argv):
        path = self.write(tmp_path, 12, "complex")
        with pytest.raises(self.Reached):
            main([argv[0], "--input", path, *argv[1:]])


class TestStatPoly:
    def test_word_family(self, capsys):
        code, out, _ = run(capsys, "stat-poly", "--family", "E",
                           "--params", "3,2")
        assert code == 0
        assert out == "1+3x\n"

    def test_d_family_matches_table(self, capsys):
        _, out, _ = run(capsys, "stat-poly", "--family", "d", "--params", "4,3")
        assert out == "2x+8x^2+x^3\n"

    def test_refined_d_family(self, capsys):
        _, out, _ = run(capsys, "stat-poly", "--family", "d",
                        "--params", "3,1,2", "--format", "json")
        assert json.loads(out) == {"d_{3,1,2}": ["0", "1", "3"]}

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "stat-poly", "--family", "p",
                           "--params", "1,2,3")
        assert code == 2
        assert "parameters" in err

    def test_enumeration_bound(self, capsys):
        code, _, err = run(capsys, "stat-poly", "--family", "d",
                           "--params", "11,0")
        assert code == 2

    def test_word_family_budget(self, capsys):
        code, out, err = run(capsys, "stat-poly", "--family", "E",
                             "--params", "400,400")
        assert (code, out) == (2, "")
        assert err == ("error: E_nr(400, 400) exceeds the budget "
                       "n^2 (r - 1) <= 2000000\n")


def _table_argvs():
    for which in (1, 2, 3):
        for n in range(9):
            for fmt in ("text", "json", "csv"):
                yield ["tables", "--which", str(which), "--n", str(n),
                       "--format", fmt]


def _stat_poly_argvs():
    # Each n from -1 to 11 with indices below, at and above the range, so
    # values, range errors and S_11 refusals are all covered.
    for n in range(-1, 12):
        idx = sorted({-1, 0, n // 2, n, n + 1})
        for k in idx:
            for family in ("d", "p"):
                yield ["stat-poly", "--family", family, f"--params={n},{k}"]
            for j in idx:
                yield ["stat-poly", "--family", "d", f"--params={n},{k},{j}"]


class TestPermutationOutputBytes:
    """Every table and d/p output, error paths included, pinned by digest.

    The digest was taken from the S_m-sweep implementation of ``perm``
    and must not move when the families are computed another way.
    """

    # sha256 of every (argv, exit code, stdout, stderr), in order.
    DIGEST = "1adee06722ce5894f7f031872cc2cb11fa599d11ea071caa5cf942ea5e79a6b6"

    def test_digest(self, capsys):
        h = hashlib.sha256()
        for argv in [*_table_argvs(), *_stat_poly_argvs()]:
            h.update(repr((argv, *run(capsys, *argv))).encode())
        assert h.hexdigest() == self.DIGEST


def _face_triangle_argvs():
    # Every kind spelling, refused ones such as trivial included, n below,
    # inside and at the top of the range, in each format, then the two
    # cap refusals and the word family E_{n,r} with its guards.
    kinds = ["trivial", "sd", *(f"esd:{r}" for r in range(5)), "esd:x", "bogus"]
    for kind in kinds:
        for n in range(-1, 8):
            for fmt in ("text", "json", "csv"):
                yield ["ftriangle", "--kind", kind, f"--n={n}", "--format", fmt]
    yield ["ftriangle", "--kind", "sd", "--n", "9"]
    yield ["ftriangle", "--kind", "esd:201", "--n", "3"]
    for n in range(-1, 9):
        for r in range(-1, 9):
            yield ["stat-poly", "--family", "E", f"--params={n},{r}"]


class TestFaceTriangleOutputBytes:
    """Every ``ftriangle --kind`` and E_{n,r} output, errors included.

    Apart from the ``trivial`` rows and the ``sd --n 9`` refusal, which
    ``parse_kind`` and ``check_simplex`` answer, the records are those
    taken when ``f_triangle`` counted the faces of the subdivision it
    built; they must not move when the rows are read off h-polynomials.
    """

    # sha256 of every (argv, exit code, stdout, stderr), in order.
    DIGEST = "d6c51f051cf77c28e6be5ccf1c14b9e56050d70f902d2b2133528f7dc6bc1622"

    def test_digest(self, capsys):
        h = hashlib.sha256()
        for argv in _face_triangle_argvs():
            h.update(repr((argv, *run(capsys, *argv))).encode())
        assert h.hexdigest() == self.DIGEST


class TestCsvBytes:
    def test_localh(self, capsys, tmp_path):
        path = write_triangulation(tmp_path, barycentric(trivial((1, 2, 3, 4))))
        assert run(capsys, "localh", "--input", path, "--format", "csv") == (
            0, "power,coefficient\r\n0,0\r\n1,1\r\n2,7\r\n3,1\r\n", "")
        assert run(capsys, "localh", "--input", path, "--via-uniform", "esd:2",
                   "--format", "csv") == (
            0, "power,coefficient\r\n0,0\r\n1,15\r\n2,87\r\n3,15\r\n", "")

    @pytest.mark.parametrize("family, params, out", [
        ("E", "4,3", "power,coefficient\r\n0,1\r\n1,16\r\n2,10\r\n"),
        ("d", "3,1,2", "power,coefficient\r\n0,0\r\n1,1\r\n2,3\r\n"),
        ("d", "1,1", "power,coefficient\r\n"),
    ])
    def test_stat_poly(self, capsys, family, params, out):
        assert run(capsys, "stat-poly", "--family", family, "--params", params,
                   "--format", "csv") == (0, out, "")

    @pytest.mark.parametrize("argv, out", [
        (["thm-sd", "--n", "2", "--seeds", "1..3"],
         "case,ok,detail\r\n"
         "n=2 seed=1 steps=6,true,steps=1 ell=3x\r\n"
         "n=2 seed=2 steps=6,true,steps=2 ell=5x\r\n"
         "n=2 seed=3 steps=6,true,steps=3 ell=7x\r\n"),
        (["esd-counterexample"],
         "case,ok,detail\r\n"
         '"input=esd_2(stellar simplex), n=6",true,'
         "ell=7x+42x^2+63x^3+42x^4+7x^5 and not real-rooted\r\n"),
    ])
    def test_verify(self, capsys, argv, out):
        code, stdout, _ = run(capsys, "verify", *argv, "--format", "csv")
        assert (code, stdout) == (0, out)


# The options that change each suite's case count, as its empty-run
# refusal names them.
WIDEN = {"cor-sd": "--n or --k", "foata": "--n", "prop-dnkj-rec": "--n"}


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, out, err = run(capsys, "verify", "foata", "--n", "4")
        assert code == 0
        assert "suite foata: 4 cases, 0 failures" in out
        assert "wall time" in err

    def test_seed_and_range_parsing(self, capsys):
        code, out, _ = run(capsys, "verify", "thm-sd", "--n", "2",
                           "--seeds", "1..3", "--format", "csv")
        assert code == 0
        assert out.count("\n") == 4

    @pytest.mark.parametrize("spec", ["1..10001", "1..1000000000", "1..9999,5,7"])
    def test_int_spec_cap(self, capsys, spec):
        code, out, err = run(capsys, "verify", "thm-sd", "--n", "2",
                             "--seeds", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: --seeds {spec!r} lists more than 10000 values\n"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "prop-esdr", "--r", "1000000000"],
         "suite prop-esdr lists more than 100000 cases"),
        (["verify", "thm-sd", "--n", "1..10000", "--seeds", "1..10000"],
         "suite thm-sd lists more than 100000 cases"),
    ])
    def test_case_cap_exits_two_at_once(self, argv, message):
        # A subprocess, so that a regression fails on the timeout rather
        # than stalling the suite.
        done = run_python("-m", "subdiv.cli", *argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: {message}")

    def test_int_spec_cap_is_inclusive(self):
        assert cli_mod._parse_int_spec("1..9998,0,-1", "--seeds") == (
            *range(1, 9999), 0, -1)

    def test_verbose_prints_cases(self, capsys):
        _, out, _ = run(capsys, "verify", "cor-2sd", "--n", "2", "--verbose")
        assert "ok n=2" in out

    def test_failure_exits_one(self, capsys, monkeypatch):
        report = VerifySuiteReport(
            "foata",
            (CaseResult((("n", 3), ("seed", 12)), False, "forced break"),),
            0.0)
        monkeypatch.setattr("subdiv.verify.run_suite",
                            lambda suite, **kw: report)
        code, out, _ = run(capsys, "verify", "foata")
        assert code == 1
        assert "FAIL n=3 seed=12: forced break" in out

    def test_json_report_shape(self, capsys):
        _, out, _ = run(capsys, "verify", "esd-counterexample",
                        "--format", "json")
        assert json.loads(out) == {
            "cases_run": 1,
            "failures": [],
            "suite": "esd-counterexample",
        }

    @pytest.mark.parametrize("argv", [
        ["cor-sd", "--k", "0"],
        ["cor-sd", "--k", "-3"],
        ["cor-sd", "--n", "0"],
        ["foata", "--n", "0"],
        ["prop-dnkj-rec", "--n", "0"],
    ])
    def test_empty_suite_exits_two(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == (f"error: suite {argv[0]} lists no cases; "
                       f"widen {WIDEN[argv[0]]}\n")

    @pytest.mark.parametrize("argv, hint", [
        (["thm-sd", "--n", "1..400", "--seeds", "1..251"], "--n or --seeds"),
        (["thm-esd", "--n", "1..400", "--seeds", "1..251"],
         "--n, --seeds or --r"),
        (["prop-esdr", "--r", "1000000000"], "--n or --r"),
    ])
    def test_long_suite_names_its_own_options(self, capsys, argv, hint):
        assert run(capsys, "verify", *argv) == (
            2, "", f"error: suite {argv[0]} lists more than 100000 cases; "
                   f"narrow {hint}\n")

    @pytest.mark.parametrize("suite, flag, err", [
        ("thm-sd", "--n", "error: cannot parse --n ''\n"),
        ("thm-sd", "--seeds", "error: cannot parse --seeds ''\n"),
        ("thm-esd", "--r", "error: cannot parse --r ''\n"),
        ("thm-uniform", "--kinds",
         "error: unknown subdivision kind '' (use sd or esd:R)\n"),
    ])
    def test_empty_option_value_exits_two(self, capsys, suite, flag, err):
        assert run(capsys, "verify", suite, flag, "") == (2, "", err)

    @pytest.mark.parametrize("suite, flag, err", [
        ("foata", "--seeds", "error: suite foata does not read --seeds; "
                             "it reads --n\n"),
        ("prop-lnkj", "--n", "error: suite prop-lnkj does not read --n; "
                             "it reads --kinds\n"),
        ("thm-sd", "--r", "error: suite thm-sd does not read --r; "
                          "it reads --n, --seeds, --steps\n"),
        ("foata", "--n", "error: cannot parse --n 'x'\n"),
        ("thm-sd", "--seeds", "error: cannot parse --seeds 'x'\n"),
        ("prop-esdr", "--r", "error: cannot parse --r 'x'\n"),
    ])
    def test_malformed_value_is_parsed_only_when_read(self, capsys, suite,
                                                      flag, err):
        assert run(capsys, "verify", suite, flag, "x") == (2, "", err)

    def test_bad_steps(self, capsys):
        assert run(capsys, "verify", "thm-sd", "--steps", "-1") == (
            2, "", "error: --steps must be nonnegative\n")

    def test_k_past_the_cap(self, capsys):
        code, out, err = run(capsys, "verify", "cor-sd", "--n", "1", "--k", "16")
        assert code == 2
        assert out == ""
        assert err == ("error: k is limited to 15: sd^k has at least 2^k "
                       "facets and the limit is 40320\n")

    def test_k_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "cor-sd", "--n", "1", "--k", "15")
        assert code == 0
        assert out == "suite cor-sd: 15 cases, 0 failures\n"

    def test_bad_kind_list(self, capsys):
        code, _, err = run(capsys, "verify", "thm-uniform", "--kinds", "esd:x")
        assert code == 2
        assert "edgewise" in err

    @pytest.mark.parametrize("argv, message", [
        (["--r", "0"], "edgewise parameter must be at least 1"),
        (["--n", "3", "--r", "2,-1"], "edgewise parameter must be at least 1"),
        (["--n", "-2"], "n must be nonnegative"),
    ])
    def test_bad_r_or_n_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "thm-esd", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_esd_at_n_zero_runs_r_from_one(self, capsys):
        code, out, _ = run(capsys, "verify", "thm-esd", "--n", "0",
                           "--seeds", "1", "--verbose")
        assert code == 0
        assert out == ("suite thm-esd: 2 cases, 0 failures\n"
                       "  ok n=0 r=1 seed=1 steps=6: steps=1 ell=1\n"
                       "  ok n=0 r=2 seed=1 steps=6: steps=1 ell=1\n")

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "foata", "--jobs", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_import_starts_no_process_machinery(self):
        probe = ("import sys, subdiv.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        done = run_python("-c", probe)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


# The options each suite reads, in the order its refusal lists them: 21
# of the 72 (suite, option) pairs.  Any other option exits 2.
READS = {
    "thm-sd": ("--n", "--seeds", "--steps"),
    "thm-esd": ("--n", "--seeds", "--steps", "--r"),
    "thm-uniform": ("--n", "--seeds", "--steps", "--kinds"),
    "thm-dnkj": ("--n",),
    "cor-sd": ("--n", "--k"),
    "cor-2sd": ("--n",),
    "prop-lnkj": ("--kinds",),
    "prop-dnkj": ("--n",),
    "prop-dnkj-rec": ("--n",),
    "prop-esdr": ("--n", "--r"),
    "esd-counterexample": (),
    "foata": ("--n",),
}
# A value of each option that no suite has as its default.
OPTION_VALUES = {"--n": "2", "--seeds": "1", "--steps": "1", "--r": "2",
                 "--kinds": "sd", "--k": "1"}


class TestSuiteOptions:
    def test_read_pairs(self):
        assert set(READS) == set(verify_mod.SUITE_NAMES)
        assert sum(map(len, READS.values())) == 21

    @pytest.mark.parametrize("flag", OPTION_VALUES)
    @pytest.mark.parametrize("suite", verify_mod.SUITE_NAMES)
    def test_option(self, capsys, monkeypatch, suite, flag):
        # Stub cases, so that the lists of cases are compared and none runs.
        monkeypatch.setattr(verify_mod, "_run_case",
                            lambda item: CaseResult(item[1], True, "stub"))
        code, bare, _ = run(capsys, "verify", suite, "--verbose")
        assert code == 0
        argv = ["verify", suite, flag, OPTION_VALUES[flag], "--verbose"]
        if flag in READS[suite]:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out != bare
            return

        def refuse(item):
            raise AssertionError("a case ran before the option was refused")

        monkeypatch.setattr(verify_mod, "_run_case", refuse)
        reads = ", ".join(READS[suite]) or "no option"
        assert run(capsys, *argv) == (
            2, "", f"error: suite {suite} does not read {flag}; it reads {reads}\n")


def _kind_argv(entry, simplex, kind):
    return {
        "subdivide": ["subdivide", "--input", simplex, "--kind", kind],
        "localh": ["localh", "--input", simplex, "--via-uniform", kind],
        "ftriangle": ["ftriangle", "--kind", kind, "--n", "3"],
        "verify": ["verify", "thm-uniform", "--n", "2", "--seeds", "1",
                   "--kinds", kind],
    }[entry]


BAD_X = "error: bad edgewise parameter in 'esd:x'\n"
BAD_EMPTY = "error: bad edgewise parameter in 'esd:'\n"
BAD_R = "error: edgewise parameter must be at least 1\n"
WALL = "# wall time: Ts\n"


def unknown(kind):
    return f"error: unknown subdivision kind {kind!r} (use sd or esd:R)\n"


def unknown_subdivide(kind):
    return (f"error: unknown kind {kind!r} "
            "(use sd, esd:R, stellar:V1,V2,..., random:STEPS)\n")


class TestKindEntryPoints:
    """Every command that takes a kind string reads it the same way."""

    @pytest.mark.parametrize("entry, kind, code, err", [
        ("subdivide", "sd", 0, ""),
        ("subdivide", "esd:2", 0, ""),
        ("subdivide", "esd:03", 0, ""),
        ("subdivide", "esd:x", 2, BAD_X),
        ("subdivide", "esd:", 2, BAD_EMPTY),
        ("subdivide", "esd:0", 2, BAD_R),
        ("subdivide", "esd:-2", 2, BAD_R),
        ("subdivide", "trivial", 2, unknown_subdivide("trivial")),
        ("subdivide", "barycentric", 2, unknown_subdivide("barycentric")),
        ("subdivide", "fold", 2, unknown_subdivide("fold")),
        ("localh", "sd", 0, ""),
        ("localh", "esd:2", 0, ""),
        ("localh", "esd:03", 0, ""),
        ("localh", "esd:x", 2, BAD_X),
        ("localh", "esd:", 2, BAD_EMPTY),
        ("localh", "esd:0", 2, BAD_R),
        ("localh", "esd:-2", 2, BAD_R),
        ("localh", "trivial", 2, unknown("trivial")),
        ("localh", "barycentric", 2, unknown("barycentric")),
        ("localh", "fold", 2, unknown("fold")),
        ("ftriangle", "sd", 0, ""),
        ("ftriangle", "esd:2", 0, ""),
        ("ftriangle", "esd:03", 0, ""),
        ("ftriangle", "esd:x", 2, BAD_X),
        ("ftriangle", "esd:", 2, BAD_EMPTY),
        ("ftriangle", "esd:0", 2, BAD_R),
        ("ftriangle", "esd:-2", 2, BAD_R),
        ("ftriangle", "trivial", 2, unknown("trivial")),
        ("ftriangle", "barycentric", 2, unknown("barycentric")),
        ("ftriangle", "fold", 2, unknown("fold")),
        ("verify", "sd", 0, WALL),
        ("verify", "esd:2", 0, WALL),
        ("verify", "esd:03", 0, WALL),
        ("verify", "esd:x", 2, BAD_X),
        ("verify", "esd:", 2, BAD_EMPTY),
        ("verify", "esd:0", 2, BAD_R),
        ("verify", "esd:-2", 2, BAD_R),
        ("verify", "trivial", 2, unknown("trivial")),
        ("verify", "barycentric", 2, unknown("barycentric")),
        ("verify", "fold", 2, unknown("fold")),
    ])
    def test_exit_code_and_stderr(self, capsys, simplex3, entry, kind, code, err):
        got_code, out, got_err = run(capsys, *_kind_argv(entry, simplex3, kind))
        assert got_code == code
        assert re.sub(r"^# wall time: \d+\.\d\ds$", "# wall time: Ts",
                      got_err, flags=re.M) == err
        assert (out != "") == (code == 0)


# One valid call of each subcommand; argparse refuses an unknown option
# before any file is read, so the input need not exist.
COMMANDS = {
    "tables": ["tables", "--which", "1", "--n", "2"],
    "localh": ["localh", "--input", "tri.json"],
    "subdivide": ["subdivide", "--input", "tri.json", "--kind", "sd"],
    "interlace": ["interlace", "1+x", "x"],
    "ftriangle": ["ftriangle", "--kind", "sd", "--n", "2"],
    "stat-poly": ["stat-poly", "--family", "d", "--params", "2,1"],
    "verify": ["verify", "foata", "--n", "2"],
}


def parse_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    return capsys.readouterr().err


class TestOptionReaders:
    """Each subcommand accepts only the options it reads."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_is_gone(self, capsys, command):
        err = parse_error(capsys, COMMANDS[command] + ["--config", "x.json"])
        assert "unrecognized arguments: --config x.json" in err

    @pytest.mark.parametrize("command",
                             [c for c in COMMANDS if c != "subdivide"])
    def test_seed_only_on_subdivide(self, capsys, command):
        err = parse_error(capsys, COMMANDS[command] + ["--seed", "5"])
        assert "unrecognized arguments: --seed 5" in err

    def test_subdivide_has_no_format(self, capsys):
        err = parse_error(capsys, COMMANDS["subdivide"] + ["--format", "json"])
        assert "unrecognized arguments: --format json" in err

    def test_subdivide_seed_defaults_to_zero(self, capsys, simplex3):
        argv = ["subdivide", "--input", simplex3, "--kind", "random:2"]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--seed", "0") == plain


def readme_commands():
    """Every ``subdiv`` command in README's ``## Command line`` block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [piece for line in block.splitlines() if line.strip()
            for piece in line.split(" | ")]


@pytest.mark.parametrize("command", readme_commands())
def test_readme_example_parses(command):
    words = shlex.split(command, comments=True)
    assert words[0] == "subdiv"
    cli_mod.build_parser().parse_args(words[1:])


WALL_TIME = re.compile(r"^# wall time: .*\n", flags=re.M)


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)`` in this process,
    with argparse's exits taken as codes and verify's timing line left out."""
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, WALL_TIME.sub("", captured.err)


def fresh_outcome(argv):
    """The same three, from ``python -m subdiv.cli`` in its own process."""
    done = run_python("-m", "subdiv.cli", *argv, text=False)
    return (done.returncode, done.stdout.decode(),
            WALL_TIME.sub("", done.stderr.decode()))


class TestSharedParser:
    """``main`` parses every call with one parser built per process."""

    @pytest.fixture
    def inputs(self, tmp_path, simplex3):
        return simplex3, write_triangulation(tmp_path, barycentric(trivial((1, 2, 3))))

    def test_matches_fresh_processes(self, capsys, monkeypatch, inputs):
        simplex, sd = inputs
        argvs = [
            ["tables", "--which", "2", "--n", "3"],
            ["localh", "--input", sd],
            ["localh", "--input", sd, "--emit-c"],
            ["localh", "--input", sd, "--format", "json"],
            ["localh", "--input", simplex, "--via-uniform", "sd"],
            ["subdivide", "--input", simplex, "--kind", "random:3", "--seed", "4"],
            ["interlace", "1+4x+x^2", "x+4x^2+x^3", "--explain"],
            ["interlace", "x+4x^2+x^3", "1+4x+x^2"],
            ["interlace", "x^2-2", "x+x^2-3", "--format", "csv"],
            ["interlace", "--", "x^65", "1"],
            ["ftriangle", "--kind", "esd:2", "--n", "3", "--format", "csv"],
            ["ftriangle", "--kind", "esd:1", "--n", "9"],
            ["stat-poly", "--family", "E", "--params", "3,2"],
            ["verify", "foata", "--n", "3", "--verbose"],
            ["verify", "foata", "--seeds", "1"],
            ["localh", "--input", simplex, "--emit-c", "--via-uniform", "sd"],
            ["tables", "--which", "4", "--n", "2"],
            ["stat-poly", "--help"],
        ]
        # Fixed width, so that usage and help text wrap alike on both sides.
        monkeypatch.setenv("COLUMNS", "100")
        shared = [outcome(capsys, argv) for argv in argvs]
        assert {code for code, _, _ in shared} == {0, 1, 2}
        for argv, got in zip(argvs, shared):
            assert got == fresh_outcome(argv), argv

    def test_no_value_leaks_between_calls(self, capsys, inputs):
        simplex, sd = inputs
        pairs = [
            (["localh", "--input", sd, "--emit-c"], ["localh", "--input", sd]),
            (["localh", "--input", sd, "--format", "json"], ["localh", "--input", sd]),
            (["verify", "cor-2sd", "--n", "2", "--verbose"],
             ["verify", "cor-2sd", "--n", "2"]),
            (["localh", "--input", simplex, "--emit-c", "--via-uniform", "sd"],
             ["localh", "--input", simplex, "--via-uniform", "sd"]),
        ]
        parser = cli_mod.build_parser()
        for earlier, later in pairs:
            first = outcome(capsys, later)
            namespace = vars(parser.parse_args(later))
            assert first[0] == 0
            assert outcome(capsys, earlier) != first
            assert outcome(capsys, later) == first
            assert vars(parser.parse_args(later)) == namespace
        # the mutually exclusive pair is refused by argparse itself
        assert outcome(capsys, pairs[-1][0])[0] == 2

    def test_built_lazily_and_once(self):
        # A fresh process, so that the parser cache starts empty.
        script = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import subdiv.cli
counts = [len(built)]
for argv in (["tables", "--which", "1", "--n", "2"],
             ["stat-poly", "--family", "d", "--params", "3,1"],
             ["interlace", "1+x", "x"]):
    with contextlib.redirect_stdout(io.StringIO()):
        subdiv.cli.main(argv)
    counts.append(len(built))
print(json.dumps(counts))
"""
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        after_import, after_one, after_two, after_three = json.loads(done.stdout)
        assert after_import == 0
        assert after_one > 0
        assert after_one == after_two == after_three

    @pytest.mark.parametrize("command", [[]] + [[c] for c in COMMANDS])
    def test_help_exits_zero_with_stable_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "100")
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_:
                main([*command, "--help"])
            assert exit_.value.code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            texts.append(captured.out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(" ".join(["usage: subdiv", *command]))
