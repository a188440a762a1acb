"""Command-line interface: subcommands, exit codes, JSON determinism."""

import contextlib
import hashlib
import json
import os
import resource
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from burnside import artin, brauer, cli, groups, lie, restriction
from burnside.characters import CharacterError
from burnside.cli import main
from burnside.cyclotomic import NotInSubfield
from burnside.exact import GcdNotOne, IntMatrix
from burnside.groups import GroupError
from burnside.lie import LieDataError
from burnside.marks import InternalInvariantViolation, NotInImage, UnknownClass
from burnside.restriction import MissingTable, RestrictionError

from group_fixtures import BENCHMARK_GROUPS

ROOT = Path(__file__).parent.parent
SRC_DIR = ROOT / "src"
DATA_DIR = SRC_DIR / "burnside" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMarks:
    def test_s3(self, capsys):
        code, out, err = run(capsys, "marks", "--group", "S3", "--json")
        assert code == 0
        payload = json.loads(out)
        # row H lists [K, m[H][K]] over the classes K below H, ending at [H, |W_H|]
        assert payload["results"]["rows"] == [
            [[0, 6]], [[0, 3], [1, 1]], [[0, 2], [2, 2]], [[0, 1], [1, 1], [2, 1], [3, 1]],
        ]

    def test_trivial(self, capsys):
        code, out, err = run(capsys, "marks", "--group", "trivial", "--json")
        assert code == 0
        assert json.loads(out)["results"]["rows"] == [[[0, 1]]]

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.grp"
        bad.write_text("(0 1\n")
        code, out, err = run(capsys, "marks", "--file", str(bad))
        assert code == 2
        assert "error" in err

    def test_text_report_prints_the_matrix(self, capsys):
        code, out, err = run(capsys, "marks", "--group", "S3")
        assert code == 0
        lines = out.splitlines()
        rows = "rows: (((0, 6),), ((0, 3), (1, 1)), ((0, 2), (2, 2)), ((0, 1), (1, 1), (2, 1), (3, 1)))"
        start = lines.index(rows)
        assert lines[start:start + 2] == [rows, "[ok] marks computed"]

    @pytest.mark.parametrize("text", ["name: triv", "# a comment"])
    def test_one_line_file_parses_like_a_longer_one(self, capsys, tmp_path, text):
        one, two = tmp_path / "one.grp", tmp_path / "two.grp"
        one.write_text(text)
        two.write_text(text + "\n# a second line\n")
        code, out, err = run(capsys, "marks", "--file", str(one), "--json")
        assert code == 0
        assert json.loads(out)["results"]["rows"] == [[[0, 1]]]
        assert run(capsys, "marks", "--file", str(two), "--json") == (code, out, err)

    def test_malformed_file_json_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.grp"
        bad.write_text("(0 1\n")
        code, out, err = run(capsys, "marks", "--file", str(bad), "--json")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["type"] == "MalformedCycle"

    @pytest.mark.parametrize("cap", ["0", "3", "-5"])
    def test_cap_below_the_order_is_an_input_error(self, capsys, cap):
        code, out, err = run(capsys, "marks", "--group", "S3", "--cap", cap, "--json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "OrderCapExceeded"

    def test_point_at_the_cap_needs_a_larger_cap(self, capsys):
        code, out, err = run(capsys, "verify", "--group", "(0 5000)", "--json")
        assert (code, json.loads(err)["error"]["type"]) == (2, "OrderCapExceeded")
        code, out, err = run(capsys, "verify", "--group", "(0 5000)", "--cap", "5001", "--json")
        assert code == 0 and json.loads(out)["inputs"]["order"] == 2

    def test_missing_group(self, capsys):
        code, out, err = run(capsys, "marks")
        assert code == 2


class TestArtin:
    def test_s3_n1(self, capsys):
        code, out, err = run(capsys, "artin", "--group", "S3", "--n", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["coefficients"] == [
            {"class": "1a", "c": -3}, {"class": "2a", "c": 6}, {"class": "3a", "c": 3},
        ]
        assert payload["status"] == "pass"

    def test_c2xc2(self, capsys):
        code, out, err = run(capsys, "artin", "--group", "C2xC2", "--n", "1", "--json")
        assert code == 0

    def test_n0_convention(self, capsys):
        code, out, err = run(capsys, "artin", "--group", "S3", "--n", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["checks"] == []  # ghost-level certificate
        assert payload["results"]["ghost_checks"]

    def test_n_inf(self, capsys):
        code, out, err = run(capsys, "artin", "--group", "D4", "--n", "inf", "--json")
        assert code == 0
        assert json.loads(out)["results"]["n"] == "inf"


class TestBrauer:
    def test_s3(self, capsys):
        code, out, err = run(capsys, "brauer", "--group", "S3", "--n", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["decomposition"] == [
            {"class": "1a", "k": 1}, {"class": "2a", "k": -2},
            {"class": "3a", "k": -1}, {"class": "6a", "k": 3},
        ]

    def test_a4(self, capsys):
        code, out, err = run(capsys, "brauer", "--group", "A4", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_trivial(self, capsys):
        code, out, err = run(capsys, "brauer", "--group", "trivial", "--json")
        assert code == 0

    @pytest.mark.parametrize("group", ["S3", "C6", "A4", "S4"])
    def test_n0_convention(self, capsys, group):
        # at n = 0 only the ghost values on the family {1} are certified,
        # as for Artin certificates, so there are no element checks
        code, out, err = run(capsys, "brauer", "--group", group, "--n", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["checks"] == []
        assert payload["results"]["family_values"] == [{"class": "1a", "value": 1}]

    def test_decomposition_outside_the_hyper_family_fails(self, capsys, monkeypatch):
        # S4's own class 24a is not 1-hyper: neither O^2(S4) = A4 nor
        # O^3(S4) = S4 is abelian.  [G/G] adds 1 at every element, so the
        # element checks fail too, and support_hyper is asserted itself
        original = brauer.solve_ghost

        def planted(ghost, table):
            decomposition = original(ghost, table)
            h = next(i for i, cls in enumerate(table.lattice.classes) if cls.label == "24a")
            return {**decomposition, h: decomposition.get(h, 0) + 1}

        monkeypatch.setattr(brauer, "solve_ghost", planted)
        code, out, err = run(capsys, "brauer", "--group", "S4", "--json")
        assert code == 1
        results = json.loads(out)["results"]
        assert results["support_hyper"] is False
        assert results["verified"] is False

    def test_doubled_bezout_coefficients_fail_the_certificate(self, capsys, monkeypatch):
        # twice the Bezout coefficients make I_n twice the unit, so the sum
        # at each element is 2, and every command that reads the certificate
        # fails its check
        original = brauer.extended_euclid_set
        monkeypatch.setattr(brauer, "extended_euclid_set", lambda values: [2 * z for z in original(values)])
        code, out, err = run(capsys, "brauer", "--group", "S3", "--json")
        assert code == 1
        assert json.loads(out)["checks"] == [{"name": "certificate verified", "ok": False}]
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--mode", "brauer", "--json")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["message"]) == (
            "check failed", "Brauer certificate failed; restriction check not applicable")
        code, out, err = run(capsys, "verify", "--group", "S4", "--json")
        assert code == 1
        assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == ["Brauer certificate n=1"]


class TestEqualizer:
    def test_artin_mode(self, capsys):
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--n", "1",
                             "--mode", "artin", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["order"] == 6

    def test_brauer_mode(self, capsys):
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--n", "1",
                             "--mode", "brauer", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["elementary_divisors"] == [1, 1, 1]

    # at n = 0 the Brauer certificate holds on the family {1}, but its
    # decomposition is not 1 at the transposition; the Artin family is {1}:
    # its rank-1 equalizer cannot carry R(S3), so psi o res is not 6 * id
    @pytest.mark.parametrize("group,mode,message", [
        pytest.param("S3", "brauer", "sum_H k_H |(G/H)^g| = 1 fails at g = (1 2); "
                     "restriction check not applicable at n = 0", id="brauer"),
        # at n = 0 the Artin family is the trivial subgroup, which meets one G-class
        pytest.param("S3", "artin", "the family meets 1 of 3 G-classes; "
                     "restriction check not applicable at n = 0", id="artin"),
        pytest.param("C4", "artin", "the family meets 1 of 4 G-classes; "
                     "restriction check not applicable at n = 0", id="artin-C4"),
        pytest.param("S4", "artin", "the family meets 1 of 5 G-classes; "
                     "restriction check not applicable at n = 0", id="artin-S4"),
    ])
    def test_n0_is_a_failed_check(self, capsys, group, mode, message):
        code, out, err = run(capsys, "equalizer", "--group", group, "--n", "0",
                             "--mode", mode, "--json")
        assert code == 1
        assert not out
        error = json.loads(err)["error"]
        assert (error["kind"], error["message"]) == ("check failed", message)

    @pytest.mark.parametrize("group", ["C2", "Q8", "D4"])
    def test_n0_on_p_groups(self, capsys, group):
        # for a p-group the n = 0 decomposition still sums to 1 at every element
        code, out, err = run(capsys, "equalizer", "--group", group, "--n", "0",
                             "--mode", "brauer", "--json")
        assert code == 0

    def test_shipped_tables_directory(self, capsys):
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--mode", "artin",
                             "--tables", str(DATA_DIR / "tables"), "--json")
        assert code == 0

    def test_missing_tables_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--mode", "artin",
                             "--tables", str(tmp_path))
        assert code == 2

    @staticmethod
    def edited_tables(tmp_path, group, name, edit):
        """A copy of the shipped tables of group, with edit applied to the text of <name>."""
        directory = tmp_path / group
        directory.mkdir()
        for path in (DATA_DIR / "tables" / group).glob("*.tbl"):
            text = path.read_text()
            if path.name == name:
                edited = edit(text)
                assert edited != text
                text = edited
            (directory / path.name).write_text(text)
        return tmp_path

    @pytest.mark.parametrize("mode", ["artin", "brauer"])
    def test_table_not_matching_the_group_is_an_input_error(self, capsys, tmp_path, mode):
        # the edited file still passes validation, but its columns name the wrong classes
        def swap_classes(text):
            lines = text.splitlines(keepends=True)
            a, b = lines.index("class: (0 3)(1 4)(2 5) 1\n"), lines.index("class: (0 1 2 3 4 5) 1\n")
            lines[a], lines[b] = lines[b], lines[a]
            return "".join(lines)

        tables = self.edited_tables(tmp_path, "C6", "6a.tbl", swap_classes)
        code, out, err = run(capsys, "equalizer", "--group", "C6", "--mode", mode,
                             "--tables", str(tables), "--json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "CharacterError"

    def test_irrational_degree_is_an_input_error(self, capsys, tmp_path):
        # C2 and C3 are the maximal members of S3's cyclic family, so their
        # tables are read; the second degree prints a coefficient times z^k
        for name, row, edited, degree in [("2a.tbl", "row: 1 -1", "row: z -1", "z^1"),
                                          ("3a.tbl", "row: 1 1 1", "row: 2+2*z 1 1", "2+2*z^1")]:
            (tmp_path / name).mkdir()
            tables = self.edited_tables(tmp_path / name, "S3", name, lambda text: text.replace(row, edited))
            code, out, err = run(capsys, "equalizer", "--group", "S3", "--mode", "artin",
                                 "--tables", str(tables), "--json")
            assert code == 2
            error = json.loads(err)["error"]
            assert (error["type"], error["message"]) == ("DegreeSumMismatch", f"bad degree {degree}")

    @pytest.mark.parametrize("name", ["../outside/S3", "{tmp}/outside/S3"], ids=["relative", "absolute"])
    def test_group_name_that_leaves_the_tables_directory_is_an_input_error(self, capsys, tmp_path, name):
        # valid S3 tables wait outside --tables, where the name would lead
        shutil.copytree(DATA_DIR / "tables" / "S3", tmp_path / "outside" / "S3")
        (tmp_path / "tables").mkdir()
        name = name.format(tmp=tmp_path)
        group = tmp_path / "s3.grp"
        group.write_text(f"name: {name}\n(0 1)\n(0 1 2)\n")
        code, out, err = run(capsys, "equalizer", "--file", str(group), "--mode", "artin",
                             "--tables", str(tmp_path / "tables"), "--json")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["message"]) == (
            "MissingTable", f"group name {name!r} is not one plain path component, so it names no table directory")

    @pytest.mark.parametrize("conductor", ["0", "-6"])
    def test_nonpositive_conductor_is_an_input_error(self, capsys, tmp_path, conductor):
        shutil.copytree(DATA_DIR / "tables" / "S3", tmp_path / "S3")
        path = tmp_path / "S3" / "3a.tbl"
        path.write_text(path.read_text().replace("conductor: 6", f"conductor: {conductor}"))
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--tables", str(tmp_path), "--json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedEntry"

    # exp(S3) = 6, so a conductor must divide 12; a huge one is refused
    # before any entry is parsed at it
    @pytest.mark.parametrize("conductor", ["3000000", "24"])
    def test_conductor_not_dividing_twice_the_exponent_is_an_input_error(self, capsys, tmp_path, conductor):
        shutil.copytree(DATA_DIR / "tables" / "S3", tmp_path / "S3")
        path = tmp_path / "S3" / "3a.tbl"
        path.write_text(path.read_text().replace("conductor: 6", f"conductor: {conductor}"))
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--tables", str(tmp_path), "--json")
        assert code == 2
        error = json.loads(err)["error"]
        assert (error["type"], error["message"]) == (
            "MalformedEntry", f"conductor {conductor} does not divide 2 * exp(G) = 2 * 6")


class TestLie:
    def test_so3_n2(self, capsys):
        code, out, err = run(capsys, "lie", "--file", str(DATA_DIR / "so3.json"),
                             "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["results"]["order"] == 6

    def test_so3_power2_n2(self, capsys):
        code, out, err = run(capsys, "lie", "--file", str(DATA_DIR / "so3.json"),
                             "--power", "2", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["results"]["order"] == 12

    @pytest.mark.parametrize("power", ["0", "-3"])
    def test_power_below_one_is_an_input_error(self, capsys, power):
        code, out, err = run(capsys, "lie", "--file", str(DATA_DIR / "so3.json"),
                             "--power", power, "--json")
        assert code == 2
        assert not out
        assert json.loads(err)["error"]["type"] == "LieDataError"

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        code, out, err = run(capsys, "lie", "--file", str(bad))
        assert code == 2

    def test_colliding_product_labels_are_not_an_error(self, capsys, tmp_path):
        # x times "x,x" and "x,x" times x are both labelled (x,x,x); the order
        # never reads a label, and a product of valid data is not validated
        path = tmp_path / "collide.json"
        path.write_text(json.dumps({"name": "collide", "classes": [
            {"label": "x", "weyl_order": 6, "torus_rank": 1},
            {"label": "x,x", "weyl_order": 1, "torus_rank": 1},
        ]}))
        code, out, err = run(capsys, "lie", "--file", str(path), "--power", "2", "--json")
        assert code == 0
        assert json.loads(out)["results"]["order"] == 36

    @pytest.mark.parametrize("power", ["13", "40", str(10**9)])
    def test_power_past_the_class_limit_fails_fast(self, capsys, power):
        # power 12 of the two SO(3) classes builds 8,190 classes over its
        # products and runs; 13 would build 16,382, past lie.MAX_POWER_CLASSES
        started = time.perf_counter()
        code, out, err = run(capsys, "lie", "--file", str(DATA_DIR / "so3.json"),
                             "--power", power, "--json")
        assert time.perf_counter() - started < 5.0
        assert code == 2
        assert not out
        error = json.loads(err)["error"]
        assert error["type"] == "LieDataError"
        assert f"power {power} of 2-class data" in error["message"]


class TestVerify:
    @pytest.mark.parametrize("name", ["S3", "Q8"])
    def test_pass(self, capsys, name):
        code, out, err = run(capsys, "verify", "--group", name, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert all(check["ok"] for check in payload["checks"])

    def test_s4(self, capsys):
        code, out, err = run(capsys, "verify", "--group", "S4", "--json")
        assert code == 0

    def test_empty_cycle(self, capsys):
        code, out, err = run(capsys, "verify", "--group", "(0 1)()", "--json")
        assert code == 0
        assert json.loads(out)["inputs"]["order"] == 2

    def test_text_output(self, capsys):
        code, out, err = run(capsys, "verify", "--group", "S3")
        assert code == 0
        assert "status: pass" in out

    @pytest.mark.parametrize("name", ["S4", "C2^4"])
    def test_builds_no_permutation(self, capsys, monkeypatch, name):
        """verify runs on element indices and subgroup bitmasks: it formats
        no cycle string and reads no subgroup's permutations."""
        def refuse(*_):
            raise AssertionError("verify built a permutation")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("burnside") and hasattr(module, "perm_to_cycles"):
                monkeypatch.setattr(module, "perm_to_cycles", refuse)
        monkeypatch.setattr(groups.GroupCore, "perms", refuse)
        spec = name if name in groups.BUILTIN_GROUPS else "\n".join(BENCHMARK_GROUPS[name]["generators"])
        code, out, err = run(capsys, "verify", "--group", spec, "--json")
        assert code == 0, err
        assert json.loads(out)["status"] == "pass"


class TestDeterminism:
    def test_identical_json(self, capsys):
        _, first, _ = run(capsys, "artin", "--group", "S4", "--n", "2", "--json")
        _, second, _ = run(capsys, "artin", "--group", "S4", "--n", "2", "--json")
        assert first == second

    def test_marks_identical(self, capsys):
        _, first, _ = run(capsys, "marks", "--group", "D4", "--json")
        _, second, _ = run(capsys, "marks", "--group", "D4", "--json")
        assert first == second


S3 = ["--group", "S3", "--json"]
SO3 = ["--file", str(DATA_DIR / "so3.json"), "--json"]

def planted(error, args, site, argv, code, kind, message=None, id=None):
    """A row that plants error(*args) at site and runs argv; the message is
    str(error(*args)) unless given."""
    message = str(error(*args)) if message is None else message
    return pytest.param((site, error, args), {}, argv, code, kind, error.__name__, message, id=id or error.__name__)


def malformed(name, files, argv, error, message):
    """A row that writes files (relative path -> bytes) under a temporary
    directory, {tmp} in argv and message, and runs argv on them: an input error."""
    return pytest.param(None, files, argv, 2, "error", error, message, id=name)


def s3_tables(old, new):
    """The shipped S3 tables, with old replaced by new in 3a.tbl, which
    `equalizer` on S3 reads."""
    files = {f"S3/{path.name}": path.read_bytes() for path in (DATA_DIR / "tables" / "S3").glob("*.tbl")}
    assert old in files["S3/3a.tbl"]
    files["S3/3a.tbl"] = files["S3/3a.tbl"].replace(old, new)
    return files


S3_TABLES = ["equalizer", "--tables", "{tmp}", *S3]
# a message quotes at most 32 characters of an offending token or text
HUGE_ENTRY_MESSAGE = f"'-{'9' * 31}'... (5001 characters) in '-{'9' * 31}'... (5001 characters) is not an integer"
HUGE_POINT_MESSAGE = f"bad point '{'9' * 32}'... (5000 characters) in '(0 {'9' * 29}'... (5004 characters)"
# a point of more than 32 digits is cut as a text is
HUGE_REPEATED_POINT_MESSAGE = (f"point '{'9' * 32}'... (4000 characters) appears twice "
                               f"in '({'9' * 31}'... (8008 characters)")
HUGE_CLASS_POINT_MESSAGE = f"point '{'9' * 32}'... (4000 characters) out of range for degree 3"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"

# one row per error family that main maps to an exit code, and one per
# kind of malformed input the standard library would otherwise report
EXIT_CODES = [
    planted(GroupError, ("planted",), (cli, "parse_group"), ["marks", *S3], 2, "error"),
    planted(OSError, ("planted",), (cli, "parse_group"), ["verify", *S3], 2, "error"),
    planted(LieDataError, ("planted",), (lie.PhiData, "validate"), ["lie", *SO3], 2, "error"),
    planted(CharacterError, ("planted",), (restriction.TableProvider, "_build"), ["equalizer", *S3], 2, "error"),
    # MissingTable subclasses RestrictionError, but is an input error
    planted(MissingTable, ("planted",), (restriction.DirectoryTables, "_build"),
            ["equalizer", "--tables", str(DATA_DIR / "tables"), *S3], 2, "error"),
    planted(RestrictionError, ("planted",), (restriction, "equalizer_lattice"),
            ["equalizer", "--mode", "brauer", *S3], 1, "check failed"),
    planted(NotInImage, (0, "1a", 1), (brauer, "brauer_certificate"), ["brauer", *S3], 1, "check failed"),
    planted(InternalInvariantViolation, ("planted",), (artin, "artin_certificate"), ["artin", *S3], 3,
            "internal error"),
    # the coprime parts of |G|_n always have gcd 1, so a GcdNotOne from
    # Brauer's Bezout step is an internal error, not an input error
    planted(GcdNotOne, ("planted",), (brauer, "extended_euclid_set"), ["brauer", *S3], 3, "internal error"),
    # on S4, whose |G|_n has two coprime parts to combine
    planted(GcdNotOne, ("planted",), (brauer, "extended_euclid_set"), ["brauer", "--group", "S4", "--json"], 3,
            "internal error", id="GcdNotOne-S4"),
    # an exception whose str() is empty reports its type name as the message
    planted(MemoryError, (), (cli, "subgroup_lattice"), ["verify", *S3], 3, "internal error", message="MemoryError"),
    # an error with no exit code is a bug, whatever its type
    planted(ValueError, ("planted",), (artin, "artin_certificate"), ["artin", *S3], 3, "internal error"),
    planted(json.JSONDecodeError, ("planted", "", 0), (lie.PhiData, "validate"), ["lie", *SO3], 3,
            "internal error"),
    planted(UnknownClass, ("planted",), (artin, "artin_certificate"), ["artin", *S3], 3, "internal error"),
    # an exact-arithmetic error with no exit code of its own
    planted(NotInSubfield, ("planted",), (artin, "artin_certificate"), ["artin", *S3], 3, "internal error"),
    malformed("bad-conductor", s3_tables(b"conductor: 6", b"conductor: six"), S3_TABLES, "MalformedEntry",
              "'six' in 'conductor: six' is not an integer"),
    malformed("class-without-size", s3_tables(b"class: () 1", b"class: ()"), S3_TABLES, "MalformedEntry",
              "class line 'class: ()' needs a representative and a size"),
    malformed("table-not-utf8", s3_tables(b"group", b"\xffgroup"), S3_TABLES, "MalformedEntry",
              f"{{tmp}}/S3/3a.tbl is not UTF-8 text: {NOT_UTF8}"),
    malformed("entry-cannot-split", s3_tables(b"row: 1 1 1", b"row: 1 1+ 1"), S3_TABLES, "MalformedEntry",
              "cannot split '1+' into terms"),
    malformed("entry-bad-term", s3_tables(b"row: 1 1 1", b"row: 1 2^3 1"), S3_TABLES, "MalformedEntry",
              "bad term '2^3' in '2^3'"),
    # a term holds a character other than a sign, so a bare sign cannot split
    malformed("entry-bare-sign", s3_tables(b"row: 1 1 1", b"row: 1 + 1"), S3_TABLES, "MalformedEntry",
              "cannot split '+' into terms"),
    # past int()'s digit limit: an input error, not a ValueError
    malformed("entry-huge-integer", s3_tables(b"row: 1 1 1", b"row: 1 -" + b"9" * 5000 + b" 1"), S3_TABLES,
              "MalformedEntry", HUGE_ENTRY_MESSAGE),
    malformed("unrecognized-line", s3_tables(b"group: 3a", b"group: 3a\nfoo: bar"), S3_TABLES, "MalformedEntry",
              "unrecognized line 'foo: bar'"),
    malformed("missing-conductor", s3_tables(b"conductor: 6\n", b""), S3_TABLES, "MalformedEntry",
              "missing conductor header"),
    malformed("class-count", s3_tables(b"class: (0 2 1) 1\n", b""), S3_TABLES, "MalformedEntry",
              "file has 2 classes, group has 3"),
    malformed("duplicated-class", s3_tables(b"class: (0 2 1) 1", b"class: (0 1 2) 1"), S3_TABLES, "MalformedEntry",
              "file classes do not cover the group's classes"),
    malformed("short-row", s3_tables(b"row: 1 1 1", b"row: 1 1"), S3_TABLES, "MalformedEntry",
              "row has 2 entries for 3 classes"),
    malformed("missing-row", s3_tables(b"row: 1 1 1\n", b""), S3_TABLES, "DegreeSumMismatch",
              "2 rows for 3 classes"),
    malformed("class-point-out-of-range", s3_tables(b"class: (0 2 1) 1", b"class: (0 5) 1"), S3_TABLES,
              "MalformedCycle", "point 5 out of range for degree 3"),
    malformed("group-huge-point", {}, ["verify", "--group", f"(0 {'9' * 5000})", "--json"], "MalformedCycle",
              HUGE_POINT_MESSAGE),
    malformed("group-huge-repeated-point", {}, ["verify", "--group", f"({'9' * 4000} 1)({'9' * 4000} 2)", "--json"],
              "MalformedCycle", HUGE_REPEATED_POINT_MESSAGE),
    # a point at or past the order cap is refused before its degree is built
    malformed("group-point-past-the-cap", {}, ["verify", "--group", "(0 99999999999)", "--json"],
              "OrderCapExceeded", "point 99999999999 is not below the order cap 5000; raise --cap"),
    malformed("group-point-past-ssize-t", {}, ["verify", "--group", f"(0 {'9' * 30})", "--json"],
              "OrderCapExceeded", f"point {'9' * 30} is not below the order cap 5000; raise --cap"),
    malformed("class-huge-point-out-of-range", s3_tables(b"class: (0 2 1) 1", b"class: (0 " + b"9" * 4000 + b") 1"),
              S3_TABLES, "MalformedCycle", HUGE_CLASS_POINT_MESSAGE),
    # integers are an optional sign and the ASCII digits 0-9: no other
    # decimal digits, and no underscores
    malformed("group-arabic-indic-point", {}, ["verify", "--group", "(0 \u0661)", "--json"], "MalformedCycle",
              "bad point '\u0661' in '(0 \u0661)'"),
    malformed("group-fullwidth-point", {}, ["verify", "--group", "(0 \uff11)", "--json"], "MalformedCycle",
              "bad point '\uff11' in '(0 \uff11)'"),
    malformed("entry-arabic-indic-power", s3_tables(b"row: 1 -1+z^1", "row: 1 z^\u0662".encode()), S3_TABLES,
              "MalformedEntry", "bad term 'z^\u0662' in 'z^\u0662'"),
    malformed("conductor-underscore", s3_tables(b"conductor: 6", b"conductor: 0_6"), S3_TABLES, "MalformedEntry",
              "'0_6' in 'conductor: 0_6' is not an integer"),
    malformed("unknown-builtin", {}, ["verify", "--group", "S9", "--json"], "GroupError",
              "unknown builtin group 'S9'"),
    malformed("phi-duplicate-labels", {"dup.json": json.dumps({"name": "x", "classes": [
        {"label": "a", "weyl_order": 1, "torus_rank": 0}, {"label": "a", "weyl_order": 2, "torus_rank": 0},
    ]}).encode()}, ["lie", "--file", "{tmp}/dup.json", "--json"], "LieDataError", "duplicate class labels"),
    malformed("phi-negative-torus-rank", {"neg.json": json.dumps({"name": "x", "classes": [
        {"label": "a", "weyl_order": 1, "torus_rank": -1},
    ]}).encode()}, ["lie", "--file", "{tmp}/neg.json", "--json"], "LieDataError", "a: negative torus rank"),
    malformed("phi-json", {"bad.json": b'{"name": '}, ["lie", "--file", "{tmp}/bad.json", "--json"],
              "LieDataError", "malformed data file: Expecting value: line 1 column 10 (char 9)"),
    malformed("phi-not-utf8", {"bad.json": b"\xff{}"}, ["lie", "--file", "{tmp}/bad.json", "--json"],
              "LieDataError", f"malformed data file: {NOT_UTF8}"),
    malformed("group-not-utf8", {"bad.grp": b"\xff(0 1)\n"}, ["marks", "--file", "{tmp}/bad.grp", "--json"],
              "GroupError", f"{{tmp}}/bad.grp is not UTF-8 text: {NOT_UTF8}"),
]


def plant(monkeypatch, site, error, args):
    def raise_error(*_, **__):
        raise error(*args)

    monkeypatch.setattr(*site, raise_error)


class TestExitCodes:
    @pytest.mark.parametrize("planting,files,argv,code,kind,error,message", EXIT_CODES)
    def test_exit_code_matrix(self, capsys, monkeypatch, tmp_path, planting, files, argv, code, kind, error,
                              message):
        if planting:
            plant(monkeypatch, *planting)
        for name, data in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(data)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert run(capsys, *argv) == (code, "", json.dumps(
            {"error": {"kind": kind, "type": error, "message": message.format(tmp=tmp_path)}}, sort_keys=True) + "\n")

    def test_negative_n_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["equalizer", "--group", "S3", "--n", "-1", "--json"])
        assert excinfo.value.code == 2
        assert "argument --n: invalid _parse_n value: '-1'" in capsys.readouterr().err

    # an integer option takes an optional sign and the ASCII digits 0-9, as
    # the input files do: no other decimal digits, and no underscores
    @pytest.mark.parametrize("argv,usage", [
        (["artin", "--group", "S3", "--n", "\u0662"], "argument --n: invalid _parse_n value: '\u0662'"),
        (["lie", *SO3, "--power", "\u0662"], "argument --power: invalid integer value: '\u0662'"),
        (["verify", "--group", "S3", "--cap", "1_0"], "argument --cap: invalid integer value: '1_0'"),
    ], ids=["n-arabic-indic", "power-arabic-indic", "cap-underscore"])
    def test_non_ascii_integer_option_is_a_usage_error(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert usage in capsys.readouterr().err

    def test_huge_tokens_give_short_messages(self):
        # the exit-code rows entry-huge-integer, group-huge-point,
        # group-huge-repeated-point and class-huge-point-out-of-range expect these
        assert len(HUGE_ENTRY_MESSAGE) < 200 and len(HUGE_POINT_MESSAGE) < 200
        assert len(HUGE_REPEATED_POINT_MESSAGE) < 200 and len(HUGE_CLASS_POINT_MESSAGE) < 200

    def test_internal_invariant_violation(self, capsys, monkeypatch):
        def broken(table, n):
            raise InternalInvariantViolation("planted")

        monkeypatch.setattr(artin, "artin_certificate", broken)
        code, out, err = run(capsys, "artin", "--group", "S3", "--json")
        assert code == 3
        assert not out
        assert json.loads(err)["error"] == {
            "kind": "internal error", "type": "InternalInvariantViolation", "message": "planted",
        }

    def test_equalizer_point_off_the_lattice_is_a_failed_check(self, capsys, monkeypatch):
        # doubling a basis column leaves a sublattice of index 2, which misses
        # the image of restriction (onto, in Brauer mode)
        def doubled(echelon, rows):
            return [[2 * row[0], *row[1:]] for row in original(echelon, rows)]

        original = restriction._solve_coordinates
        monkeypatch.setattr(restriction, "_solve_coordinates", doubled)
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--mode", "brauer", "--json")
        assert code == 1
        assert not out
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("check failed", "RestrictionError")
        # the message names the first row missed: S3's hyper family has one
        # maximal member, G (6a), and C * H already misses its first row
        assert error["message"] == ("restriction is not in the equalizer lattice: "
                                    "C * H misses the row of M for irreducible 0 of 6a")

    def test_scaled_artin_section_is_a_composite_mismatch(self, capsys, monkeypatch):
        # twice the section makes psi . res = 2 |G|_n I, not |G|_n I
        original = restriction._artin_section
        monkeypatch.setattr(restriction, "_artin_section", lambda *args: original(*args).scale(2))
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--mode", "artin", "--json")
        assert code == 1
        assert not out
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("check failed", "CompositeMismatch")

    def test_elementary_divisor_two_is_not_an_isomorphism(self, capsys, monkeypatch):
        def doubled(m):
            d = original(m)
            return (2 * d[0], *d[1:])

        original = restriction.smith_normal_form
        monkeypatch.setattr(restriction, "smith_normal_form", doubled)
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--mode", "brauer", "--json")
        assert code == 1
        assert not out
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("check failed", "NotIsomorphism")
        assert "elementary divisors (2, 1, 1)" in error["message"]

    def test_rank_below_class_count_is_not_an_isomorphism(self, capsys, monkeypatch):
        # over the trivial class alone the equalizer has rank 1 < k(S3) = 3
        # and unit divisors, so only the rank condition rejects it
        monkeypatch.setattr(restriction, "maximal_members", lambda family, lattice: [0])
        code, out, err = run(capsys, "equalizer", "--group", "S3", "--mode", "brauer", "--json")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "kind": "check failed", "type": "NotIsomorphism",
            "message": "restriction has elementary divisors (1,)",
        }

    def test_non_unimodular_restriction_runs_the_smith_form(self, capsys, monkeypatch):
        # S4's H is unitriangular, 5 x 5; twice its fourth row and three times
        # its fifth leave determinant 6, and the real Smith form has to move
        # the 2 and the 3 into one lcm on the last diagonal entry
        def scaled(family, provider):
            eq = original(family, provider)
            rows = list(eq.restriction.entries)
            rows[-2] = [2 * v for v in rows[-2]]
            rows[-1] = [3 * v for v in rows[-1]]
            return restriction.EqualizerLattice(eq.family, eq.stacked, IntMatrix.from_rows(rows), eq.basis)

        original = restriction.equalizer_lattice
        monkeypatch.setattr(restriction, "equalizer_lattice", scaled)
        code, out, err = run(capsys, "equalizer", "--group", "S4", "--mode", "brauer", "--json")
        assert code == 1
        assert not out
        assert json.loads(err)["error"] == {
            "kind": "check failed", "type": "NotIsomorphism",
            "message": "restriction has elementary divisors (1, 1, 1, 1, 6)",
        }

    def test_sl23_equalizer_passes_in_both_modes(self, capsys):
        # SL(2,3) is not monomial: no irreducible of degree 2 is induced
        # from a linear character of a subgroup
        sl23 = "(0 3 6)(1 7 4)\n(0 5 1 2)(3 6 7 4)"
        code, out, err = run(capsys, "equalizer", "--group", sl23, "--mode", "artin", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert (results["order"], results["rank"]) == (24, 7)
        code, out, err = run(capsys, "equalizer", "--group", sl23, "--mode", "brauer", "--json")
        assert code == 0
        assert json.loads(out)["results"]["elementary_divisors"] == [1] * 7


class TestArtinCertificateFails:
    """A planted fault in the certificate's solve, seen by its checks."""

    @staticmethod
    def plant(monkeypatch, extra):
        """Make the certificate's solve return alpha plus [G/H] at the class
        extra(table) picks."""
        from burnside import artin

        original = artin.solve_ghost

        def planted(ghost, table):
            alpha = original(ghost, table)
            h = extra(table)
            return {**alpha, h: alpha.get(h, 0) + 1}

        monkeypatch.setattr(artin, "solve_ghost", planted)

    @pytest.mark.parametrize("group", ["S4", "Q8", "C2^4"])
    def test_trivial_coefficient_plus_one(self, capsys, monkeypatch, group):
        # [G/1] adds |G| to the ghost at the trivial class and nowhere else
        self.plant(monkeypatch, lambda table: 0)
        spec = "\n".join(BENCHMARK_GROUPS[group]["generators"])
        code, out, err = run(capsys, "artin", "--group", spec, "--n", "1", "--json")
        assert code == 1
        results = json.loads(out)["results"]
        assert results["verified"] is False
        assert [c["class"] for c in results["ghost_checks"] if c["value"] != c["expected"]] == ["1a"]
        code, out, err = run(capsys, "verify", "--group", spec, "--json")
        assert code == 1
        checks = {c["name"]: c["ok"] for c in json.loads(out)["checks"]}
        assert checks["Artin certificate n=1"] is False
        assert checks["order * indicator solves integrally"] is True
        assert checks["Brauer certificate n=1"] is True

    def test_support_outside_the_family_is_internal(self, capsys, monkeypatch):
        # S4 is not abelian, so its own class lies in no abelian family
        self.plant(monkeypatch, lambda table: table.lattice.full_index)
        code, out, err = run(capsys, "artin", "--group", "S4", "--n", "1", "--json")
        assert code == 3
        assert not out
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("internal error", "InternalInvariantViolation")
        assert "outside the family" in error["message"]


# the Brauer certificate holds its abelian family, so neither its payload nor
# the restriction check builds another
@pytest.mark.parametrize("argv", [["brauer"], ["equalizer", "--mode", "brauer"]], ids=["brauer", "equalizer-brauer"])
def test_brauer_commands_build_the_abelian_family_once(capsys, monkeypatch, argv):
    original = artin.abelian_family
    built = []

    def counted(*args):
        built.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "burnside" or name.startswith("burnside."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    code, out, err = run(capsys, *argv, "--group", "S4", "--json")
    assert code == 0
    assert len(built) == 1


# the Brauer certificate holds each prime's p-perfect cores, so its payload,
# verify and the restriction check classify them once per prime of |G|_n:
# |S4|_1 = 12 has the primes 2 and 3
@pytest.mark.parametrize("argv", [["brauer", "--n", "1"], ["verify"], ["equalizer", "--mode", "brauer"]],
                         ids=["brauer", "verify", "equalizer-brauer"])
def test_p_cores_are_classified_once_per_prime(capsys, monkeypatch, argv):
    original = brauer.core_classification
    primes = []

    def counted(lattice, p):
        primes.append(p)
        return original(lattice, p)

    for name, module in list(sys.modules.items()):
        if name == "burnside" or name.startswith("burnside."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    code, out, err = run(capsys, *argv, "--group", "S4", "--json")
    assert code == 0
    assert sorted(primes) == [2, 3]


def test_readme_command_examples_exit_0(capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("burnside ")]
    assert commands
    monkeypatch.chdir(ROOT)  # the examples name files relative to the repository root
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()


# S4, GL(2,3) and S5 have nonabelian classes, whose generator count only
# `marks` reports; verify and the equalizer must not search for it.
@pytest.mark.parametrize("group", ["GL(2,3)", "S4", "S5"])
@pytest.mark.parametrize("argv", [["verify"], ["equalizer", "--mode", "artin"], ["equalizer", "--mode", "brauer"]],
                         ids=["verify", "equalizer-artin", "equalizer-brauer"])
def test_nonabelian_generator_count_is_never_searched(capsys, monkeypatch, group, argv):
    def refuse(*args):
        raise AssertionError("_min_generators called")

    monkeypatch.setattr(groups, "_min_generators", refuse)
    spec = "\n".join(BENCHMARK_GROUPS[group]["generators"])
    code, out, err = run(capsys, *argv, "--group", spec, "--json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


# a fresh interpreter runs the argument lists given as JSON in argv[1], then
# prints their exit codes and the modules it loaded
IMPORT_GUARD = """
import contextlib, io, json, sys
from burnside.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def run_fresh(*argvs):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_marks_commands_load_no_character_layer():
    # verify, marks, artin and brauer run on the marks alone, so they never
    # load the character layers
    result = run_fresh(*([command, "--group", "S4", "--json"]
                         for command in ("verify", "marks", "artin", "brauer")))
    assert result["codes"] == [0, 0, 0, 0]
    assert "burnside.marks" in result["modules"]
    for name in ("characters", "restriction", "lie", "cyclotomic"):
        assert f"burnside.{name}" not in result["modules"]


def test_no_command_loads_dataclasses():
    # the records are plain classes, so no command pays for dataclasses and
    # the inspect module it pulls in
    result = run_fresh(*([command, "--group", "S4", "--json"]
                         for command in ("verify", "marks", "artin", "brauer")),
                       ["equalizer", "--group", "S4", "--mode", "artin", "--json"],
                       ["equalizer", "--group", "S4", "--mode", "brauer", "--json"],
                       ["lie", "--file", str(DATA_DIR / "so3.json"), "--json"])
    assert result["codes"] == [0] * 7
    assert {"burnside.characters", "burnside.restriction", "burnside.lie"} <= set(result["modules"])
    assert "dataclasses" not in result["modules"]
    assert "inspect" not in result["modules"]
    # cyclotomic coordinates are ints, so no command loads fractions and
    # the decimal and numbers modules it pulls in
    for name in ("fractions", "decimal", "numbers"):
        assert name not in result["modules"]


def test_c2_6_marks_report_fits_in_256_mb():
    # C2^6 has 2,825 subgroup classes; the report lists each row's nonzero
    # marks as the table stores them, so no classes x classes square is built
    spec = "\n".join(f"({2 * i} {2 * i + 1})" for i in range(6))
    limit = 256 * 2**20
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run([sys.executable, "-m", "burnside.cli", "marks", "--group", spec, "--json"],
                          env=env, capture_output=True, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["results"]["rows"]
    assert len(rows) == 2825
    assert (rows[0], rows[-1][-1]) == ([[0, 64]], [2824, 1])


def test_c2_6_marks_json_streams_in_under_16_mb():
    # the 5.0 MB report is written in batches of encoder chunks as it is
    # encoded, so the traced peak is the lattice and the table, not the text;
    # the digest pins the bytes that one json.dumps of the payload wrote
    spec = "\n".join(f"({2 * i} {2 * i + 1})" for i in range(6))
    digest = hashlib.sha256()

    class Sink:
        def write(self, text):
            digest.update(text.encode())

        def flush(self):
            pass

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Sink()):
            code = main(["marks", "--group", spec, "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20
    assert digest.hexdigest() == "035c1f74a4035a09ca9f4a4e02d25f6aede7ed86869330ca58e449e98d4c0c29"


def test_closed_stdout_exits_2():
    # C2^5's marks report is far larger than a pipe's buffer, so the write
    # meets the closed pipe
    spec = "\n".join(f"({2 * i} {2 * i + 1})" for i in range(5))
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    with subprocess.Popen([sys.executable, "-m", "burnside.cli", "marks", "--group", spec, "--json"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert "BrokenPipeError" in err
    assert "Traceback" not in err and "Exception ignored" not in err
