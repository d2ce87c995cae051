import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hallkernel import FiniteMapping, SizeCapError, cli
from hallkernel.kernel import iter_selections
from hallkernel.cli import (
    DocumentError,
    main,
    parse_mapping_document,
    serialize_mapping_document,
)

from hallkernel.oracle import enumerate_selections
from hallkernel.sudoku import grid_line, parse_grid, propagate, render, solve

from conftest import (
    INKALA,
    all_mappings_3x3,
    blanked,
    canonical_grid_text,
    random_mapping,
    stdin_of,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Row 1 holds 1..8 and column 9 a 9, so cell (1, 9) has no admissible digit.
DEAD_CELL_TEXT = "12345678." + "........9" + "." * 63

M1_TEXT = """\
X: 1 2 3
Y: 1 2 3
1 : 1 2
2 : 1 2
3 : 1 2 3
"""

PIGEON_TEXT = "1 : 1\n2 : 1\n"

BAD_DOCUMENTS = [
    "",
    "1 1 2\n",
    "1 : 1\n1 : 2\n",
    "1 : 1 1\n",
    "X: 1 1\n1 : 1\n",
    "X: 1\nY: 1\n2 : 1\n",
    "X: 1 2\nY: 1\n1 : 1\n",
    "Y: 1\n1 : 2\n",
    "X: 1\nX: 1\n1 : 1\n",
    "one two : 1\n",
    "Y: 1 1\n1 : 1\n",
    "X:\n1 : a\n",
    "X: 1\n1 : a\n2 : b\n",
]


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", stdin_of(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestMappingDocuments:
    def test_parse_m1(self):
        mapping = parse_mapping_document(M1_TEXT)
        assert mapping.x_labels == ("1", "2", "3")
        assert mapping.y_labels == ("1", "2", "3")
        assert mapping.image("3") == {"1", "2", "3"}

    def test_headers_optional_and_comments_ignored(self):
        mapping = parse_mapping_document("# doc\n1 : 2 1 # trailing\n2 :\n")
        assert mapping.x_labels == ("1", "2")
        assert mapping.y_labels == ("2", "1")
        assert mapping.image("2") == frozenset()

    def test_values_follow_the_x_header_without_a_y_header(self):
        mapping = parse_mapping_document("X: 2 1\n1 : a\n2 : b\n")
        assert mapping.x_labels == ("2", "1")
        assert mapping.y_labels == ("b", "a")

    def test_empty_y_header_declares_no_values(self):
        assert parse_mapping_document("Y:\n1 :\n").y_labels == ()
        with pytest.raises(DocumentError, match="'a'"):
            parse_mapping_document("Y:\n1 : a\n")

    def test_round_trip_is_identity(self):
        for text in (M1_TEXT, PIGEON_TEXT, "a : p q\nb :\nc : q\n"):
            mapping = parse_mapping_document(text)
            assert parse_mapping_document(serialize_mapping_document(mapping)) == mapping

    @pytest.mark.parametrize("text", BAD_DOCUMENTS)
    def test_bad_documents(self, text, capsys, monkeypatch):
        with pytest.raises(DocumentError):
            parse_mapping_document(text)
        code, out, err = run(capsys, ["check"], stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("text", ["X: 1 2\nY: 1\n1 : 1\n", "Y: 1\n1 : 2\n"])
    def test_mapping_errors_name_the_element(self, text):
        with pytest.raises(DocumentError, match="'2'"):
            parse_mapping_document(text)

    def test_unserializable_label(self):
        # Whitespace, a comment mark, and two labels with one ``str``.
        for mapping in (FiniteMapping.from_dict({"a b": {1}}),
                        FiniteMapping.from_dict({"a#b": {1}}),
                        FiniteMapping.from_dict({"a": {"p#q"}}),
                        FiniteMapping.from_dict({1: {1}, "1": {2}}),
                        FiniteMapping.from_dict({"a": {1, "1"}}, y_order=(1, "1"))):
            with pytest.raises(DocumentError):
                serialize_mapping_document(mapping)

    def test_labels_may_share_a_token_across_ground_sets(self):
        mapping = FiniteMapping.from_dict({"1": {"1"}})
        assert parse_mapping_document(serialize_mapping_document(mapping)) == mapping

    @pytest.mark.parametrize("text, line", [
        ("1 : a : b\n", 1),
        ("1 : a:b\n", 1),
        ("1 : a\n2 : :\n", 2),
        ("X: 1\nY: a:b\n1 : a\n", 2),
        ("X: 1 :\n1 : a\n", 1),
        ("# a: b\nY: a\n1 : a # c: d\n2 : b: # e\n", 4),
    ])
    def test_no_token_holds_a_colon(self, text, line):
        # serialize_mapping_document refuses such a label, so a document
        # holding one could not be written back.
        with pytest.raises(DocumentError, match=f"^line {line}: ':' inside a token"):
            parse_mapping_document(text)

    def test_a_colon_in_a_comment_is_no_token(self):
        mapping = parse_mapping_document("X: 1 # x: y\n1 : a # a: b\n")
        assert mapping.image("1") == {"a"}
        assert parse_mapping_document(serialize_mapping_document(mapping)) == mapping


class TestMappingCommands:
    def test_kernel_golden(self, capsys, tmp_path):
        path = write(tmp_path, "m1.txt", M1_TEXT)
        code, out, _ = run(capsys, ["kernel", "--input", path])
        assert code == 0
        assert out == "1: 1 2\n2: 1 2\n3: 3\n"

    def test_kernel_empty_prints_witness(self, capsys, tmp_path):
        path = write(tmp_path, "p.txt", PIGEON_TEXT)
        code, out, _ = run(capsys, ["kernel", "--input", path])
        assert code == 1
        assert out == "1:\n2:\nwitness: {1, 2}\n"

    def test_kernel_of_empty_image_document(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run(capsys, ["kernel"], stdin="1 :\n",
                           monkeypatch=monkeypatch)
        assert (code, out) == (1, "1:\nwitness: {1}\n")

    def test_check_ok_and_violation(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run(capsys, ["check"], stdin=M1_TEXT, monkeypatch=monkeypatch)
        assert (code, out) == (0, "OK\n")
        code, out, _ = run(capsys, ["check"], stdin=PIGEON_TEXT,
                           monkeypatch=monkeypatch)
        assert (code, out) == (1, "violation: {1, 2}\n")

    def test_partition_golden(self, capsys, tmp_path):
        path = write(tmp_path, "m1.txt", M1_TEXT)
        code, out, _ = run(capsys, ["partition", "--input", path])
        assert code == 0
        assert out == ("block 1: {1, 2} -> {1, 2}\n"
                       "block 2: {3} -> {3}\n"
                       "exit: LastBlockCritical\n")

    def test_partition_of_permutation(self, capsys, tmp_path):
        path = write(tmp_path, "perm.txt", "1 : 1\n2 : 2\n3 : 3\n")
        code, out, _ = run(capsys, ["partition", "--input", path])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("block ") for line in lines[:3])
        assert lines[3] == "exit: LastBlockCritical"

    def test_select_and_enumerate(self, capsys, tmp_path):
        path = write(tmp_path, "m1.txt", M1_TEXT)
        code, out, _ = run(capsys, ["select", "--input", path])
        assert (code, out) == (0, "1 -> 1\n2 -> 2\n3 -> 3\n")
        code, out, _ = run(capsys, ["enumerate", "--input", path])
        assert (code, out) == (0, "1->1 2->2 3->3\n1->2 2->1 3->3\n")

    def test_select_violation(self, capsys, tmp_path):
        path = write(tmp_path, "p.txt", PIGEON_TEXT)
        code, out, _ = run(capsys, ["select", "--input", path])
        assert (code, out) == (1, "violation: {1, 2}\n")

    def test_json_outputs(self, capsys, tmp_path):
        path = write(tmp_path, "m1.txt", M1_TEXT)
        code, out, _ = run(capsys, ["kernel", "--input", path, "--format", "json"])
        assert code == 0
        assert json.loads(out) == {
            "kernel": {"1": ["1", "2"], "2": ["1", "2"], "3": ["3"]},
            "empty": False, "witness": None}
        code, out, _ = run(capsys, ["partition", "--input", path,
                                    "--format", "json"])
        assert json.loads(out) == {
            "blocks": [["1", "2"], ["3"]],
            "residuals": [["1", "2"], ["3"]],
            "exit_kind": "LastBlockCritical"}
        code, out, _ = run(capsys, ["enumerate", "--input", path,
                                    "--format", "json"])
        assert json.loads(out) == {"selections": [
            {"1": "1", "2": "2", "3": "3"}, {"1": "2", "2": "1", "3": "3"}]}

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "no colon here\n")
        code, out, err = run(capsys, ["check", "--input", path])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_size_cap_exit_code(self, capsys, tmp_path):
        lines = "".join(f"x{i} : y{i}\n" for i in range(13))
        path = write(tmp_path, "wide.txt", lines)
        code, _, err = run(capsys, ["enumerate", "--input", path])
        assert code == 3
        assert "cap" in err

    def test_enumerate_cap_message_is_the_oracles(self, capsys, tmp_path):
        wide = FiniteMapping.from_dict({i: {i} for i in range(13)})
        with pytest.raises(SizeCapError) as refused:
            enumerate_selections(wide)
        path = write(tmp_path, "wide.txt", serialize_mapping_document(wide))
        assert run(capsys, ["enumerate", "--input", path]) == (
            3, "", f"error: {refused.value}\n")

    def test_kernel_size_cap_exit_code(self, capsys, tmp_path):
        # K25,24 has no complete matching, so its scan would walk 25 positions.
        values = " ".join(f"y{i}" for i in range(24))
        path = write(tmp_path, "wide.txt", "".join(f"x{i} : {values}\n" for i in range(25)))
        code, out, err = run(capsys, ["kernel", "--input", path])
        assert (code, out) == (3, "")
        assert "exceeds the cap of 24" in err
        values = " ".join(f"y{i}" for i in range(25))
        path = write(tmp_path, "full.txt", "".join(f"x{i} : {values}\n" for i in range(25)))
        code, out, err = run(capsys, ["kernel", "--input", path])
        assert (code, out, err) == (
            0, "".join(f"x{i}: {values}\n" for i in range(25)), "")

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, ["check", "--input", "/nonexistent/f.txt"])
        assert code == 2
        assert "error:" in err

    def test_seed_option_is_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "m1.txt", M1_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "7", "check", "--input", path])
        assert exc.value.code == 2


class TestSudokuCommands:
    def test_propagate_pretty_output(self, capsys, tmp_path):
        text = blanked(canonical_grid_text(), [(1, 1)])
        path = write(tmp_path, "g.txt", text + "\n")
        code, out, _ = run(capsys, ["sudoku", "propagate", "--input", path])
        assert code == 0
        assert out.splitlines()[0] == "1 2 3 | 4 5 6 | 7 8 9"
        assert "------+-------+------" in out

    def test_propagate_json(self, capsys, tmp_path):
        text = blanked(canonical_grid_text(), [(1, 1)])
        path = write(tmp_path, "g.txt", text + "\n")
        code, out, _ = run(capsys, ["sudoku", "propagate", "--input", path,
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"] == canonical_grid_text()
        assert payload["complete"] is True
        assert payload["candidates"] == {}

    def test_solve_batch_lines(self, capsys, tmp_path):
        text = canonical_grid_text()
        batch = blanked(text, [(1, 1)]) + "\n" + blanked(text, [(9, 9)]) + "\n"
        path = write(tmp_path, "batch.txt", batch)
        code, out, _ = run(capsys, ["sudoku", "solve", "--input", path,
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert [g["grid"] for g in payload] == [text, text]

    def test_contradiction_exit_code(self, capsys, tmp_path, monkeypatch):
        from test_sudoku import pigeonhole_text
        code, out, _ = run(capsys, ["sudoku", "propagate"],
                           stdin=pigeonhole_text(), monkeypatch=monkeypatch)
        assert code == 1
        assert out.startswith("contradiction")

    def test_contradiction_json_payload(self, capsys, tmp_path, monkeypatch):
        from test_sudoku import pigeonhole_text
        code, out, _ = run(capsys, ["sudoku", "propagate", "--format", "json"],
                           stdin=pigeonhole_text(), monkeypatch=monkeypatch)
        assert code == 1
        payload = json.loads(out)
        assert payload["unit"] == "row 1"
        assert [1, 1] in payload["cells"] and [1, 9] in payload["cells"]

    def test_unsolvable_exit_code(self, capsys, tmp_path, monkeypatch):
        from test_sudoku import pigeonhole_text
        code, out, _ = run(capsys, ["sudoku", "solve"],
                           stdin=pigeonhole_text(), monkeypatch=monkeypatch)
        assert (code, out) == (1, "unsolvable\n")

    def test_grid_parse_error_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "12345\n")
        code, _, err = run(capsys, ["sudoku", "solve", "--input", path])
        assert code == 2
        assert "error:" in err

    def test_duplicate_given_exit_code(self, capsys, monkeypatch):
        chars = ["."] * 81
        for i, digit in [(0, 5), (36, 5), (37, 7), (43, 7)]:
            chars[i] = str(digit)
        code, out, err = run(capsys, ["sudoku", "solve"], stdin="".join(chars),
                             monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == "error: duplicate given 7 in row 5 at cell (5, 8)\n"

    def test_whitespace_only_input_has_no_grid(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["sudoku", "solve"], stdin=" \n\t\n",
                             monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: no grid in input\n")

    @pytest.mark.parametrize("command", ["solve", "propagate"])
    def test_batch_reports_every_line(self, capsys, tmp_path, command):
        text = canonical_grid_text()
        batch = "\n".join([blanked(text, [(1, 1)]), text[:80], "", DEAD_CELL_TEXT,
                           blanked(text, [(9, 9)])]) + "\n"
        path = write(tmp_path, "batch.txt", batch)
        code, out, err = run(capsys, ["sudoku", command, "--input", path,
                                      "--format", "json"])
        assert code == 2
        payload = json.loads(out)
        assert len(payload) == 4
        assert payload[0]["grid"] == payload[3]["grid"] == text
        assert payload[1] == {"error": "expected 81 cells, got 80"}
        if command == "solve":
            assert payload[2] == {"solved": False}
        else:
            assert payload[2]["cells"] == [[1, 9]]
        assert err == "error: line 2: expected 81 cells, got 80\n"

    def test_short_lines_adding_up_to_81_cells_are_two_records(self, capsys, tmp_path):
        path = write(tmp_path, "batch.txt", "1" + "." * 39 + "\n" + "." * 40 + "1\n")
        code, out, err = run(capsys, ["sudoku", "propagate", "--input", path])
        assert code == 2
        assert out.rstrip("\n").split("\n\n") == [
            "error: line 1: expected 81 cells, got 40",
            "error: line 2: expected 81 cells, got 41"]
        assert err == ("error: line 1: expected 81 cells, got 40\n"
                       "error: line 2: expected 81 cells, got 41\n")

    def test_batch_text_records_and_worst_exit_code(self, capsys, tmp_path):
        from test_sudoku import pigeonhole_text
        text = canonical_grid_text()
        batch = "\n".join([blanked(text, [(1, 1)]), pigeonhole_text(), DEAD_CELL_TEXT,
                           "x" * 81]) + "\n"
        path = write(tmp_path, "batch.txt", batch)
        code, out, err = run(capsys, ["sudoku", "solve", "--input", path])
        assert code == 2
        records = out.rstrip("\n").split("\n\n")
        assert records[0].splitlines()[0] == "1 2 3 | 4 5 6 | 7 8 9"
        assert records[1:] == ["unsolvable", "unsolvable",
                               "error: line 4: bad character 'x' at cell (1, 1)"]
        assert err == "error: line 4: bad character 'x' at cell (1, 1)\n"

    @pytest.mark.parametrize("text", [canonical_grid_text(), INKALA,
                                      blanked(canonical_grid_text(), [(1, 1), (5, 5)])])
    def test_rendered_grid_is_accepted(self, capsys, tmp_path, text):
        path = write(tmp_path, "rendered.txt", render(parse_grid(text)) + "\n")
        code, out, _ = run(capsys, ["sudoku", "solve", "--input", path,
                                    "--format", "json"])
        assert code == 0
        assert json.loads(out)["grid"] == grid_line(solve(parse_grid(text)))
        code, out, _ = run(capsys, ["sudoku", "propagate", "--input", path])
        assert code == 0
        assert parse_grid(out).givens == propagate(parse_grid(text)).givens

    def test_optimised_interpreter_gives_the_same_batch(self, tmp_path):
        # Invariants raise rather than assert, so ``python -O`` changes nothing.
        from test_sudoku import pigeonhole_text
        path = write(tmp_path, "batch.txt",
                     "\n".join([INKALA, pigeonhole_text(), "." * 40]) + "\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def cli(*flags):
            done = subprocess.run(
                [sys.executable, *flags, "-m", "hallkernel", "sudoku", "solve",
                 "--format", "json", "--input", path],
                env=env, capture_output=True, text=True, timeout=60)
            return done.returncode, done.stdout

        code, out = cli()
        assert code == 2
        payload = json.loads(out)
        assert payload[0]["grid"] == grid_line(solve(parse_grid(INKALA)))
        assert payload[1:] == [{"solved": False}, {"error": "expected 81 cells, got 40"}]
        assert cli("-O") == (code, out)


class TestByteOrderMark:
    """A UTF-8 byte-order mark before the input is read as no text at all."""

    @pytest.mark.parametrize("argv, text", [
        (["kernel"], M1_TEXT),
        (["sudoku", "solve", "--format", "json"],
         "\n".join([blanked(canonical_grid_text(), [(1, 1), (5, 5)]), INKALA]) + "\n"),
    ])
    def test_file_and_stdin(self, argv, text, capsys, tmp_path, monkeypatch):
        expected = run(capsys, argv + ["--input", write(tmp_path, "plain.txt", text)])
        assert expected[0] == 0 and not expected[2]
        path = tmp_path / "bom.txt"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run(capsys, argv + ["--input", str(path)]) == expected
        assert run(capsys, argv, stdin="\ufeff" + text, monkeypatch=monkeypatch) == expected


class TestInputDecoding:
    """Input is read as bytes and decoded one way, from a file or from stdin."""

    @pytest.mark.parametrize("argv", [["check"], ["sudoku", "solve"]])
    def test_invalid_utf8_is_a_parse_error(self, argv, capsys, tmp_path, monkeypatch):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 : 1 \xff\n")
        code, out, err = run(capsys, argv + ["--input", str(path)])
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert run(capsys, argv, stdin=path.read_bytes(),
                   monkeypatch=monkeypatch) == (code, out, err)

    def test_stdin_ignores_the_locale_encoding(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_text("X: \u00e9 2\n\u00e9 : 1 2\n2 : 1\n", encoding="utf-8-sig")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="latin-1")

        def kernel(*args, **kwargs):
            return subprocess.run(
                [sys.executable, "-m", "hallkernel", "kernel", *args], env=env,
                capture_output=True, timeout=60, **kwargs)

        from_file = kernel("--input", str(path))
        assert from_file.returncode == 0
        assert from_file.stdout == "\u00e9: 2\n2: 1\n".encode("latin-1")
        with open(path, "rb") as stdin:
            from_stdin = kernel(stdin=stdin)
        assert (from_stdin.returncode, from_stdin.stdout) == (0, from_file.stdout)


def test_closed_pipe_exits_141_quietly(tmp_path):
    # K8,8 has 8! = 40,320 selections, about 1.6 MB of text: far more than a
    # pipe buffer holds, so the writer meets the closed pipe mid-output.
    k88 = FiniteMapping.from_dict({i: range(8) for i in range(8)})
    path = write(tmp_path, "k88.txt", serialize_mapping_document(k88))
    with subprocess.Popen(
            [sys.executable, "-m", "hallkernel", "enumerate", "--input", path],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline() == b"0->0 1->1 2->2 3->3 4->4 5->5 6->6 7->7\n"
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=60) == 141


def test_enumerate_draws_each_selection_as_it_is_written(tmp_path, capsys, monkeypatch):
    # Text goes out as each selection is made, so a reader that stops after
    # one line has cost at most the next one; JSON walks the selections once.
    class ReaderLeft(Exception):
        pass

    class OneLineOut(io.StringIO):
        def write(self, text):
            if "\n" in self.getvalue():
                raise ReaderLeft
            return super().write(text)

    drawn = []

    def counting(mapping):
        for selection in iter_selections(mapping):
            drawn.append(selection)
            yield selection

    monkeypatch.setattr(cli, "iter_selections", counting)
    k88 = FiniteMapping.from_dict({i: range(8) for i in range(8)})
    path = write(tmp_path, "k88.txt", serialize_mapping_document(k88))
    out = OneLineOut()
    with monkeypatch.context() as patch, pytest.raises(ReaderLeft):
        patch.setattr("sys.stdout", out)  # no BrokenPipeError: main must not dup2 fd 1
        main(["enumerate", "--input", path])
    assert 1 <= len(drawn) <= 2
    assert out.getvalue() == "0->0 1->1 2->2 3->3 4->4 5->5 6->6 7->7\n"
    drawn.clear()
    code, out, _ = run(capsys, ["enumerate", "--input", path, "--format", "json"])
    assert code == 0 and len(json.loads(out)["selections"]) == 40320
    assert len(drawn) == len(set(drawn)) == 40320


def test_a_process_imports_only_what_its_subcommand_runs(tmp_path, capsys):
    # ``-S`` keeps out what the interpreter's site hooks import on their own.
    script = ("import sys\nfrom hallkernel.cli import main\ncode = main(sys.argv[1:])\n"
              "print(sorted({'hallkernel.oracle', 'hallkernel.sudoku', 'dataclasses',"
              " 'inspect', 'json'} & set(sys.modules)))\nsys.exit(code)\n")

    def cli(*argv):
        done = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        *out, loaded = done.stdout.splitlines()
        return done.returncode, "".join(line + "\n" for line in out), done.stderr, loaded

    for command in ("kernel", "enumerate"):
        argv = [command, "--input", write(tmp_path, "m1.txt", M1_TEXT)]
        assert cli(*argv) == (*run(capsys, argv), "[]")
    code, out, err, loaded = cli("sudoku", "solve", "--input",
                                 write(tmp_path, "inkala.txt", INKALA))
    assert (code, out, err) == (0, render(solve(parse_grid(INKALA))) + "\n", "")
    assert loaded == "['hallkernel.sudoku']"


def _mapping_documents():
    # Every 3x3 mapping with and without its X:/Y: headers, 300 seeded random
    # mappings up to 7x7, and every document test_bad_documents rejects.
    docs = []
    for mapping in all_mappings_3x3():
        text = serialize_mapping_document(mapping)
        docs += [text, text.split("\n", 2)[2]]
    rng = random.Random(2022)
    docs += [serialize_mapping_document(random_mapping(rng, max_x=7, max_y=7))
             for _ in range(300)]
    return docs + BAD_DOCUMENTS


#: sha256 of (exit code, stdout) of every mapping subcommand in both formats
#: over the documents above, recorded while the CLI still re-checked the
#: mapping invariants itself.
MAPPING_TRANSCRIPT_SHA256 = (
    "12661f110503d5766e1fe14afbfef176132405fa22f9b5522f51373762310958")


def test_mapping_commands_match_recorded_transcript(capsys, monkeypatch):
    # One argparse parser for all 13,000-odd calls; building it is most of a call.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    digest = hashlib.sha256()
    for text in _mapping_documents():
        for command in ("check", "partition", "kernel", "select", "enumerate"):
            for fmt in ("text", "json"):
                monkeypatch.setattr("sys.stdin", stdin_of(text))
                code = main([command, "--format", fmt])
                digest.update(repr((code, capsys.readouterr().out)).encode())
    assert digest.hexdigest() == MAPPING_TRANSCRIPT_SHA256


#: Runs its argument vectors (JSON) through ``main`` after printing the
#: codomain and least selection of a mapping whose labels do not sort together,
#: then the codomains of two with ``frozenset`` labels, each label as its
#: sorted members: ``sorted`` takes the first two for ordered, since no
#: comparison of them is true, and cannot sort the second.
_SEED_SCRIPT = """\
import json, sys
from hallkernel import FiniteMapping, extract_selection
from hallkernel.cli import main
f = FiniteMapping.from_dict({'p': {'a', 'b', 1}, 'q': {'a', 'b', 1}})
print(f.y_labels, extract_selection(f).as_dict())
plain = lambda y: (sorted(y) if isinstance(y, frozenset)
                   else list(map(plain, y)) if isinstance(y, tuple) else y)
for labels in ({frozenset({'a', 'b'}), frozenset({'a', 'c'})},
               {frozenset({'a', 'b'}), frozenset({'a', 'c'}), 1},
               {(frozenset({'a', 'b'}),), (frozenset({'a', 'c'}),), 1}):
    print(plain(FiniteMapping.from_dict({'p': labels}).y_labels))
for argv in json.loads(sys.argv[1]):
    print(main(argv))
"""


def test_same_input_gives_the_same_output_under_every_hash_seed(tmp_path):
    # Set order follows PYTHONHASHSEED: seeds 1 and 2 order {'a', 'b', 1} and
    # the first frozenset codomain differently, and seed 7 swapped the two
    # frozenset labels of the second, and the two tuple labels of the third,
    # when they were ordered by repr, so no output may follow set order.
    from test_sudoku import pigeonhole_text
    argvs = []
    for k, text in enumerate(_mapping_documents()[::97]):
        path = write(tmp_path, f"doc{k}.txt", text)
        argvs += [[command, "--format", fmt, "--input", path]
                  for command in ("check", "partition", "kernel", "select", "enumerate")
                  for fmt in ("text", "json")]
    grids = write(tmp_path, "grids.txt", "\n".join(
        [INKALA, pigeonhole_text(), "." * 81, blanked(canonical_grid_text(), [(1, 1)])]))
    argvs += [["sudoku", command, "--format", "json", "--input", grids]
              for command in ("propagate", "solve")]

    def run_with_seed(seed):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _SEED_SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    first = run_with_seed("1")
    assert first[0] == 0
    assert first[1].startswith("(1, 'a', 'b') {'p': 1, 'q': 'a'}\n"
                               "[['a', 'b'], ['a', 'c']]\n[['a', 'b'], ['a', 'c'], 1]\n"
                               "[1, [['a', 'b']], [['a', 'c']]]\n")
    assert first[1].count("\n") > len(argvs)
    assert run_with_seed("2") == first
    assert run_with_seed("7") == first
