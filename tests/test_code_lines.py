"""tools/code_lines.py's rule: docstrings, comments and blank lines hold no
code; every other line that a token starts on or spans does."""

import textwrap

import code_lines as cl

FIXTURE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # a comment line
    import os  # a trailing comment


    class Box:
        """Class docstring."""

        size = 1


    def area(w,
             h):
        """Function docstring
        over two lines."""
        note = """a string that is
        no docstring"""
        "a second string statement"
        return w * h


    def one_line(): "a docstring beside its def"
''')

# import, class, size, def area and its second line, the two lines of
# note, the second string statement, return, and the one-line def
FIXTURE_CODE_LINES = 10


def test_fixture_counts_only_code_lines():
    assert cl.code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_docstrings_comments_and_blanks_alone_count_zero():
    assert cl.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert cl.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(FIXTURE_CODE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        [str(FIXTURE_CODE_LINES + 2), "total"],
    ]
