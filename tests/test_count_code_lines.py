import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment does not hide the code

# a comment line


class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    counted on each of its lines"""

    def f(self):
        """Function docstring.

        More of it.
        """
        return (1,
                2)
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, the two lines of x, def, the two lines of the return
    assert count_code_lines.count_code_lines(path) == 7


def test_prints_files_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["7", "1", "8"]
    assert lines[-1].split()[1] == "total"
