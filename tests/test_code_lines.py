"""The code-line count of ``tools/code_lines.py``, which sizes each module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a code line that ends in a comment

# a comment alone
    # an indented comment alone


class Point:
    """A class docstring."""

    x = 1

    def norm(self):
        """A function docstring
        over two lines."""
        # a comment alone
        return math.hypot(self.x, 0.0)


async def wait():
    """An async function docstring."""
    text = """a string that is not a docstring"""
    return text
'''


def test_blank_comment_and_docstring_lines_are_not_counted():
    # import, class, x = 1, def, return, async def, text = ..., return
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_every_module_is_counted_init_included(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text('"""The package."""\n\n__all__ = []\n')
    (tmp_path / "shapes.py").write_text(SOURCE)
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1 __init__", "     8 shapes", "     9 total"]
