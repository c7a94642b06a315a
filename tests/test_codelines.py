import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
_SPEC = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)


def test_counts_code_lines_outside_comments_and_docstrings(tmp_path, capsys):
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is not a docstring,
        over two lines"""
        return (text,
                os.sep)
'''
    path = tmp_path / "sample.py"
    path.write_text(source)
    # import, class, def, the two lines of the string, the two of the return
    assert codelines.code_lines(path) == 7
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"7\t{path.as_posix()}\n7\ttotal\n"
