from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import os


def f(x):
    """One-line docstring."""
    y = """a string
that is data"""  # code: two lines
    return (x +
            len(y))  # two lines


class C:
    """Class
    docstring."""

    z = 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_src_lines_counts_physical_and_executable_lines(tmp_path, capsys):
    tool = _tool()
    path = tmp_path / "pkg" / "m.py"
    path.parent.mkdir()
    path.write_text(MODULE)
    # import, def, the two-line string, the two-line return, class, z = 1
    assert tool.count(path) == (20, 8)
    (tmp_path / "pkg" / "empty.py").write_text("")
    assert tool.main([str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "physical", "executable"],
                    [str(tmp_path / "pkg" / "empty.py"), "0", "0"],
                    [str(path), "20", "8"],
                    ["total", "20", "8"]]
