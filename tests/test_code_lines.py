import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function docstring."""
        return (1,
                2)
'''


def test_counts_code_lines_only(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(MODULE)
    (pkg / "b.py").write_text("")
    res = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    # import, class, the two-line string, def, the two-line return
    assert res.stdout.splitlines() == ["     7  pkg/a.py", "     0  pkg/b.py", "     7  total"]
