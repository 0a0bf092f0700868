"""`tools/code_size.py`, on a tiny package and on `src/`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from code_size import code_lines, main  # noqa: E402

# a module docstring, a function docstring, a comment, a blank line, three code lines
MODULE = '''"""A module docstring,
over two lines."""
# a comment

def double(x):
    """A function docstring."""
    y = 2 * x
    return y
'''


def test_a_tiny_package_counts_its_code_lines_only(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    assert code_lines(package / "mod.py") == 3
    assert main(["code_size.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0  pkg/__init__.py", "     3  pkg/mod.py", "     3  total"]


def test_src_is_counted():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_size.py")], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    *modules, total = (line.split() for line in done.stdout.splitlines())
    assert total[1] == "total" and int(total[0]) > 0
    assert int(total[0]) == sum(int(count) for count, _ in modules)
    assert "lightleak/dsp.py" in {name for _, name in modules}
