"""README's quick-start example runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    """The quick-start code block and the output lines its trailing comments show."""
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = code.rstrip("\n").split("\n")
    shown = []
    while lines[-1].startswith("# "):
        shown.insert(0, lines.pop()[2:])
    return "\n".join(lines), shown


def test_quick_start_prints_what_the_readme_shows():
    code, shown = _quick_start()
    assert shown[0] == "energy_tol 3" and len(shown) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == shown
