"""README's quick-start example runs as shown, and the constants it names exist."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import ssnnls

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


# backticked ALL_CAPS names in the README that are not module constants
NOT_CONSTANTS = {"PYTHONPATH"}  # an environment variable


def test_every_constant_the_readme_names_exists():
    modules = {info.name: importlib.import_module(f"ssnnls.{info.name}")
               for info in pkgutil.iter_modules(ssnnls.__path__)}
    named = re.findall(r"`(?:ssnnls\.(\w+)\.)?([A-Z][A-Z0-9_]*)`", README.read_text())
    assert named
    for module, name in named:
        if name in NOT_CONSTANTS:
            continue
        owners = [modules[module]] if module else modules.values()
        assert any(hasattr(m, name) for m in owners), f"README names {name}, which is gone"
