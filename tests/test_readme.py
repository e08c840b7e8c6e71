"""README tests: the library example runs, and the top level exports what README documents."""

import ast
import contextlib
import io
import re
import types
from pathlib import Path

import numpy as np

import jetmap

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
EXCEPTIONS_LINE = "Exceptions (importable from `jetmap`):"


def test_readme_library_example_runs_and_prints_its_comment():
    section = README.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README library example", "exec"), {})
    # the example's last line prints the array that its comment lists
    expected = ast.literal_eval(code.rstrip().splitlines()[-1].split("#", 1)[1].strip())
    shown = np.array(printed.getvalue().strip().strip("[]").split(), dtype=float)
    assert np.allclose(shown, expected, rtol=0, atol=1e-6)


def test_top_level_exports_are_the_names_readme_documents():
    submodules = {path.stem for path in Path(jetmap.__file__).parent.glob("*.py")}
    imported = {
        name.strip()
        for names in re.findall(r"^from jetmap import (.+)$", README, flags=re.MULTILINE)
        for name in names.split(",")
    }
    written = set(re.findall(r"`jetmap\.(\w+)", README)) - submodules
    (line,) = [line for line in README.splitlines() if line.startswith(EXCEPTIONS_LINE)]
    exceptions = set(re.findall(r"`(\w+)`", line.removeprefix(EXCEPTIONS_LINE)))
    exported = {
        name for name, value in vars(jetmap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == imported | written | exceptions
