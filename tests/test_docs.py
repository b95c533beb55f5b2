"""The README's code runs against the current API, so a public name
that is deleted or renamed while the docs still use it fails here."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README} (Library example)", "exec"), {})
    assert capsys.readouterr().out.strip()
