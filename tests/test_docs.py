"""The README's code runs against the current API and its command lines
parse, so a public name or a flag that is deleted or renamed while the
docs still use it fails here."""

import pathlib
import re
import shlex

from einstein_lab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README} (Library example)", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_command_lines_parse():
    # parse only: a flag or a value the parser no longer takes fails here
    section = README.read_text(encoding="utf-8").split(
        "## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line]
    assert lines and all(argv[0] == "einstein-lab" for argv in lines)
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
