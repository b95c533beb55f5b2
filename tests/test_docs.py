"""The README's code runs against the current API, its command lines
parse, and its lists of condition tags and compute quantities are the
program's, so a public name, a flag, a tag or a quantity that is added,
deleted or renamed on one side only fails here."""

import pathlib
import re
import shlex

from einstein_lab import _kernels, cli, conditions
from test_potential import count_factors

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README} (Library example)", "exec"), {})
    assert capsys.readouterr().out.strip()


def readme_command_lines():
    section = README.read_text(encoding="utf-8").split(
        "## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line) for line in block.splitlines() if line]


def test_readme_command_lines_parse():
    # parse only: a flag or a value the parser no longer takes fails here
    lines = readme_command_lines()
    assert lines and all(argv[0] == "einstein-lab" for argv in lines)
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


def test_readme_lists_every_condition_tag():
    tags = re.search(r"every condition tag \(`(.*?)`\)",
                     README.read_text(encoding="utf-8"), re.S).group(1)
    assert tuple(tags.split()) == conditions.CONDITION_TAGS


def test_readme_shows_every_compute_quantity():
    shown = {argv[2] for argv in readme_command_lines()
             if argv[1] == "compute"}
    assert shown == set(cli._COMPUTE_FLAGS)


def test_readme_states_the_bucket_table_size():
    found = re.search(r"(\d+) buckets of the uniform \(its top (\d+) bits\),"
                      r"\s+(\d+) KiB\s+per ball vertex",
                      README.read_text(encoding="utf-8"))
    buckets, bits, kib = map(int, found.groups())
    assert (buckets, bits) == (1 << _kernels.BUCKET_BITS, _kernels.BUCKET_BITS)
    assert kib * 1024 == 4 * buckets            # one int32 entry per bucket


def test_readme_states_the_z41_factor_count(tmp_path, monkeypatch):
    stated = re.search(r"a z41 `verify` factors (\d+) systems",
                       README.read_text(encoding="utf-8"))
    path = str(tmp_path / "z41.txt")
    assert cli.main(["generate", "--family", "lattice", "--side", "41",
                     "--out", path]) == cli.EXIT_OK
    factors = count_factors(monkeypatch)
    assert cli.main(["verify", "--graph", path,
                     "--out-dir", str(tmp_path / "rep")]) == cli.EXIT_OK
    assert len(factors) == int(stated.group(1))
