"""The README's code runs against the current API, its command lines
parse, the names it cites resolve, and its lists of condition tags and
compute quantities are the program's, so a public name, a flag, a tag or
a quantity that is added, deleted or renamed on one side only fails
here."""

import ast
import functools
import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import einstein_lab
from einstein_lab import _kernels, cli, conditions
from einstein_lab.generators import lattice_box, sierpinski_gasket
from test_graph import count_searches
from test_potential import count_factors

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(einstein_lab.__file__).parent


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
    # every row of the compute table, resistance's --annulus row too
    shown = {argv[2] + (" --annulus" if "--annulus" in argv else "")
             for argv in readme_command_lines() if argv[1] == "compute"}
    assert shown == set(cli.COMPUTE)


def test_readme_states_the_bucket_table_size():
    found = re.search(r"(\d+) buckets of the uniform \(its top (\d+) bits\),"
                      r"\s+(\d+) KiB\s+per ball vertex",
                      README.read_text(encoding="utf-8"))
    buckets, bits, kib = map(int, found.groups())
    assert (buckets, bits) == (1 << _kernels.BUCKET_BITS, _kernels.BUCKET_BITS)
    assert kib * 1024 == 4 * buckets            # one int32 entry per bucket


def test_readme_states_the_gasket_level_range():
    text = README.read_text(encoding="utf-8")
    found = re.search(r"`--level` for `sierpinski` \((\d+)\.\.(\d+)\)",
                      text)
    lo, hi = map(int, found.groups())
    message = rf"^gasket level must be in {lo}\.\.{hi}$"
    for level in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=message):
            sierpinski_gasket(level)
    # the size table's rows: (3^(k+1)+3)/2 vertices, 3^(k+1) edges
    table = text.split("The largest gaskets", 1)[1]
    rows = re.findall(r"^\| (\d+) \| ([\d ]+) \| ([\d ]+) \|", table, re.M)
    assert [int(k) for k, _, _ in rows] == [hi - 1, hi]
    for k, n, m in rows:
        k = int(k)
        assert (int(n.replace(" ", "")), int(m.replace(" ", ""))) == \
            ((3 ** (k + 1) + 3) // 2, 3 ** (k + 1))


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


def test_readme_states_the_z41_search_count(tmp_path, monkeypatch):
    stated = re.search(r"and runs (\d+) searches",
                       README.read_text(encoding="utf-8"))
    path = str(tmp_path / "z41.txt")
    assert cli.main(["generate", "--family", "lattice", "--side", "41",
                     "--out", path]) == cli.EXIT_OK
    searches = count_searches(monkeypatch)
    assert cli.main(["verify", "--graph", path,
                     "--out-dir", str(tmp_path / "rep")]) == cli.EXIT_OK
    assert len(searches) == int(stated.group(1))


def readme_dotted_names():
    """Every dotted name that opens a backticked span of the README's prose
    (fenced blocks left out), e.g. ``graph.ball`` or ``g.edges``."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"),
                   flags=re.S)
    return [m.group(1) for span in re.findall(r"`([^`]+)`", prose)
            if (m := re.match(r"(\w+(?:\.\w+)+)", span))]


def test_readme_names_resolve():
    # a name whose head is a module of the package, WeightedGraph or a
    # built graph g must resolve: a deleted function or attribute fails
    heads = {m.name: importlib.import_module(f"einstein_lab.{m.name}")
             for m in pkgutil.iter_modules([str(PACKAGE)])}
    heads["WeightedGraph"] = einstein_lab.WeightedGraph
    heads["g"] = lattice_box(2, 5)[0]
    names = [name for name in readme_dotted_names()
             if name.split(".")[0] in heads]
    unresolved = []
    for name in names:
        head, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, heads[head])
        except AttributeError:
            unresolved.append(name)
    assert names and unresolved == []


def test_only_the_kernels_import_csgraph():
    # one BFS: every search of the lab runs through _kernels, so no other
    # module may import scipy.sparse.csgraph or reach it as an attribute
    def reaches_csgraph(node):
        if isinstance(node, ast.Import):
            return any(a.name.startswith("scipy.sparse.csgraph")
                       for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("scipy.sparse.csgraph") \
                or (node.module == "scipy.sparse"
                    and any(a.name == "csgraph" for a in node.names))
        return isinstance(node, ast.Attribute) and node.attr == "csgraph"

    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if any(map(reaches_csgraph, ast.walk(ast.parse(
                       path.read_text(encoding="utf-8"))))))
    assert users == ["_kernels.py"]


def test_conditions_builds_no_solver():
    # one solver object per ball: the sweep layer reads memoized potential
    # quantities, so conditions.py never names GreenOperator
    def names_it(node):
        return (isinstance(node, ast.Name) and node.id == "GreenOperator"
                or isinstance(node, ast.Attribute)
                and node.attr == "GreenOperator"
                or isinstance(node, ast.alias)
                and node.name == "GreenOperator")

    tree = ast.parse((PACKAGE / "conditions.py").read_text(encoding="utf-8"))
    assert not any(map(names_it, ast.walk(tree)))


def test_three_functions_build_a_green_operator():
    # one solve path: a single right-hand side goes through potential.solve,
    # which factors on a miss; only lambda_min and harnack_constant (many
    # right-hand sides each, harnack_constant one exit kernel at a time)
    # keep an operator of their own; cli.py and conditions.py never name it
    def builds_it(node):
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "GreenOperator"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "GreenOperator")

    sites = {(path.name, getattr(top, "name", None))
             for path in sorted(PACKAGE.glob("*.py"))
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             if any(map(builds_it, ast.walk(top)))}
    assert sites == {("potential.py", name) for name in (
        "solve", "lambda_min", "harnack_constant")}
    for name in ("cli.py", "conditions.py"):
        text = (PACKAGE / name).read_text(encoding="utf-8")
        assert re.search(r"\bGreenOperator\b", text) is None


def test_only_load_and_the_generators_build_a_graph():
    # a graph is built from a file or by a generator, never per cell: no
    # measurement rebuilds a region (a ball, its closure, a shrunk ball) as
    # a WeightedGraph of its own
    def builds_it(node):
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "WeightedGraph"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "WeightedGraph")

    sites = {(path.name, getattr(top, "name", None))
             for path in sorted(PACKAGE.glob("*.py"))
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             if any(map(builds_it, ast.walk(top)))}
    assert {name for name, _ in sites} == {"graph.py", "generators.py"}
    assert {top for name, top in sites if name == "graph.py"} == {"load"}


def test_keep_is_the_one_memo_writer():
    # one keeping rule: only graph._keep assigns into a ._memo[...], and
    # setflags(write=False) appears only there and where WeightedGraph
    # freezes its own CSR arrays, which are not cached values
    def writes_memo(node):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(
                       node, (ast.AugAssign, ast.AnnAssign)) else [])
        return any(isinstance(t, ast.Subscript)
                   and isinstance(t.value, ast.Attribute)
                   and t.value.attr == "_memo" for t in targets)

    def freezes(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags")

    def sites(test):
        # (file, name) of each top-level statement whose tree holds a
        # match, a class's members named Class.member
        found = set()
        for path in sorted(PACKAGE.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                members = ([(f"{top.name}.{getattr(m, 'name', None)}", m)
                            for m in top.body]
                           if isinstance(top, ast.ClassDef)
                           else [(getattr(top, "name", None), top)])
                found |= {(path.name, name) for name, node in members
                          if any(map(test, ast.walk(node)))}
        return found

    assert sites(writes_memo) == {("graph.py", "_keep")}
    assert sites(freezes) == {("graph.py", "_keep"),
                              ("graph.py", "WeightedGraph._init_csr")}


def test_package_reads_no_environment():
    # no environment variable may change what the lab computes
    readers = [f"{path.name}: {hit}"
               for path in sorted(PACKAGE.glob("*.py"))
               for hit in re.findall(r"environ|getenv",
                                     path.read_text(encoding="utf-8"))]
    assert readers == []
