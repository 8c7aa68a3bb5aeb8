"""End-to-end tests of the command-line interface.

Most commands run in process through ``cli.main``; the version flag, the
pipe tests, the golden digests, the import test and the encoding test start
``python -m poisson_digraph`` as a subprocess, so the module entry stays
covered.

Exit-code contract: 0 success, 1 a requested statistical check failed,
2 usage error or a size that does not fit in memory, 3 input/output failure,
141 stdout closed by its reader.
"""

import ast
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import numpy as np

import poisson_digraph
from poisson_digraph import cli, digraph, structure
from poisson_digraph.analysis import degree_fit_test
from poisson_digraph.cli import RunConfig
from poisson_digraph.digraph import MultiDigraph, read_edge_list, write_edge_list
from poisson_digraph.structure import component_summary, degree_arrays
from poisson_digraph.verify import check_graph_against_model
from poisson_digraph.weights import parse_model
from graph_helpers import assert_same_text, traced_peak

CMD = [sys.executable, "-m", "poisson_digraph"]


def run_cli(*args):
    """Run ``cli.main`` in process, as ``subprocess.run`` would report it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def run_subprocess(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=300)


def test_version_flag():
    res = run_subprocess("--version")
    assert res.returncode == 0
    assert "poisson-digraph" in res.stdout


def test_sample_is_byte_reproducible(tmp_path):
    a = run_cli("sample", "--model", "constant:2", "--n", "100", "--seed", "7")
    b = run_cli("sample", "--model", "constant:2", "--n", "100", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "# n=100" in a.stdout
    assert "# seed=7" in a.stdout
    assert '# model={"c": 2.0, "kind": "constant"}' in a.stdout.splitlines()
    pareto = run_cli("sample", "--model", "pareto-mirrored:3.5,1", "--n", "10")
    header = '# model={"kind": "pareto-mirrored", "tau": 3.5, "xmin": 1.0}'
    assert header in pareto.stdout.splitlines()
    # capacity aliases name the same model and are written back canonically
    alias = run_cli("sample", "--model", "oriented-nr:pareto:3.5,1", "--n", "10")
    assert alias.stdout == pareto.stdout
    c = run_cli("sample", "--model", "constant:2", "--n", "100", "--seed", "8")
    assert c.stdout != a.stdout
    out = tmp_path / "g.tsv"
    d = run_cli("sample", "--model", "constant:2", "--n", "100", "--seed", "7", "--out", str(out))
    assert d.returncode == 0
    assert out.read_text() == a.stdout


def test_usage_errors_exit_two():
    assert run_cli("sample", "--model", "constant:2", "--n", "0").returncode == 2
    assert run_cli("sample", "--n", "10").returncode == 2
    assert run_cli("sample", "--model", "nonsense{", "--n", "10").returncode == 2
    assert run_cli("sample", "--model", "constant:2", "--n", "10", "--bogus").returncode == 2
    assert run_cli("evolve", "--model", "constant:2", "--from", "9", "--to", "4").returncode == 2


def test_missing_input_file_exits_three(tmp_path):
    res = run_cli("components", "--in", str(tmp_path / "absent.tsv"))
    assert res.returncode == 3


def test_malformed_edge_list_exits_three(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("# n=3\n1\t2\tx\n")
    res = run_cli("components", "--in", str(bad))
    assert res.returncode == 3
    assert "line 2" in res.stderr


def test_comment_that_is_not_utf8_names_its_line(tmp_path):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes(b"# n=3\n# note=caf\xe9\n1\t2\t1\n")
    res = run_cli("components", "--in", str(bad))
    assert res.returncode == 3
    assert res.stderr == f"error: {bad}: line 2: comment is not UTF-8 (byte 0xe9)\n"


@pytest.mark.parametrize("command", ["components", "stats"])
@pytest.mark.parametrize("header", [b"# n=3\n", b""], ids=["header", "headerless"])
def test_byte_order_mark_at_the_first_byte_reads_as_no_data(tmp_path, command, header):
    n_flag = [] if header else ["--n", "3"]
    plain, marked = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_bytes(header + b"1\t2\t1\n2\t3\t1\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    res = run_cli(command, "--in", str(marked), *n_flag)
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli(command, "--in", str(plain), *n_flag).stdout
    # after the first byte it is data, and malformed
    marked.write_bytes(header + b"\n\xef\xbb\xbf" + plain.read_bytes()[len(header):])
    res = run_cli(command, "--in", str(marked), *n_flag)
    assert res.returncode == 3
    assert f"line {2 + bool(header)}: '\\ufeff1' is not an integer" in res.stderr


def test_free_comment_of_any_bytes_reads(tmp_path):
    plain, latin1 = tmp_path / "plain.tsv", tmp_path / "latin1.tsv"
    plain.write_bytes(b"# n=3\n1\t2\t1\n")
    latin1.write_bytes(b"# n=3\n# caf\xe9\n1\t2\t1\n")
    res = run_cli("components", "--in", str(latin1))
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli("components", "--in", str(plain)).stdout


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1\t2\t99999999999999999999\n", "line 2: "),
        ("1\t2\t9223372036854775807\n1\t2\t1\n", "exceeds 2**63 - 1"),
        (f"1\t2\t{2**62}\n2\t1\t{2**62}\n", "exceeds 2**63 - 1"),
    ],
    ids=["int64-overflow", "merged-overflow", "total-overflow"],
)
def test_oversized_multiplicity_exits_three(tmp_path, rows, message):
    bad = tmp_path / "big.tsv"
    bad.write_text("# n=3\n" + rows)
    for args in (["components"], ["stats", "--model", "constant:2"]):
        res = run_cli(*args, "--in", str(bad))
        assert res.returncode == 3
        assert res.stderr.startswith(f"error: {bad}: ")
        assert message in res.stderr


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    graph = str(tmp_path / "g.tsv")
    code = f"""
import sys
import poisson_digraph.cli as cli
assert 'scipy.stats' not in sys.modules
assert 'scipy.optimize' not in sys.modules
assert 'scipy.special' not in sys.modules
assert 'multiprocessing' not in sys.modules
assert cli.main(['sample', '--model', 'constant:2', '--n', '2000', '--out', {graph!r}]) == 0
assert cli.main(['stats', '--in', {graph!r}, '--model', 'constant:2']) in (0, 1)
assert cli.main(['verify', '--suite', 'quick', '--seed', '0']) == 0
assert 'scipy.stats' not in sys.modules, 'stats --model or verify loaded scipy.stats'
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_vertex_count_past_the_cap_exits_three(tmp_path):
    big = tmp_path / "big.tsv"
    big.write_text("# n=10000000000\n1\t2\t1\n")
    for args in (["components"], ["stats", "--model", "constant:2"]):
        res = run_cli(*args, "--in", str(big))
        assert res.returncode == 3
        assert res.stderr.startswith(f"error: {big}: n=10000000000 exceeds")
        assert "Traceback" not in res.stderr


def _benchmark_calls(tree, names):
    """(line, name, positional count, keyword names) of each call of an imported name.

    A call is direct, ``fn(...)``, or wrapped, ``t.call(label, fn, ...)`` or
    ``call(label, fn, ...)``, whose arguments after ``fn`` are fn's.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        wrapped = (isinstance(func, ast.Attribute) and func.attr == "call") or (
            isinstance(func, ast.Name) and func.id == "call"
        )
        if wrapped and len(args) >= 2:
            func, args = args[1], args[2:]
        if isinstance(func, ast.Name) and func.id in names:
            assert not any(isinstance(a, ast.Starred) for a in args), node.lineno
            assert all(k.arg is not None for k in node.keywords), node.lineno
            yield node.lineno, func.id, len(args), [k.arg for k in node.keywords]


def test_benchmark_imports_resolve():
    # the benchmark harness under perfbench/ imports public names and calls them;
    # a rename or a dropped parameter must fail here
    trees = {
        path.name: ast.parse(path.read_text())
        for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")
    }
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "poisson_digraph":
                names.update(alias.name for alias in node.names)
    assert "component_summary" in names
    assert [name for name in sorted(names) if not hasattr(poisson_digraph, name)] == []
    unbound, called = [], set()
    for file, tree in trees.items():
        for line, name, positional, keywords in _benchmark_calls(tree, names):
            called.add(name)
            try:
                inspect.signature(getattr(poisson_digraph, name)).bind(
                    *[None] * positional, **dict.fromkeys(keywords)
                )
            except TypeError as err:
                unbound.append(f"{file}:{line} {name}: {err}")
    assert {"survival_fractions", "degree_fit_test", "scaling_exponent_experiment"} <= called
    assert unbound == []


def test_sample_past_the_vertex_cap_exits_two_before_drawing(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("weights drawn for an n past the cap")

    monkeypatch.setattr(cli, "sample_weights", refuse)
    monkeypatch.setattr(cli, "evolve_chain", refuse)
    for flags in (["sample", "--n", "4000000000"], ["evolve", "--from", "2", "--to", "4000000000"]):
        assert cli.main([*flags, "--model", "constant:2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_out_of_memory_exits_two(monkeypatch, capsys, tmp_path):
    def exhaust(path, n):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    # raised, not allocated: a real allocation could exhaust an overcommitting host
    monkeypatch.setattr(cli, "_read_summary", exhaust)
    path = tmp_path / "g.tsv"
    path.write_text("# n=3\n1\t2\t1\n")
    assert cli.main(["components", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: not enough memory: Unable to allocate")


def test_headerless_file_needs_n_flag(tmp_path):
    headerless = tmp_path / "plain.tsv"
    headerless.write_text("1\t2\t1\n2\t3\t1\n")
    assert run_cli("components", "--in", str(headerless)).returncode == 3
    res = run_cli("components", "--in", str(headerless), "--n", "5")
    assert res.returncode == 0
    assert json.loads(res.stdout)["n"] == 5


def test_n_flag_outside_its_range_exits_two(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# n=3\n1\t2\t1\n")
    commands = (
        ["sample", "--model", "constant:2"],
        ["components", "--in", str(path)],
        ["stats", "--in", str(path)],
        ["verify", "--graph", str(path), "--model", "constant:2"],
    )
    for args in commands:
        for n in (0, cli.MAX_N + 1):
            res = run_cli(*args, "--n", str(n))
            assert res.returncode == 2, args
            assert res.stderr == f"error: --n must be an integer in 1..{cli.MAX_N}, got {n}\n"


def test_bad_n_header_exits_three_naming_its_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# n=3\n# n=4\n1\t2\t1\n")
    res = run_cli("components", "--in", str(path))
    assert res.returncode == 3
    assert res.stderr == f"error: {path}: line 2: n=4 conflicts with n=3 above\n"


def test_pipe_input_reads_like_the_file(tmp_path):
    graph = tmp_path / "g.tsv"
    sample = ["sample", "--model", "pareto-mirrored:3.5,1", "--n", "20000", "--seed", "11"]
    assert run_subprocess(*sample, "--out", str(graph)).returncode == 0
    assert graph.stat().st_size > 2**16  # several times a pipe's buffer
    for args in (["components"], ["stats", "--model", "pareto-mirrored:3.5,1"]):
        from_file = run_subprocess(*args, "--in", str(graph))
        assert from_file.returncode in (0, 1) and from_file.stdout
        # sample | <command> --in /dev/stdin
        producer = subprocess.Popen(CMD + sample, stdout=subprocess.PIPE)
        try:
            from_pipe = subprocess.run(
                CMD + args + ["--in", "/dev/stdin"],
                stdin=producer.stdout, capture_output=True, text=True, timeout=300,
            )
        finally:
            producer.stdout.close()
            assert producer.wait(timeout=300) == 0
        assert (from_pipe.returncode, from_pipe.stdout) == (from_file.returncode, from_file.stdout)


def test_closed_stdout_exits_141_quietly():
    # the reader stops after the first line, as `sample ... | head -1` does;
    # the 2 MB of output cannot all fit in the pipe before it closes
    sample = ["sample", "--model", "pareto-mirrored:3.5,1", "--n", "100000", "--seed", "1"]
    with subprocess.Popen(CMD + sample, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (code, first, err) == (141, b"# poisson-digraph edge list v1\n", b"")


def _golden_edge_list():
    """A 3000-vertex edge list from fixed integer arithmetic, no random draws.

    Rows come unsorted, with repeated pairs, zero counts, loops and
    comments between them.
    """
    n = 3000
    lines = [f"# n={n}"]
    for i in range(5000):
        if i % 1000 == 500:
            lines.append(f"# block={i // 1000}")
        j = i - 25 if i % 50 == 49 else i  # every 50th row repeats an earlier pair
        src = j * 2654435761 % 4294967291 % n + 1
        dst = src if j % 97 == 0 else (j * j * 40503 + 7 * j + 11) % 65521 % n + 1
        lines.append(f"{src}\t{dst}\t{i % 3}")
    return "\n".join(lines) + "\n"


# (exit code, SHA-256 of stdout) of each command on the golden edge list; the
# graph is fixed, so only the reader, the component summary and the degree
# fit can move them
GOLDEN_OUTPUTS = {
    ("components",): (0, "525ea76f1098d4fb38a05c2f89e01bb1f555b90efef6a73a897b285ee33c2926"),
    ("stats", "--model", "pareto-mirrored:3.5,1", "--kmax", "30"): (
        1,
        "3252a8d8de392abca64b105963a432c9649e405db7e786bf4a1e9ffe1ffd0502",
    ),
}


@pytest.fixture(scope="module")
def golden_edge_lists(tmp_path_factory):
    """The golden edge list as written, and the same graph as the writer renders it."""
    folder = tmp_path_factory.mktemp("golden")
    unsorted, ordered = folder / "golden.tsv", folder / "ordered.tsv"
    unsorted.write_text(_golden_edge_list())
    # sorted rows, no duplicates
    g, meta = read_edge_list(unsorted)
    write_edge_list(g, ordered, meta)
    return unsorted, ordered


def _outcome(res):
    """(exit code, SHA-256 of stdout) of a ``run_cli`` result."""
    return res.returncode, hashlib.sha256(res.stdout.encode()).hexdigest()


def test_outputs_on_golden_edge_list_are_pinned(golden_edge_lists):
    for path in golden_edge_lists:
        for (command, *args), expected in GOLDEN_OUTPUTS.items():
            res = subprocess.run(
                CMD + [command, "--in", str(path), *args], capture_output=True, timeout=300
            )
            digest = hashlib.sha256(res.stdout).hexdigest()
            assert (res.returncode, digest) == expected, (path.name, command)


# a sampled graph of 331,325 rows, past the writer's 65,536-row chunks
LARGE_SAMPLE = ("sample", "--model", "pareto-mirrored:3.5,1", "--n", "200000", "--seed", "1")
# (exit code, SHA-256 of stdout) of sample, and of each reader on its file
LARGE_OUTPUTS = {
    LARGE_SAMPLE: (0, "465a59eba10f45d19a9b31234dc1a756b896aeb6c4b5d1b845303c58f8732194"),
    ("components",): (0, "c7e5d2c002a86f77ca27b3b10e4ca08f0278c4b62553783daa797830c9ad9371"),
    ("stats",): (0, "73a8daa48fd93e8cbacbfb0fb0e956b7b185020bc7fb30ec270924ecc2b109bc"),
    ("stats", "--model", "pareto-mirrored:3.5,1", "--kmax", "30"): (
        0,
        "0912bde02ff3fb6df192d4134454851787460402f712c16915997228ea891eb4",
    ),
}


@pytest.fixture(scope="module")
def large_edge_list(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "graph.tsv"
    assert cli.main([*LARGE_SAMPLE, "--out", str(path)]) == 0
    return path


def _assert_large_outputs(path):
    """``LARGE_OUTPUTS``, with sample's stdout the text of ``path``."""
    for (command, *args), expected in LARGE_OUTPUTS.items():
        if command == "sample":
            res = run_cli(command, *args)
            assert_same_text(res.stdout, path.read_text())
        else:
            res = run_cli(command, "--in", str(path), *args)
        assert _outcome(res) == expected, command


def test_outputs_past_one_writer_chunk_are_pinned(large_edge_list):
    _assert_large_outputs(large_edge_list)


@pytest.fixture
def chunk_sizes(monkeypatch):
    """Set ``digraph._CHUNK_ROWS`` and ``digraph._BLOCK_BYTES``, which size every chunked loop."""

    def set_sizes(rows, block):
        monkeypatch.setattr(digraph, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(digraph, "_BLOCK_BYTES", block)

    return set_sizes


# (exit code, SHA-256 of stdout) of commands that draw, build and traverse
# graphs of at most 3000 vertices
CHUNKED_OUTPUTS = {
    ("sample", "--model", "pareto-mirrored:3.5,1", "--n", "3000", "--seed", "4"): (
        0,
        "16b9ade95a5a08fd4ef1eb25fc56e5cc26507d8a1099aabeb6a0145bc2021bae",
    ),
    (
        "sample", "--model", "independent-product:constant:2|pareto:3.5,1.2",
        "--n", "3000", "--seed", "4",
    ): (
        0,
        "32a8bec877bca67d82573442ade555d800c088209e7d670afc2dc162dbec8a04",
    ),
    ("evolve", "--model", "pareto-mirrored:3.5,1", "--from", "3", "--to", "300", "--seed", "4"): (
        0,
        "7e8f07fa245364358c2102b3e01469c31a728963d50ee10661e3b9e91a76e0e9",
    ),
    (
        "scaling", "--tau", "3.5", "--critical", "--n-list", "256,512",
        "--reps", "3", "--sources", "8", "--bootstrap", "20", "--seed", "4",
    ): (0, "8fe1085d0778576e7835264520a0f70f37c3f0f145fc3a1d57168b123a6cd91b"),
}


@pytest.mark.parametrize("sizes", [None, (3, 7)], ids=["default", "small"])
def test_outputs_do_not_depend_on_chunk_sizes(golden_edge_lists, chunk_sizes, sizes, tmp_path):
    # 3 rows and 7 bytes cut every chunked loop, the reader's blocks and the
    # draw's merge (one key at a time) many times over
    if sizes:
        chunk_sizes(*sizes)
    unsorted, ordered = golden_edge_lists
    g, meta = read_edge_list(unsorted)
    rewritten = tmp_path / "rewritten.tsv"
    write_edge_list(g, rewritten, meta)
    assert rewritten.read_bytes() == ordered.read_bytes()
    for path in golden_edge_lists:
        for (command, *args), expected in GOLDEN_OUTPUTS.items():
            res = run_cli(command, "--in", str(path), *args)
            assert _outcome(res) == expected, (path.name, command)
    for args, expected in CHUNKED_OUTPUTS.items():
        assert _outcome(run_cli(*args)) == expected, args


def test_outputs_past_one_writer_chunk_do_not_depend_on_chunk_sizes(large_edge_list, chunk_sizes):
    # far below the defaults, so the 331,325 rows and 4.6 MB make hundreds of chunks and blocks
    chunk_sizes(1001, 4099)
    _assert_large_outputs(large_edge_list)


def test_swapped_id_columns_swap_in_and_out_degrees(large_edge_list, tmp_path):
    # reversing every arc keeps the strong and weak classes and swaps the
    # degrees; the swapped rows are unsorted, so the readers sort them
    swapped = tmp_path / "swapped.tsv"
    with large_edge_list.open() as lines, swapped.open("w") as out:
        for line in lines:
            out.write(line if line.startswith("#") else "{1}\t{0}\t{2}".format(*line.split("\t")))
    paths = (large_edge_list, swapped)
    components = [run_cli("components", "--in", str(path)) for path in paths]
    assert components[1].returncode == 0
    assert components[1].stdout == components[0].stdout
    stats = [json.loads(run_cli("stats", "--in", str(path)).stdout) for path in paths]
    assert stats[0]["max_in_degree"] != stats[0]["max_out_degree"]
    for a, b in (("mean_in_degree", "mean_out_degree"), ("max_in_degree", "max_out_degree")):
        stats[1][a], stats[1][b] = stats[1][b], stats[1][a]
    assert stats[1] == stats[0]


@pytest.mark.parametrize("command", ["sample", "components", "stats"])
def test_command_peak_memory(command, large_edge_list, tmp_path):
    # in units of one int64 array of the K arcs (8 K bytes); with copying
    # constructors, a joined edge-list text and a graph held to the end,
    # sample peaked at 9.9, components at 9.6 and stats at 7.8; with a
    # loadtxt row matrix, float64 arc weights and the whole text rendered
    # before writing, at 6.3, 6.4 and 6.2; with the block reader, int32
    # adjacency and streamed write, at 5.2, 4.0 and 2.5; the bounds are the
    # readings of rows rendered from the sorted codes, the adjacency read
    # from the blocks and the weak classes joined without a condensation,
    # plus 10 %: sample 4.0 (the codes and one chunk's transients),
    # components 2.3, stats 2.4 (degree rows, no graph)
    k = read_edge_list(large_edge_list)[0].total_arcs
    argv = {
        "sample": [*LARGE_SAMPLE, "--out", str(tmp_path / "graph.tsv")],
        "components": ["components", "--in", str(large_edge_list), "--out", str(tmp_path / "c.json")],
        "stats": [
            "stats", "--in", str(large_edge_list), "--model", "pareto-mirrored:3.5,1",
            "--kmax", "30", "--out", str(tmp_path / "s.json"),
        ],
    }[command]
    # a first run, so the modules a command imports on first use stay out of the trace
    assert cli.main(argv) == 0
    bound = {"sample": 4.45, "components": 2.5, "stats": 2.75}[command]
    assert traced_peak(8 * k, cli.main, argv) <= bound


def test_components_of_three_cycle(tmp_path):
    cycle = tmp_path / "cycle.tsv"
    cycle.write_text("# n=4\n1\t2\t1\n2\t3\t1\n3\t1\t1\n")
    payload = json.loads(run_cli("components", "--in", str(cycle)).stdout)
    assert payload["largest_strong"] == 3
    assert payload["largest_weak"] == 3
    assert payload["strong_sizes_topk"] == [3, 1]


def test_components_of_empty_graph(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# n=5\n")
    payload = json.loads(run_cli("components", "--in", str(empty)).stdout)
    assert payload["largest_weak"] == 1
    assert payload["largest_strong"] == 1


def test_stats_degrees_are_exact_past_2_53(capsys, tmp_path):
    big = 2**53 + 1  # float64 rounds it to 2**53
    path = tmp_path / "g.tsv"
    path.write_text(f"# n=3\n1\t2\t{big}\n1\t3\t1\n")
    assert cli.main(["stats", "--in", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_arcs"] == big + 1
    assert payload["max_out_degree"] == big + 1
    assert payload["max_in_degree"] == big


def _stats_of_graph(path, n=None, model="pareto-mirrored:3.5,1", kmax=30):
    """Exit code and output of ``stats --model model --kmax kmax``, computed from the graph the file holds."""
    g, _ = read_edge_list(path, n)
    arr = degree_arrays(g)
    fit = degree_fit_test(g, parse_model(model), kmax=kmax, threshold=0.02)
    payload = {
        "n": g.n,
        "total_arcs": g.total_arcs,
        "total_loops": g.total_loops,
        "mean_in_degree": float(arr.d_in.mean()),
        "mean_out_degree": float(arr.d_out.mean()),
        "max_in_degree": int(arr.d_in.max()),
        "max_out_degree": int(arr.d_out.max()),
        "max_total_degree": int(arr.total.max()),
        "vertices_with_loops": int((arr.loops > 0).sum()),
        "degree_fit": {
            "statistic": fit.statistic,
            "threshold": fit.threshold,
            "passed": fit.passed,
            "kmax": fit.kmax,
        },
    }
    return int(not fit.passed), json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _verify_of_graph(path, n=None, model="pareto-mirrored:3.5,1", kmax=30):
    """Exit code and output of ``verify --graph path --model model --kmax kmax``, from the graph."""
    g, _ = read_edge_list(path, n)
    check = check_graph_against_model(g, parse_model(model), kmax, 0.02, source=str(path))
    payload = {"suite": "file", "checks": [check.to_dict()], "all_pass": check.passed}
    return int(not check.passed), json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _edge_list_files(tmp_path):
    """Paths of the golden graph's rows with n at the top, after the rows, between them or not at all.

    Also a one-vertex graph and an empty one; each name maps to (path, the
    n a reader must be given).
    """
    header, *rows = _golden_edge_list().splitlines(keepends=True)
    half = len(rows) // 2
    texts = {
        # unsorted rows with repeated pairs, zero counts and loops
        "header": (header + "".join(rows), None),
        "headerless": ("".join(rows), 3000),
        # n known only partway: the rows before it are held until it is read
        "mid-n": ("".join(rows[:half]) + header + "".join(rows[half:]), None),
        "trailing-n": ("".join(rows) + header, None),
        "n1": ("# n=1\n1\t1\t2\n1\t1\t0\n", None),
        "empty": ("# n=5\n", None),
    }
    files = {}
    for name, (text, n) in texts.items():
        path = tmp_path / f"{name}.tsv"
        path.write_text(text)
        files[name] = (path, n)
    return files


def _count_graphs(monkeypatch):
    """A list to which every ``MultiDigraph._adopt`` call, the build of a graph read off a file, appends its n."""
    built = []
    adopt = MultiDigraph._adopt.__func__
    monkeypatch.setattr(
        MultiDigraph, "_adopt", classmethod(lambda cls, *a: built.append(a[0]) or adopt(cls, *a))
    )
    return built


@pytest.mark.parametrize("block", [512, 2**18], ids=["many-blocks", "one-block"])
def test_stats_from_blocks_match_stats_of_the_graph(tmp_path, monkeypatch, block):
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", block)
    built = _count_graphs(monkeypatch)
    model = ["--model", "pareto-mirrored:3.5,1", "--kmax", "30"]
    for name, (path, n) in _edge_list_files(tmp_path).items():
        with warnings.catch_warnings():
            # the degree fit of a small graph warns that it has little power
            warnings.simplefilter("ignore", UserWarning)
            expected = {"stats": _stats_of_graph(path, n), "verify": _verify_of_graph(path, n)}
            built.clear()
            size = ["--n", str(n)] if n else []
            stats = run_cli("stats", "--in", str(path), *model, *size)
            check = run_cli("verify", "--graph", str(path), *model, *size)
        assert (stats.returncode, stats.stdout) == expected["stats"], name
        assert (check.returncode, check.stdout) == expected["verify"], name
        # the degrees are counted from the blocks, whatever line n is on
        assert built == [], name


# each command that reads an edge list, up to its input path
_READERS = (
    ["components", "--in"],
    ["stats", "--model", "constant:2", "--in"],
    ["verify", "--model", "constant:2", "--graph"],
)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1\t2\t-1\n" + "1\t2\t1\n" * 100 + "1\t9\t1\n", "vertex ids must lie in 1..3"),
        (
            f"1\t2\t{2**62}\n" * 2 + "1\t2\t1\n" * 100 + "1\t2\t-1\n",
            "multiplicities must be nonnegative",
        ),
        (
            "1\t9\t1\n" + "1\t2\t1\n" * 100 + "1\t2\n",
            "line 103: expected 3 fields 'src dst multiplicity', got 2",
        ),
        ("1\t2\t1\n" * 100 + "# n=4\n", "line 102: n=4 conflicts with n=3 above"),
    ],
    ids=["ids-after-negative", "negative-after-overflow", "bad-line-after-bad-id", "bad-n-last"],
)
def test_stats_and_components_fail_alike_over_blocks(tmp_path, monkeypatch, rows, message):
    # the first error of the whole file, in the order the graph's checks take
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", 64)
    path = tmp_path / "bad.tsv"
    path.write_text("# n=3\n" + rows)
    for args in _READERS:
        res = run_cli(*args, str(path))
        assert (res.returncode, res.stderr) == (3, f"error: {path}: {message}\n"), args


def _summary_from_blocks_matches_the_graph(path, n=None):
    """The block path of ``components`` on ``path`` against the summary of the graph read whole."""
    expected = component_summary(read_edge_list(path, n)[0])
    got = structure._read_summary(path, n)
    for name in ("indptr", "indices"):
        a, b = getattr(got.adjacency, name), getattr(expected.adjacency, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.to_json() == expected.to_json()
    res = run_cli("components", "--in", str(path), *(["--n", str(n)] if n else []))
    assert (res.returncode, res.stdout) == (0, expected.to_json() + "\n")


@pytest.mark.parametrize("block", [512, 2**18], ids=["many-blocks", "one-block"])
def test_components_from_blocks_match_components_of_the_graph(tmp_path, monkeypatch, block):
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", block)
    built = _count_graphs(monkeypatch)
    files = _edge_list_files(tmp_path)
    files["zero-counts-only"] = (tmp_path / "zero-counts-only.tsv", None)
    files["zero-counts-only"][0].write_text("# n=4\n1\t2\t0\n3\t1\t0\n")
    # the writer's sorted rows of the same graph, which need no sort
    files["sorted"] = (tmp_path / "sorted.tsv", None)
    write_edge_list(read_edge_list(files["header"][0])[0], files["sorted"][0])
    for name, (path, n) in files.items():
        built.clear()
        _summary_from_blocks_matches_the_graph(path, n)
        # once by read_edge_list, and never by the block path or the command
        assert len(built) == 1, name


def test_an_n_comment_between_data_blocks_reads_as_a_header(tmp_path, monkeypatch):
    # 64-byte blocks: the rows before the comment are held, those after it
    # are folded as they come
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", 64)
    files = _edge_list_files(tmp_path)
    top, middle = files["header"][0], files["mid-n"][0]
    assert read_edge_list(middle) == read_edge_list(top)
    for args in (*_READERS, ["stats", "--model", "pareto-mirrored:3.5,1", "--kmax", "30", "--in"]):
        expected = run_cli(*args, str(top))
        res = run_cli(*args, str(middle))
        assert res.stdout == expected.stdout.replace(str(top), str(middle)), args
        assert res.returncode == expected.returncode and res.stderr == expected.stderr == "", args


def test_components_and_stats_fail_alike_without_n(tmp_path):
    headerless = tmp_path / "plain.tsv"
    headerless.write_text("1\t2\t1\n2\t3\t1\n")
    for args in _READERS:
        res = run_cli(*args, str(headerless))
        expected = f"error: {headerless}: no n declared in header and none supplied\n"
        assert (res.returncode, res.stderr) == (3, expected), args


@pytest.mark.parametrize(
    "rows, message",
    [
        # a bad line after the first block
        ("1\t2\t1\n" * 100 + "1\t2\tx\n", "line 102: 'x' is not an integer"),
        # a failed check in the first block, a bad line in a later one
        ("1\t9\t1\n" + "1\t2\t1\n" * 100 + "1\t2\n", "line 103: expected 3 fields"),
        # a bad line in the first block, a failed check in a later one
        ("1\t2\n" + "1\t2\t1\n" * 100 + "1\t9\t1\n", "line 2: expected 3 fields"),
    ],
    ids=["bad-line-late", "bad-id-then-bad-line", "bad-line-then-bad-id"],
)
def test_components_from_blocks_fail_as_the_reader_does(tmp_path, monkeypatch, rows, message):
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", 64)
    path = tmp_path / "bad.tsv"
    path.write_text("# n=3\n" + rows)
    with pytest.raises(ValueError, match=f"^{message}"):
        read_edge_list(path)
    with pytest.raises(ValueError, match=f"^{message}"):
        structure._read_summary(path)
    errors = {run_cli(*args, str(path)).stderr for args in _READERS}
    assert len(errors) == 1 and errors.pop().startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("hook", ["start", "add"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("# n=3\n" + "1\t2\t1\n" * 100 + "1\t2\tx\n", "line 102: 'x' is not an integer"),
        ("# n=3\n" + "1\t2\t1\n" * 100 + "1\t9\t1\n", "vertex ids must lie in 1..3"),
        ("1\t2\t1\n" * 100, "no n declared in header and none supplied"),
        ("# n=3\n" + "1\t2\t1\n" * 100, None),
    ],
    ids=["bad-line", "bad-id", "no-n", "clean"],
)
def test_a_state_that_does_not_fit_fails_only_a_clean_file(tmp_path, monkeypatch, hook, text, message):
    # the fold's state is refused when it is made or when it first grows;
    # raised, not allocated: a real allocation could exhaust an overcommitting host
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", 64)
    fold = digraph._fold_blocks

    def refuse(*args):
        raise MemoryError("Unable to allocate 72.0 GiB for an array")

    def no_room(path, n, meta, start, add):
        return fold(path, n, meta, *{"start": (refuse, add), "add": (start, refuse)}[hook])

    for module in (digraph, structure):
        monkeypatch.setattr(module, "_fold_blocks", no_room)
    path = tmp_path / "g.tsv"
    path.write_text(text)
    with pytest.raises(ValueError if message else MemoryError, match=message or "72.0 GiB"):
        read_edge_list(path)
    for args in _READERS:
        res = run_cli(*args, str(path))
        if message:
            assert (res.returncode, res.stderr) == (3, f"error: {path}: {message}\n"), args
        else:
            assert (res.returncode, res.stdout) == (2, ""), args
            assert res.stderr.startswith("error: not enough memory: Unable to allocate"), args


def _failing_rows(*args):
    yield b"1\t1\t1\n"
    raise MemoryError("Unable to allocate the next chunk")


@pytest.mark.parametrize("command", ["sample", "evolve"])
def test_failed_render_leaves_the_target_and_no_temporary(tmp_path, monkeypatch, command):
    argv = {
        "sample": ["sample", "--model", "constant:2", "--n", "100"],
        "evolve": ["evolve", "--model", "constant:2", "--from", "3", "--to", "6"],
    }[command]
    target = tmp_path / "g.tsv"
    target.write_text("old text\n")
    monkeypatch.setattr(digraph, "_row_chunks", _failing_rows)
    res = run_cli(*argv, "--out", str(target))
    assert res.returncode == 2
    assert res.stderr.startswith("error: not enough memory")
    assert target.read_text() == "old text\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.tsv"]
    # stdout gets nothing of a render that fails at a later chunk
    for out in ([], ["--out", "-"]):
        piped = run_cli(*argv, *out)
        assert (piped.returncode, piped.stdout, piped.stderr) == (2, "", res.stderr)
    g = MultiDigraph(3, np.array([1]), np.array([2]), np.array([1]))
    with pytest.raises(MemoryError):
        write_edge_list(g, target)
    assert target.read_text() == "old text\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.tsv"]


def test_out_replaces_the_target_through_a_symlink_with_its_mode(tmp_path):
    argv = ["sample", "--model", "constant:2", "--n", "100", "--seed", "2"]
    target, link = tmp_path / "target.tsv", tmp_path / "link.tsv"
    target.write_text("old text\n")
    target.chmod(0o640)
    link.symlink_to(target)
    assert run_cli(*argv, "--out", str(link)).returncode == 0
    assert link.is_symlink()
    assert target.read_text() == run_cli(*argv).stdout
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "target.tsv"]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_out_to_a_device_writes_in_place():
    res = run_cli("sample", "--model", "constant:2", "--n", "100", "--out", "/dev/null")
    assert res.returncode == 0


def test_commands_run_alike_when_a_default_encoding_is_an_error(tmp_path):
    # a file opened in the locale's encoding warns under these flags, and
    # fails the command; every open names its encoding, so none does
    strict = [*CMD[:1], "-X", "warn_default_encoding", "-W", "error::EncodingWarning", *CMD[1:]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "constant:2", "kmax": 20}), encoding="utf-8")
    plain, checked = tmp_path / "plain", tmp_path / "checked"
    plain.mkdir()
    checked.mkdir()
    graph = str(plain / "g.tsv")
    commands = {
        "g.tsv": ["sample", "--model", "constant:2", "--n", "2000", "--seed", "4"],
        "c.json": ["components", "--in", graph],
        "s.json": ["stats", "--in", graph, "--config-file", str(cfg)],
        "t.tsv": [
            "scaling", "--tau", "3.5", "--critical", "--n-list", "128,256", "--reps", "4",
            "--sources", "8", "--bootstrap", "20", "--threads", "2",
        ],
    }
    for name, argv in commands.items():
        expected = run_cli(*argv, "--out", str(plain / name)).returncode
        res = subprocess.run(
            [*strict, *argv, "--out", str(checked / name)], capture_output=True, text=True, timeout=300
        )
        assert (res.returncode, res.stderr) == (expected, ""), name
        assert (checked / name).read_bytes() == (plain / name).read_bytes(), name


def test_sample_then_stats_round_trip(tmp_path):
    out = tmp_path / "g.tsv"
    run_cli("sample", "--model", "constant:2", "--n", "30000", "--seed", "3", "--out", str(out))
    res = run_cli("stats", "--in", str(out))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["n"] == 30000
    assert payload["mean_in_degree"] == pytest.approx(2.0, abs=0.1)
    assert "degree_fit" not in payload


def test_stats_with_matching_model_fit(tmp_path):
    out = tmp_path / "g.tsv"
    run_cli("sample", "--model", "constant:2", "--n", "30000", "--seed", "4", "--out", str(out))
    res = run_cli(
        "stats", "--in", str(out), "--model", "constant:2", "--kmax", "25", "--threshold", "0.03"
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["degree_fit"]["passed"] is True
    assert payload["degree_fit"]["statistic"] < 0.03


def test_stats_with_wrong_model_exits_one(tmp_path):
    out = tmp_path / "g.tsv"
    run_cli("sample", "--model", "constant:2", "--n", "30000", "--seed", "5", "--out", str(out))
    res = run_cli("stats", "--in", str(out), "--model", "constant:5", "--kmax", "25")
    assert res.returncode == 1
    assert json.loads(res.stdout)["degree_fit"]["passed"] is False


def test_stats_rejects_bad_fit_arguments(tmp_path):
    out = tmp_path / "g.tsv"
    run_cli("sample", "--model", "constant:2", "--n", "100", "--out", str(out))
    res = run_cli("stats", "--in", str(out), "--model", "constant:2", "--threshold", "nan")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: threshold must be in (0, 1], got nan\n"


def test_survival_constant_two(tmp_path):
    res = run_cli("survival", "--model", "constant:2", "--config", "mirrored-sum")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["zeta"] == pytest.approx(0.7968121300450306, abs=1e-8)
    assert payload["pi"] == pytest.approx(0.6349095705868988, abs=1e-8)
    assert payload["configuration"] == "mirrored-sum"
    assert payload["pi_conjectural"] is False


def test_survival_writes_strict_json():
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    # tau <= 3: nu / mu is infinite and is written as null
    res = run_cli("survival", "--model", "pareto-mirrored:2.5")
    assert res.returncode == 0
    payload = json.loads(res.stdout, parse_constant=refuse)
    assert payload["critical_ratio_in"] is None and payload["critical_ratio_out"] is None
    assert 0 < payload["zeta_f"] <= 1
    finite = json.loads(run_cli("survival", "--model", "constant:2").stdout, parse_constant=refuse)
    assert finite["critical_ratio_in"] == 2.0


def test_survival_rejects_nonpositive_tol():
    for tol in ("0", "-1"):
        res = run_cli("survival", "--model", "constant:2", "--tol", tol)
        assert res.returncode == 2
        assert res.stderr.startswith("error: tol must be positive")


def test_survival_near_criticality_is_solved():
    res = run_cli("survival", "--model", "constant:1.0001")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    # s = 1 - q solves s = 1 - exp(-1.0001 s); s is about 2e-4
    s = 1.0 - payload["q_f"]
    assert s == pytest.approx(-math.expm1(-1.0001 * s), rel=1e-9)
    assert payload["zeta_f"] == pytest.approx(s, rel=1e-9)
    assert payload["residual"] < 1e-10


def test_survival_ignores_the_seed():
    for config in ("mirrored-sum", "plain"):
        args = ("survival", "--model", "pareto-mirrored:3.5,1", "--config", config)
        runs = [run_cli(*args, "--seed", seed) for seed in ("0", "7")]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout)["quad_error"] < 1e-8


def test_survival_plain_default():
    res = run_cli("survival", "--model", "constant:2")
    payload = json.loads(res.stdout)
    assert payload["configuration"] == "plain"
    assert payload["pi_conjectural"] is True


def test_evolve_writes_grown_graph(tmp_path):
    out = tmp_path / "grown.tsv"
    res = run_cli(
        "evolve", "--model", "constant:2", "--from", "3", "--to", "6", "--seed", "1",
        "--out", str(out),
    )
    assert res.returncode == 0
    text = out.read_text()
    assert "# n=6" in text
    assert "# n_from=3" in text
    rerun = run_cli(
        "evolve", "--model", "constant:2", "--from", "3", "--to", "6", "--seed", "1"
    )
    assert rerun.stdout == text


def test_evolve_rejects_empirical_mode():
    res = run_cli(
        "evolve", "--model", "constant:2", "--from", "3", "--to", "6", "--mode", "empirical"
    )
    assert res.returncode == 2


def test_scaling_tsv_and_json(tmp_path):
    args = (
        "scaling", "--tau", "3.5", "--critical", "--n-list", "128,256",
        "--reps", "3", "--sources", "8", "--bootstrap", "20", "--seed", "2",
    )
    a = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout.startswith("# poisson-digraph scaling v1")
    b = run_cli(*args)
    assert b.stdout == a.stdout
    j = run_cli(*args, "--json")
    payload = json.loads(j.stdout)
    assert payload["n_values"] == [128, 256]
    assert "slopes" in payload


def test_scaling_bytes_do_not_depend_on_threads():
    args = (
        "scaling", "--tau", "3.5", "--critical", "--n-list", "256,512", "--reps", "4",
        "--sources", "8", "--bootstrap", "20", "--seed", "2", "--json",
    )
    one = run_cli(*args, "--threads", "1")
    two = run_cli(*args, "--threads", "2")
    assert one.returncode == two.returncode == 0
    assert two.stdout == one.stdout


def test_scaling_model_and_tau_are_exclusive():
    res = run_cli("scaling", "--model", "constant:1", "--tau", "3.5", "--n-list", "128,256")
    assert res.returncode == 2
    res = run_cli("scaling", "--n-list", "128,256")
    assert res.returncode == 2


def test_scaling_rejects_nonpositive_counts():
    args = ("scaling", "--tau", "3.5", "--critical", "--n-list", "128,256", "--reps", "2")
    for flag in ("--sources", "--bootstrap", "--threads"):
        res = run_cli(*args, flag, "0")
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: {flag[2:]} must be >= 1")
    res = run_cli(*args, "--threads", "-3")
    assert res.returncode == 2
    assert res.stderr.startswith("error: threads must be >= 1")


def test_verify_graph_mode(tmp_path):
    out = tmp_path / "g.tsv"
    run_cli("sample", "--model", "constant:2", "--n", "30000", "--seed", "6", "--out", str(out))
    good = run_cli(
        "verify", "--graph", str(out), "--model", "constant:2", "--threshold", "0.03"
    )
    assert good.returncode == 0
    payload = json.loads(good.stdout)
    assert payload["all_pass"] is True
    bad = run_cli("verify", "--graph", str(out), "--model", "constant:5")
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["all_pass"] is False


def test_verify_headerless_graph_with_n_flag(tmp_path):
    out = tmp_path / "g.tsv"
    run_cli("sample", "--model", "constant:2", "--n", "30000", "--seed", "6", "--out", str(out))
    headerless = tmp_path / "plain.tsv"
    rows = [line for line in out.read_text().splitlines(True) if not line.startswith("#")]
    headerless.write_text("".join(rows))
    args = ("verify", "--graph", str(headerless), "--model", "constant:2", "--threshold", "0.03")
    assert run_cli(*args).returncode == 3  # no n anywhere
    res = run_cli(*args, "--n", "30000")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["all_pass"] is True
    with_header = run_cli("verify", "--graph", str(out), *args[3:]).stdout
    assert res.stdout == with_header.replace(str(out), str(headerless))


def test_verify_graph_rejects_negative_kmax(tmp_path):
    out = tmp_path / "g.tsv"
    run_cli("sample", "--model", "constant:2", "--n", "100", "--out", str(out))
    res = run_cli("verify", "--graph", str(out), "--model", "constant:2", "--kmax", "-3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: kmax must be >= 0, got -3\n"


def test_verify_rejects_conflicting_targets():
    assert run_cli("verify", "--suite", "quick", "--graph", "x.tsv").returncode == 2
    assert run_cli("verify", "--graph", "x.tsv").returncode == 2  # missing --model


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "constant:2", "n": 30, "seed": 5}))
    from_file = run_cli("sample", "--config-file", str(cfg))
    explicit = run_cli("sample", "--model", "constant:2", "--n", "30", "--seed", "5")
    assert from_file.stdout == explicit.stdout
    overridden = run_cli("sample", "--config-file", str(cfg), "--n", "12")
    assert "# n=12" in overridden.stdout
    # a null value leaves the default: seed 0, mode mu-n
    cfg.write_text(json.dumps({"model": "constant:2", "n": 30, "seed": None, "normalizer_mode": None}))
    defaults = run_cli("sample", "--model", "constant:2", "--n", "30")
    assert run_cli("sample", "--config-file", str(cfg)).stdout == defaults.stdout


def test_config_file_n_sizes_sample_and_leaves_headers_alone(tmp_path):
    # one config for sample and the readers: its n is sample's size, and
    # only the --n flag overrides an input file's header
    cfg = tmp_path / "cfg.json"
    graph = str(tmp_path / "g.tsv")
    cfg.write_text(json.dumps({"model": "constant:2", "n": 500, "seed": 4}))
    assert run_cli("sample", "--config-file", str(cfg), "--n", "2000", "--out", graph).returncode == 0
    stats = run_cli("stats", "--in", graph, "--config-file", str(cfg))
    assert stats.returncode in (0, 1), stats.stderr
    assert json.loads(stats.stdout)["n"] == 2000
    assert run_cli("components", "--in", graph, "--config-file", str(cfg)).returncode == 0
    check = run_cli("verify", "--graph", graph, "--config-file", str(cfg))
    assert check.returncode in (0, 1), check.stderr
    flag = run_cli("stats", "--in", graph, "--config-file", str(cfg), "--n", "500")
    assert flag.returncode == 3
    assert "vertex ids must lie in 1..500" in flag.stderr


def test_config_file_unknown_field_exits_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    for unknown in ("wat", "k"):
        cfg.write_text(json.dumps({"model": "constant:2", "n": 30, unknown: 1}))
        assert run_cli("sample", "--config-file", str(cfg)).returncode == 2
    for field, value in (("n_list", 5), ("n", "abc")):
        cfg.write_text(json.dumps({"model": "constant:2", field: value}))
        res = run_cli("sample", "--config-file", str(cfg))
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: config field '{field}' has the wrong type")


def test_config_file_missing_exits_three(tmp_path):
    assert run_cli("sample", "--config-file", str(tmp_path / "nope.json")).returncode == 3


def test_run_config_json_round_trip():
    cfg = RunConfig(model="constant:2", n=50, seed=1, n_list=(64, 128))
    back = RunConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ValueError):
        RunConfig.from_json('{"no_such_field": 3}')
    for bad in ('{"n": true}', '{"n": 2.5}', '{"tol": "1e-9"}', '{"n_list": [64, "128"]}'):
        with pytest.raises(ValueError, match="wrong type"):
            RunConfig.from_json(bad)


def test_verify_quick_suite_passes():
    res = run_cli("verify", "--suite", "quick", "--seed", "0")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["all_pass"] is True
    assert payload["suite"] == "quick"
    assert len(payload["checks"]) >= 8
