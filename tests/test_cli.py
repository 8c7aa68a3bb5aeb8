"""End-to-end tests of the command-line interface via subprocess.

Exit-code contract: 0 success, 1 a requested statistical check failed,
2 usage error or a size that does not fit in memory, 3 input/output failure.
"""

import ast
import hashlib
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import poisson_digraph
from poisson_digraph import cli
from poisson_digraph.cli import RunConfig
from poisson_digraph.digraph import read_edge_list, write_edge_list

CMD = [sys.executable, "-m", "poisson_digraph"]


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=300)


def test_version_flag():
    res = run_cli("--version")
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
    def exhaust(g):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    # raised, not allocated: a real allocation could exhaust an overcommitting host
    monkeypatch.setattr(cli, "component_summary", exhaust)
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


def test_pipe_input_reads_like_the_file(tmp_path):
    graph = tmp_path / "g.tsv"
    sample = ["sample", "--model", "pareto-mirrored:3.5,1", "--n", "20000", "--seed", "11"]
    assert run_cli(*sample, "--out", str(graph)).returncode == 0
    assert graph.stat().st_size > 2**16  # several times a pipe's buffer
    for args in (["components"], ["stats", "--model", "pareto-mirrored:3.5,1"]):
        from_file = run_cli(*args, "--in", str(graph))
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


def test_outputs_on_golden_edge_list_are_pinned(tmp_path):
    unsorted = tmp_path / "golden.tsv"
    unsorted.write_text(_golden_edge_list())
    # the same graph as the writer renders it: sorted rows, no duplicates
    ordered = tmp_path / "ordered.tsv"
    g, meta = read_edge_list(unsorted)
    write_edge_list(g, ordered, meta)
    for path in (unsorted, ordered):
        for (command, *args), expected in GOLDEN_OUTPUTS.items():
            res = subprocess.run(
                CMD + [command, "--in", str(path), *args], capture_output=True, timeout=300
            )
            digest = hashlib.sha256(res.stdout).hexdigest()
            assert (res.returncode, digest) == expected, (path.name, command)


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
