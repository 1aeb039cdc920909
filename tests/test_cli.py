import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from pbdd.cli import main
from pbdd.encode import PIPELINES

GOLDEN = Path(__file__).parent / "golden"
RUN_OPB = "* running example\n+2 x1 +3 x2 +5 x3 <= 6 ;\n"


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "pbdd.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def run_opb(tmp_path):
    path = tmp_path / "run.opb"
    path.write_text(RUN_OPB)
    return str(path)


def test_encode_bdd1_matches_golden(run_opb, tmp_path):
    out = tmp_path / "out.cnf"
    assert main(["encode", "--method", "bdd1", "--in", run_opb,
                 "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "running_bdd1.cnf").read_text()


def test_encode_bdd3_matches_golden(run_opb, tmp_path):
    out = tmp_path / "out.cnf"
    assert main(["encode", "--method", "bdd3", "--in", run_opb,
                 "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "running_bdd3.cnf").read_text()


def test_encode_aux_alive_after_simplification(run_opb, tmp_path):
    out = tmp_path / "out.cnf"
    main(["encode", "--method", "bdd1", "--in", run_opb, "--out", str(out)])
    lits = {
        abs(int(tok))
        for line in out.read_text().splitlines()
        if line and line[0] not in "cp"
        for tok in line.split()[:-1]
    }
    assert len({v for v in lits if v > 3}) == 3


def test_encode_map_sidecar(run_opb, tmp_path):
    out, sidecar = tmp_path / "out.cnf", tmp_path / "vars.map"
    main(["encode", "--method", "bdd1", "--in", run_opb,
          "--out", str(out), "--map", str(sidecar)])
    assert sidecar.read_text() == "x1 1\nx2 2\nx3 3\n"


def test_encode_multi_constraint_disjoint_aux_ranges(tmp_path):
    path = tmp_path / "two.opb"
    path.write_text("+2 x1 +3 x2 +5 x3 <= 6 ;\n+1 x1 +1 x2 = 1 ;\n")
    out = tmp_path / "out.cnf"
    assert main(["encode", "--method", "bdd1", "--in", str(path),
                 "--out", str(out)]) == 0
    body = [l for l in out.read_text().splitlines() if l and l[0] not in "cp"]
    # three diagrams (the equality splits in two) and no clause mixes
    # auxiliaries from different ranges
    seen_ranges = set()
    for line in body:
        aux = {abs(int(t)) for t in line.split()[:-1] if abs(int(t)) > 3}
        if not aux:
            continue
        lo, hi = min(aux), max(aux)
        for known_lo, known_hi in seen_ranges:
            assert hi < known_lo or lo > known_hi or \
                (known_lo <= lo and hi <= known_hi) or \
                (lo <= known_lo and known_hi <= hi)
    assert len(body) == 5 + 3 + 3  # running constraint + two cardinality halves


def test_encode_parallel_jobs_identical_output(tmp_path, monkeypatch):
    # the pool starts only with at least CHUNKS_PER_JOB (4) constraints per job;
    # cmd_encode imports ProcessPoolExecutor from concurrent.futures when it
    # needs one.  Four CPUs, so no --jobs here is capped.
    import concurrent.futures
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pools = []

    def recording_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    for rows, jobs, want_pools in ((6, "2", []), (7, "2", []), (8, "2", [2]), (11, "3", [])):
        path = tmp_path / "many.opb"
        lines = [f"+{i + 1} x1 +{i + 2} x2 +{i + 3} x3 <= {2 * i + 3} ;" for i in range(rows)]
        path.write_text("\n".join(lines) + "\n")
        one, two = tmp_path / "one.cnf", tmp_path / "two.cnf"
        assert main(["encode", "--method", "bdd2", "--in", str(path),
                     "--out", str(one)]) == 0
        pools.clear()
        assert main(["encode", "--method", "bdd2", "--in", str(path),
                     "--out", str(two), "--jobs", jobs]) == 0
        assert pools == want_pools, (rows, jobs)
        assert one.read_text() == two.read_text()


@pytest.mark.parametrize("method", ["bdd1", "bdd3"])
def test_encode_jobs_output_identical_across_chunk_boundaries(tmp_path, method,
                                                              monkeypatch):
    # 31 normalized constraints: more than the 4 * 3 + 1 that would give
    # every chunk a single constraint at --jobs 3, which three CPUs let run
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    lines = []
    for i in range(12):
        lines.append(f"+{i + 2} x{i + 1} -{i % 4 + 1} x{i + 2} +3 x{i + 3} "
                     f"+{i + 1} x{i + 4} >= {i % 5} ;")
        if i % 3 == 0:
            lines.append(f"+1 x{i + 1} +2 x{i + 5} +1 x{i + 6} = 2 ;")  # two halves
        if i % 4 == 1:
            lines.append(f"+1 x{i + 1} +1 x{i + 2} <= 5 ;")  # trivially true
        if i % 4 == 2:
            lines.append(f"+2 x{i + 3} +1 x{i + 1} <= -1 ;")  # trivially false
        if i % 2:
            lines.append(f"+1 x{i + 2} +4 x{i + 7} < 4 ;")  # small enough for --small-naive
    path = tmp_path / "rows.opb"
    path.write_text("\n".join(lines) + "\n")
    from pbdd.cli import _load_constraints

    assert len(_load_constraints(str(path))[1]) > 4 * 3 + 1
    texts = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"j{jobs}.cnf"
        assert main(["encode", "--method", method, "--in", str(path), "--out", str(out),
                     "--small-naive", "3", "--jobs", jobs]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1] == texts[2]
    body = [l for l in texts[0].splitlines() if l and l[0] not in "cp"]
    assert "0" in body  # the trivially false rows


@pytest.mark.parametrize("cpus, jobs, want_pools",
                         [(2, "1000", [2]), (None, "1000", []), (8, "3", [3])])
def test_encode_jobs_capped_at_cpu_count(tmp_path, monkeypatch, cpus, jobs, want_pools):
    # a fake pool that records its size and maps in-process, so no process starts
    import concurrent.futures
    import os

    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    path = tmp_path / "many.opb"
    path.write_text("".join(f"+{i % 5 + 1} x1 +{i % 7 + 2} x2 +3 x{i % 4 + 3} <= {i % 9 + 2} ;\n"
                            for i in range(40)))
    texts = []
    for j in ("1", jobs):
        out = tmp_path / f"j{j}.cnf"
        assert main(["encode", "--method", "bdd1", "--in", str(path),
                     "--out", str(out), "--jobs", j]) == 0
        texts.append(out.read_text())
    assert pools == want_pools
    assert texts[0] == texts[1]


def test_encode_empty_input_with_jobs(tmp_path):
    path = tmp_path / "empty.opb"
    path.write_text("* no constraints\n")
    out = tmp_path / "out.cnf"
    assert main(["encode", "--method", "bdd1", "--in", str(path), "--out", str(out),
                 "--jobs", "2"]) == 0
    assert out.read_text().splitlines()[-1] == "p cnf 0 0"


def test_encode_small_naive_flag(run_opb, tmp_path):
    out = tmp_path / "out.cnf"
    main(["encode", "--method", "bdd1", "--in", run_opb, "--out", str(out),
          "--small-naive", "3"])
    body = [l for l in out.read_text().splitlines() if l and l[0] not in "cp"]
    # aux-free: the two minimal conflict clauses over inputs only
    assert sorted(body) == ["-1 -3 0", "-2 -3 0"]


def test_stats_reports_rows(run_opb, capsys):
    assert main(["stats", "--method", "bdd1", "--in", run_opb]) == 0
    out = capsys.readouterr().out
    assert "method: bdd1" in out
    row = next(l for l in out.splitlines() if l.startswith("row\t"))
    fields = row.split("\t")
    # method, index, inputs, aux, binary, ternary, other, clauses,
    # decision nodes, nodes incl. terminals
    assert fields[1:11] == ["bdd1", "1", "3", "3", "3", "0", "2", "5", "3", "5"]
    assert fields[12] == "1,1,1"


def _mask_ms(text):
    # build times are the only decimals in stats output
    return re.sub(r"\s+\d+\.\d+", " ms", text)


@pytest.mark.parametrize("method", PIPELINES)
@pytest.mark.parametrize("name", ["mixed", "empty"])
def test_stats_matches_golden(name, method, capsys):
    # stats_mixed.opb holds an equality, negative coefficients, a trivially
    # true and a trivially false row; the empty file ends in a blank line
    assert main(["stats", "--method", method, "--in", str(GOLDEN / f"stats_{name}.opb")]) == 0
    got = _mask_ms(capsys.readouterr().out)
    assert got == (GOLDEN / f"stats_{name}_{method}.txt").read_text()


@pytest.mark.parametrize("method", PIPELINES)
def test_stats_node_counts_match_collected_terminals(method, tmp_path, capsys):
    # nodes+t counts two terminals per build; collect the reachable ones instead
    from pbdd import random_constraint, reachable_nodes, run_pipeline, write_opb
    from pbdd.cli import _load_constraints

    path = tmp_path / "corpus.opb"
    path.write_text(write_opb(random_constraint(seed, seed % 8 + 1, 100, "uniform")
                              for seed in range(200)))
    assert main(["stats", "--method", method, "--in", str(path)]) == 0
    rows = [l.split("\t") for l in capsys.readouterr().out.splitlines()
            if l.startswith("row\t")]
    _, constraints = _load_constraints(str(path))
    assert len(rows) == len(constraints)
    for fields, c in zip(rows, constraints):
        nodes = total = 0
        for r in run_pipeline(method, c)[1]:
            reached = reachable_nodes(r.store, r.root)
            terminals = {r.root} if r.root < 2 else set()
            for nid in reached:
                terminals.update(ch for ch in r.store.node(nid)[1:] if ch < 2)
            nodes += len(reached)
            total += len(reached) + len(terminals)
        assert fields[9:11] == [str(nodes), str(total)], (method, str(c))


def _closed_stdout(tmp_path, command, rows, head, env):
    """Exit code and stderr of a child whose stdout reader leaves after `head` bytes."""
    path = tmp_path / "rows.opb"
    path.write_text("".join(
        " ".join(f"+{(i * 7 + k * 13) % 19 + 1} x{(i + k * 5) % 60 + 1}" for k in range(6))
        + f" <= {i % 30 + 10} ;\n" for i in range(rows)))
    err = tmp_path / "err.txt"
    with open(err, "wb") as sink:
        proc = subprocess.Popen([sys.executable, "-m", "pbdd.cli", command, "--method", "bdd1",
                                 "--in", str(path)],
                                stdout=subprocess.PIPE, stderr=sink, bufsize=0, env=env)
    assert len(proc.stdout.read(head)) == head
    proc.stdout.close()
    return proc.wait(timeout=60), err.read_text()


@pytest.mark.parametrize("rows, head", [(1000, 100), (1, 0)])
@pytest.mark.parametrize("command", ["encode", "stats"])
def test_closed_stdout_exits_3_with_one_line(tmp_path, command, rows, head):
    # 1000 rows give a few hundred kB of output, more than a pipe buffers,
    # and the reader takes 100 bytes; one row's output stays in the child's
    # buffer until the reader has gone
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    assert _closed_stdout(tmp_path, command, rows, head, env) == (
        3, "cannot write to standard output: Broken pipe\n")


def test_closed_unbuffered_stdout_exits_3_with_one_line(tmp_path):
    # unbuffered stdout is a raw file: a write into a pipe whose reader
    # leaves returns short, and the rest must not be dropped silently
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    assert _closed_stdout(tmp_path, "encode", 1000, 100, env) == (
        3, "cannot write to standard output: Broken pipe\n")


def test_verify_ok_exit_code(capsys):
    assert main(["verify", "--method", "bdd3", "--max-n", "6", "--seeds", "20"]) == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out and "consistency+GAC" in out
    assert main(["verify", "--method", "ite6", "--max-n", "4", "--seeds", "8"]) == 0
    assert "consistency, method ite6" in capsys.readouterr().out


def test_gen_hosaka(capsys):
    assert main(["gen", "--family", "hosaka", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "+5 x1 +6 x2 +9 x3 +10 x4 <= 15 ;" in out


def test_gen_roundtrips_through_parser(tmp_path, capsys):
    from pbdd import bailleux_family, normalize, parse_opb

    path = tmp_path / "fam.opb"
    assert main(["gen", "--family", "bailleux", "--n", "6", "--a", "127",
                 "--b", "2", "--out", str(path)]) == 0
    inst = parse_opb(path.read_text())
    assert normalize(inst.constraints[0]) == [bailleux_family(127, 2, 6)]


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.opb", tmp_path / "b.opb"
    for target in (a, b):
        assert main(["gen", "--family", "random", "--n", "5", "--seed", "9",
                     "--out", str(target)]) == 0
    assert a.read_text() == b.read_text()


def test_equiv_command(tmp_path, capsys):
    f6 = tmp_path / "a.opb"
    f5 = tmp_path / "b.opb"
    f7 = tmp_path / "c.opb"
    f6.write_text("+2 x1 +3 x2 +5 x3 <= 6 ;\n")
    f5.write_text("+2 x1 +3 x2 +5 x3 <= 5 ;\n")
    f7.write_text("+2 x1 +3 x2 +5 x3 <= 7 ;\n")
    assert main(["equiv", str(f6), str(f5)]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"
    assert main(["equiv", str(f6), str(f7)]) == 0
    assert capsys.readouterr().out.strip() == "different"


def test_equiv_rejects_equality_and_mismatch(tmp_path, capsys):
    eq = tmp_path / "eq.opb"
    eq.write_text("+1 x1 +1 x2 = 1 ;\n")
    other = tmp_path / "o.opb"
    other.write_text("+1 x1 +1 x2 <= 1 ;\n")
    assert main(["equiv", str(eq), str(other)]) == 3
    renamed = tmp_path / "r.opb"
    renamed.write_text("+1 x1 +1 x9 <= 1 ;\n")
    assert main(["equiv", str(other), str(renamed)]) == 3


def test_exit_codes(tmp_path):
    code, _, err = run_cli(["encode", "--method", "bdd1", "--in", "/no/such.opb"])
    assert code == 3
    bad = tmp_path / "bad.opb"
    bad.write_text("min: +1 x1 ;\n")
    code, _, err = run_cli(["encode", "--method", "bdd1", "--in", str(bad)])
    assert code == 3 and "objective" in err
    code, _, _ = run_cli(["encode", "--method", "nope", "--in", str(bad)])
    assert code == 2
    huge = tmp_path / "huge.opb"
    huge.write_text(f"+{'7' * 5001} x1 +1 x2 <= 3 ;\n")
    code, _, err = run_cli(["encode", "--method", "bdd1", "--in", str(huge)])
    assert code == 3 and "line 1, column 1" in err and "Traceback" not in err
    big = tmp_path / "big.opb"
    big.write_text("+3 x1 +5 x2 +7 x3 +11 x4 +13 x5 <= 20 ;\n")
    code, _, err = run_cli(["encode", "--method", "bdd1", "--in", str(big),
                            "--node-budget", "1"])
    assert code == 4 and "budget" in err
    # a zero budget is valid: it admits only diagrams without decision nodes
    easy = tmp_path / "easy.opb"
    easy.write_text("+3 x1 +5 x2 <= 8 ;\n")
    for cmd in ("encode", "stats"):
        assert main([cmd, "--method", "bdd1", "--in", str(big), "--node-budget", "0"]) == 4
        assert main([cmd, "--method", "bdd1", "--in", str(easy), "--node-budget", "0"]) == 0


def test_encode_pauses_the_cyclic_collector_only_while_it_runs(tmp_path, monkeypatch):
    import gc
    import pbdd.cli

    seen = []
    real = pbdd.cli._encode_chunk
    monkeypatch.setattr(pbdd.cli, "_encode_chunk",
                        lambda *a, **k: seen.append(gc.isenabled()) or real(*a, **k))
    big = tmp_path / "big.opb"
    big.write_text("+3 x1 +5 x2 +7 x3 +11 x4 +13 x5 <= 20 ;\n")
    out = str(tmp_path / "big.cnf")
    assert main(["encode", "--method", "bdd3", "--in", str(big), "--out", out]) == 0
    assert gc.isenabled()
    assert main(["encode", "--method", "bdd3", "--in", str(big), "--out", out,
                 "--node-budget", "1"]) == 4
    assert gc.isenabled() and seen == [False, False]
    assert main(["stats", "--method", "bdd1", "--in", str(big)]) == 0
    assert gc.isenabled()


@pytest.mark.parametrize("args", [
    ["verify", "--method", "bdd1", "--max-n", "0"],
    ["verify", "--method", "bdd1", "--max-n", "-3"],
    ["verify", "--method", "bdd1", "--max-n", "15"],  # 3^15 assignments: over the limit
    ["verify", "--method", "bdd1", "--max-coeff", "0"],
    ["gen", "--family", "random", "--n", "0"],
    ["gen", "--family", "random", "--n", "3", "--max-coeff", "0"],
    ["gen", "--family", "hosaka", "--n", "-1"],
    ["gen", "--family", "bailleux", "--n", "3", "--a", "127", "--b", "2"],
    ["gen", "--family", "bailleux", "--n", "6", "--a", "10", "--b", "2"],
    ["verify", "--method", "bdd1", "--seeds", "-2"],
    ["verify", "--method", "bdd1", "--seeds", "0"],
    ["encode", "--method", "bdd1", "--in", "any.opb", "--jobs", "0"],
    ["encode", "--method", "bdd1", "--in", "any.opb", "--jobs", "-2"],
    ["encode", "--method", "bdd1", "--in", "any.opb", "--node-budget", "-3"],
    ["stats", "--method", "bdd1", "--in", "any.opb", "--node-budget", "-3"],
    ["gen", "--family", "random", "--n", "3", "--bound-policy", "nan"],
    ["gen", "--family", "random", "--n", "3", "--bound-policy", "inf"],
    ["gen", "--family", "random", "--n", "3", "--bound-policy=-inf"],
    ["gen", "--family", "random", "--n", "3", "--bound-policy", "1e400"],
    ["encode", "--method", "bdd1", "--in", "any.opb", "--small-naive", "-1"],
    ["encode", "--method", "bdd1", "--in", "any.opb", "--small-naive", "17"],  # 2^17 subsets
])
def test_bad_numeric_arguments_are_usage_errors(args):
    code, out, err = run_cli(args)
    assert code == 2, err
    assert "usage:" in err and "error:" in err and "Traceback" not in err
    assert out == ""


def test_verify_max_n_limit_is_inclusive(capsys):
    assert main(["verify", "--method", "bdd1", "--max-n", "14", "--seeds", "2"]) == 0
    assert "checked 2 random constraints" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--in", "--out", "--map"])
def test_directory_paths_exit_3_without_traceback(run_opb, tmp_path, flag):
    paths = {"--in": run_opb, "--out": str(tmp_path / "out.cnf"),
             "--map": str(tmp_path / "vars.map")}
    paths[flag] = str(tmp_path)
    code, _, err = run_cli(["encode", "--method", "bdd1",
                            *(tok for item in paths.items() for tok in item)])
    assert code == 3
    assert f"cannot open {tmp_path}: Is a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--out", "--map"])
def test_unwritable_output_exits_3_before_encoding(run_opb, tmp_path, monkeypatch, capsys,
                                                     flag):
    import pbdd.cli

    calls = []
    monkeypatch.setattr(pbdd.cli, "run_pipeline", lambda *args, **kwargs: calls.append(args))
    paths = {"--out": tmp_path / "out.cnf", "--map": tmp_path / "vars.map"}
    paths[flag] = tmp_path
    assert main(["encode", "--method", "bdd1", "--in", run_opb,
                 *(str(tok) for item in paths.items() for tok in item)]) == 3
    assert calls == []
    assert capsys.readouterr().err == f"cannot open {tmp_path}: Is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.opb"]  # no output left behind


def test_failed_encode_leaves_the_outputs_as_they_were(tmp_path):
    big = tmp_path / "big.opb"
    big.write_text("+3 x1 +5 x2 +7 x3 +11 x4 +13 x5 <= 20 ;\n")
    bad = tmp_path / "bad.opb"
    bad.write_text("+1 x1 +1 x2 <= 1 ;\nmin: +1 x1 ;\n")
    out, sidecar = tmp_path / "out.cnf", tmp_path / "vars.map"
    out.write_bytes(b"an earlier result\n")
    for args, code in (([str(big), "--node-budget", "1"], 4), ([str(bad)], 3)):
        assert main(["encode", "--method", "bdd1", "--in", *args,
                     "--out", str(out), "--map", str(sidecar)]) == code
        assert out.read_bytes() == b"an earlier result\n"
        assert not sidecar.exists()
    out.unlink()
    assert main(["encode", "--method", "bdd1", "--in", str(big), "--node-budget", "1",
                 "--out", str(out)]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.opb", "big.opb"]


def test_encode_replaces_a_longer_output(run_opb, tmp_path):
    out, sidecar = tmp_path / "out.cnf", tmp_path / "vars.map"
    out.write_bytes(b"c stale\n" * 10_000)
    sidecar.write_bytes(b"stale 1\n" * 100)
    assert main(["encode", "--method", "bdd1", "--in", run_opb,
                 "--out", str(out), "--map", str(sidecar)]) == 0
    assert out.read_text() == (GOLDEN / "running_bdd1.cnf").read_text()
    assert sidecar.read_text() == "x1 1\nx2 2\nx3 3\n"


def test_non_utf8_input_exits_3_with_its_byte_offset(tmp_path):
    bad = tmp_path / "latin1.opb"
    # line 2 holds "* ", a two-byte "é", " " and then a byte no UTF-8 text starts with
    bad.write_bytes(b"+1 x1 <= 1 ;\n* \xc3\xa9 \xff\n")
    code, _, err = run_cli(["encode", "--method", "bdd1", "--in", str(bad)])
    assert code == 3 and "Traceback" not in err
    assert err.startswith("parse error: line 2, column 5: input is not UTF-8: "
                          "byte 0xff at byte offset 18")
