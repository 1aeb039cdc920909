import os
import re
import subprocess
import sys
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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_encode_parallel_jobs_identical_output(tmp_path, monkeypatch, forks):
    # J' - 1 workers start, as this process encodes the first range, for the
    # largest J' <= J whose even share of the work (bdd2: the coefficient
    # bits, about 59 per row here) reaches MIN_WORK_PER_JOB (640): 20 rows
    # fall short of two shares, 30 rows reach two but not three.  Four CPUs,
    # so no --jobs here is capped.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for rows, jobs, want_forks in ((6, "2", 0), (20, "2", 0), (30, "2", 1), (30, "3", 1),
                                   (40, "3", 2)):
        path = tmp_path / "many.opb"
        lines = []
        for i in range(rows):
            coefs = [(i * 37 + k * 101) % 1000 + 1 for k in range(12)]
            lines.append(" ".join(f"+{a} x{(i + 5 * k) % 60 + 1}" for k, a in enumerate(coefs))
                         + f" <= {sum(coefs) // 2} ;")
        path.write_text("\n".join(lines) + "\n")
        one, two = tmp_path / "one.cnf", tmp_path / "two.cnf"
        assert main(["encode", "--method", "bdd2", "--in", str(path),
                     "--out", str(one)]) == 0
        forks.clear()
        assert main(["encode", "--method", "bdd2", "--in", str(path),
                     "--out", str(two), "--jobs", jobs]) == 0
        assert len(forks) == want_forks, (rows, jobs)
        assert one.read_text() == two.read_text()
        assert_no_child_left()


@pytest.mark.parametrize("method", ["bdd1", "bdd3"])
def test_encode_jobs_output_identical_across_chunk_boundaries(tmp_path, method,
                                                              monkeypatch, forks):
    # 32 normalized constraints of every kind, several per range at --jobs 3,
    # which three CPUs let run; the rows are tiny, so the work floor is
    # lifted for them to fork
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr("pbdd.cli.MIN_WORK_PER_JOB", 0)
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

    assert len(_load_constraints(str(path))[1]) == 32
    texts = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"j{jobs}.cnf"
        assert main(["encode", "--method", method, "--in", str(path), "--out", str(out),
                     "--small-naive", "3", "--jobs", jobs]) == 0
        texts.append(out.read_text())
    assert len(forks) == 1 + 2
    assert texts[0] == texts[1] == texts[2]
    body = [l for l in texts[0].splitlines() if l and l[0] not in "cp"]
    assert "0" in body  # the trivially false rows


def _six_term_rows(tmp_path, rows: int) -> str:
    """A file of `rows` six-term rows over 60 variables, so a bdd1 work of 6 per row."""
    path = tmp_path / "rows.opb"
    path.write_text("".join(
        " ".join(f"+{(i * 7 + k * 13) % 19 + 1} x{(i + k * 5) % 60 + 1}" for k in range(6))
        + f" <= {i % 30 + 10} ;\n" for i in range(rows)))
    return str(path)


@pytest.mark.parametrize("cpus, jobs, want_pools",
                         [(2, "1000", [2]), (None, "1000", []), (8, "3", [3])])
def test_encode_jobs_capped_at_cpu_count(tmp_path, monkeypatch, forks, cpus, jobs, want_pools):
    # a parallel encode runs in J processes: J - 1 forked workers and this
    # one; 400 rows give even three processes a share of 800 >= 640
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    path = _six_term_rows(tmp_path, 400)
    texts = []
    for j in ("1", jobs):
        out = tmp_path / f"j{j}.cnf"
        assert main(["encode", "--method", "bdd1", "--in", path,
                     "--out", str(out), "--jobs", j]) == 0
        texts.append(out.read_text())
    assert ([len(forks) + 1] if forks else []) == want_pools
    assert texts[0] == texts[1]
    assert_no_child_left()


def _rows_with_a_big_one(tmp_path, first: bool, last: bool):
    """Sixteen rows within a node budget of 5, and one over it first and/or last.

    The big row's work is about that of the sixteen together under bdd3
    (65 and 64) and a third of it under bdd1 (5 and 32), so both cut evenly.
    """
    big = "+3 x1 +5 x2 +7 x3 +11 x4 +13 x5 <= 20 ;\n"
    path = tmp_path / "rows.opb"
    path.write_text(big * first + "".join(f"+1 x{i} +2 x{i + 1} <= 2 ;\n" for i in range(1, 17))
                    + big * last)
    return str(path)


@pytest.mark.parametrize("first, last", [(True, False), (False, True), (True, True)])
@pytest.mark.parametrize("method", ["bdd1", "bdd3"])
def test_budget_in_any_range_exits_4_as_in_process(tmp_path, monkeypatch, capsys, forks,
                                                    method, first, last):
    # the big row first lands in this process's range, last in the worker's;
    # the rows are tiny, so the work floor is lifted for them to fork
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("pbdd.cli.MIN_WORK_PER_JOB", 0)
    path = _rows_with_a_big_one(tmp_path, first, last)
    out, new = tmp_path / "out.cnf", tmp_path / "new.cnf"
    out.write_bytes(b"an earlier result\n")
    errs = []
    for jobs, target in (("1", out), ("2", out), ("2", new)):
        assert main(["encode", "--method", method, "--in", path, "--out", str(target),
                     "--node-budget", "5", "--jobs", jobs]) == 4
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == errs[2] and errs[0].startswith("budget exceeded: ")
    assert out.read_bytes() == b"an earlier result\n"
    assert not new.exists()
    assert len(forks) == 2
    assert_no_child_left()


def test_encode_jobs_to_stdout_matches_out(tmp_path, monkeypatch, capsysbinary, forks):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path, out = _six_term_rows(tmp_path, 400), tmp_path / "out.cnf"
    assert main(["encode", "--method", "bdd1", "--in", path, "--out", str(out)]) == 0
    assert main(["encode", "--method", "bdd1", "--in", path, "--jobs", "2"]) == 0
    assert capsysbinary.readouterr() == (out.read_bytes(), b"")
    assert len(forks) == 1
    assert_no_child_left()


def test_encode_without_fork_runs_in_process(tmp_path, monkeypatch):
    # where the platform has no os.fork (Windows), --jobs encodes in-process
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = _six_term_rows(tmp_path, 400)
    one, two = tmp_path / "one.cnf", tmp_path / "two.cnf"
    assert main(["encode", "--method", "bdd1", "--in", path, "--out", str(one)]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(["encode", "--method", "bdd1", "--in", path, "--out", str(two),
                 "--jobs", "2"]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_encode_empty_input_with_jobs(tmp_path):
    path = tmp_path / "empty.opb"
    path.write_text("* no constraints\n")
    out = tmp_path / "out.cnf"
    assert main(["encode", "--method", "bdd1", "--in", str(path), "--out", str(out),
                 "--jobs", "2"]) == 0
    assert out.read_text().splitlines()[-1] == "p cnf 0 0"


def _jobs_forks(tmp_path, forks, method, text, *jobs, options=()) -> list[int]:
    """The workers `encode --jobs J` of OPB `text` forks, for each J; output as at --jobs 1."""
    path = tmp_path / "in.opb"
    path.write_text(text)
    counts = []
    for j in ("1", *jobs):
        out = tmp_path / f"j{j}.cnf"
        forks.clear()
        assert main(["encode", "--method", method, "--in", str(path), "--out", str(out),
                     *options, "--jobs", j]) == 0
        counts.append(len(forks))
        assert out.read_bytes() == (tmp_path / "j1.cnf").read_bytes(), j
    assert_no_child_left()
    return counts[1:]


@pytest.mark.parametrize("equal", [False, True])
def test_jobs_fork_a_few_bdd3_rows_two_per_range(tmp_path, monkeypatch, forks, equal):
    # four random n=16 rows, a bdd3 work of about 1300 each: two ranges of
    # two rows; three ranges (1, 1 and 2 rows) are not even, so --jobs 3
    # on three CPUs also gives two processes, for equal rows as for unequal
    from pbdd import random_constraint, write_opb

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    rows = [random_constraint(seed, 16, 1000, 0.5) for seed in range(4)]
    text = write_opb(rows[:1] * 4 if equal else rows)
    assert _jobs_forks(tmp_path, forks, "bdd3", text, "2", "3") == [1, 1]


@pytest.mark.parametrize("first", [True, False])
def test_jobs_keep_a_dominant_row_in_process(tmp_path, monkeypatch, forks, first):
    # cardinality(150,75) is 150 of bdd1's 153 units of work, first or
    # last: no cut is even, so nothing forks even with the floor lifted
    from pbdd import PBConstraint, cardinality, write_opb

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr("pbdd.cli.MIN_WORK_PER_JOB", 0)
    rows = [cardinality(150, 75), PBConstraint.from_pairs([(1, 151), (2, 152), (3, 153)], 3)]
    text = write_opb(rows if first else rows[::-1])
    assert _jobs_forks(tmp_path, forks, "bdd1", text, "2", "3") == [0, 0]


def test_jobs_keep_tiny_files_in_process(tmp_path, monkeypatch, forks):
    # two 3-term rows cut evenly, but a share of 3 is far below the floor
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    text = "+1 x1 +2 x2 +3 x3 <= 3 ;\n+3 x2 +2 x3 +1 x4 <= 3 ;\n"
    assert _jobs_forks(tmp_path, forks, "bdd1", text, "2") == [0]
    monkeypatch.setattr("pbdd.cli.MIN_WORK_PER_JOB", 0)
    assert _jobs_forks(tmp_path, forks, "bdd1", text, "2") == [1]


@pytest.mark.parametrize("method, naive, terms, rows, weight, want", [
    # a 10-term row that --small-naive enumerates weighs 1024 // 6: two of
    # them stay in-process, as six do (a share of 510); eight fork (680)
    ("bdd1", "10", 10, 2, 170, 0), ("bdd1", "10", 10, 6, 170, 0), ("bdd1", "10", 10, 8, 170, 1),
    # a 6-term ite6 row weighs 30: 40 rows give a share of 600, 44 of 660
    ("ite6", "0", 6, 40, 30, 0), ("ite6", "0", 6, 44, 30, 1),
])
def test_jobs_floor_holds_for_scaled_weights(tmp_path, monkeypatch, forks,
                                             method, naive, terms, rows, weight, want):
    from pbdd.cli import _load_constraints, _work_estimate

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    lines = []
    for i in range(rows):
        coefs = [(i * 7 + k * 13) % 19 + 1 for k in range(terms)]
        lines.append(" ".join(f"+{a} x{(i + k * 3) % 40 + 1}" for k, a in enumerate(coefs))
                     + f" <= {sum(coefs) // 2} ;")
    text = "\n".join(lines) + "\n"
    (tmp_path / "in.opb").write_text(text)
    work = [_work_estimate(c, method, int(naive))
            for c in _load_constraints(str(tmp_path / "in.opb"))[1]]
    assert work == [weight] * rows
    assert _jobs_forks(tmp_path, forks, method, text, "2",
                       options=["--small-naive", naive]) == [want]


def test_jobs_cut_balances_work_not_terms(tmp_path, monkeypatch, forks):
    # under bdd3 a row of ten 8-bit coefficients (80 levels, work 800)
    # weighs as much as the eight 10-term rows of 1-bit ones after it (100
    # each): it is a range alone.  A cut by terms (10 and 80) would put it
    # with three or four of them, too uneven to fork.
    from pbdd.cli import _cuts, _load_constraints, _work_estimate

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    wide = [255, 383, 447, 479, 495, 503, 507, 509, 510, 639]
    lines = [" ".join(f"+{a} x{v}" for v, a in enumerate(wide, 1)) + f" <= {sum(wide) // 2} ;"]
    for r in range(8):
        lines.append(" ".join(f"+{k % 2 + 1} x{(r + k) % 20 + 1}" for k in range(10)) + " <= 7 ;")
    text = "\n".join(lines) + "\n"
    (tmp_path / "in.opb").write_text(text)
    work = [_work_estimate(c, "bdd3", 0) for c in _load_constraints(str(tmp_path / "in.opb"))[1]]
    assert work == [800] + [100] * 8
    assert _cuts(work, 2) == [0, 1, 9]
    assert _jobs_forks(tmp_path, forks, "bdd3", text, "2") == [1]


def test_jobs_cut_leaves_no_range_empty(monkeypatch):
    # five ranges of [4, 4, 4, 3, 1] hold at most 5/4 of the share 16/5,
    # but one of them is empty: four processes do as well
    from pbdd.cli import _cuts

    monkeypatch.setattr("pbdd.cli.MIN_WORK_PER_JOB", 0)
    assert _cuts([4, 4, 4, 3, 1], 5) == [0, 1, 2, 3, 5]
    assert _cuts([], 2) == [0, 0]


@pytest.mark.parametrize("fault, err", [
    ("format", "encode worker failed: MemoryError\n"),
    ("encode", "encode worker failed: MemoryError\n"),
    ("kill", "encode worker failed: killed by signal 9\n"),
    ("interrupt", "encode worker failed: exit 2\n"),
])
def test_failed_worker_exits_1_with_one_line_and_no_output(tmp_path, monkeypatch, capfd, forks,
                                                           fault, err):
    # the worker fails formatting its shifted clauses, after it has
    # reported its counts, or encoding, before, or is killed, or is
    # interrupted, which it does not print; the parent must not exit 0 with
    # the clauses it did not receive, nor exit 1 without a line
    import signal

    import pbdd.cli

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent, blocks, encode_range = os.getpid(), pbdd.cli.clause_blocks, pbdd.cli._encode_range

    def failing_blocks(cs, shift=0):
        if shift and fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if shift and fault == "interrupt":
            raise KeyboardInterrupt
        if shift:
            raise MemoryError
        return blocks(cs, shift)

    def failing_encode(*args):
        if os.getpid() != parent:
            raise MemoryError
        return encode_range(*args)

    if fault == "encode":
        monkeypatch.setattr(pbdd.cli, "_encode_range", failing_encode)
    else:
        monkeypatch.setattr(pbdd.cli, "clause_blocks", failing_blocks)
    path, out = _six_term_rows(tmp_path, 400), tmp_path / "out.cnf"
    argv = ["encode", "--method", "bdd1", "--in", path, "--out", str(out), "--jobs", "2"]
    assert main(argv) == 1
    assert capfd.readouterr().err == err
    assert len(forks) == 1 and not out.exists()
    # an existing output is kept if nothing was written yet, else emptied
    out.write_bytes(b"an earlier result\n")
    assert main(argv) == 1
    assert capfd.readouterr().err == err
    assert out.read_bytes() == (b"an earlier result\n" if fault == "encode" else b"")
    assert len(forks) == 2
    assert_no_child_left()


def test_encode_writer_peak_does_not_grow_with_the_clauses(tmp_path, monkeypatch):
    # allocations are traced from the header on, once the clauses are held:
    # the writer holds one block of text at a time, never the whole output
    import tracemalloc

    import pbdd.cli
    from pbdd import cardinality, write_opb

    header = pbdd.cli.dimacs_header

    def traced_header(*args):
        tracemalloc.start()
        return header(*args)

    monkeypatch.setattr(pbdd.cli, "dimacs_header", traced_header)
    peaks, sizes = [], []
    for n in (160, 320):
        path, out = tmp_path / f"card{n}.opb", tmp_path / f"card{n}.cnf"
        path.write_text(write_opb([cardinality(n, n // 2)]))
        try:
            assert main(["encode", "--method", "bdd1", "--in", str(path),
                         "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(out.stat().st_size)
    assert sizes[1] > 4 * sizes[0]
    assert peaks[1] < 1.25 * peaks[0] and peaks[1] < sizes[1] / 2, (peaks, sizes)


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


def _closed_stdout(tmp_path, head, env, *argv):
    """Exit code and stderr of `pbdd argv...` whose stdout reader leaves after `head` bytes.

    The child leads its own process group, and no process of the group is
    left once it has exited.
    """
    err = tmp_path / "err.txt"
    with open(err, "wb") as sink:
        proc = subprocess.Popen([sys.executable, "-m", "pbdd.cli", *argv],
                                stdout=subprocess.PIPE, stderr=sink, bufsize=0, env=env,
                                start_new_session=True)
    assert len(proc.stdout.read(head)) == head
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return code, err.read_text()


def _bdd1_argv(tmp_path, command, rows):
    """`command --method bdd1 --in F` for a file F of `rows` six-term rows."""
    return command, "--method", "bdd1", "--in", _six_term_rows(tmp_path, rows)


@pytest.mark.parametrize("rows, head", [(1000, 100), (1, 0)])
@pytest.mark.parametrize("command", ["encode", "stats"])
def test_closed_stdout_exits_3_with_one_line(tmp_path, command, rows, head):
    # 1000 rows give a few hundred kB of output, more than a pipe buffers,
    # and the reader takes 100 bytes; one row's output stays in the child's
    # buffer until the reader has gone
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = _bdd1_argv(tmp_path, command, rows)
    assert _closed_stdout(tmp_path, head, env, *argv) == (
        3, "cannot write to standard output: Broken pipe\n")
    if command == "encode" and rows > 1:
        # a forked worker's range goes through this process's writes too:
        # 1000 rows are a bdd1 work of 6000, two shares far above the floor
        assert _closed_stdout(tmp_path, head, env, *argv, "--jobs", "2") == (
            3, "cannot write to standard output: Broken pipe\n")


def test_closed_unbuffered_stdout_exits_3_with_one_line(tmp_path):
    # unbuffered stdout is a raw file: a write into a pipe whose reader
    # leaves returns short, and the rest must not be dropped silently
    # (about 280 kB of gen output, a few hundred kB of DIMACS)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    for head, argv in ((100, _bdd1_argv(tmp_path, "encode", 1000)),
                       (50, ("gen", "--family", "hosaka", "--n", "40"))):
        assert _closed_stdout(tmp_path, head, env, *argv) == (
            3, "cannot write to standard output: Broken pipe\n"), argv


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
    real = pbdd.cli.run_pipeline
    monkeypatch.setattr(pbdd.cli, "run_pipeline",
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


def test_out_and_map_naming_one_file_is_a_usage_error(run_opb, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"an earlier result\n")
    os.link(path, tmp_path / "g")
    for out, sidecar in (("f", "f"), ("f", "./sub/../f"), ("f", "g"), ("new", "new")):
        os.makedirs(tmp_path / "sub", exist_ok=True)
        code, stdout, err = run_cli(["encode", "--method", "bdd1", "--in", run_opb,
                                     "--out", str(tmp_path / out),
                                     "--map", str(tmp_path / sidecar)])
        assert (code, stdout) == (2, "")
        assert "error: encode --out and --map name the same file" in err
        assert path.read_bytes() == b"an earlier result\n"
        assert not (tmp_path / "new").exists()


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


def test_encode_leaves_the_checking_modules_unloaded(tmp_path, run_opb):
    # `import pbdd.cli` and an encode load neither the checkers nor the
    # generators: `verify` and `gen` import them, `ite6` imports `propagate`
    out = tmp_path / "run.cnf"
    code = "\n".join([
        "import sys, pbdd.cli",
        "unused = ('pbdd.verify', 'pbdd.propagate', 'pbdd.families')",
        "print([m for m in unused if m in sys.modules])",
        f"pbdd.cli.main(['encode', '--method', 'bdd3', '--in', {run_opb!r}, '--out', {str(out)!r}])",
        "print([m for m in unused if m in sys.modules])",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\n", "")
    assert out.read_bytes().startswith(b"c method bdd3\n")
