import hashlib
import json
import subprocess
import sys

import pytest

from strandtrace import SymFun, cli, diagrams, kernels, p
from strandtrace.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute -----------------------------------------------------------------


def test_compute_worked_example_table(capsys):
    code, out, err = run_cli(
        capsys, ["compute", "--lambda", "2,1", "--n", "4", "--basis", "h", "--via", "both"]
    )
    assert code == 0
    assert "route: trace+oracle" in out
    assert "h[2,2] = 2" in out and "h[3,1] = 2" in out and "h[4] = 4" in out
    assert "elapsed" in err


def test_compute_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compute", "--lambda", "", "--n", "3", "--basis", "h", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "compute"
    assert payload["result"]["basis"] == "h"
    assert payload["result"]["terms"] == [{"partition": [3], "coeff": "6"}]


def test_compute_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compute", "--lambda", "2,1", "--n", "4", "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines() == [
        "basis,partition,coeff",
        'h,"4",4',
        'h,"3 1",2',
        'h,"2 2",2',
    ]


def test_verify_jsonl(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "identities", "--max-n", "2", "--format", "jsonl"],
    )
    assert code == 0
    cases = [json.loads(line) for line in out.splitlines()]
    assert all(c["ok"] for c in cases)


def test_compute_p_basis_and_oracle_route(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compute", "--lambda", "4,3,1,1", "--n", "6", "--basis", "h", "--via", "both"],
    )
    assert code == 0
    assert "route: trace+oracle" in out


def test_oracle_route_on_a_non_avoiding_shape_is_pinned(capsys):
    """The bytes the oracle gave when it cycle-typed every permutation after
    enumerating it: closing cycles during the enumeration must reproduce
    them."""
    code, out, _ = run_cli(
        capsys,
        ["compute", "--lambda", "3,1,1", "--n", "9", "--via", "oracle", "--basis", "p",
         "--format", "json"],
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "727c95a0fa09d4d8dd874f0015063a96f228151370a6a9ddf2bccfb5f9b6c92d"


def test_compute_non_avoiding_falls_back(capsys):
    code, out, err = run_cli(
        capsys, ["compute", "--lambda", "1", "--n", "4", "--via", "trace"]
    )
    assert code == 0
    assert "route: oracle" in out
    assert "notice" in err


def test_compute_invalid_shape(capsys):
    code, _, err = run_cli(capsys, ["compute", "--lambda", "4", "--n", "4"])
    assert code == 2
    assert "error" in err


def test_compute_guard_exceeded(capsys):
    code, _, err = run_cli(capsys, ["compute", "--lambda", "", "--n", "11", "--via", "oracle"])
    assert code == 2
    assert "guard" in err


def test_compute_mismatch_detected(capsys, monkeypatch):
    # mutation check: flip a coefficient in the oracle and require a loud failure
    real = cli.ch_gamma

    def corrupted(shape):
        return real(shape) + p((1,) * shape.n)

    monkeypatch.setattr(cli, "ch_gamma", corrupted)
    code, out, err = run_cli(
        capsys, ["compute", "--lambda", "2,1", "--n", "4", "--via", "both"]
    )
    assert code == 1
    assert "MISMATCH" in err
    assert "status: mismatch" in out


def test_compute_step_log(capsys, tmp_path):
    log = tmp_path / "steps.jsonl"
    code, _, _ = run_cli(
        capsys,
        ["compute", "--lambda", "2,1", "--n", "4", "--log-steps", str(log)],
    )
    assert code == 0
    lines = log.read_text().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert first["terms"][0]["diagram"] == {"n": 4, "crossings": [[1, 2], [2, 3], [3, 4]]}


def test_failed_step_log_keeps_existing_log(capsys, tmp_path, monkeypatch):
    lines = []
    encode = cli._jsonl

    def fail_after_the_first_line(payload):
        if lines:
            raise RuntimeError("log writer died")
        lines.append(encode(payload))
        return lines[-1]

    monkeypatch.setattr(cli, "_jsonl", fail_after_the_first_line)
    log = tmp_path / "steps.jsonl"
    log.write_text("earlier log\n")
    with pytest.raises(RuntimeError, match="log writer died"):
        main(["compute", "--lambda", "2,1", "--n", "4", "--log-steps", str(log)])
    assert len(lines) == 1
    assert log.read_text() == "earlier log\n"
    assert [f.name for f in tmp_path.iterdir()] == ["steps.jsonl"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--lambda", "2,1", "--n", "4", "--log-steps"],
        ["search", "--strands", "3", "--max-crossings", "1", "--out"],
    ],
)
def test_unwritable_output_path_is_bad_input(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli(capsys, argv + [str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--lambda", "2,1", "--n", "4", "--via", "oracle"],
        ["compute", "--lambda", "1", "--n", "4"],
        ["compute", "--lambda", "1", "--n", "4", "--via", "trace"],
    ],
)
def test_step_log_without_the_reduction_is_bad_input(capsys, tmp_path, monkeypatch, argv):
    def untouched(shape):
        raise AssertionError("the oracle ran before the input was rejected")

    monkeypatch.setattr(cli, "ch_gamma", untouched)
    log = tmp_path / "steps.jsonl"
    code, out, err = run_cli(capsys, argv + ["--log-steps", str(log)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --log-steps") and err.count("\n") == 1
    assert not log.exists()


def test_search_out_naming_a_directory_is_bad_input(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STRAND_TRACE_THREADS", "1")
    (tmp_path / "sweep").mkdir()
    code, out, err = run_cli(
        capsys,
        ["search", "--strands", "2", "--max-crossings", "1", "--out", str(tmp_path / "sweep")],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out")
    assert [f.name for f in tmp_path.iterdir()] == ["sweep"]


def test_non_integer_thread_count_is_bad_input(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STRAND_TRACE_THREADS", "abc")
    code, out, err = run_cli(
        capsys,
        ["search", "--strands", "3", "--max-crossings", "1", "--out", str(tmp_path / "s.jsonl")],
    )
    assert code == 2
    assert out == ""
    assert err == "error: STRAND_TRACE_THREADS must be an integer, not 'abc'\n"
    assert list(tmp_path.iterdir()) == []


# -- verify --------------------------------------------------------------------


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "identities", "--max-n", "4"])
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("passed 49/49")


def test_identities_suite_stops_at_the_oracle_guard(capsys):
    """The power-sum census is the oracle on the empty shape, so past n = 10
    it meets the S_n guard instead of enumerating 11! permutations."""
    code, out, err = run_cli(capsys, ["verify", "--suite", "identities", "--max-n", "11"])
    assert code == 2
    assert out == ""
    assert err == "error: n=11 exceeds the S_n enumeration guard 10\n"


@pytest.mark.parametrize("max_n", [11, 30])
@pytest.mark.parametrize("suite", ["identities", "trace"])
def test_oracle_suites_are_refused_before_their_first_case(capsys, monkeypatch, suite, max_n):
    """Both suites run the oracle on every n up to --max-n, so past its S_n
    guard they are refused before any case runs, with the message of the
    first n the oracle refuses."""
    calls = []
    monkeypatch.setattr(cli, "ch_gamma", calls.append)
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--max-n", str(max_n)])
    assert code == 2
    assert out == ""
    assert err == "error: n=11 exceeds the S_n enumeration guard 10\n"
    assert calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--suite", "closed-form", "--max-n", "8", "--max-k", "9"],
            "error: --max-n 8 exceeds the closed-form guard 7 at --max-k 9\n",
        ),
        (
            ["verify", "--suite", "all", "--max-k", "12"],
            "error: --max-n 6 exceeds the closed-form guard 5 at --max-k 12\n",
        ),
        (
            ["classify", "--lambda", "", "--n", "60"],
            "error: C(60, 4) = 487635 supports of the pattern exceed the brute-force guard 100000\n",
        ),
        (
            ["verify", "--suite", "closed-form", "--max-n", "12", "--max-k", "4"],
            "error: --max-n 12 exceeds the closed-form guard 10 at --max-k 4\n",
        ),
        (
            ["verify", "--suite", "all", "--max-n", "9", "--max-k", "8"],
            "error: --max-n 9 exceeds the closed-form guard 8 at --max-k 8\n",
        ),
        (
            ["search", "--strands", "2", "--max-crossings", "5000"],
            "error: search with 2 strands and up to 5000 crossings: records of at least "
            "10001628 crossings exceed the guard 10000000\n",
        ),
        (
            ["search", "--strands", "4", "--max-crossings", "11", "--mode", "random",
             "--count", "1000000"],
            "error: search with 4 strands and up to 11 crossings: records of at least "
            "11000000 crossings exceed the guard 10000000\n",
        ),
        (
            ["search", "--strands", "9", "--max-crossings", "3"],
            "error: search with 9 strands and up to 3 crossings, first 1229 orbits: "
            "census work 10043823 exceeds the guard 10000000\n",
        ),
        (
            # [1,11] is the tenth orbit, and its joined-cycles table alone
            # is charged 11!
            ["search", "--strands", "11", "--max-crossings", "1"],
            "error: search with 11 strands and up to 1 crossings, first 10 orbits: "
            "census work 43954732 exceeds the guard 10000000\n",
        ),
    ],
    ids=[
        "closed-form-max-k", "all-max-k", "classify-n", "closed-form-max-n", "all-max-n",
        "search-records", "search-random-records", "search-walk", "search-wide",
    ],
)
def test_guards_exit_before_any_case_runs(capsys, argv, message):
    """Unbounded flags meet a guard first: the closed-form cases grow with
    k and about like 2**n, classify's brute force with C(n, 4), and a
    sweep's output with the crossings its records hold."""
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_closed_form_n_guard_follows_the_suite_work(monkeypatch):
    """The largest --max-n at each --max-k keeps the suite's units, the sum
    of 2**n * T(k) over its cases with T(k) = p(0) + ... + p(k), within the
    guard; one more n would pass it.  From k = 24 on even n = 2 passes it,
    so every suite with a case is refused, and a larger k costs nothing."""
    limits = [cli.closed_form_n_guard(k) for k in range(25)]
    assert limits[:9] == [15, 14, 12, 11, 10, 10, 9, 8, 8]
    partition_counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
                        385, 490, 627, 792, 1002, 1255, 1575]
    for max_k, max_n in enumerate(limits):
        terms = sum(sum(partition_counts[: k + 1]) for k in range(max_k + 1))
        work, more = (sum(2**n for n in range(2, top + 1)) * terms for top in (max_n, max_n + 1))
        assert work <= cli.CLOSED_FORM_WORK_GUARD < more
    assert limits[23] == 2 and limits[24] == 1
    # the partitions are counted, never enumerated
    counted = []
    real = cli.symfun.partitions_of
    monkeypatch.setattr(
        cli.symfun, "partitions_of", lambda k, *rest: counted.append(k) or real(k, *rest)
    )
    assert cli.closed_form_n_guard(10**6) == 1
    assert counted == []
    # the largest suites CI and the acceptance runs ask for stay admitted
    assert cli.closed_form_n_guard(4) >= 6 and cli.closed_form_n_guard(6) >= 8


def test_max_n_guard_spares_suites_without_the_closed_form(capsys, monkeypatch):
    # 2**2 * 7 units for n = 2 at k = 2 fit, 2**3 * 7 more for n = 3 do not
    monkeypatch.setattr(cli, "CLOSED_FORM_WORK_GUARD", 50)
    small = ["--max-n", "3", "--max-k", "2"]
    code, out, err = run_cli(capsys, ["verify", "--suite", "closed-form", *small])
    assert code == 2
    assert err == "error: --max-n 3 exceeds the closed-form guard 2 at --max-k 2\n"
    code, out, _ = run_cli(capsys, ["verify", "--suite", "trace", *small])
    assert code == 0
    assert out.strip().endswith("passed 7/7")


def test_max_k_guard_spares_suites_without_k(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "trace", "--max-n", "3", "--max-k", "9"])
    assert code == 0
    assert out.strip().endswith("passed 7/7")


def test_power_sum_census_equals_the_full_restricted_census():
    """The oracle on the empty shape is the restricted census of all of S_n."""
    for n in range(1, 9):
        census = kernels.restricted_census(n, [0] * n)
        assert cli.ch_gamma(cli.StaircaseShape(n)) == SymFun("p", census)
    assert [ok for _, ok, _ in cli.check_power_sum_census(8)] == [True] * 8


def test_verify_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "closed-form", "--max-n", "4", "--max-k", "2"]
    )
    assert code == 0
    assert "FAIL" not in out


def test_verify_trace(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "trace", "--max-n", "5"])
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "trace", "--max-n", "-3"],
        ["verify", "--suite", "closed-form", "--max-k", "-1"],
        ["search", "--strands", "3", "--max-crossings", "2", "--mode", "random", "--count", "-2"],
        ["search", "--strands", "3", "--max-crossings", "2", "--mode", "random", "--count", "0"],
    ],
)
def test_meaningless_ranges_are_bad_input(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_failure_exits_one(capsys, monkeypatch):
    def broken(max_i):
        yield ("newton i=1", False, {"i": 1})

    monkeypatch.setattr(cli, "check_newton", broken)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "identities", "--max-n", "2"])
    assert code == 1
    assert "FAIL newton i=1" in out


def test_closed_form_certificate_survives_optimize():
    """The nonnegativity certificate is not an assert: with a corrupted
    factorial, `python -O` still refuses the closed form and exits 1."""
    script = (
        "import sys\n"
        "from strandtrace import cli, diagrams\n"
        "diagrams.factorial = lambda n: -1\n"
        "sys.exit(cli.main(['verify', '--suite', 'closed-form', '--max-n', '3', '--max-k', '1']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "not a nonnegative h multiple" in proc.stderr


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "identities", "--max-n", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["total"]


# -- classify --------------------------------------------------------------------


def test_classify_avoiding(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--lambda", "4,3,1,1", "--n", "6"])
    assert code == 0
    assert "2+1+1: avoids" in out
    assert "n=6; [1,2] [2,4] [4,5] [5,6]" in out


def test_classify_containing(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--lambda", "1", "--n", "4"])
    assert code == 0
    assert "2+1+1: contains" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(
        capsys, ["classify", "--lambda", "2,1", "--n", "4", "--format", "json"]
    )
    assert code == 0
    info = json.loads(out)["info"]
    assert info["avoids_3+1"] and info["avoids_2+2"]
    assert info["avoids_2+1+1_corners"] and info["avoids_2+1+1_brute"]
    assert info["crossings"] == [[1, 2], [2, 3], [3, 4]]


# -- search ------------------------------------------------------------------------


def test_search_writes_jsonl(capsys, tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    code, out, _ = run_cli(
        capsys,
        ["search", "--strands", "4", "--max-crossings", "4", "--out", str(out_path)],
    )
    assert code == 0
    assert "h-negative: 0" in out
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert all(r["positive"] for r in records)
    target = [r for r in records if r["crossings"] == [[2, 3], [1, 2], [3, 4], [2, 3]]]
    assert target and target[0]["h"] == [
        {"partition": [4], "coeff": "8"},
        {"partition": [3, 1], "coeff": "4"},
        {"partition": [2, 2], "coeff": "4"},
    ]


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["--strands", "5", "--max-crossings", "3"],
            "44343b2a6851e3d0d1fcc528a27dbb93cfcc3f984db5b899a58d4680a06520df",
        ),
        (
            ["--strands", "4", "--max-crossings", "4", "--mode", "random", "--seed", "7",
             "--count", "200"],
            "5dc9a140e7b71a0f056dcf9eb75c65180414e473d80cb57e823d83f5a7a032a9",
        ),
        (
            # periodic sequences only, one orbit each
            ["--strands", "2", "--max-crossings", "60"],
            "7dacc1ac663a4ec5af6c26e8ee806f344e589b88487297f5533d11956526446e",
        ),
    ],
)
def test_search_records_are_pinned(capsys, tmp_path, argv, digest):
    """These sweeps' bytes as written by cycle-typing every composite of the
    expanding census and encoding every record whole, and the 2 x 60 sweep's
    as written when a first member registered all 4k of its rotations and
    reversals: the cycle-type census, the once-per-orbit record tail, the
    once-per-sweep crossing texts and the registration that stops at a
    period must reproduce them exactly."""
    out_path = tmp_path / "sweep.jsonl"
    code, _, _ = run_cli(capsys, ["search", *argv, "--out", str(out_path)])
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_search_stdout_records(capsys):
    code, out, err = run_cli(capsys, ["search", "--strands", "2", "--max-crossings", "3"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["h"] for r in records] == [
        [{"partition": [2], "coeff": "2"}],
        [{"partition": [2], "coeff": "4"}],
        [{"partition": [2], "coeff": "8"}],
    ]
    assert "diagrams: 3" in err


def test_search_reports_an_h_negative_diagram(capsys, tmp_path, monkeypatch):
    real = kernels._cycle_types_of_cosets

    def corrupted(n, cosets, held):
        # p_2 p_1 = 2 h_{2,1} - h_{1,1,1}; on 3 strands only [1,3] holds all three values
        if held == (1, 2, 3):
            return {(2, 1): 1}
        return real(n, cosets, held)

    monkeypatch.setattr(kernels, "_cycle_types_of_cosets", corrupted)
    out_path = tmp_path / "sweep.jsonl"
    code, out, _ = run_cli(
        capsys, ["search", "--strands", "3", "--max-crossings", "1", "--out", str(out_path)]
    )
    assert code == 1
    assert "h-negative: 1" in out
    lines = out_path.read_text().splitlines()
    assert lines[1] == (
        '{"crossings":[[1,3]],"h":[{"coeff":"2","partition":[2,1]},'
        '{"coeff":"-1","partition":[1,1,1]}],"n":3,"positive":false,'
        '"witness":{"coeff":"-1","partition":[1,1,1]}}'
    )


def test_search_random_seed_reproducible(capsys, tmp_path):
    args = [
        "search", "--strands", "4", "--max-crossings", "3",
        "--mode", "random", "--seed", "17", "--count", "10",
    ]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_search_guard(capsys):
    code, _, err = run_cli(capsys, ["search", "--strands", "9", "--max-crossings", "3"])
    assert code == 2
    assert "guard" in err


def test_wide_sweep_is_refused_before_it_builds_its_alphabet(capsys, monkeypatch):
    """Past 10 strands an exhaustive sweep meets the guard at [1,11], among
    its one-crossing sequences, so 2,000 strands are refused without
    building their 1,999,000 crossings anywhere."""
    widths = []
    real = diagrams.crossing_alphabet

    def counted(strands):
        widths.append(strands)
        return real(strands)

    monkeypatch.setattr(diagrams, "crossing_alphabet", counted)
    code, out, err = run_cli(capsys, ["search", "--strands", "2000", "--max-crossings", "1"])
    assert code == 2
    assert out == ""
    assert err == (
        "error: search with 2000 strands and up to 1 crossings, first 10 orbits: "
        "census work 43954732 exceeds the guard 10000000\n"
    )
    assert 2000 not in widths


def test_wide_random_sweep_is_refused_without_its_alphabet(capsys, monkeypatch):
    """A random sweep reads each drawn alphabet index as its crossing, so
    1,500 strands are refused on their one drawn crossing without building
    or formatting their 1,124,250 crossings."""
    built = []
    monkeypatch.setattr(diagrams, "crossing_alphabet", built.append)
    code, out, err = run_cli(
        capsys,
        ["search", "--strands", "1500", "--max-crossings", "1", "--mode", "random", "--count", "1"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith(
        "error: search with 1500 strands and up to 1 crossings, first 1 orbits: census work "
    )
    # the drawn crossing's joined-cycles table alone is charged a number of
    # about 600 digits
    digest = hashlib.sha256(err.encode()).hexdigest()
    assert digest == "901a6b04c90a696af43bd04635e61c99b2dc84eee8f98bb50da0b4c9237279aa"
    assert built == []


def test_search_reports_every_member_of_an_h_negative_orbit(capsys, tmp_path, monkeypatch):
    real = kernels._cycle_types_of_cosets

    def corrupted(n, cosets, held):
        # [1,2] is evaluated for its orbit, which holds its reflection [2,3];
        # p_2 p_1 = 2 h_{2,1} - h_{1,1,1}
        if held == (1, 2):
            return {(2, 1): 1}
        return real(n, cosets, held)

    monkeypatch.setattr(kernels, "_cycle_types_of_cosets", corrupted)
    out_path = tmp_path / "sweep.jsonl"
    code, out, _ = run_cli(
        capsys, ["search", "--strands", "3", "--max-crossings", "1", "--out", str(out_path)]
    )
    assert code == 1
    tail = (
        '"h":[{"coeff":"2","partition":[2,1]},{"coeff":"-1","partition":[1,1,1]}],'
        '"n":3,"positive":false,"witness":{"coeff":"-1","partition":[1,1,1]}}'
    )
    lines = out_path.read_text().splitlines()
    assert lines[0] == '{"crossings":[[1,2]],' + tail
    assert lines[2] == '{"crossings":[[2,3]],' + tail
    assert json.loads(lines[1])["positive"]
    assert "h-negative: 2" in out
    assert "counterexample: %s\n" % lines[0] in out


@pytest.mark.parametrize(
    "argv",
    [
        # 9 x 3 and 7 x 4 bound a walk work of 82,950,621 and 15,097,664,
        # over the 10^7 guard
        ["search", "--strands", "9", "--max-crossings", "3"],
        ["search", "--strands", "1", "--max-crossings", "3"],
        ["search", "--strands", "7", "--max-crossings", "4"],
        # one crossing each, but reading [1,24] builds the joined-cycles
        # table of 24 paths, charged 24!
        ["search", "--strands", "24", "--max-crossings", "1"],
        # its records would hold 12,502,500 crossings, over the 10^7 guard
        ["search", "--strands", "2", "--max-crossings", "5000"],
    ],
)
def test_rejected_search_keeps_existing_out(capsys, tmp_path, argv):
    out_path = tmp_path / "sweep.jsonl"
    out_path.write_text("earlier sweep\n")
    code, _, _ = run_cli(capsys, argv + ["--out", str(out_path)])
    assert code == 2
    assert out_path.read_text() == "earlier sweep\n"
    assert [f.name for f in tmp_path.iterdir()] == ["sweep.jsonl"]


def test_failed_search_keeps_existing_out(capsys, tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        yield from cli.search_general(2, 1)
        raise RuntimeError("worker died")

    monkeypatch.setattr(cli, "search_general", failing)
    out_path = tmp_path / "sweep.jsonl"
    out_path.write_text("earlier sweep\n")
    with pytest.raises(RuntimeError):
        main(["search", "--strands", "2", "--max-crossings", "1", "--out", str(out_path)])
    assert out_path.read_text() == "earlier sweep\n"
    assert [f.name for f in tmp_path.iterdir()] == ["sweep.jsonl"]


# -- determinism ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--lambda", "3,1,1", "--n", "5", "--basis", "e", "--format", "json"],
        ["verify", "--suite", "identities", "--max-n", "3"],
        ["classify", "--lambda", "2,2", "--n", "5", "--format", "json"],
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    code1, out1, _ = run_cli(capsys, list(argv))
    code2, out2, _ = run_cli(capsys, list(argv))
    assert code1 == code2 == 0
    assert out1 == out2


def test_parser_is_built_once_and_parsing_leaves_it_unchanged(capsys):
    assert cli.build_parser() is cli.build_parser()
    shape = ["compute", "--lambda", "2,1", "--n", "4"]
    code, out, _ = run_cli(capsys, shape + ["--basis", "p", "--via", "oracle"])
    assert code == 0 and "via: oracle" in out and "p[1,1,1,1]" in out
    code, out, _ = run_cli(capsys, shape)
    assert code == 0 and "via: both" in out and "h[4] = 4" in out


def test_search_worker_count_does_not_change_output(capsys, tmp_path, monkeypatch):
    args = ["search", "--strands", "4", "--max-crossings", "3"]
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    monkeypatch.setenv("STRAND_TRACE_THREADS", "1")
    one = tmp_path / "one.jsonl"
    assert main(args + ["--out", str(one)]) == 0
    monkeypatch.setenv("STRAND_TRACE_THREADS", "2")
    two = tmp_path / "two.jsonl"
    assert main(args + ["--out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "strandtrace.cli", "compute", "--lambda", "2,1", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "h[4] = 4" in proc.stdout
