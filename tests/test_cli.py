"""End-to-end command line behaviour and the expression grammar."""

import json
import re
import shlex
from pathlib import Path

import pytest

from fockcheck.cli import VERIFY_FLAGS, _verify_params, build_parser, main, parse_expression
from fockcheck.fock import format_state, parse_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_apply_h0_example(capsys):
    code, out, _ = run_cli(capsys, "apply", "h[0] phi[-5/2] |0>")
    assert code == 0
    assert out.strip() == "-1 phi[-5/2] |0>"


def test_apply_lhalf_vacuum(capsys):
    code, out, _ = run_cli(capsys, "apply", "Lhalf[0] |0>")
    assert code == 0
    assert out.strip() == "0"


def test_apply_h_minus_one(capsys):
    code, out, _ = run_cli(capsys, "apply", "h[-1] |0>")
    assert code == 0
    state = parse_state(out.strip())
    from fockcheck.grading import deg_h, dg

    assert not state.is_zero
    assert all(dg(m) == 0 and deg_h(m) == 1 for m in state.terms)


def test_apply_supports_all_operator_tokens():
    for expr in (
        "phi[-5/2] |0>",
        "L1[0] phi[-1/2] |0>",
        "Llb[1/3,2/5;1] phi[-3/2] phi[-1/2] |0>",
        "J[1,0] phi[-3/2] |0>",
    ):
        parse_expression(expr)  # must not raise


APPLY_ALL_TOKENS = "Llb[1/3,2/5;-1] J[2,1] L1[-2] h[-1] Lhalf[-3] phi[-5/2] |0>"
APPLY_ALL_TOKENS_OUT = (
    "20144/15 phi[-19/2] phi[-3/2] phi[-1/2] |0>"
    " + 6038/15 phi[-15/2] phi[-7/2] phi[-1/2] |0>"
    " - 6922/15 phi[-15/2] phi[-5/2] phi[-3/2] |0>"
    " + 1194/5 phi[-13/2] phi[-7/2] phi[-3/2] |0>"
    " - 428/15 phi[-11/2] phi[-9/2] phi[-3/2] |0>"
    " + 76/3 phi[-11/2] phi[-7/2] phi[-5/2] |0>"
    " + 55076/15 phi[-23/2] |0>"
)


def test_apply_through_every_operator_class_prints_the_pinned_state(capsys):
    # multi-term states with non-unit coefficients through the mode, quadratic,
    # Sugawara, conjugated and affine operators
    code, out, err = run_cli(capsys, "apply", APPLY_ALL_TOKENS)
    assert code == 0 and not err
    assert out == APPLY_ALL_TOKENS_OUT + "\n"


def test_apply_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "apply", "junk |0>")
    assert code == 2 and "unknown operator token" in err and "token 1 of 2, 'junk'" in err
    code, _, err = run_cli(capsys, "apply", "h[1]")
    assert code == 2


@pytest.mark.parametrize(
    "expr,where",
    [
        ("h[0] foo |0>", "token 2 of 3, 'foo': unknown operator token"),
        ("Llb[1/0,0;1] h[-1] |0>", "token 1 of 3, 'Llb[1/0,0;1]': zero denominator"),
        ("h[-1] phi[2/2] |0>", "token 2 of 3, 'phi[2/2]': fermion mode must be a half-integer"),
    ],
)
def test_apply_errors_name_the_token_and_its_position(capsys, expr, where):
    code, out, err = run_cli(capsys, "apply", expr)
    assert code == 2 and out == ""
    assert err.startswith("error:") and where in err and "Traceback" not in err


def test_printed_states_reparse():
    state = parse_expression("h[-2] h[-1] |0>")
    assert parse_state(format_state(state)) == state


def test_verify_clifford_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "clifford", "--max-index", "15/2", "--weight-cut", "8"
    )
    assert code == 0
    assert "pass" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "sectors", "--json")
    assert code == 0
    for line in out.strip().splitlines():
        record = json.loads(line)
        assert set(record) == {"check", "params", "cases_run", "failures", "failures_total", "elapsed_ms"}
        assert record["failures"] == [] and record["failures_total"] == 0


def test_jacobi_command(capsys):
    code, out, _ = run_cli(capsys, "jacobi", "--which", "DA", "--qmax", "12")
    assert code == 0
    assert "pass" in out


def test_character_json_contains_known_record(capsys):
    code, out, _ = run_cli(capsys, "character", "--qmax", "5", "--form", "trace", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert {"coeff": 1, "qhalf": 1, "z": -1} in records


def test_character_forms_agree(capsys):
    outputs = []
    for form in ("trace", "product", "sum"):
        code, out, _ = run_cli(capsys, "character", "--qmax", "4", "--form", form, "--json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_decompose_table(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--nmax", "2", "--kmax", "3", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5 * 4
    assert all(r["match"] for r in records)
    assert {"n": 0, "k": 3, "dim": 3, "p": 3, "match": True} in records


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code, out, _ = run_cli(capsys, "verify", "sectors", "--json", "--out", str(path))
    assert code == 0
    assert path.read_text().strip() == out.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "sectors"),
        ("character", "--qmax", "1"),
        ("jacobi", "--which", "A", "--qmax", "1"),
        ("decompose", "--nmax", "0", "--kmax", "0"),
    ],
)
def test_unwritable_out_is_a_usage_error_before_any_check(monkeypatch, tmp_path, capsys, argv):
    from fockcheck import suites

    def must_not_run(**params):
        raise AssertionError("a check ran before --out was opened")

    monkeypatch.setitem(suites.SUITES, "sectors", must_not_run)
    for path in (tmp_path / "missing" / "report.txt", tmp_path):
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out ") and str(path) in err


def test_usage_error_leaves_an_existing_out_file_as_it_was(tmp_path, capsys):
    path = tmp_path / "report.txt"
    path.write_text("kept\n")
    code, _, err = run_cli(capsys, "verify", "heisenberg", "--kmax", "1", "--out", str(path))
    assert code == 2 and "does not take --kmax" in err
    assert path.read_text() == "kept\n"


def test_verification_failure_exits_one(monkeypatch, capsys):
    from fockcheck import suites
    from fockcheck.verify import VerificationReport

    def broken_suite(**params):
        report = VerificationReport("broken", {})
        report.expect(1, 0, lambda: "w")
        return [report]

    monkeypatch.setitem(suites.SUITES, "sectors", broken_suite)
    code, out, _ = run_cli(capsys, "verify", "sectors")
    assert code == 1
    assert "FAIL" in out


def test_value_error_in_a_check_is_not_a_usage_error(monkeypatch, capsys):
    from fockcheck import suites

    def defective_suite(**params):
        raise ValueError("states of different spaces")

    monkeypatch.setitem(suites.SUITES, "sectors", defective_suite)
    with pytest.raises(ValueError):
        main(["verify", "sectors"])


def test_verify_winf_flag_mapping(capsys):
    from fockcheck.charged import enumerate_charged_basis

    code, out, _ = run_cli(
        capsys, "verify", "winf", "--kmax", "1", "--mmax", "1", "--weight-cut", "3", "--json"
    )
    assert code == 0
    [record] = [r for r in map(json.loads, out.strip().splitlines()) if r["check"] == "winf_matrix_defects"]
    # --mmax is the shift bound nmax; --weight-cut 3 is twice-weight 6
    params = record["params"]
    assert (params["kmax"], params["nmax"], params["weight_cut2"]) == ("1", "1", "6")
    assert params["pairs"] == "27"  # (k1, k2) in {(0,0), (1,0), (1,1)} times 3 x 3 shifts
    assert record["cases_run"] == 27 * len(enumerate_charged_basis(6))


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_decimal_flags_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "clifford", "--weight-cut", "8.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "virasoro", "--family", "lambda", "--lambda", "1/0"),
        ("verify", "virasoro", "--family", "lambda", "--b", "2/0"),
    ],
)
def test_zero_denominator_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("verify heisenberg --mmax -1", "fockcheck verify: error: argument --mmax: must be at least 0, not -1"),
        ("verify clifford --max-index 0", "fockcheck verify: error: argument --max-index: must be at least 1/2, not 0"),
        (
            "verify heisenberg --weight-cut=-1/2",
            "fockcheck verify: error: argument --weight-cut: must be at least 0, not -1/2",
        ),
        (
            "verify heisenberg --weight-cut 1/3",
            "fockcheck verify: error: argument --weight-cut: half-integers must have denominator 2: '1/3'",
        ),
        ("verify all --jobs x", "fockcheck verify: error: argument --jobs: not an integer: 'x'"),
        ("verify all --jobs 0", "fockcheck verify: error: argument --jobs: must be at least 1, not 0"),
        ("verify all --jobs -3", "fockcheck verify: error: argument --jobs: must be at least 1, not -3"),
        (
            "verify virasoro --family lambda --lambda 1/0",
            "fockcheck verify: error: argument --lambda: zero denominator: '1/0'",
        ),
        (
            "verify virasoro --family lambda --b 1.5",
            "fockcheck verify: error: argument --b: not an exact rational: '1.5'",
        ),
        ("character --qmax -2", "fockcheck character: error: argument --qmax: must be at least 0, not -2"),
        ("jacobi --which DA --qmax=-1", "fockcheck jacobi: error: argument --qmax: must be at least 0, not -1"),
        ("decompose --nmax ٣", "fockcheck decompose: error: argument --nmax: not an integer: '٣'"),
    ],
)
def test_every_flag_converter_error_is_pinned(capsys, command, message):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


def test_zero_denominator_in_apply_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "apply", "Llb[1/0,0;1] |0>")
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err and "token 1 of 2" in err


def test_parse_state_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_state("3/0 |0>")


@pytest.mark.parametrize(
    "family,checks",
    [
        ("half", ["virasoro_half"]),
        ("half~", ["virasoro_half_tilde"]),
        ("one", ["virasoro_one_sugawara"]),
        ("one~", ["virasoro_one_tilde", "l1_tilde_mode_relation"]),
    ],
)
def test_virasoro_family_selects_checks_by_name(capsys, family, checks):
    code, out, _ = run_cli(capsys, "verify", "virasoro", "--family", family, "--mmax", "1", "--weight-cut", "2", "--json")
    assert code == 0
    assert [json.loads(line)["check"] for line in out.strip().splitlines()] == checks


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "sectors", "--weight-cut", "4"),
        ("verify", "characters", "--mmax", "2"),
        ("verify", "eigenvalues", "--mmax", "2"),
        ("verify", "sectors", "--max-index", "3/2"),
        ("verify", "iso", "--kmax", "3", "--lambda", "1/3"),
        ("verify", "iso", "--max-index", "3/2"),
        ("verify", "clifford", "--family", "half"),
        ("verify", "clifford", "--jobs", "2"),
        ("verify", "virasoro", "--mmax", "2"),
        ("verify", "virasoro", "--family", "half", "--lambda", "1/3"),
        ("verify", "virasoro-lambda", "--b", "1/3"),
        ("verify", "all", "--mmax", "2"),
    ],
)
def test_flags_a_target_does_not_take_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_every_suite_has_a_flag_table_entry():
    from fockcheck.cli import VERIFY_FLAGS
    from fockcheck.suites import SUITES

    assert {(name, None) for name in SUITES} <= set(VERIFY_FLAGS)


def test_virasoro_lambda_family_honours_mmax(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "virasoro", "--family", "lambda", "--mmax", "1", "--weight-cut", "2", "--json"
    )
    assert code == 0
    [record] = [json.loads(line) for line in out.strip().splitlines()]
    assert record["params"]["pairs"] == "9" and record["params"]["mmax"] == "1"


def test_verify_all_rows_do_not_depend_on_jobs(monkeypatch, capsys):
    from fockcheck import cli, suites

    small = {
        "clifford": lambda: suites.suite_clifford(3, 4),
        "sectors": lambda: suites.suite_sectors(1, 3),
        "decomposition": lambda: suites.suite_decomposition(1, 1, 1, 2),
        "iso": lambda: suites.suite_iso(4, 1, 3),
        "winf": lambda: suites.suite_winf(kmax=0, nmax=0, weight_cut2=4, mmax=1),
    }
    monkeypatch.setattr(suites, "SUITES", small)  # forked pool workers inherit the patch
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a real pool of two, whatever the machine
    want = [(rep.check, rep.cases_run, rep.passed) for suite in small.values() for rep in suite()]

    def rows(jobs):
        code, out, _ = run_cli(capsys, "verify", "all", "--jobs", str(jobs), "--json")
        assert code == 0
        return [(r["check"], r["cases_run"], not r["failures_total"]) for r in map(json.loads, out.splitlines())]

    assert rows(1) == rows(2) == want


def test_pool_size_is_bounded_by_cpus_and_tasks(monkeypatch):
    from fockcheck import cli

    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)  # a platform without affinity masks
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli.pool_size(1, 14) == 1
    assert cli.pool_size(3, 14) == 3
    assert cli.pool_size(64, 14) == 4
    assert cli.pool_size(64, 2) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.pool_size(8, 14) == 1


def test_pool_size_counts_the_cpus_this_process_may_run_on(monkeypatch):
    from fockcheck import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.pool_size(2, 14) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "heisenberg", "--mmax", "-1", "--weight-cut", "2"),
        ("verify", "heisenberg", "--weight-cut", "-2"),
        ("verify", "sectors", "--kmax", "-2"),
        ("verify", "clifford", "--max-index", "0"),
        ("verify", "clifford", "--max-index", "-1/2"),
        ("verify", "winf", "--kmax", "x"),
        ("jacobi", "--which", "DA", "--qmax", "-1"),
        ("decompose", "--nmax", "-1", "--kmax", "-1"),
        ("decompose", "--kmax", "-1"),
        ("character", "--qmax", "-1"),
    ],
)
def test_negative_and_empty_sizes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "heisenberg", "--mmax", "1_0"),
        ("verify", "heisenberg", "--mmax", " 1"),
        ("verify", "clifford", "--weight-cut", "1_6"),
        ("verify", "all", "--jobs", "\uff12"),  # fullwidth 2
        ("jacobi", "--which", "DA", "--qmax", "1_2"),
        ("verify", "virasoro", "--family", "lambda", "--lambda", "\u0661/\u0663"),  # Arabic-Indic 1/3
        ("verify", "virasoro", "--family", "lambda", "--b", " 1/3"),
        ("apply", "h[\u0660] phi[-\u0665/2] |0>"),  # Arabic-Indic 0 and 5
    ],
)
def test_integer_literals_take_ascii_digits_only(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


SIZE_FLOORS = {"--weight-cut": "0", "--max-index": "1/2", "--mmax": "0", "--kmax": "0"}


def _floor_argvs():
    for (target, family), flags in VERIFY_FLAGS.items():
        sized = [flag for flag in flags if flag in SIZE_FLOORS]
        if sized:
            selector = ("--family", family) if family else ()
            yield ("verify", target, *selector, *(x for flag in sized for x in (flag, SIZE_FLOORS[flag])), "--json")
    yield ("jacobi", "--which", "DA", "--qmax", "0", "--json")
    yield ("jacobi", "--which", "A", "--qmax", "0", "--json")


@pytest.mark.parametrize("argv", list(_floor_argvs()), ids=" ".join)
def test_every_target_runs_cases_at_the_size_floors(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records and all(record["cases_run"] >= 1 for record in records)


def test_character_and_decompose_print_at_the_size_floors(capsys):
    code, out, _ = run_cli(capsys, "character", "--qmax", "0", "--json")
    assert code == 0 and [json.loads(line) for line in out.strip().splitlines()] == [{"coeff": 1, "qhalf": 0, "z": 0}]
    code, out, _ = run_cli(capsys, "decompose", "--nmax", "0", "--kmax", "0")
    assert code == 0 and out.strip() == "n=+0 k=0 dim=1 p(k)=1 match=True"


def _readme_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("fockcheck ")]


def _readme_commands():
    return [shlex.split(line, comments=True) for line in _readme_lines()]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        if args.command == "verify":
            _verify_params(args)


def test_readme_commands_run(capsys):
    """Every README command but ``verify all``, which CI runs through the
    console script, exits 0; a ``# prints:`` comment is the command's output
    (read from the raw line, since ``shlex`` drops comments)."""
    printed = 0
    for line, argv in zip(_readme_lines(), _readme_commands()):
        if argv[1:3] == ["verify", "all"]:
            continue
        code, out, _ = run_cli(capsys, *argv[1:])
        assert code == 0, line
        if "# prints:" in line:
            assert out.strip() == line.split("# prints:", 1)[1].strip()
            printed += 1
    assert printed == 1
