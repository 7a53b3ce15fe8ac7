import io
import json
import os
import re
import runpy
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import looptop.cli as cli
from looptop.cli import parse_matrix, parse_space, run
from looptop.errors import IntegrityError, ValidationError
from looptop.spaces import BettiOne, ConnectedSum, Manifold, TwoCellComplex


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_matrix(self):
        assert parse_matrix("0,2;2,0") == ((0, 2), (2, 0))
        with pytest.raises(ValidationError):
            parse_matrix("0,a;1,0")

    def test_space_grammar(self):
        assert parse_space("manifold:2:3") == Manifold(2, 3)
        assert parse_space("csum:2x3,2x3") == ConnectedSum(((2, 3), (2, 3)))
        assert parse_space("csum:2x3,2x3:signs=+,-") == ConnectedSum(((2, 3), (2, 3)), (1, -1))
        assert parse_space("cw:2:0,7;7,0") == TwoCellComplex(2, ((0, 7), (7, 0)))
        assert parse_space("betti1:4:7") == BettiOne(4, 7)
        with pytest.raises(ValidationError):
            parse_space("torus:1:1")
        with pytest.raises(ValidationError):
            parse_space("manifold:2")

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["manifold", "--n", "2", "--betti", "3"], "manifold:2:3"),
            (["connected-sum", "--factors", "2x3,2x3", "--signs=+,-"], "csum:2x3,2x3:signs=+,-"),
            (["cw", "--n", "2", "--matrix", "0,7;7,0"], "cw:2:0,7;7,0"),
            (["betti-one", "--n", "4", "--m", "7"], "betti1:4:7"),
        ],
        ids=["manifold", "connected-sum", "cw", "betti-one"],
    )
    def test_report_flags_build_the_space_of_their_grammar_twin(self, argv, text):
        args = cli.build_parser().parse_args(argv)
        assert args.space_of(args) == parse_space(text)

    def test_every_space_command_parses_its_space_flag(self):
        for argv in (["verify", "cobar"], ["verify", "counts"], ["moore"], ["hilbert"], ["lie-basis"]):
            args = cli.build_parser().parse_args([*argv, "--space", "csum:2x3,2x3:signs=+,-"])
            assert args.space_of(args) == ConnectedSum(((2, 3), (2, 3)), (1, -1))

    def test_csum_refuses_a_second_signs_option(self):
        code, out, err = invoke(
            ["hilbert", "--space", "csum:2x3,2x3:signs=+,+:signs=-,-", "--max-degree", "2", "--format", "json"]
        )
        assert (code, out) == (2, "")
        assert err == "error: csum option 'signs=' given twice, again as 'signs=-,-'\n"

    def test_typed_matrix_messages(self):
        assert invoke(["cw", "--n", "2", "--matrix", "0,1.5;1.5,0"])[2] == (
            "error: matrix entry '1.5' is not an integer\n"
        )
        assert invoke(["cw", "--n", "2", "--matrix", "0,1;1"])[2] == "error: cup-product form must be square\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hilbert", "--space", "manifold:2_0:3"], "expected manifold:n:r, got 'manifold:2_0:3'"),
            (["moore", "--space", "manifold:٢:3"], "expected manifold:n:r, got 'manifold:٢:3'"),
            (["moore", "--space", "cw:²:0,1;1,0"], "expected cw:n:matrix, got 'cw:²:0,1;1,0'"),
            (["moore", "--space", "betti1:4:1_0"], "expected betti1:n:m, got 'betti1:4:1_0'"),
            (["moore", "--space", "csum:2x3,2x3_0"], "expected pxq factors, got '2x3_0'"),
            (["cw", "--n", "2", "--matrix", "0,٧;٧,0"], "matrix entry '٧' is not an integer"),
            (["cw", "--n", "2", "--matrix", "0,+-7;7,0"], "matrix entry '+-7' is not an integer"),
        ],
    )
    def test_integer_text_is_ascii_digits_only(self, argv, message):
        assert invoke(argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (["hilbert", "--space", "manifold:2:3", "--max-degree", "1_0"], "--max-degree", "1_0"),
            (["manifold", "--n", "٢", "--betti", "3"], "--n", "٢"),
            (["manifold", "--n", "2", "--betti", "3", "--max-dim", "１０"], "--max-dim", "１０"),
            (["betti-one", "--n", "4", "--m", "+-1"], "--m", "+-1"),
        ],
    )
    def test_integer_flags_are_ascii_digits_only(self, capsys, argv, flag, text):
        assert invoke(argv) == (2, "", "")
        err = capsys.readouterr().err
        assert err.startswith("usage: looptop ") and err.endswith(f"argument {flag}: invalid int value: {text!r}\n")

    def test_integer_text_keeps_its_sign_and_surrounding_space(self):
        assert parse_space("manifold: 2 :+3") == Manifold(2, 3)
        assert parse_space("cw:\t2 :+2, -1\u2003;-1 ,5") == TwoCellComplex(2, ((2, -1), (-1, 5)))
        assert parse_space("csum: 2x+3 ") == ConnectedSum(((2, 3),))
        assert invoke(["betti-one", "--n", " 4", "--m", "+7 ", "--format", "json"]) == invoke(
            ["betti-one", "--n", "4", "--m", "7", "--format", "json"]
        )

    def test_connected_sum_flags_share_the_grammar_parser(self):
        code, out, err = invoke(["connected-sum", "--factors", "2x3,2x3", "--signs", "+,x"])
        grammar_code, _, grammar_err = invoke(
            ["moore", "--space", "csum:2x3,2x3:signs=+,x"]
        )
        assert (code, grammar_code) == (2, 2) and not out
        assert err == grammar_err == "error: signs must be a comma list of + and -\n"


class TestExitCodes:
    def test_success(self):
        code, out, err = invoke(["manifold", "--n", "2", "--betti", "2"])
        assert code == 0 and "S^2" in out and not err

    def test_usage_error_is_two(self):
        code, _, _ = invoke(["manifold", "--n", "2"])
        assert code == 2

    def test_validation_error_is_two(self):
        code, _, err = invoke(["manifold", "--n", "3", "--betti", "3"])
        assert code == 2 and "error" in err

    def test_bad_matrix_is_two(self):
        code, _, err = invoke(["cw", "--n", "2", "--matrix", "0,x;1,0"])
        assert code == 2 and "integer" in err

    def test_cell_cap_is_the_only_size_rule(self, capsys):
        code, out, _ = invoke(["verify", "cobar", "--space", "betti1:8:0", "--max-degree", "25"])
        assert code == 0 and "FAIL" not in out
        code, _, _ = invoke(
            ["verify", "cobar", "--space", "betti1:8:0", "--max-degree", "25", "--deep"]
        )
        assert code == 2 and "unrecognized arguments: --deep" in capsys.readouterr().err

    def test_cell_cap_env_guard(self, monkeypatch):
        monkeypatch.setenv("LOOPTOP_MAX_CELLS", "50")
        code, _, err = invoke(["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "8"])
        assert code == 2 and "LOOPTOP_MAX_CELLS" in err

    @pytest.mark.parametrize("raw", ["1_0", "١٠"])
    def test_cell_cap_env_is_ascii_digits_only(self, monkeypatch, raw):
        monkeypatch.setenv("LOOPTOP_MAX_CELLS", raw)
        assert invoke(["verify", "cobar", "--space", "manifold:2:2", "--max-degree", "4"]) == (
            2, "", f"error: LOOPTOP_MAX_CELLS must be an integer, got {raw!r}\n"
        )

    def test_verification_failure_is_one(self, monkeypatch):
        row = {"degree": 0, "chain_dim": 1, "rank": 1, "expected_rank": 2, "torsion": [], "ok": False}
        failing = {"max_degree": 2, "torsion_primes": [], "rows": [row], "bigraded_ok": True, "ok": False}
        monkeypatch.setattr(cli, "verify_loop_homology", lambda *a, **k: failing)
        code, out, _ = invoke(["verify", "cobar", "--space", "manifold:2:2"])
        assert code == 1 and "FAIL" in out

    def test_necklace_check_can_fail(self, monkeypatch):
        import looptop.lyndon as lyndon

        original = lyndon._closed_walk_counts

        def shifted(alphabet, forbidden, max_degree):
            # one more closed walk of length 1 at the top degree: one more
            # necklace there, and no other degree moves
            walks = original(alphabet, forbidden, max_degree)
            walks[(1, max_degree)] = walks.get((1, max_degree), 0) + 1
            return walks

        monkeypatch.setattr(lyndon, "_closed_walk_counts", shifted)
        code, out, _ = invoke(["verify", "counts", "--space", "manifold:2:3", "--max-degree", "12"])
        assert code == 1 and "FAIL" in out
        # total > _WITNESS_LIMIT: the report checks by necklace counts, without witnesses
        code, _, err = invoke(["manifold", "--n", "2", "--betti", "3", "--max-dim", "12"])
        assert code == 1 and "integrity error: Lyndon pipeline disagrees" in err

    def test_a_form_series_is_checked_against_the_closed_form(self, monkeypatch):
        import looptop.spaces as spaces

        original = spaces._OneRelator.series_fraction

        def without_relation(self):
            # the relation's term x^2 t^k dropped: the free Lie algebra's series
            numerator, denominator = original(self)
            return numerator, {key: c for key, c in denominator.items() if key[0] != 2}

        monkeypatch.setattr(spaces._OneRelator, "series_fraction", without_relation)
        closed_form = "integrity error: sphere count pipelines disagree"
        # a connected sum has no closed form; its Lyndon words catch the series
        basis_count = "integrity error: Lyndon basis count 5 != series count 6 at degree 3"
        for argv, message in (
            (["manifold", "--n", "2", "--betti", "3", "--max-dim", "6"], closed_form),
            (["cw", "--n", "2", "--matrix", "0,7;7,0", "--max-dim", "6"], closed_form),
            (["lie-basis", "--space", "manifold:2:3", "--max-degree", "6"], closed_form),
            (["lie-basis", "--space", "csum:2x3,2x3", "--max-degree", "6"], basis_count),
            (["connected-sum", "--factors", "2x3,2x3", "--max-dim", "6"], basis_count),
        ):
            code, out, err = invoke(argv)
            assert (code, out) == (1, "") and err.startswith(message), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["manifold", "--n", "2", "--betti", "100", "--max-dim", "25", "--format", "json"],
        ["verify", "counts", "--space", "manifold:2:100", "--max-degree", "24"],
    ],
)
def test_a_large_betti_number_answers_quickly(argv):
    start = time.perf_counter()
    code, out, _ = invoke(argv)
    assert time.perf_counter() - start < 2
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("command", [["verify", "counts"], ["hilbert"], ["lie-basis"]])
@pytest.mark.parametrize("space", ["manifold:2:1", "manifold:4:1", "cw:2:1"])
def test_betti_one_models_are_refused_by_the_quadratic_commands(command, space, monkeypatch):
    import looptop.spaces as spaces

    def counted(self, order):
        raise IntegrityError("a series was expanded before the relation was refused")

    # every count the commands take reads the family's denominator
    monkeypatch.setattr(spaces._Family, "denominator", counted)
    code, _, err = invoke(command + ["--space", space])
    assert code == 2
    assert err.startswith("error: ") and "integrity error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--space", "manifold:2:3", "--max-degree", "-3"],
        ["verify", "counts", "--space", "manifold:2:3", "--max-degree", "-2"],
        ["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "-1"],
        ["lie-basis", "--space", "manifold:2:3", "--max-degree", "-1"],
    ],
)
def test_negative_window_is_a_usage_error(argv):
    code, out, err = invoke(argv)
    assert code == 2 and not out
    assert "--max-degree must be >= 0" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "counts", "--space", "manifold:2:3", "--max-degree", "0"], "--max-degree"),
        (["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "0"], "--max-degree"),
        (["lie-basis", "--space", "manifold:2:3", "--max-degree", "0"], "--max-degree"),
        (["manifold", "--n", "2", "--betti", "3", "--max-dim", "1"], "--max-dim"),
        (["connected-sum", "--factors", "2x3,2x3", "--max-dim", "1"], "--max-dim"),
        (["cw", "--n", "2", "--matrix", "0,7;7,0", "--max-dim", "1"], "--max-dim"),
    ],
)
def test_window_below_the_minimum_names_the_flag(argv, flag):
    code, out, err = invoke(argv)
    assert code == 2 and not out
    assert flag in err and "Traceback" not in err


def test_zero_window_is_still_accepted():
    code, out, _ = invoke(["hilbert", "--space", "manifold:2:3", "--max-degree", "0"])
    assert code == 0
    assert out.splitlines()[1].split() == ["0", "1", "1", "ok"]


def test_lie_basis_walk_guard_names_the_flag_and_the_counts_command():
    code, out, err = invoke(["lie-basis", "--space", "manifold:2:3", "--max-degree", "14"])
    assert code == 2 and not out
    assert "--max-degree" in err and "verify counts" in err
    assert "standard_lyndon_counts" not in err and "Traceback" not in err


# the CLI under a 1 GiB address-space cap
_CAPPED_CLI = (
    "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from looptop.cli import main; main()"
)


@pytest.mark.parametrize(
    "max_degree, words", [("14", "7.2e+06"), ("40", "1.8e+19"), ("2000000", "4.8e+954242")]
)
def test_lie_basis_walk_guard_states_the_whole_walk(max_degree, words):
    # 3 + 3^2 + ... + 3^L words; the figure was cut off at about 1.7e+09.  The
    # refusal comes before any series is expanded.  A child process under a
    # memory cap and a timeout runs the command, so a regression that expands
    # the series first fails this test, not the whole run.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = ["lie-basis", "--space", "manifold:2:3", "--max-degree", max_degree]
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv], capture_output=True, text=True, env=env, timeout=20
    )
    assert done.returncode == 2 and f"walk over roughly {words} words" in done.stderr


def test_cobar_window_past_int32_rows_is_refused_at_once():
    # The store keeps row indices in int32, so a window of 2^31 cells or more
    # is refused as it is counted, whatever the cell cap; manifold:2:3 at
    # D=22 has about 1e11.  A build that starts fails under the memory cap.
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
        LOOPTOP_MAX_CELLS="1000000000000",
    )
    argv = ["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "22"]
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv], capture_output=True, text=True, env=env, timeout=20
    )
    assert done.returncode == 2 and not done.stdout
    assert "over the limit of 2^31 = 2147483648" in done.stderr


# a product of two 64-bit primes; Pollard rho would need about 2^32 steps to split it
_SEMIPRIME = 276028547407528500944244193511643060947


@pytest.mark.parametrize(
    "argv",
    [
        ["cw", "--n", "2", "--matrix", f"0,{_SEMIPRIME};{_SEMIPRIME},0"],
        ["verify", "cobar", "--space", f"cw:2:0,{_SEMIPRIME};{_SEMIPRIME},0"],
    ],
)
def test_a_form_beyond_factoring_is_refused_at_once(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "looptop.cli", *argv], capture_output=True, text=True, env=env, timeout=2
    )
    assert done.returncode == 2 and not done.stdout
    assert done.stderr.startswith(f"error: cannot factor {_SEMIPRIME**2}")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_integers_past_the_digit_limit_print_in_full(fmt):
    # the closed form at degree 2160 has 4,320 digits, past the 4,300 that
    # Python converts by default; about 10 MB of output
    argv = ["hilbert", "--space", "manifold:2:100", "--max-degree", "2160", "--format", fmt]
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # parsing input keeps its guard
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            top = json.loads(out)["rows"][-1]
            degree, closed_form = top["degree"], top["closed_form"]
        else:
            degree, _, closed_form, _ = out.splitlines()[-2].split()
            degree, closed_form = int(degree), int(closed_form)
        assert degree == 2160 and len(str(closed_form)) == 4320
    finally:
        sys.set_int_max_str_digits(limit)


def test_start_up_imports_only_the_front_end():
    # algebra, lyndon and rewriting load on first use (`relation()` and the
    # Lie-basis commands), so start-up reads none of them
    code = "import sys, looptop.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'looptop'))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.stdout.strip() == (
        "['looptop', 'looptop._linalg', 'looptop.cli', 'looptop.cobar', "
        "'looptop.errors', 'looptop.series', 'looptop.spaces']"
    )


# read in one process by `run` after other requests, and each in a fresh one
_ONE_PARSER = [
    ["--help"],
    ["verify", "--help"],
    ["hilbert", "--max-degree", "3"],  # no --space: a usage error
    ["verify", "cobar", "--space", "manifold:2:2", "--max-degree", "4", "--format", "json"],
    ["betti-one", "--n", "3"],  # not a choice: a usage error
]


def test_one_parser_serves_every_request_of_a_process():
    code = textwrap.dedent(f"""
        import contextlib, io, json
        from looptop.cli import run
        seen = []
        for argv in {_ONE_PARSER!r} * 2:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            seen.append([code, out.getvalue(), err.getvalue()])
        print(json.dumps(seen))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), COLUMNS="80")
    env["PYTHONIOENCODING"] = "utf-8"
    one = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    fresh = [
        subprocess.run([sys.executable, "-m", "looptop.cli", *argv], capture_output=True, text=True, env=env)
        for argv in _ONE_PARSER
    ]
    fresh = [[done.returncode, done.stdout, done.stderr] for done in fresh]
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2]
    assert fresh[2][2].startswith("usage: looptop hilbert ")
    assert json.loads(one.stdout) == fresh * 2


LONG_OUTPUT = ["hilbert", "--space", "manifold:2:3", "--max-degree", "2000"]  # about 3 MB


def test_a_closed_pipe_ends_the_command_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "looptop.cli", *LONG_OUTPUT]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().split()[0] == b"degree"
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert (code, err) == (invoke(LONG_OUTPUT)[0], b"")


def test_a_closed_pipe_keeps_a_disagreement(monkeypatch):
    import looptop.rewriting

    monkeypatch.setattr(looptop.rewriting, "irreducible_counts", lambda *args: {})
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as out:
        assert run(LONG_OUTPUT, out=out) == 1


def test_crosscheck_script_reports_agreement(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "crosscheck_counts.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.splitlines()[-1] == "all pipelines agree"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, last_line",
    [
        ("crosscheck_counts.py", ["--max-n", "3", "--max-r", "4", "--max-degree", "8"], "all pipelines agree"),
        ("cobar_audit.py", ["manifold:2:2", "cw:2:0,7;7,0", "--max-degree", "5"], None),
        ("crosscheck_counts.py", ["--max-n", "3", "--max-r", "40", "--max-degree", "8"], "all pipelines agree"),
        ("crosscheck_counts.py", ["--max-n", "3", "--max-r", "4", "--max-degree", "200"], "all pipelines agree"),
    ],
)
def test_scripts_run_end_to_end(script, args, last_line):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert (done.returncode, done.stderr) == (0, "")
    if last_line is not None:
        assert done.stdout.splitlines()[-1] == last_line


def test_cobar_audit_ends_quietly_on_a_closed_pipe():
    # 300 audits of about 1 kB each overfill the pipe, so the script still
    # writes after the reader has gone
    argv = [sys.executable, str(SCRIPTS / "cobar_audit.py"), *["manifold:2:2"] * 300, "--max-degree", "8"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"M(2,2) ")
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert (code, err) == (0, b"")


def test_cobar_audit_keeps_a_mismatch_on_a_closed_pipe(monkeypatch):
    import looptop.cobar

    verify = looptop.cobar.verify_loop_homology
    monkeypatch.setattr(
        looptop.cobar, "verify_loop_homology", lambda *args, **kw: {**verify(*args, **kw), "ok": False}
    )
    monkeypatch.setattr(sys, "argv", ["cobar_audit.py", "manifold:2:2", "--max-degree", "3"])
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(SCRIPTS / "cobar_audit.py"), run_name="__main__")
    assert done.value.code == 1


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_cobar_audit_peak_leaves_out_the_launching_process():
    # ru_maxrss carries over the peak of the process that starts the script;
    # this launcher writes 96 MB first, and the audit of M(2,2) needs ~20 MB
    launcher = (
        "import subprocess, sys; blob = bytes(range(256)) * (96 << 12); "
        "print(subprocess.run(sys.argv[1:], capture_output=True, text=True).stdout)"
    )
    argv = [str(SCRIPTS / "cobar_audit.py"), "manifold:2:2", "--max-degree", "5"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    peak = float(re.search(r"peak RSS ([\d.]+) MB", done.stdout).group(1))
    assert 0 < peak < 64, done.stdout


class TestSpecExamples:
    def test_manifold_json_counts(self):
        code, out, _ = invoke(
            ["manifold", "--n", "2", "--betti", "3", "--max-dim", "4", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        counts = {s["sphere_dim"]: s["multiplicity"] for s in payload["summands"]}
        assert counts == {2: 3, 3: 2, 4: 5}

    def test_verify_cobar_names_the_torsion_primes(self):
        primes = {}
        for space in ("cw:2:0,7;7,0", "manifold:2:2"):
            code, out, _ = invoke(
                ["verify", "cobar", "--space", space, "--max-degree", "3", "--format", "json"]
            )
            assert code == 0
            primes[space] = json.loads(out)["torsion_primes"]
        assert primes == {"cw:2:0,7;7,0": [7], "manifold:2:2": []}

    def test_verify_cobar_torsion_free(self):
        code, out, _ = invoke(
            ["verify", "cobar", "--space", "manifold:2:2", "--max-degree", "8"]
        )
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("text, D", [("manifold:2:2", 6), ("cw:2:0,3;3,0", 5)])
    def test_verify_cobar_prints_the_verifier_payload(self, text, D):
        # the verifier's dict under the space, every key as the verifier wrote it
        from looptop.cobar import verify_loop_homology
        from looptop.spaces import space_to_json

        space = parse_space(text)
        want = cli.canonical_json({"space": space_to_json(space), **verify_loop_homology(space, D)})
        code, out, _ = invoke(["verify", "cobar", "--space", text, "--max-degree", str(D), "--format", "json"])
        assert (code, out) == (0, want + "\n")

    def test_betti_one_flags_pi10(self):
        code, out, _ = invoke(["betti-one", "--n", "4", "--m", "4"])
        assert code == 0
        assert "pi_10" in out and "3" in out

    def test_verify_counts(self):
        code, out, _ = invoke(
            ["verify", "counts", "--space", "csum:2x3,2x3", "--max-degree", "6"]
        )
        assert code == 0 and "ok" in out

    def test_hilbert(self):
        code, out, _ = invoke(["hilbert", "--space", "manifold:2:3", "--max-degree", "8"])
        assert code == 0 and "ok" in out

    def test_lie_basis(self):
        code, out, _ = invoke(["lie-basis", "--space", "manifold:2:3", "--max-degree", "3"])
        assert code == 0 and "[" in out

    def test_moore(self):
        code, out, _ = invoke(["moore", "--space", "csum:2x3,2x3"])
        assert code == 0 and "hyperbolic-no-exponent-all-primes" in out


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["manifold", "--n", "2", "--betti", "2", "--format", "json"],
            ["connected-sum", "--factors", "2x3,2x3", "--format", "json", "--max-dim", "5"],
            ["cw", "--n", "2", "--matrix", "0,7;7,0", "--format", "json", "--max-dim", "4"],
            ["betti-one", "--n", "4", "--m", "1", "--format", "json"],
            ["verify", "cobar", "--space", "manifold:2:2", "--max-degree", "5", "--format", "json"],
            ["verify", "counts", "--space", "manifold:2:3", "--max-degree", "5", "--format", "json"],
            ["hilbert", "--space", "manifold:2:2", "--max-degree", "5", "--format", "json"],
            ["lie-basis", "--space", "manifold:2:3", "--max-degree", "3", "--format", "json"],
            ["moore", "--space", "manifold:2:2", "--format", "json"],
        ],
    )
    def test_emitted_json_reparses_identically(self, argv):
        code, out, _ = invoke(argv)
        assert code == 0
        text = out.rstrip("\n")
        assert json.dumps(json.loads(text), ensure_ascii=False, indent=2) == text
