import io
import json

import pytest

import looptop.cli as cli
from looptop.cli import parse_matrix, parse_space, run
from looptop.errors import ValidationError
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

    def test_degree_cap_needs_override(self):
        code, _, err = invoke(["verify", "cobar", "--space", "betti1:8:0", "--max-degree", "25"])
        assert code == 2 and "--deep" in err
        code, out, _ = invoke(
            ["verify", "cobar", "--space", "betti1:8:0", "--max-degree", "25", "--deep"]
        )
        assert code == 0 and "FAIL" not in out

    def test_cell_cap_env_guard(self, monkeypatch):
        monkeypatch.setenv("LOOPTOP_MAX_CELLS", "50")
        code, _, err = invoke(["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "8"])
        assert code == 2 and "LOOPTOP_MAX_CELLS" in err

    def test_verification_failure_is_one(self, monkeypatch):
        from looptop.cobar import VerificationReport, VerificationRow

        failing = VerificationReport(
            "stub",
            2,
            (VerificationRow(0, 1, 1, 2, (), False, True),),
            True,
            False,
            (),
        )
        monkeypatch.setattr(cli, "verify_loop_homology", lambda *a, **k: failing)
        code, out, _ = invoke(["verify", "cobar", "--space", "manifold:2:2"])
        assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("command", [["verify", "counts"], ["hilbert"]])
@pytest.mark.parametrize("space", ["manifold:2:1", "manifold:4:1", "cw:2:1"])
def test_betti_one_models_are_refused_by_the_quadratic_commands(command, space):
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


def test_zero_window_is_still_accepted():
    code, out, _ = invoke(["hilbert", "--space", "manifold:2:3", "--max-degree", "0"])
    assert code == 0
    assert out.splitlines()[1].split() == ["0", "1", "1", "ok"]


class TestSpecExamples:
    def test_manifold_json_counts(self):
        code, out, _ = invoke(
            ["manifold", "--n", "2", "--betti", "3", "--max-dim", "4", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        counts = {s["sphere_dim"]: s["multiplicity"] for s in payload["summands"]}
        assert counts == {2: 3, 3: 2, 4: 5}

    def test_verify_cobar_torsion_free(self):
        code, out, _ = invoke(
            ["verify", "cobar", "--space", "manifold:2:2", "--max-degree", "8"]
        )
        assert code == 0
        assert "FAIL" not in out

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
