import json

import pytest

from legdet import cli
from legdet.arith import OddPrime
from legdet.cli import main
from legdet.exactlinalg import det
from legdet.matrices import build_cp, build_mp
from faddeev_leverrier import charpoly


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_symbol(capsys):
    assert run(capsys, ["symbol", "3", "7"]) == (0, "-1\n", "")
    assert run(capsys, ["symbol", "2", "7"]) == (0, "1\n", "")
    assert run(capsys, ["symbol", "10", "5"]) == (0, "0\n", "")


def test_symbol_rejects_composite(capsys):
    code, out, err = run(capsys, ["symbol", "1", "9"])
    assert code == 2
    assert out == ""
    assert err.startswith("legdet:")


def test_matrix_print(capsys):
    code, out, err = run(capsys, ["matrix", "--kind", "mp", "--p", "5", "--print"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind=mp p=5 dim=3"
    assert len(lines) == 4
    assert lines[1].split() == ["1", "1", "1"]
    assert lines[2].split() == ["1", "0", "1"]
    assert lines[3].split() == ["-1", "1", "0"]


def test_matrix_without_print_shows_header_only(capsys):
    code, out, err = run(capsys, ["matrix", "--kind", "ep", "--p", "7"])
    assert code == 0
    assert out == "kind=ep p=7 dim=4\n"


def test_det(capsys):
    assert run(capsys, ["det", "--kind", "mp", "--p", "5"])[1] == "-1\n"
    assert run(capsys, ["det", "--kind", "ep", "--p", "5"])[1] == "-2\n"
    assert run(capsys, ["det", "--kind", "ep", "--p", "7"])[1] == "1\n"
    assert run(capsys, ["det", "--kind", "cp", "--p", "5"])[1] == "5\n"
    assert run(capsys, ["det", "--kind", "cp", "--p", "7"])[1] == "49\n"


def test_det_takes_the_toeplitz_route(capsys):
    # the README example
    assert run(capsys, ["det", "--kind", "ep", "--p", "13"]) == (0, "-18\n", "")
    for kind, build, p in (("mp", build_mp, 5), ("cp", build_cp, 7)):
        expected = det(build(OddPrime(p)))
        assert run(capsys, ["det", "--kind", kind, "--p", str(p)])[1] == f"{expected}\n"
    # dimension 301, far past where Bareiss is practical in a test
    assert run(capsys, ["det", "--kind", "ep", "--p", "601"])[1] == "-139468303679532\n"


def test_charpoly(capsys):
    code, out, err = run(capsys, ["charpoly", "--p", "5"])
    assert code == 0
    assert out == "t^4 - 6*t^2 + 5\n"


def test_charpoly_matches_faddeev_leverrier(capsys):
    code, out, err = run(capsys, ["charpoly", "--p", "13"])
    assert code == 0
    assert out == f"{charpoly(build_cp(OddPrime(13)))}\n"


def test_class_number(capsys):
    code, out, err = run(capsys, ["class-number", "--field", "imag", "--p", "23"])
    assert code == 0
    assert out == "h(-23) = 3 (character_sum=3, reduced_forms=3)\n"
    code, out, err = run(capsys, ["class-number", "--field", "real", "--p", "5"])
    assert code == 0
    assert out == "h(5) = 1 (analytic=1, reduced_form_cycles=1)\n"


def test_class_number_wrong_field(capsys):
    code, out, err = run(capsys, ["class-number", "--field", "real", "--p", "7"])
    assert code == 2
    assert "legdet:" in err
    code, out, err = run(capsys, ["class-number", "--field", "imag", "--p", "5"])
    assert code == 2


def test_fundamental_unit(capsys):
    code, out, err = run(capsys, ["fundamental-unit", "--p", "17"])
    assert code == 0
    assert out == "eps_17 = (8 + 2*sqrt(17))/2 norm=-1\n"


def test_chapman(capsys):
    assert run(capsys, ["chapman", "--p", "5"]) == (
        0, "p=5 h=1 exponent=3 eps=(1 + 1*sqrt(5))/2 a_p=2 b_p=1\n", "")
    assert run(capsys, ["chapman", "--p", "13"]) == (
        0, "p=13 h=1 exponent=3 eps=(3 + 1*sqrt(13))/2 a_p=18 b_p=5\n", "")


def test_chapman_wrong_residue_class(capsys):
    code, out, err = run(capsys, ["chapman", "--p", "7"])
    assert code == 2


def test_verify_text(capsys):
    code, out, err = run(capsys, ["verify", "--target", "sun",
                                  "--from", "5", "--to", "30"])
    assert code == 0
    assert "pass=8 fail=0 skipped=0" in out


def test_verify_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, [
        "verify", "--target", "gauss", "--from", "3", "--to", "20",
        "--format", "json", "--out", str(out_path),
    ])
    assert code == 0
    assert out == ""
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["pass"] == 7
    assert {r["p"] for r in data["records"]} == {3, 5, 7, 11, 13, 17, 19}


def test_verify_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # --out is checked before the sweep, which therefore never runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    missing = tmp_path / "missing" / "r.txt"
    code, out, err = run(capsys, ["verify", "--target", "unit", "--from", "3",
                                  "--to", "7", "--out", str(missing)])
    assert code == 2
    assert out == ""
    assert err.startswith("legdet: ") and str(missing) in err
    assert not missing.parent.exists()
    code, out, err = run(capsys, ["verify", "--target", "unit", "--from", "3",
                                  "--to", "7", "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("legdet: ") and str(tmp_path) in err


def test_verify_csv_stdout(capsys):
    code, out, err = run(capsys, ["verify", "--target", "unit",
                                  "--from", "3", "--to", "12",
                                  "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,status,computed,predicted,aux"
    assert len(lines) == 5


def test_verify_parallel(capsys):
    code, out, err = run(capsys, ["verify", "--target", "chapman",
                                  "--from", "3", "--to", "40", "--jobs", "2"])
    assert code == 0
    assert "fail=0" in out


def test_verify_failure_exit_code(capsys):
    code, out, err = run(capsys, ["verify", "--target", "decomposition",
                                  "--from", "5", "--to", "5",
                                  "--tolerance", "0"])
    assert code == 1
    assert "FAIL" in out
    assert "alt_diag_residual" in out


def test_verify_bad_tolerance(capsys):
    for tolerance in ("nan", "-1e-6", "inf"):
        code, out, err = run(capsys, ["verify", "--target", "decomposition",
                                      "--from", "5", "--to", "7",
                                      f"--tolerance={tolerance}"])
        assert (code, out) == (2, "")
        assert "legdet: tolerance must be a number >= 0" in err


def test_verify_bad_range(capsys):
    code, out, err = run(capsys, ["verify", "--target", "sun",
                                  "--from", "50", "--to", "10"])
    assert code == 2
    assert "legdet:" in err


def test_argparse_usage_errors():
    with pytest.raises(SystemExit):
        main(["nope"])
    with pytest.raises(SystemExit):
        main(["verify", "--target", "sun"])
    with pytest.raises(SystemExit):
        main([])
