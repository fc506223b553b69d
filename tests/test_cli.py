import json

import pytest

from dirspaces.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_vertical_translation(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--symbol-json", '{"c0":1,"phi":{"terms":[[1,0,2]]}}', "--alpha", "0"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "Isometry/Invertible/Fredholm"
    assert obj["vertical_translation"] == pytest.approx(2.0)


def test_weights_closed_form(capsys):
    code, out, _ = run_cli(capsys, "weights", "--alpha", "0", "--nmax", "4")
    assert code == 0
    import math

    vals = [w for _, w in json.loads(out)["weights"]]
    assert vals[0] == pytest.approx(1.0)
    for n, v in zip((2, 3, 4), vals[1:]):
        assert v == pytest.approx(1.0 / (1.0 + math.log(n)), rel=1e-12)
    assert vals[1] == pytest.approx(0.5906, abs=1e-4)


def test_norm_a2(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--p", "2", "--alpha", "0", "--terms", "[[1,1,0],[2,1,0]]"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(1.2612, abs=1e-4)
    assert obj["coefficient_route"] == pytest.approx(obj["value"], rel=1e-6)


def test_norm_h_space(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--space", "h", "--p", "4", "--terms", "[[1,1,0],[2,1,0]]"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(6.0**0.25)


def test_kernel(capsys):
    code, out, _ = run_cli(
        capsys, "kernel", "--alpha", "0", "--s-re", "1", "--w-re", "1", "--N", "2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"][0] == pytest.approx(1.4233, abs=1e-4)
    assert obj["tail"] > 0


def test_compose_basis(capsys):
    code, out, _ = run_cli(capsys, "compose", "--c0", "2", "--phi", "[]", "--n", "2", "--N", "16")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["terms"] == [[4, 1.0, 0.0]]


def test_check_symbol(capsys):
    code, out, _ = run_cli(capsys, "check-symbol", "--c0", "1", "--phi", "[[1,2,0],[2,1,0]]")
    assert code == 0
    obj = json.loads(out)
    assert obj["theorem1"]["verdict"] == "CertifiedYes"
    code, out, _ = run_cli(capsys, "check-symbol", "--c0", "0", "--phi", "[[1,1,0]]")
    assert json.loads(out)["theorem2"]["verdict"] == "CertifiedYes"


def test_lemma2_csv(capsys):
    code, out, _ = run_cli(
        capsys, "lemma2", "--alpha", "0", "--sigmas", "10", "--N", "1024", "--csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "sigma,S,tail,error"


def test_profile(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--c0", "2", "--phi", "[]", "--sigmas", "1", "--N", "64"
    )
    assert code == 0
    pt = json.loads(out)["profile"][0]
    assert pt["composed"] == pytest.approx(0.25)


def test_validation_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "weights", "--alpha", "-2")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "norm", "--terms", "not-json")
    assert code == 2


def test_numeric_error_exit_3(capsys):
    # kernel at a divergent abscissa pair
    code, _, err = run_cli(
        capsys, "kernel", "--alpha", "0", "--s-re", "0.4", "--w-re", "0.5", "--N", "16"
    )
    assert code == 3 and "numeric" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--s-re", "1", "--w-re", "1", "--N", "0"],
        ["classify", "--c0", "1", "--phi", "[[1,1,0]]", "--N", "0"],
        ["lemma2", "--N", "0"],
        ["norm", "--terms", "[[1,1,0],[2,1,0]]", "--p", "nan"],
        ["weights", "--nmax", "-1"],
        ["weights", "--n", "0"],
        ["compose", "--n", "0"],
        ["weights", "--alpha", "nan"],
        ["kernel", "--s-re", "nan", "--w-re", "1"],
        ["kernel", "--s-re", "1", "--w-re", "1", "--w-im", "inf"],
        ["lemma2", "--alpha", "nan", "--csv", "--sigmas", "4", "--N", "10"],
        ["check-symbol", "--c0", "0", "--phi", "[[1,1,0]]", "--eta", "nan"],
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "usage:" in err and "Traceback" not in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["compose", "--c0", "1", "--phi", "5"], 2),
        (["classify", "--symbol-json", '{"c0":1,"phi":5}'], 2),
        (["weights", "--measure-json", '{"type":"density"}'], 2),
        (["profile", "--c0", "1", "--phi", "[[1,1e308,0],[2,1e308,0]]"], 3),
        (["weights", "--measure-json", '{"type":"alpha","alpha":Infinity}'], 2),
        (["classify", "--c0", "1", "--phi", "[[1,1,0],[2,1e309,0]]", "--N", "16"], 2),
    ],
)
def test_bad_inputs_exit_cleanly(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    if out:
        json.loads(out, parse_constant=_reject_constant)


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_determinism(capsys):
    args = [
        "classify",
        "--c0",
        "1",
        "--phi",
        "[[1,0.2,0],[2,0.1,0]]",
        "--alpha",
        "0",
        "--N",
        "16",
        "--seed",
        "7",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
