import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


SAMPLED_JSON = json.dumps({"type": "density", "samples": [[0, 0], [0.5, 1], [1, 1], [1.5, 0]]})


def test_weights_nmax_is_one_vector_call(capsys, monkeypatch):
    from dirspaces.measures import AlphaMeasure, Measure, measure_from_json

    calls = []
    for name in ("weight", "weights"):
        fn = getattr(Measure, name)
        monkeypatch.setattr(
            Measure, name, lambda self, n, fn=fn, name=name: calls.append(name) or fn(self, n)
        )
    code, out, _ = run_cli(capsys, "weights", "--measure-json", SAMPLED_JSON, "--nmax", "300")
    assert code == 0 and calls == ["weights"]
    mu = measure_from_json(json.loads(SAMPLED_JSON))
    assert json.loads(out)["weights"] == [[n, mu.weight(n)] for n in range(1, 301)]
    calls.clear()
    code, out, _ = run_cli(capsys, "weights", "--measure-json", SAMPLED_JSON, "--n", "7")
    assert code == 0 and calls == ["weight"]
    assert json.loads(out)["weights"] == [[7, mu.weight(7)]]
    # alpha measures print what the per-index loop printed, byte for byte
    code, out, _ = run_cli(capsys, "weights", "--alpha", "1.5", "--nmax", "40")
    per_index = [[n, AlphaMeasure(1.5).weight(n)] for n in range(1, 41)]
    assert out == json.dumps({"measure": "alpha(1.5)", "weights": per_index}, sort_keys=True) + "\n"


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


def test_compose_basis_past_n_at_c0_zero(capsys):
    argv = ["compose", "--c0", "0", "--phi", "[[1,1,0],[2,0.5,0]]", "--n", "100", "--N", "64"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [t[0] for t in json.loads(out)["result"]["terms"]] == [1, 2, 4, 8, 16, 32, 64]


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
        # theorem 2 needs only some eta > 0: there is no margin to set
        ["check-symbol", "--c0", "0", "--phi", "[[1,1,0]]", "--eta", "1e-6"],
        # profile reads no measure
        ["profile", "--c0", "2", "--phi", "[]", "--alpha", "0"],
        ["profile", "--c0", "2", "--phi", "[]", "--measure-json", '{"type":"beta"}'],
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "usage:" in err and "Traceback" not in err


_PHI_03 = ["--c0", "1", "--phi", "[[1,1,0],[2,0.3,0]]"]
_SAMPLED = '{"type":"density","samples":[[0,0],[0.5,1],[1,1],[1.5,0]]}'
_ODD = "1000000000001"


@pytest.mark.parametrize(
    "argv, expected",
    [
        # even p: the convolution power f^{p/2} is refused before it is formed
        (["norm", "--space", "h", "--terms", "[[1,1,0],[2,0.5,0]]", "--p", "1e12"], 2),
        (["norm", "--space", "h", "--terms", "[[1,1,0],[2,0.5,0]]", "--p", "1e300"], 2),
        (["norm", "--space", "a", "--terms", "[[1,1,0],[2,0.5,0]]", "--p", "1e300"], 2),
        (["profile", *_PHI_03, "--p", "1e300"], 2),
        (["classify", *_PHI_03, "--p", "1e300"], 2),
        # a constant's norm is its modulus: no power of it is formed
        (["norm", "--space", "h", "--terms", "[[1,1,0]]", "--p", "2e6"], 0),
        (["norm", "--space", "a", "--terms", "[[1,1,0]]", "--p", "2e8"], 0),
        # odd p: |f|^p overflows on the first torus grid of every sigma-node
        (["norm", "--terms", "[[1,1,0],[2,0.5,0]]", "--measure-json", _SAMPLED, "--p", "1e12"], 2),
        (["norm", "--terms", "[[1,1,0],[2,0.5,0]]", "--measure-json", _SAMPLED, "--p", _ODD], 3),
    ],
)
def test_huge_p_ends_quickly(argv, expected):
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "dirspaces.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert time.perf_counter() - start < 5.0
    assert run.returncode == expected
    if expected:
        assert run.stdout == "" and "Traceback" not in run.stderr
        assert len(run.stderr.splitlines()) == 1
    else:
        assert json.loads(run.stdout)["value"] == 1.0 and run.stderr == ""


@pytest.mark.parametrize("space", ["h", "a"])
@pytest.mark.parametrize("p", ["3", "4001", "262144"])
def test_one_term_norm_prints_its_modulus(capsys, space, p):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "norm", "--space", space, "--terms", "[[1,0.7,0]]", "--p", p)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["value"] == 0.7


_LATE_BUMP = '{"type":"density","samples":[[1,0],[1.5,2],[2,0]]}'
_LATE_10 = '{"type":"density","samples":[[10,0],[10.25,4],[10.5,0]]}'


@pytest.mark.parametrize(
    "argv, message",
    [
        # 1/w(n) >= n^2: the sum diverges for Re s + Re w <= 3
        (["--measure-json", _LATE_BUMP, "--s-re", "1", "--w-re", "1", "--N", "256"], "abscissa 3.0"),
        # just right of the abscissa, quad does not converge on the tail
        (["--measure-json", _LATE_BUMP, "--s-re", "1.5", "--w-re", "1.52"], "did not converge"),
        (["--measure-json", _SAMPLED, "--s-re", "0.5", "--w-re", "0.52"], "did not converge"),
        # supported from sigma = 10: w(x) underflows where quad evaluates the tail
        (["--measure-json", _LATE_10, "--s-re", "10.5", "--w-re", "10.51"], "underflows"),
    ],
)
def test_density_kernel_without_a_bound_exits_3(argv, message):
    run = subprocess.run(
        [sys.executable, "-m", "dirspaces.cli", "kernel", *argv], capture_output=True, text=True
    )
    assert run.returncode == 3 and run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("numeric error:") and message in run.stderr


@pytest.mark.parametrize("space", ["h", "a"])
@pytest.mark.parametrize("p", ["2", "3"])
def test_norm_of_a_tiny_polynomial(capsys, space, p):
    # |1e-200 + 3e-201 2^{-s}|^2 underflows; every norm lies between the
    # constant term and the sum of the moduli
    code, out, _ = run_cli(
        capsys, "norm", "--space", space, "--p", p, "--terms", "[[1,1e-200,0],[2,3e-201,0]]"
    )
    assert code == 0
    assert 1.0e-200 < json.loads(out)["value"] < 1.3e-200


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
        # a weight underflows; the section of C_Phi overflows
        (["weights", "--alpha", "1e308", "--nmax", "3"], 3),
        (["kernel", "--s-re", "1", "--w-re", "1", "--alpha", "1e300"], 3),
        (["classify", "--c0", "1", "--phi", "[[1,1e300,0],[2,1e300,0]]", "--N", "16"], 3),
        # sampled densities: sigmas decreasing or unsorted, sigma_0 < 0, non-finite or
        # negative values, no mass, mass 2, too many nodes
        (["weights", "--measure-json", '{"type":"density","samples":[[1,0],[0,2]]}'], 2),
        (["weights", "--measure-json", '{"type":"density","samples":[[0,1],[2,0],[1,1]]}'], 2),
        (["weights", "--measure-json", '{"type":"density","samples":[[-1,0.5],[1,0.5]]}'], 2),
        (["weights", "--measure-json", '{"type":"density","samples":[[0,NaN],[1,2]]}'], 2),
        (["weights", "--measure-json", '{"type":"density","samples":[[0,1],[Infinity,1]]}'], 2),
        (["weights", "--measure-json", '{"type":"density","samples":[[0,3],[1,-1]]}'], 2),
        (["weights", "--measure-json", '{"type":"density","samples":[[0,0],[1,0]]}'], 2),
        (["weights", "--measure-json", '{"type":"density","samples":[[0,1],[1,1],[2,1]]}'], 2),
        (
            [
                "weights",
                "--measure-json",
                '{"type":"density","samples":[[0,2],[1,0]],"quadrature":{"tol":NaN}}',
            ],
            2,
        ),
        (
            [
                "weights",
                "--measure-json",
                '{"type":"density","samples":[[0,2],[1,0]],"quadrature":{"nodes":4096}}',
            ],
            2,
        ),
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
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# Zero, subnormal, tiny, moderate and huge moduli, either sign.
_COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, 5e-324, -1e-300, 1e-12, 1e300, -1e300]),
    st.floats(-2.0, 2.0),
)
_TERMS = st.lists(
    st.tuples(st.integers(1, 64), _COEFFICIENTS, _COEFFICIENTS), min_size=1, max_size=4
)
_P = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0]), st.floats(1.0, 6.0))


def _strict_json(text):
    json.loads(text, parse_constant=_reject_constant)


def _assert_clean_exit(argv, check_output=_strict_json):
    """Exit 0 with strict JSON (or what `check_output` accepts) on stdout,
    or 2 or 3 with nothing on it, and never a traceback or a warning.  Past
    argument parsing, stderr holds at most one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse has printed its usage
                code = exc.code
            else:
                assert len(err.getvalue().splitlines()) <= 1
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 0:
        check_output(out.getvalue())
    else:
        assert out.getvalue() == ""


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(["h", "a"]), _TERMS, _P)
def test_norm_cli_fuzz(space, terms, p):
    _assert_clean_exit(["norm", "--space", space, "--terms", json.dumps(terms), "--p", repr(p)])


# Invalid, moderate and huge alpha: past about 1.3e3 the weight of 2 underflows.
_ALPHA = st.one_of(st.sampled_from([-2.0, -0.5, 0.0, 1e3, 1e300, 1e308]), st.floats(-0.99, 50.0))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_ALPHA, st.integers(1, 16))
def test_weights_cli_fuzz(alpha, nmax):
    _assert_clean_exit(["weights", "--alpha", repr(alpha), "--nmax", str(nmax)])


def _sampled_late(sigma0, width, box):
    """A box, or a triangle rising from zero, of mass 1 on [sigma0, sigma0 + width]."""
    if box:
        samples = [[sigma0, 1.0 / width], [sigma0 + width, 1.0 / width]]
    else:
        samples = [[sigma0, 0.0], [sigma0 + width / 2, 2.0 / width], [sigma0 + width, 0.0]]
    return ["--measure-json", json.dumps({"type": "density", "samples": samples})]


# Alpha measures, and sampled densities whose support starts at sigma_0 > 0,
# where the kernel sum has the abscissa 1 + 2 sigma_0.
_KERNEL_MEASURE = st.one_of(
    _ALPHA.map(lambda alpha: ["--alpha", repr(alpha)]),
    st.builds(
        _sampled_late, st.floats(0.01, 10.0), st.sampled_from([0.5, 1.0, 2.0]), st.booleans()
    ),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_KERNEL_MEASURE, st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.integers(1, 64))
def test_kernel_cli_fuzz(measure, s_re, w_re, N):
    argv = ["kernel", *measure, "--s-re", repr(s_re), "--w-re", repr(w_re)]
    _assert_clean_exit(argv + ["--N", str(N)])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2), _TERMS.map(lambda ts: [[n % 8 + 1, re, im] for n, re, im in ts]), _ALPHA)
def test_classify_cli_fuzz(c0, phi, alpha):
    argv = ["classify", "--c0", str(c0), "--phi", json.dumps(phi), "--alpha", repr(alpha)]
    _assert_clean_exit(argv + ["--N", "16"])


# Symbol tails with huge coefficients, up to the largest finite doubles.
_PHI = st.lists(
    st.tuples(
        st.integers(1, 8),
        st.one_of(st.sampled_from([1e300, -1e300, 1e308]), st.floats(-1.0, 1.0)),
        st.one_of(st.sampled_from([0.0, -1e308]), st.floats(-1.0, 1.0)),
    ),
    min_size=1,
    max_size=3,
)
_SIGMAS = st.lists(st.floats(-1.0, 12.0), min_size=1, max_size=3).map(
    lambda xs: ",".join(repr(x) for x in xs)
)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 3), _PHI, st.integers(1, 80), st.integers(1, 128))
def test_compose_n_cli_fuzz(c0, phi, n, N):
    argv = ["compose", "--c0", str(c0), "--phi", json.dumps(phi), "--n", str(n)]
    _assert_clean_exit(argv + ["--N", str(N)])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 3), _PHI, _TERMS, st.integers(1, 128))
def test_compose_terms_cli_fuzz(c0, phi, terms, N):
    argv = ["compose", "--c0", str(c0), "--phi", json.dumps(phi), "--terms", json.dumps(terms)]
    _assert_clean_exit(argv + ["--N", str(N)])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 3), _PHI)
def test_check_symbol_cli_fuzz(c0, phi):
    _assert_clean_exit(["check-symbol", "--c0", str(c0), "--phi", json.dumps(phi)])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_ALPHA, _SIGMAS, st.integers(1, 200))
def test_lemma2_cli_fuzz(alpha, sigmas, N):
    _assert_clean_exit(["lemma2", "--alpha", repr(alpha), "--sigmas", sigmas, "--N", str(N)])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2), _PHI, _SIGMAS, st.sampled_from([1.0, 2.0, 3.0, 4.0]))
def test_profile_cli_fuzz(c0, phi, sigmas, p):
    argv = ["profile", "--c0", str(c0), "--phi", json.dumps(phi)]
    _assert_clean_exit(argv + ["--sigmas", sigmas, "--p", repr(p), "--N", "32"])


def _finite_cells(cells):
    assert all(math.isfinite(float(cell)) for cell in cells)


def _profile_csv(text):
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["sigma", "two_pow", "composed"]
    for row in rows:
        _finite_cells(row)


def _lemma2_csv(text):
    # a divergent row has empty S and tail cells and says why in its last cell
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["sigma", "S", "tail", "error"]
    for sigma, value, tail, error in rows:
        _finite_cells([sigma])
        if error:
            assert value == tail == ""
        else:
            _finite_cells([value, tail])


# As _SIGMAS, with non-finite entries too.
_CSV_SIGMAS = st.lists(
    st.one_of(st.floats(-1.0, 12.0), st.sampled_from([math.nan, math.inf, -math.inf])),
    min_size=1,
    max_size=3,
).map(lambda xs: ",".join(repr(x) for x in xs))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_ALPHA, _CSV_SIGMAS, st.integers(1, 200))
def test_lemma2_csv_cli_fuzz(alpha, sigmas, N):
    argv = ["lemma2", "--alpha", repr(alpha), "--sigmas", sigmas, "--N", str(N), "--csv"]
    _assert_clean_exit(argv, _lemma2_csv)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2), _PHI, _CSV_SIGMAS, st.sampled_from([1.0, 2.0, 3.0, 4.0]))
def test_profile_csv_cli_fuzz(c0, phi, sigmas, p):
    argv = ["profile", "--c0", str(c0), "--phi", json.dumps(phi)]
    argv += ["--sigmas", sigmas, "--p", repr(p), "--N", "32", "--csv"]
    _assert_clean_exit(argv, _profile_csv)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--c0", "1", "--phi", "[[1,1e300,0],[2,1e300,0]]", "--N", "16"],
        ["compose", "--c0", "1", "--phi", "[[1,1e300,0],[2,1e300,0]]"],
        ["compose", "--c0", "0", "--phi", "[[1,1e300,0],[3,1e300,0]]", "--n", "5", "--N", "64"],
        ["profile", "--c0", "1", "--phi", "[[1,1e300,0],[2,1e300,0]]"],
    ],
)
def test_overflow_prints_one_error_line(argv):
    # numpy's overflow warnings stay off stderr; the finiteness checks decide exit 3
    run = subprocess.run(
        [sys.executable, "-m", "dirspaces.cli", *argv], capture_output=True, text=True
    )
    assert run.returncode == 3 and run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("numeric error:") and "Warning" not in run.stderr
