import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirspaces as d
from dirspaces import InvalidInputError, TruncationError, compose, series, symbol
from dirspaces.compose import admissibility_certificate

from conftest import GALLERY, random_polynomial


# ---------- compose_basis ----------


def test_compose_basis_translation():
    g = d.compose_basis(symbol(1, 2j), 3, 16)
    expected = 3.0**-2j
    assert g.coeff(3) == pytest.approx(expected)
    assert np.count_nonzero(g.coeffs) == 1


def test_compose_basis_dilation():
    g = d.compose_basis(symbol(2, {}), 2, 16)
    assert g.coeff(4) == 1.0
    assert np.count_nonzero(g.coeffs) == 1


def test_compose_basis_identity_index():
    g = d.compose_basis(symbol(3, {1: 1.0, 2: 0.5}), 1, 8)
    assert g.coeff(1) == 1.0 and np.count_nonzero(g.coeffs) == 1


def test_compose_basis_exponential_coefficients():
    c = 0.5
    sym = symbol(1, {2: c})
    g = d.compose_basis(sym, 2, 64)
    # 2^{-Phi(s)} = 2^{-s} exp(-c log 2 2^{-s}): coefficient at 2 * 2^m
    for m in range(4):
        expected = (-c * math.log(2)) ** m / math.factorial(m)
        assert g.coeff(2 * 2**m) == pytest.approx(expected)


def test_compose_basis_pointwise_oracle():
    sym = symbol(1, {1: 0.0, 2: 0.5})
    for n in (2, 3, 6):
        g = d.compose_basis(sym, n, 512)
        for s in (3.0, 4.0, 5.0 + 1j):
            direct = np.exp(-complex(sym(s)) * math.log(n))
            assert d.evaluate(g, s) == pytest.approx(direct, abs=1e-8)


def test_compose_basis_multiplicative():
    sym = symbol(1, {1: 0.5, 2: 0.25, 3: -0.125})
    N = 128
    for m, n in ((2, 3), (2, 4), (3, 4), (2, 2)):
        lhs = d.compose_basis(sym, m * n, N)
        rhs = d.multiply(d.compose_basis(sym, m, N), d.compose_basis(sym, n, N), N)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_compose_basis_truncation_error():
    with pytest.raises(TruncationError):
        d.compose_basis(symbol(2, {}), 9, 64)  # 81 > 64
    d.compose_basis(symbol(2, {}), 8, 64)  # 64 <= 64 is fine


def test_compose_basis_batch_truncation_error():
    with pytest.raises(TruncationError):
        d.compose_basis(symbol(2, {}), [1, 2, 9, 3], 64)  # 81 > 64
    rows, cols, _ = d.compose_basis(symbol(2, {}), [1, 8], 64)
    assert rows.tolist() == [1, 64] and cols.tolist() == [0, 1]


def test_compose_basis_at_c0_zero_takes_any_index():
    # n^{0} = 1 <= N for every n, so indices past N still have an image
    sym = symbol(0, {1: 1 + 0.5j, 2: 0.2})
    logn = math.log(100)
    psi = d.from_terms({2: -logn * 0.2}, 64)
    ref = np.exp(-(1 + 0.5j) * logn) * d.exp_series(psi, 64).coeffs
    got = d.compose_basis(sym, 100, 64).coeffs
    assert np.count_nonzero(ref) == 7
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
    rows, cols, _ = d.compose_basis(sym, [3, 100, 65], 64)
    assert set(cols.tolist()) == {0, 1, 2} and rows.max() <= 64


def test_compose_basis_huge_c0_is_quick():
    # 2^{c0} is never formed: the column count compares bit lengths first
    sym = symbol(10**9, {1: 1.0})
    assert compose._section_columns(sym, 1024) == (1,)
    with pytest.raises(TruncationError):
        d.compose_basis(sym, 2, 1024)


def test_huge_c0_section_equals_c0_1000(alpha1):
    # the blocks are keyed by r(n), so r(n)^{c0} is never formed
    huge, large = symbol(2**70, {1: 1.0}), symbol(1000, {1: 1.0})
    for sym in (huge, large):
        assert d.isometry_defect(sym, alpha1, 16, require_admissible=False) == d.isometry_defect(
            large, alpha1, 16, require_admissible=False
        )
        assert d.contraction_lower_bound(sym, alpha1, 16, require_admissible=False) == 1.0


def test_column_count_is_exact():
    for c0 in range(6):
        for N in list(range(1, 300)) + [2**40, 3**25 - 1, 3**25, 10**18]:
            k = compose._column_count(c0, N)
            assert k**c0 <= N if c0 else k == N
            if c0:
                assert (k + 1) ** c0 > N


_TAIL = st.dictionaries(
    st.integers(2, 12),
    st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
    max_size=3,
)


@pytest.mark.parametrize("c0", [0, 1, 2, 3])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    c1=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    tail=_TAIL,
    N=st.integers(2, 512),
)
def test_batched_columns_equal_scalar_calls(c0, c1, tail, N):
    # One exp pass for every column gives, bit for bit, the scalar call.
    sym = symbol(c0, {1: c1, **tail})
    ns = compose._section_columns(sym, N)
    if c0 == 0:  # every index has an image, those past N too
        ns += (N + 1, 3 * N + 2)
    rows, cols, values = d.compose_basis(sym, ns, N)
    assert np.all(np.diff(cols) >= 0)
    for j, n in enumerate(ns):
        column = np.zeros(N, dtype=np.complex128)
        column[rows[cols == j] - 1] = values[cols == j]
        assert column.tobytes() == d.compose_basis(sym, n, N).coeffs.tobytes()


def test_operator_matrix_runs_one_exp_pass(monkeypatch, alpha1):
    calls = {"compose_basis": 0, "exp": 0}
    compose_basis, exp = compose.compose_basis, series.exp

    def counted_compose(*args, **kwargs):
        calls["compose_basis"] += 1
        return compose_basis(*args, **kwargs)

    def counted_exp(*args, **kwargs):
        calls["exp"] += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(compose, "compose_basis", counted_compose)
    monkeypatch.setattr(series, "exp", counted_exp)
    m = d.operator_matrix(symbol(1, {1: 1.0, 2: 0.2, 3: 0.1}), alpha1, 256)
    assert len(m.ns) == 256
    assert calls == {"compose_basis": 1, "exp": 1}


# ---------- apply ----------


def test_apply_is_the_sum_of_basis_images():
    sym = symbol(1, {1: 0.5 + 1j, 2: 0.25, 6: -0.1j})
    f = d.from_terms({1: 2.0, 2: -1j, 5: 0.5, 12: 0.3 + 0.2j}, 12)
    N = 200
    ref = np.zeros(N, dtype=np.complex128)
    for n in (1, 2, 5, 12):
        ref += f.coeff(n) * d.compose_basis(sym, n, N).coeffs
    assert np.allclose(d.apply(sym, f, N).coeffs, ref, rtol=0, atol=1e-15)


def test_apply_at_c0_zero_takes_terms_past_the_truncation():
    sym = symbol(0, {1: 1 + 0.5j, 2: 0.2})
    f = d.from_terms({1: 1.0, 70: 0.5, 100: -0.2j}, 100)
    ref = sum(f.coeff(n) * d.compose_basis(sym, n, 64).coeffs for n in (1, 70, 100))
    assert np.allclose(d.apply(sym, f, 64).coeffs, ref, rtol=0, atol=1e-15)


def test_apply_constant_fixed():
    for sym in GALLERY:
        out = d.apply(sym, d.from_terms({1: 1.0}, 8), 8)
        assert out.coeff(1) == pytest.approx(1.0)
        assert np.count_nonzero(out.coeffs) == 1


def test_apply_vertical_translation_rotates_coefficients():
    tau = 1.7
    sym = symbol(1, complex(0, tau))
    f = d.from_terms({1: 1.0, 2: 2.0, 5: -1j}, 8)
    out = d.apply(sym, f, 8)
    for n in (1, 2, 5):
        assert out.coeff(n) == pytest.approx(f.coeff(n) * n ** complex(0, -tau))


def test_apply_pointwise_oracle():
    rng = np.random.default_rng(23)
    sym = symbol(1, {1: 0.5, 2: 0.25})
    for _ in range(5):
        f = random_polynomial(rng, 8)
        out = d.apply(sym, f, 256)
        s = 4.0 + 0.3j
        assert d.evaluate(out, s) == pytest.approx(d.evaluate(f, sym(s)), abs=1e-6)


# ---------- operator matrix / gram ----------


def test_matrix_vertical_translation_diagonal(alpha0):
    m = d.operator_matrix(symbol(1, 2j), alpha0, 16)
    assert m.ns == tuple(range(1, 17))
    off = m.entries - np.diag(np.diag(m.entries))
    assert not np.any(off)
    assert np.allclose(np.abs(np.diag(m.entries)), 1.0)


def test_matrix_dilation_entry(alpha0):
    m = d.operator_matrix(symbol(2, {}), alpha0, 8)
    assert m.ns == (1, 2)
    w2 = 1 / (1 + math.log(2))
    w4 = 1 / (1 + math.log(4))
    assert m.entries[3, 1] == pytest.approx(math.sqrt(w4 / w2))
    assert m.entries[3, 1].real == pytest.approx(0.8423, abs=1e-4)
    col = m.entries[:, 1].copy()
    col[3] = 0
    assert not np.any(col)


def test_matrix_column_norms_contraction(alpha0):
    for sym in GALLERY:
        m = d.operator_matrix(sym, alpha0, 32, require_admissible=False)
        assert np.all(m.column_norms() <= 1.0 + 1e-12)


def test_matrix_requires_admissible(alpha0):
    with pytest.raises(InvalidInputError):
        d.operator_matrix(symbol(1, -1.0), alpha0, 8)
    m = d.operator_matrix(symbol(1, -1.0), alpha0, 8, require_admissible=False)
    assert m.entries.shape[0] == 8


def test_entries_are_the_scatter_of_the_triplets(alpha1):
    # The dense section is built on demand; it is, bit for bit, the weighted
    # compose_basis triplets scattered into an (N, n_cols) array.
    rng = np.random.default_rng(4)
    sqw = np.sqrt(alpha1.weights(200))
    for c0 in (0, 1, 2, 3):
        for _ in range(3):
            sym, N = random_symbol(rng, c0), int(rng.integers(2, 200))
            m = d.operator_matrix(sym, alpha1, N, require_admissible=False)
            rows, cols, values = d.compose_basis(sym, m.ns, N)
            dense = np.zeros((N, len(m.ns)), dtype=np.complex128)
            dense[rows - 1, cols] = values * sqw[rows - 1] / sqw[cols]
            assert m.entries.tobytes() == dense.tobytes()


def test_section_arrays_are_read_only(alpha0):
    sym = symbol(1, {1: 1.0, 2: 0.3})
    m = d.operator_matrix(sym, alpha0, 8)
    ref = d.operator_matrix(sym, alpha0, 8)
    for a in (m.rows, m.cols, m.values, m.entries):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        m.entries[0, 0] = 100.0
    with pytest.raises(ValueError):
        m.values[0] = 100.0
    assert m.column_norms()[0] == ref.column_norms()[0] == 1.0
    assert d.gram(m).tobytes() == d.gram(ref).tobytes()


def test_admissibility_certificate_routes():
    assert admissibility_certificate(symbol(1, 2j)).verdict is d.Verdict.CERTIFIED_YES
    assert admissibility_certificate(symbol(0, 1.0)).verdict is d.Verdict.CERTIFIED_YES
    assert admissibility_certificate(symbol(0, 0.3)).verdict is d.Verdict.CERTIFIED_NO


def test_both_theorems_refute_at_their_floor_less_1e12():
    # a constant phi has Re phi = Re c1 at every grid point; theorem 1
    # refuted only below -1e-12 while theorem 2 refuted at 1/2 - 1e-12
    for sym, floor in ((symbol(1, -1e-12), 0.0), (symbol(0, 0.5 - 1e-12), 0.5)):
        cert = admissibility_certificate(sym)
        assert cert.verdict is d.Verdict.CERTIFIED_NO and cert.method == "grid-witness"
        assert cert.margin == floor - sym.c1.real


def test_gram_identity_for_translation(alpha0):
    g = d.gram(d.operator_matrix(symbol(1, 5j), alpha0, 16))
    assert np.allclose(g, np.eye(16), atol=1e-14)


def test_gram_dilation_diagonal(alpha0):
    g = d.gram(d.operator_matrix(symbol(2, {}), alpha0, 8))
    expected = (1 + math.log(2)) / (1 + 2 * math.log(2))
    assert g[1, 1] == pytest.approx(expected)
    assert g[1, 1].real == pytest.approx(0.7095, abs=1e-4)


def test_gram_hermitian_psd(alpha0):
    for sym in GALLERY:
        g = d.gram(d.operator_matrix(sym, alpha0, 32, require_admissible=False))
        assert np.max(np.abs(g - g.conj().T)) == 0.0
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-10


# ---------- defect / contraction bound ----------


def test_defect_vertical_translations(alpha0, alpha1):
    for mu in (alpha0, alpha1):
        for tau in (0.0, 1.0, -1.0, 10.0, -10.0):
            rep = d.isometry_defect(symbol(1, complex(0, tau)), mu, 64)
            assert rep.value <= 1e-12


def test_defect_dilation_lower_bound(alpha0):
    rep = d.isometry_defect(symbol(2, {}), alpha0, 8)
    assert rep.value >= 1 - 0.7095 - 1e-4  # from the n=2 Gram diagonal


def test_defect_translation_by_constant(alpha0):
    rep = d.isometry_defect(symbol(1, 1.0), alpha0, 16)
    assert rep.value > 0.5  # every nonconstant basis norm shrinks


C0_ZERO = [symbol(0, 1.0), symbol(0, {1: 1.0, 2: 0.25}), symbol(0, {1: 2.0, 3: 0.5j})]


def _gram_route_defect(sym, mu, N):
    g = d.gram(d.operator_matrix(sym, mu, N, require_admissible=False))
    return np.linalg.norm(g - np.eye(g.shape[0]), ord=2)


@pytest.mark.parametrize(
    "sym", GALLERY + C0_ZERO, ids=lambda sym: f"c0={sym.c0},phi={sym.phi.coeffs.tolist()}"
)
@pytest.mark.parametrize("N", [16, 33, 64])
def test_defect_matches_gram_route(sym, N, alpha0, alpha1):
    for mu in (alpha0, alpha1):
        rep = d.isometry_defect(sym, mu, N, require_admissible=False)
        assert rep.value == pytest.approx(_gram_route_defect(sym, mu, N), rel=1e-12)
        assert rep.value_half == pytest.approx(_gram_route_defect(sym, mu, N // 2), rel=1e-12)
        assert rep.s_max == d.contraction_lower_bound(sym, mu, N, require_admissible=False)


def random_symbol(rng, c0, kmax=12):
    """c0 s + c1 + sum of 1-4 terms c_k k^{-s} with distinct k in [2, kmax]."""
    terms = {1: complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))}
    for k in rng.choice(np.arange(2, kmax + 1), size=rng.integers(1, 5), replace=False):
        terms[int(k)] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    return symbol(c0, terms)


def _close(value, ref):
    return abs(value - ref) <= (1e-14 if ref < 1e-2 else 1e-12 * ref)


def _spectrum_symbols(c0, N):
    """Random symbols, plus the sections whose blocks are all vectors: a
    vertical translation (every block 1 x 1) and, at c0 = 0, a constant
    (one block of one row and N columns)."""
    rng = np.random.default_rng(100 * c0 + N)
    syms = [random_symbol(rng, c0) for _ in range(3)]
    if c0 == 1:
        syms.append(symbol(1, complex(0.0, rng.uniform(-4.0, 4.0))))
    if c0 == 0:
        syms.append(symbol(0, complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))))
    return syms


@pytest.mark.parametrize("c0", [0, 1, 2, 3])
@pytest.mark.parametrize("N", [16, 33, 64, 128])
def test_block_spectrum_matches_dense_svd(c0, N, alpha0, alpha1):
    for sym in _spectrum_symbols(c0, N):
        for mu in (alpha0, alpha1):
            m = d.operator_matrix(sym, mu, N, require_admissible=False)
            if c0 == 0:  # one block, wider than it is tall
                assert np.count_nonzero(np.abs(m.entries).sum(axis=1)) < len(m.ns) == N
            k = len(compose._section_columns(sym, N // 2))
            s = np.linalg.svd(m.entries, compute_uv=False)
            s_half = np.linalg.svd(m.entries[: N // 2, :k], compute_uv=False)
            rep = d.isometry_defect(sym, mu, N, require_admissible=False)
            assert _close(rep.value, np.max(np.abs(s * s - 1.0)))
            assert _close(rep.value_half, np.max(np.abs(s_half * s_half - 1.0)))
            assert _close(rep.s_max, s[0])
            assert rep.s_max == d.contraction_lower_bound(sym, mu, N, require_admissible=False)


def _record_eigvalsh(monkeypatch):
    """The shapes passed to np.linalg.eigvalsh; np.linalg.svd must not run."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the section spectrum takes no SVD")

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    monkeypatch.setattr(np.linalg, "svd", refused)
    return shapes


@pytest.mark.parametrize("c0", [0, 1, 2, 3])
@pytest.mark.parametrize("N", [16, 33, 64, 128])
def test_spectrum_runs_one_svd_per_block_shape(monkeypatch, c0, N, alpha1):
    # Over both truncations, one LAPACK call (an eigvalsh) for each Gram
    # size >= 3; vector blocks and Grams of two columns never reach it.
    shapes = _record_eigvalsh(monkeypatch)
    calls = 0
    for sym in _spectrum_symbols(c0, N):
        shapes.clear()
        d.isometry_defect(sym, alpha1, N, require_admissible=False)
        sides = [shape[-2:] for shape in shapes]
        assert len(set(sides)) == len(sides)
        assert all(a == b >= 3 for a, b in sides)
        if sym.phi.degree == 1:  # a translation or a c0 = 0 constant: vectors only
            assert shapes == []
        calls += len(shapes)
    if c0 <= 1 and N >= 64:
        assert calls  # the Grams of three or more columns do reach it


@pytest.mark.parametrize("c0", [0, 1, 2, 3])
def test_section_is_block_diagonal(c0, alpha1):
    # Column n only meets rows m with r(m) = r(n)^{c0}.
    rng = np.random.default_rng(c0)
    N = 96
    for _ in range(4):
        sym = random_symbol(rng, c0)
        m = d.operator_matrix(sym, alpha1, N, require_admissible=False)
        r = compose._coprime_part(sym, N)
        rows, cols = np.nonzero(m.entries)
        assert rows.size
        assert np.array_equal(r[rows], r[np.asarray(m.ns)[cols] - 1] ** c0)


def test_spectrum_takes_small_blocks(monkeypatch, alpha0):
    # phi = 1 + 0.2 3^{-s}: the blocks are the chains u 3^j (3 not dividing
    # u), the longest being 1, 3, ..., 243; no eigvalsh sees the whole
    # section, and none sees a Gram of fewer than three columns.
    shapes = _record_eigvalsh(monkeypatch)
    d.isometry_defect(symbol(1, {1: 1.0, 3: 0.2}), alpha0, 256)
    assert shapes and all(3 <= shape[-1] <= 6 for shape in shapes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    c0=st.integers(0, 3),
    # Re c1 = 800 leaves every column n >= 3 empty: n^{-800} underflows
    c1=st.builds(complex, st.one_of(st.floats(0.05, 3.0), st.just(800.0)), st.floats(-3.0, 3.0)),
    tail=_TAIL,
    N=st.integers(4, 256),
    mu=st.sampled_from([None, d.AlphaMeasure(0.0), d.AlphaMeasure(1.0)]),
)
def test_gram_spectra_match_the_dense_svd(c0, c1, tail, N, mu):
    # Every eigenvalue of G, against the squared singular values of the
    # dense section padded with zeros to one per column.  The tolerance is
    # 1e-14 max(1, lambda_max): each side is backward stable, and on such
    # sections an SVD taken block by block is up to 15 ulps of
    # max(1, lambda_max) away from the dense one.
    sym = symbol(c0, {1: c1, **tail})
    m = d.operator_matrix(sym, mu, N, require_admissible=False)
    sizes = [(N, len(m.ns)), (N // 2, compose._column_count(c0, N // 2))]
    for (lam, s_max), (R, C) in zip(compose._section_spectra(m, sym, sizes), sizes):
        s = np.linalg.svd(m.entries[:R, :C], compute_uv=False)
        ref = np.sort(np.concatenate([s * s, np.zeros(C - s.size)]))
        assert lam.size == C
        assert np.max(np.abs(np.sort(lam) - ref)) <= 1e-14 * max(1.0, ref[-1])
        assert abs(s_max - s[0]) <= 1e-14 * max(1.0, s[0])


def test_empty_columns_are_zero_singular_values(alpha0):
    # n^{-800} underflows for n >= 3, so 62 of the 64 columns have no entry;
    # each still adds its zero singular value, as in the dense SVD.
    sym = symbol(1, {1: 800.0, 2: 0.1})
    m = d.operator_matrix(sym, alpha0, 64)
    assert np.count_nonzero(np.abs(m.entries).sum(axis=0)) == 2
    s = np.linalg.svd(m.entries, compute_uv=False)
    s_half = np.linalg.svd(m.entries[:32, :32], compute_uv=False)
    rep = d.isometry_defect(sym, alpha0, 64)
    assert rep.value == np.max(np.abs(s * s - 1.0)) == 1.0
    assert rep.value_half == np.max(np.abs(s_half * s_half - 1.0)) == 1.0
    assert _close(rep.s_max, s[0])


def test_large_section_spectrum_stays_small(alpha1):
    # The dense N = 16384 section would take 4.1 GB for its 49 035 nonzeros.
    sym = symbol(1, {1: 1.0, 2: 0.2, 3: 0.1})
    tracemalloc.start()
    try:
        rep = d.isometry_defect(sym, alpha1, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert 0.99 < rep.value < 1.0 and rep.value_half < rep.value


def test_classify_builds_one_section(monkeypatch, alpha0):
    sizes = []
    build = compose.operator_matrix

    def counted(sym, mu, N, **kwargs):
        sizes.append(N)
        return build(sym, mu, N, **kwargs)

    monkeypatch.setattr(compose, "operator_matrix", counted)
    for sym in GALLERY:
        sizes.clear()
        d.classify(sym, alpha0, 32)
        assert sizes == [32]


def test_contraction_bound_translation(alpha0):
    assert d.contraction_lower_bound(symbol(1, 3j), alpha0, 16) == pytest.approx(1.0)


def test_contraction_bound_dilation(alpha0):
    b = d.contraction_lower_bound(symbol(2, {}), alpha0, 8)
    assert 0.8423 - 1e-4 <= b <= 1.0 + 1e-12


def test_contraction_bound_inadmissible_constant_exceeds_one(alpha0):
    # finite sections of C_{Phi}, Phi = 1: norm grows past 1, matching the
    # zeta(2)^{1/2} lower bound for the full operator
    b = d.contraction_lower_bound(symbol(0, 1.0), alpha0, 256, require_admissible=False)
    assert b > 1.0


def test_singular_value_oracle(alpha0):
    # explicit 2-column matrix for the dilation symbol at N = 8
    m = d.operator_matrix(symbol(2, {}), alpha0, 8)
    s_max = max(np.linalg.svd(m.entries, compute_uv=False))
    assert d.contraction_lower_bound(symbol(2, {}), alpha0, 8) == pytest.approx(s_max)

