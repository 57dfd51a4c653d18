import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import ids, operators, spectra
from gasketlab.errors import ValidationError
from gasketlab.lattice import TriangleSpec, build_ball, build_triangle, subdivide
from gasketlab.operators import (assemble, bernoulli, constant, probabilistic_laplacian,
                                 quadratic_form, sample_potential, table_cdf, uniform)


def test_constant_potential():
    region = build_triangle(2)
    values = sample_potential(region, constant(0.0))
    assert np.all(values == 0.0)
    values = sample_potential(region, constant(3.0, scale=0.5))
    assert np.all(values == 1.5)


def test_seed_and_trial_are_generator_key_words():
    # a key word is in [0, 2^64): one outside would alias another
    region = build_triangle(1)
    top = bernoulli(0.0, 1.0, 0.5, seed=2**64 - 1)
    assert len(sample_potential(region, top, 2**64 - 1)) == len(region)
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="seed"):
            bernoulli(0.0, 1.0, 0.5, seed=seed)
    for trial in (-1, 2**64, 2**64 + 1):
        for spec in (top, constant(0.0)):
            with pytest.raises(ValidationError, match="trial"):
                sample_potential(region, spec, trial)


def test_bernoulli_at_zero_or_one_is_the_atom_it_draws():
    # p = 0 draws only a and p = 1 only b: the support, and so the global
    # grid, is that one atom's, and the sample is the one drawn before
    region = build_triangle(3)
    for p, atom in ((0.0, 0.0), (1.0, 10.0)):
        spec = bernoulli(0.0, 10.0, p, seed=3)
        assert spec.support() == (atom, atom)
        assert ids.global_grid(spec, 3)[-1] == 16.0 + atom
        assert (sample_potential(region, spec, 1).tobytes()
                == np.full(len(region), atom).tobytes())


def test_bernoulli_fraction_within_binomial_bound():
    region = build_triangle(6)  # 1095 vertices
    spec = bernoulli(0.0, 10.0, 0.5, seed=11)
    values = sample_potential(region, spec)
    n = len(region)
    frac = np.mean(values == 10.0)
    assert abs(frac - 0.5) <= 3.0 * math.sqrt(0.25 / n)
    assert set(np.unique(values)) <= {0.0, 10.0}


def test_uniform_ecdf_within_dkw_band():
    region = build_triangle(6)
    values = sample_potential(region, uniform(0.0, 1.0, seed=5))
    n = len(region)
    ecdf = np.mean(values <= 0.25)
    # Dvoretzky-Kiefer-Wolfowitz at confidence 1 - 1e-6
    band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
    assert abs(ecdf - 0.25) <= band
    lo, hi = uniform(0.0, 1.0).support()
    assert values.min() >= lo and values.max() <= hi


def test_sampling_is_reproducible_and_trial_split():
    region = build_triangle(4)
    spec = uniform(0.0, 1.0, seed=42)
    a = sample_potential(region, spec, trial=0)
    b = sample_potential(region, spec, trial=0)
    c = sample_potential(region, spec, trial=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    other_seed = sample_potential(region, uniform(0.0, 1.0, seed=43))
    assert not np.array_equal(a, other_seed)


def test_table_cdf_sampling():
    region = build_triangle(6)
    spec = table_cdf([(1.0, 0.25), (2.0, 0.75), (7.0, 1.0)], seed=3)
    values = sample_potential(region, spec)
    assert set(np.unique(values)) <= {1.0, 2.0, 7.0}
    frac2 = np.mean(values == 2.0)
    assert abs(frac2 - 0.5) <= 3.0 * math.sqrt(0.25 / len(region))
    assert spec.support() == (1.0, 7.0)


def test_a_draw_above_a_tables_last_mass_takes_its_last_atom(monkeypatch):
    # a last mass within 1e-12 of 1 is accepted; the largest draw below 1
    # lies above it and takes the last atom, not an index past the table
    spec = table_cdf([(0.0, 0.5), (1.0, 0.9999999999999)])

    class Top:
        def __init__(self, bit_generator):
            pass

        def random(self, n):
            return np.full(n, np.nextafter(1.0, 0.0))

    monkeypatch.setattr(np.random, "Generator", Top)
    assert np.array_equal(sample_potential(build_triangle(1), spec), np.ones(6))


def test_table_cdf_validation():
    with pytest.raises(ValidationError):
        table_cdf([(1.0, 0.5), (2.0, 0.4), (3.0, 1.0)])
    with pytest.raises(ValidationError):
        table_cdf([(1.0, 0.5)])
    with pytest.raises(ValidationError):
        table_cdf([])


def _kind_sample(n, law, seed, trial, scale):
    """The sampler as one rule per kind of law (constant, bernoulli,
    uniform, table), the reference the atoms-or-interval rule must equal
    bit for bit."""
    kind, *params = law
    if kind == "constant":
        return np.full(n, scale * params[0])
    key = np.array([seed, trial], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(n)
    if kind == "bernoulli":
        a, b, p = params
        values = np.where(u < p, b, a)
    elif kind == "uniform":
        a, b = params
        values = a + (b - a) * u
    else:
        atoms = np.array([v for v, _ in params[0]])
        cum = np.array([c for _, c in params[0]])
        values = atoms[np.searchsorted(cum, u, side="left")]
    return scale * values


def _kind_support(law, scale):
    kind, *params = law
    if kind == "constant":
        lo = hi = params[0]
    elif kind == "bernoulli":
        a, b, p = params
        atoms = (a, b) if 0 < p < 1 else (b if p else a,)  # p 0 or 1 draws one
        lo, hi = min(atoms), max(atoms)
    elif kind == "uniform":
        lo, hi = params
    else:
        lo, hi = min(v for v, _ in params[0]), max(v for v, _ in params[0])
    return (scale * lo, scale * hi)


_VALUES = st.floats(-1e3, 1e3)
# 0 and 1, the 2^-53 grid the draws lie on, any float in [0, 1], or None:
# a tie with one of the draws, taken in the test
_PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0, None]),
                           st.integers(0, 2**53).map(lambda k: k / 2**53),
                           st.floats(0.0, 1.0))


@st.composite
def _laws(draw):
    kind = draw(st.sampled_from(["constant", "bernoulli", "uniform", "table"]))
    if kind == "constant":
        return (kind, draw(_VALUES))
    if kind == "bernoulli":
        return (kind, draw(_VALUES), draw(_VALUES), draw(_PROBABILITIES))
    if kind == "uniform":
        return (kind, *sorted(draw(st.lists(_VALUES, min_size=2, max_size=2, unique=True))))
    # the last mass is 1, or within 1e-12 of it, above the inner masses
    end = draw(st.sampled_from([1.0, 1.0 - 1e-13, 1.0 + 1e-13]))
    inner = draw(st.lists(st.floats(0.0, min(end, 1.0), exclude_min=True,
                                    exclude_max=True), min_size=end > 1, max_size=5))
    cum = [*sorted(set(inner)), end]
    values = draw(st.lists(_VALUES, min_size=len(cum), max_size=len(cum)))
    return (kind, tuple(zip(values, cum)))


@functools.lru_cache(maxsize=None)
def _region(level, ball):
    return build_ball(level) if ball else build_triangle(level)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(law=_laws(), seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 2**64 - 1),
       level=st.integers(0, 6), ball=st.booleans(), tie=st.integers(0, 2000),
       scale=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e3)))
def test_sampling_equals_the_kind_rules_bit_for_bit(law, seed, trial, level, ball,
                                                    tie, scale):
    region = _region(level, ball)
    n = len(region)
    if law[0] == "bernoulli" and law[3] is None:
        # a tie: p is one of the draws
        draws = _kind_sample(n, ("uniform", 0.0, 1.0), seed, trial, 1.0)
        law = (*law[:3], float(draws[tie % n]))
    build = {"constant": constant, "bernoulli": bernoulli, "uniform": uniform,
             "table": table_cdf}[law[0]]
    spec = build(*law[1:], seed=seed, scale=scale)
    got = sample_potential(region, spec, trial)
    assert got.tobytes() == _kind_sample(n, law, seed, trial, scale).tobytes()
    assert spec.support() == _kind_support(law, scale)


def test_assemble_small_triangle_spectra():
    region = build_triangle(0)
    zero = np.zeros(3)
    cases = {
        "neumann": [0.0, 3.0, 3.0],
        "simple": [2.0, 5.0, 5.0],
        "dirichlet": [4.0, 7.0, 7.0],
    }
    for bc, expected in cases.items():
        ham = assemble(region, bc, zero)
        assert np.allclose(spectra.eigenvalues_dense(ham), expected, atol=1e-12)
        dense = _operator_array(ham)
        assert np.array_equal(dense, dense.T)


def test_assemble_dimension_mismatch():
    with pytest.raises(ValidationError):
        assemble(build_triangle(1), "neumann", np.zeros(5))
    with pytest.raises(ValidationError):
        assemble(build_triangle(1), "free", np.zeros(6))


def test_assemble_refuses_a_non_finite_potential():
    # else the counter and the dense solve each fail in their own way
    region = build_triangle(3)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros(len(region))
        values[7] = bad
        for bc in ("simple", "neumann", "dirichlet"):
            with pytest.raises(ValidationError, match="potential"):
                assemble(region, bc, values)


def test_neumann_row_sums_equal_potential():
    region = build_triangle(3)
    values = sample_potential(region, uniform(0.0, 1.0, seed=9))
    ham = assemble(region, "neumann", values)
    assert np.allclose(_operator_array(ham) @ np.ones(len(region)), values, atol=1e-12)


def test_assembly_is_bit_identical():
    region = build_triangle(3)
    spec = bernoulli(0.0, 10.0, 0.5, seed=7)
    a = assemble(region, "simple", sample_potential(region, spec))
    b = assemble(region, "simple", sample_potential(region, spec))
    assert a.diagonal.tobytes() == b.diagonal.tobytes()
    assert np.array_equal(a.region.edges, b.region.edges)


def _bitwise_regions():
    return {"full": build_triangle(3),
            "truncated": build_triangle(TriangleSpec(3, truncated=True)),
            "mirrored": build_triangle(TriangleSpec(3, mirrored=True)),
            "half": build_triangle(3, half_lattice=True),
            "ball": build_ball(3)}


def _operator_array(ham):
    """The operator as a dense array, read off its three fields: the
    diagonal, and the coupling of row i at (i, j) for each edge."""
    array = np.diag(ham.diagonal)
    i, j = ham.region.edges.T
    couplings = ham._couplings()
    array[i, j], array[j, i] = couplings[i], couplings[j]
    return array


def _triplet_csr(region, diagonal, row_scale=None):
    """An independent CSR: COO triplets summed into CSR, exact zeros
    dropped, then each row scaled by ``row_scale``."""
    from scipy import sparse

    n = len(region)
    i, j = region.edges.T
    mat = sparse.csr_matrix(
        (np.concatenate([diagonal, np.full(2 * len(i), -1.0)]),
         (np.concatenate([np.arange(n), i, j]), np.concatenate([np.arange(n), j, i]))),
        shape=(n, n))
    mat.eliminate_zeros()
    if row_scale is not None:
        mat.data *= np.repeat(row_scale, np.diff(mat.indptr))
    return mat


@pytest.mark.parametrize("name", sorted(_bitwise_regions()))
def test_array_operator_matches_the_triplet_csr_bit_for_bit(monkeypatch, name):
    region = _bitwise_regions()[name]
    # -4 cancels the diagonal at interior sites under every boundary rule
    values = sample_potential(region, bernoulli(-4.0, 10.0, 0.5, seed=7))
    reg, full = region.region_degree, region.full_degree
    cases = [(assemble(region, bc, values), _triplet_csr(region, diag + values))
             for bc, diag in (("simple", full), ("neumann", reg),
                              ("dirichlet", 2.0 * full - reg))]
    assert all(np.any(ham.diagonal == 0.0) for ham, _ in cases)
    prob = probabilistic_laplacian(region)
    cases.append((prob, _triplet_csr(region, reg + 0.0, 1.0 / reg)))
    handed, solve = [], spectra._eigvalsh
    monkeypatch.setattr(spectra, "_eigvalsh",
                        lambda a: handed.append((a, a.tobytes())) or solve(a))
    grid = [0.31, 1.13, 4.7]
    for ham, want in cases:
        # count in the counter and on the band, and solve
        spectra.count_below(ham, grid)
        spectra.count_operators(region, lambda _: ham, 1, grid)
        spectra.eigenvalues_dense(ham)
        assert _operator_array(ham).tobytes() == want.toarray().tobytes()
        f = np.linspace(-1.0, 2.0, len(region))
        assert quadratic_form(ham, f) == pytest.approx(f @ (want @ f), rel=1e-13)
        dense = spectra.dense_array(ham)
        # solved in place: dsyevr gets the same matrix in Fortran order and
        # overwrites it
        array, given = handed[-1]
        assert given == dense.tobytes() and array.flags.f_contiguous
        assert array.tobytes() != given
        # the bands that dense counting solves, one per tree, are the same
        # matrix bit for bit, their rows in sweep order (the probabilistic
        # couplings are -1/sqrt(d_i d_j), rounded once, in both); the trees
        # share only the origin, and hold every edge
        rows, edges = [], 0
        for cells in region.cells:
            sweep = spectra._sweep(region, cells)
            order, band = spectra._sweep_band(ham, sweep)
            assert (_dense_band_rows(band).tobytes()
                    == dense[np.ix_(order, order)].tobytes())
            rows.append(order)
            edges += len(sweep.i)
        assert np.array_equal(np.unique(np.concatenate(rows)), np.arange(len(region)))
        assert sum(map(len, rows)) == len(region) + len(rows) - 1
        assert edges == len(region.edges)


def _dense_band_rows(band):
    """The symmetric matrix whose upper band is ``band`` in LAPACK's
    storage (row w - k holds superdiagonal k from column k on)."""
    width, n = len(band) - 1, band.shape[1]
    full = np.zeros((n, n))
    for k in range(width + 1):
        i = np.arange(n - k)
        full[i, i + k] = full[i + k, i] = band[width - k, k:]
    return full


def test_probabilistic_inertia_count_builds_no_csr():
    ham = probabilistic_laplacian(build_triangle(4))
    grid = [0.31, 1.13]
    counts = spectra.count_below(ham, grid)
    dense = spectra.counts_from_eigenvalues(spectra.eigenvalues_dense(ham), grid)
    assert np.array_equal(counts, dense)


def test_probabilistic_laplacian_small_cases():
    g0 = build_triangle(0)
    w = spectra.eigenvalues_dense(probabilistic_laplacian(g0))
    assert np.allclose(w, [0.0, 1.5, 1.5], atol=1e-12)
    g1 = build_triangle(1)
    ham = probabilistic_laplacian(g1)
    w = spectra.eigenvalues_dense(ham)
    assert abs(w[1] - 0.75) < 1e-12
    # entries are degree reciprocals
    entries = _operator_array(ham)
    assert set(np.round(np.unique(-entries[entries != 0.0]), 12)) <= {
        -1.0, 0.25, 0.5}
    # constant vector in the kernel
    assert np.allclose(entries @ np.ones(len(g1)), 0.0, atol=1e-14)


def _edge_energy(region, f, potential=None):
    """Independent evaluation of the Neumann form as a sum over edges:
    (1/2) sum_{x~y} (f(x)-f(y))^2 plus the on-site potential term."""
    total = float(np.sum(np.diff(np.asarray(f)[region.edges], axis=1) ** 2))
    if potential is not None:
        total += float(np.sum(potential * np.asarray(f) ** 2))
    return total


def test_quadratic_form_matches_edge_sum():
    region = build_triangle(2)
    rng = np.random.default_rng(1)
    values = sample_potential(region, uniform(0.0, 2.0, seed=2))
    ham = assemble(region, "neumann", values)
    for _ in range(20):
        f = rng.standard_normal(len(region))
        lhs = quadratic_form(ham, f)
        rhs = _edge_energy(region, f, values)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_quadratic_form_trivia():
    region = build_triangle(2)
    ham = assemble(region, "neumann", np.zeros(len(region)))
    assert quadratic_form(ham, np.ones(len(region))) == pytest.approx(0.0, abs=1e-12)
    for i in range(len(region)):
        f = np.zeros(len(region))
        f[i] = 1.0
        assert quadratic_form(ham, f) == region.region_degree[i]


def test_boundary_condition_form_ordering():
    region = build_triangle(3)
    values = sample_potential(region, uniform(0.0, 1.0, seed=21))
    hams = {bc: assemble(region, bc, values)
            for bc in operators.BOUNDARY_CONDITIONS}
    rng = np.random.default_rng(3)
    for _ in range(1000):
        f = rng.standard_normal(len(region))
        qn = quadratic_form(hams["neumann"], f)
        qs = quadratic_form(hams["simple"], f)
        qd = quadratic_form(hams["dirichlet"], f)
        assert qn <= qs + 1e-9 and qs <= qd + 1e-9


def test_cover_additivity_of_neumann_form():
    parent = build_triangle(3)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(len(parent))
    total = quadratic_form(assemble(parent, "neumann", np.zeros(len(parent))), f)
    for piece_level in (1, 2):
        part = subdivide(parent, piece_level, "cover")
        acc = 0.0
        for spec in part.pieces:
            piece = build_triangle(spec)
            sub = f[parent.locate(piece.coords)]
            acc += quadratic_form(
                assemble(piece, "neumann", np.zeros(len(piece))), sub)
        assert abs(acc - total) <= 1e-12 * max(1.0, abs(total))


def test_matrix_export_format(tmp_path):
    region = build_triangle(1)
    ham = assemble(region, "simple", np.arange(6, dtype=float))
    path = tmp_path / "matrix.txt"
    ham.export_coordinate_text(path)
    rows = [line.split() for line in path.read_text().splitlines()]
    assert all(int(r[0]) <= int(r[1]) for r in rows)
    diag = {int(r[0]): float(r[2]) for r in rows if r[0] == r[1]}
    assert diag == {i: region.full_degree[i] + float(i) for i in range(6)}


def test_potential_spec_validation():
    # direct construction is outside input too: atoms take one cumulative
    # mass each, increasing strictly from above 0 to exactly 1; an interval
    # is a < b
    for values, masses in [((0.0, 1.0), (1.0,)), ((0.0,), (0.5, 1.0)),
                           ((10.0, 0.0), (-5e-324, 1.0)), ((10.0, 0.0), (0.0, 1.0)),
                           ((0.0, 1.0), (0.5, 0.9)), ((0.0, 1.0), (0.5, 1.0 - 1e-13)),
                           ((0.0, 1.0, 2.0), (0.6, 0.5, 1.0)), ((), ()),
                           ((1.0, 1.0), None), ((2.0, 1.0), None), ((0.0, 1.0, 2.0), None)]:
        with pytest.raises(ValidationError):
            operators.PotentialSpec(values, masses)
    with pytest.raises(ValidationError):
        bernoulli(0, 1, 1.5)
    with pytest.raises(ValidationError):
        uniform(1.0, 1.0)
    with pytest.raises(ValidationError):
        constant(1.0, scale=-1.0)
    lo, hi = bernoulli(0.0, 10.0, 0.5, scale=0.5).support()
    assert (lo, hi) == (0.0, 5.0)
