"""Byte-exact digests of outputs whose format and arithmetic are fixed.

Each digest pins a file that the command line writes, or the raw bytes of a
sampled potential.  Eigenvalue floats are left out on purpose: their last
bits follow the BLAS thread count.  The potential -4 cancels the diagonal
at degree-4 sites, so the matrix exports also pin that exact zeros are
dropped.
"""

import hashlib

import pytest

from gasketlab import operators
from gasketlab.cli import main
from gasketlab.lattice import build_triangle

LATTICE_CASES = {
    "plain": ([], "b9518bad1aebcf8ed1e62dee25b962fc267f018c6e0cad625be332d467993d1e",
              "3ee0c00ecc6ed9f3fa9fe97a8c4c1b24e1f8c1a2262da523e9743699745c2829"),
    "truncated": (["--truncated"],
                  "a05945beb4a075fc1fdbdceb4fc04387c6bbde513479d19077e0e1ae64c41e91",
                  "ef59ea18a03b14aa594b876c4d8c1fe49def7b08d7e5534ed1f6afd1cc7128e3"),
    "mirrored": (["--mirrored"],
                 "439cf722c33b7b8d763b3b96eea761edbb6e30c29522aff032b4fdb3dd5bdf2f",
                 "3ee0c00ecc6ed9f3fa9fe97a8c4c1b24e1f8c1a2262da523e9743699745c2829"),
    "half_lattice": (["--half-lattice"],
                     "b9518bad1aebcf8ed1e62dee25b962fc267f018c6e0cad625be332d467993d1e",
                     "8d5f5b7365c60ed1b85e72815e66d9c7a2214f09f80455be5969dcd9235fa6ff"),
    "ball": (["--ball"],
             "5de8f4701ab0a55a001e96aced28b9ac97719695b23e9ab73ced86ef16fd71c0",
             "cabf2e4c715fa9333f80ac322ce7720e0cedbfdf6681bfeb2382a4d0d551fff8"),
}

MATRIX_CASES = {
    "simple": (["--bc", "simple"],
               "32268cd709e0d891a9e8e1c89517bd6fb394bb35728e5801d0a2341865ef03fb"),
    "neumann": (["--bc", "neumann"],
                "606bf82ea2773a586c9eb0ec51dd452d1b2bba8b5e7aaab0c00aa6567d7ecf66"),
    "dirichlet": (["--bc", "dirichlet"],
                  "fd9093e22a519ff3883a40f31eb05f710e7024283422071c97193f4f1b43bb9c"),
    "prob": (["--prob"],
             "7504b39a8b7be7453ded5a3611dceb5062d575ec85f3b16c1d549529629938b5"),
}

COUNTS_DIGEST = "8346fdd10f044f119f0449ad0b4fa8e3b300a5b3d1ecf46095d4ee2701024886"

POTENTIAL_CASES = {
    "constant": (operators.constant(2.5, seed=7),
                 "73026c23c296164e044b4eef5d54462c9fae4c924d0777fdfd4f73537caa9c73"),
    "bernoulli": (operators.bernoulli(0.0, 10.0, 0.5, seed=7),
                  "18277a8ab776f73cf39f8c048598e8d10926375266079dd94c14dee52ad1970a"),
    "uniform": (operators.uniform(0.0, 1.0, seed=7, scale=2.0),
                "4e86940792b30ba9169018b2da077eaee5b5deaa69ed5be796ef2bcacc59634d"),
    "table": (operators.table_cdf([(0, 0.25), (1, 0.75), (5, 1)], seed=7),
              "f3851d43b26d06cf5dd73ec5ffdd88f45646dce59e28a23ad5d5ecb9f0d33137"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(LATTICE_CASES))
def test_lattice_export_digests(tmp_path, name):
    flags, edges, stats = LATTICE_CASES[name]
    out = tmp_path / name
    assert main(["lattice", "--level", "4", *flags, "--out", str(out)]) == 0
    assert _sha256(tmp_path / f"{name}.edges") == edges
    assert _sha256(tmp_path / f"{name}.stats.json") == stats


@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_matrix_export_digests(tmp_path, name):
    flags, digest = MATRIX_CASES[name]
    out = tmp_path / name
    assert main(["spectrum", "--level", "3", "--dist", "bernoulli:-4,10,0.5",
                 *flags, "--export-matrix", "--out", str(out)]) == 0
    assert _sha256(tmp_path / f"{name}.matrix.txt") == digest


def test_inertia_counts_digest(tmp_path):
    out = tmp_path / "counts"
    assert main(["spectrum", "--level", "6", "--dist", "bernoulli:0,10,0.5",
                 "--inertia", "--grid-kind", "global", "--grid-n", "33",
                 "--out", str(out)]) == 0
    assert _sha256(tmp_path / "counts.counts.csv") == COUNTS_DIGEST


@pytest.mark.parametrize("name", sorted(POTENTIAL_CASES))
def test_sample_potential_digests(name):
    spec, digest = POTENTIAL_CASES[name]
    values = operators.sample_potential(build_triangle(5), spec, trial=3)
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest
