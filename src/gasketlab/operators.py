"""Random potentials and gasket Hamiltonians H = -Laplacian + V.

Three boundary conditions are supported for a finite region A.  They share
the off-diagonal part (-1 per region edge) and differ only in the diagonal
rule at each vertex x:

* simple:             deg(x)            (ambient degree)
* neumann:            deg_A(x)          (subgraph degree)
* modified dirichlet: 2*deg(x) - deg_A(x)

so neumann <= simple <= dirichlet as quadratic forms.  An operator is
arrays, not a sparse matrix: the diagonal (the rule's degree plus V) and
the region, whose edges carry the off-diagonal -1.  The probabilistic
Laplacian divides each row of the Neumann operator by the subgraph degree;
it keeps those degree weights, so spectral code can work with the similar
symmetric form instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .lattice import LatticeRegion

SIMPLE = "simple"
NEUMANN = "neumann"
DIRICHLET = "dirichlet"
BOUNDARY_CONDITIONS = (SIMPLE, NEUMANN, DIRICHLET)


@dataclass(frozen=True)
class PotentialSpec:
    """An i.i.d. on-site potential: its law, seed and overall scale.

    A law is atoms or an interval.  Atoms: a draw u in [0, 1) takes
    ``values[i]`` where masses[i-1] < u <= masses[i], the cumulative
    ``masses`` increasing strictly from above 0 to exactly 1.  An interval
    (``masses`` None): the uniform law on (a, b) = ``values``, the gapless
    support of the paper's spectrum theorem.  Identical seed and trial
    index reproduce the identical sample for the identical canonical vertex
    order, independent of scheduling.
    """

    values: tuple
    masses: tuple | None
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        law = (self.values, self.masses)
        if not np.all(np.isfinite([*self.values, *(self.masses or ()), self.scale])):
            raise ValidationError(f"non-finite value in {law} (scale {self.scale})")
        if self.scale < 0:
            raise ValidationError("scale must be nonnegative")
        if not 0 <= self.seed < 2**64:  # a generator key word
            raise ValidationError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.masses is None:
            if len(self.values) != 2 or not self.values[0] < self.values[1]:
                raise ValidationError(f"uniform needs (a, b) with a < b, got {self.values}")
        elif not (0 < len(self.masses) == len(self.values) and self.masses[0] > 0
                  and self.masses[-1] == 1.0 and np.all(np.diff(self.masses) > 0)):
            raise ValidationError(
                f"atoms need one mass each, increasing strictly from 0 to 1, got {law}")
        # finite parameters and scale can still overflow together
        lo, hi = self.support()
        if not np.all(np.isfinite([lo, hi, hi - lo])):
            raise ValidationError(
                f"{law} scaled by {self.scale} overflows: support [{lo}, {hi}]")

    def support(self) -> tuple[float, float]:
        """(inf, sup) of the support of the scaled law."""
        return (self.scale * min(self.values), self.scale * max(self.values))


def constant(c: float, seed: int = 0, scale: float = 1.0) -> PotentialSpec:
    return PotentialSpec((float(c),), (1.0,), seed=seed, scale=scale)


def bernoulli(a: float, b: float, prob_b: float, seed: int = 0,
              scale: float = 1.0) -> PotentialSpec:
    """b with probability ``prob_b``, else a: a draw u < prob_b, that is
    u <= nextafter(prob_b, -1), takes b.  At prob_b 0 or 1 the law is the
    one atom it draws."""
    p = float(prob_b)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"bernoulli probability {p} not in [0,1]")
    if p in (0.0, 1.0):
        return constant(b if p else a, seed=seed, scale=scale)
    return PotentialSpec((float(b), float(a)), (float(np.nextafter(p, -1.0)), 1.0),
                         seed=seed, scale=scale)


def uniform(a: float, b: float, seed: int = 0, scale: float = 1.0) -> PotentialSpec:
    return PotentialSpec((float(a), float(b)), None, seed=seed, scale=scale)


def table_cdf(rows, seed: int = 0, scale: float = 1.0) -> PotentialSpec:
    """Atoms from (value, cumulative mass) rows; a last mass within 1e-12
    of 1 is stored as exactly 1, so every draw finds an atom."""
    rows = [(float(v), float(c)) for v, c in rows]
    cum = [c for _, c in rows]
    if not cum or not 0 < cum[0] <= 1 or abs(cum[-1] - 1.0) > 1e-12:
        raise ValidationError("cdf table must be nonempty and end at 1")
    return PotentialSpec(tuple(v for v, _ in rows), (*cum[:-1], 1.0),
                         seed=seed, scale=scale)


def sample_potential(region: LatticeRegion, spec: PotentialSpec,
                     trial: int = 0) -> np.ndarray:
    """Draw the i.i.d. potential vector in canonical vertex order.

    Uses a counter-based generator keyed by (seed, trial), each in [0,
    2^64) (else a ValidationError), so trials can be evaluated
    concurrently and in any order with identical results; a one-atom law
    draws nothing.
    """
    if not 0 <= trial < 2**64:
        raise ValidationError(f"trial must be in [0, 2^64), got {trial}")
    n = len(region)
    if len(spec.values) == 1:
        return np.full(n, spec.scale * spec.values[0])
    key = np.array([spec.seed, trial], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    u = rng.random(n)
    if spec.masses is None:
        a, b = spec.values
        values = a + (b - a) * u
    else:
        values = np.array(spec.values)[np.searchsorted(spec.masses, u, side="left")]
    return spec.scale * values


@dataclass(eq=False)
class HamiltonianMatrix:
    """An operator on one region, held as arrays: its ``diagonal`` (n,)
    and, off the diagonal, -1 on every edge of ``region`` (-1/d_i in row i
    of the probabilistic Laplacian, whose ``degree_weights`` d are kept).

    Only the probabilistic Laplacian has ``degree_weights``; it is not
    ``symmetric``, but similar to D^{-1/2} L D^{-1/2}, which is what
    eigenvalue and counting code forms.
    """

    diagonal: np.ndarray
    region: LatticeRegion
    degree_weights: np.ndarray | None = field(default=None, repr=False)

    @property
    def symmetric(self) -> bool:
        return self.degree_weights is None

    @property
    def dimension(self) -> int:
        return len(self.diagonal)

    def _couplings(self) -> np.ndarray:
        """The off-diagonal value of each row: -1, or -1/d_i in row i of
        the probabilistic Laplacian."""
        if self.symmetric:
            return np.full(self.dimension, -1.0)
        return -(1.0 / self.degree_weights)

    def export_coordinate_text(self, path) -> None:
        """Write `i j value` rows, upper triangle only, canonical order;
        exact zeros on the diagonal are left out."""
        keep = np.flatnonzero(self.diagonal != 0.0)
        rows = np.concatenate([keep, self.region.edges[:, 0]])
        cols = np.concatenate([keep, self.region.edges[:, 1]])
        values = np.concatenate([self.diagonal[keep],
                                 self._couplings()[self.region.edges[:, 0]]])
        with open(path, "w") as fh:
            for k in np.lexsort((cols, rows)):
                fh.write(f"{rows[k]} {cols[k]} {values[k]:.17g}\n")


def assemble(region: LatticeRegion, bc: str,
             potential: np.ndarray) -> HamiltonianMatrix:
    """H = -Laplacian(bc) + diag(potential) on the region."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (len(region),):
        raise ValidationError(
            f"potential length {potential.shape} != region size {len(region)}")
    if not np.isfinite(potential).all():
        raise ValidationError("potential has a non-finite value")
    reg, full = region.region_degree, region.full_degree
    diag = {SIMPLE: full, NEUMANN: reg, DIRICHLET: 2.0 * full - reg}.get(bc)
    if diag is None:
        raise ValidationError(f"unknown boundary condition {bc!r}")
    return HamiltonianMatrix(diag + potential, region)


def probabilistic_laplacian(region: LatticeRegion) -> HamiltonianMatrix:
    """Degree-normalized Neumann operator D^{-1} (-Laplacian).

    Row sums vanish, so the constant vector is in the kernel; the matrix is
    not symmetric but is similar to one, and its eigenvalues are real.
    """
    reg = region.region_degree.astype(float)
    return HamiltonianMatrix(reg * (1.0 / reg), region, degree_weights=reg)


def quadratic_form(ham: HamiltonianMatrix, f: np.ndarray) -> float:
    """<f, H f> for a real vector f: f.(diagonal f) plus, over each edge
    (i, j), (c_i + c_j) f_i f_j with c the row couplings."""
    f = np.asarray(f, dtype=float)
    if f.shape != (ham.dimension,):
        raise ValidationError("vector length does not match the operator")
    i, j = ham.region.edges.T
    c = ham._couplings()
    return float(f @ (ham.diagonal * f) + np.sum((c[i] + c[j]) * f[i] * f[j]))

