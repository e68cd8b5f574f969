"""The concrete spin-1/2 model: 1+1 Clifford representation, the
complementary pair (D + i m, D - i m), the Dirac-current Hermitian product on
Cauchy lines, its positivity and hypersurface independence, and the
finite-corpus data-space isometry check.

The Hermitian structure here (complex conjugation via the Dirac adjoint)
is deliberately distinct from the bilinear dual pairing used by the
Green's machinery; the two are never mixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .bundle_ops import FirstOrderOperator, MatrixField
from .expr import Bin, Num, diff
from .geometry import CauchyLine, DiagonalMetric
from .grids import GridSection


class CliffordError(ValueError):
    pass


@dataclass(frozen=True)
class CliffordRep:
    """2x2 gamma matrices for signature (+,-): g0^2 = Id, g1^2 = -Id,
    {g0, g1} = 0, g0 Hermitian."""

    gamma0: np.ndarray
    gamma1: np.ndarray

    def validate(self, tol: float = 1e-14) -> None:
        g0, g1 = np.asarray(self.gamma0), np.asarray(self.gamma1)
        eye = np.eye(2)
        checks = [
            (g0 @ g0 - eye, "gamma0^2 != Id"),
            (g1 @ g1 + eye, "gamma1^2 != -Id"),
            (g0 @ g1 + g1 @ g0, "gamma0 gamma1 + gamma1 gamma0 != 0"),
            (g0 - g0.conj().T, "gamma0 not Hermitian"),
        ]
        for mat, msg in checks:
            if np.max(np.abs(mat)) > tol:
                raise CliffordError(msg)


def default_rep() -> CliffordRep:
    rep = CliffordRep(
        gamma0=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        gamma1=np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex),
    )
    rep.validate()
    return rep


@dataclass
class DiracModel:
    """Spin-1/2 model data: representation and mass.  The pair's mass term
    is i * m * Id.

    The factor i is forced by the current: gamma0 times the mass term must
    be anti-Hermitian for d_a j^a = 0 while gamma0 itself stays Hermitian
    for positivity of the Cauchy-line product, and a real multiple of Id
    satisfies both only at m = 0.
    """

    rep: CliffordRep = field(default_factory=default_rep)
    mass: float = 0.0


def build_dirac_pair(
    model: DiracModel, metric: Optional[DiagonalMetric] = None
) -> Tuple[FirstOrderOperator, FirstOrderOperator]:
    """The one Dirac construction: (P, Q) = (D + i m, D - i m) on a
    diagonal metric (Minkowski if None).  The principal part uses the
    orthonormal coframe, A^t = gamma0 / alpha and A^x = gamma1 / beta, so
    sigma_P sigma_Q = g(xi, xi) Id pointwise; on Minkowski it is plainly
    (gamma0, gamma1).  D carries the spin connection in its order-0 part,
    A^mu omega_mu with omega = ((d_t beta) / (2 beta), (d_x alpha) / (2 alpha)) Id,
    that is (gamma0 d_t beta + gamma1 d_x alpha) / (2 alpha beta), which
    keeps the current conserved (Baer, Ginoux and Pfaeffle, Wave Equations
    on Lorentzian Manifolds and Quantization, 2007).  It is 0 on metrics
    with d_t beta = d_x alpha = 0, Minkowski among them."""
    alpha, beta = (Num(1.0), Num(1.0)) if metric is None else (metric.alpha_ast, metric.beta_ast)
    rep = model.rep
    rep.validate()
    gamma0, gamma1 = MatrixField.from_constant(rep.gamma0), MatrixField.from_constant(rep.gamma1)
    a_t = gamma0.scale(Bin("/", Num(1.0), alpha))
    a_x = gamma1.scale(Bin("/", Num(1.0), beta))
    half_over_rho = Bin("/", Num(0.5), Bin("*", alpha, beta))
    spin = (gamma0.scale(diff(beta, "t")) + gamma1.scale(diff(alpha, "x"))).scale(half_over_rho)
    mass = MatrixField.from_constant(1j * model.mass * np.eye(2))
    b_p, b_q = mass, -mass
    if not spin.is_zero:  # adding a zero field would turn Q's -0.0 entries into 0.0
        b_p, b_q = spin + mass, spin - mass
    return FirstOrderOperator(2, a_t, a_x, b_p), FirstOrderOperator(2, a_t, a_x, b_q)


# ---------------------------------------------------------------------------
# Dirac adjoint, current and the Cauchy-line product

def dirac_adjoint(values: np.ndarray, rep: CliffordRep) -> np.ndarray:
    """Co-spinor phi+ = conj(phi)^T gamma0 per node; anti-linear in phi."""
    if values.shape[-1] != 2:
        raise ValueError("Dirac adjoint needs rank-2 sections")
    return np.einsum("...i,ij->...j", np.conj(values), rep.gamma0)


def dirac_current(
    psi: np.ndarray, phi: np.ndarray, rep: CliffordRep, index: str
) -> np.ndarray:
    """Frame current j^a = psi+ gamma^a phi per node (a in {t, x});
    sesquilinear: anti-linear in psi, linear in phi."""
    gamma = rep.gamma0 if index == "t" else rep.gamma1
    psi_plus = dirac_adjoint(psi, rep)
    return np.einsum("...i,ij,...j->...", psi_plus, gamma, phi)


def beta_sigma(
    psi: GridSection,
    phi: GridSection,
    sigma: CauchyLine,
    metric: DiagonalMetric,
    rep: CliffordRep,
) -> complex:
    """beta_Sigma(Psi, Phi) = int_Sigma n_a j^a d mu = int psi+ gamma0 phi
    beta(t0, x) dx: the lapse cancels between the normal covector and the
    frame current, leaving the plain gamma0 density against the induced
    measure."""
    grid = psi.grid
    j = grid.level_of(sigma.t0)
    density = dirac_current(psi.values[j], phi.values[j], rep, "t")
    measure = np.broadcast_to(
        np.asarray(metric.hypersurface_measure(CauchyLine(float(grid.ts[j])), grid.xs)),
        (grid.nx,),
    )
    integrand = density * measure
    if grid.periodic:
        return complex(integrand.sum() * grid.dx)
    return complex(np.trapezoid(integrand, dx=grid.dx))


@dataclass
class HermitianReport:
    value: complex
    positivity_margin: float
    hypersurface_drift: float


def hypersurface_independence(
    psi: GridSection,
    phi: GridSection,
    t_levels: Sequence[float],
    metric: DiagonalMetric,
    rep: CliffordRep,
) -> HermitianReport:
    """Evaluate beta_Sigma at each level; drift is the max pairwise
    deviation relative to the largest magnitude (0 if all values vanish)."""
    values = [
        beta_sigma(psi, phi, CauchyLine(t), metric, rep) for t in t_levels
    ]
    scale = max(abs(v) for v in values)
    drift = 0.0
    if scale > 0:
        drift = max(
            abs(a - b) for a in values for b in values
        ) / scale
    self_product = beta_sigma(phi, phi, CauchyLine(t_levels[0]), metric, rep)
    return HermitianReport(values[0], float(self_product.real), drift)


@dataclass
class IsometryReport:
    gram_mismatch: float
    min_gram_eigenvalue: float
    gram_sigma: np.ndarray
    gram_sigma_prime: np.ndarray


def data_space_isometry_check(
    solutions: Sequence[GridSection],
    sigma: CauchyLine,
    sigma_prime: CauchyLine,
    metric: DiagonalMetric,
    rep: CliffordRep,
) -> IsometryReport:
    """Compare the Gram matrices of beta at Sigma and Sigma' over solved
    sections; the evolution map is an isometry up to scheme error, and the
    Gram matrix is positive definite for linearly independent data."""
    gram_a, gram_b = (
        np.array([[beta_sigma(a, b, line, metric, rep) for b in solutions] for a in solutions])
        for line in (sigma, sigma_prime)
    )
    scale = float(np.max(np.abs(gram_a)))
    mismatch = float(np.max(np.abs(gram_a - gram_b))) / scale if scale > 0 else 0.0
    eigs = np.linalg.eigvalsh(0.5 * (gram_a + gram_a.conj().T))
    return IsometryReport(mismatch, float(np.min(eigs)), gram_a, gram_b)
