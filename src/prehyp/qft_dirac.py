"""The concrete spin-1/2 model: the 1+1 gamma matrices as constants, the
complementary pair (D + i m, D - i m), the Dirac-current Hermitian product on
Cauchy lines, its positivity and hypersurface independence, and the
finite-corpus data-space isometry check.

The Hermitian structure here (complex conjugation via the Dirac adjoint)
is deliberately distinct from the bilinear dual pairing used by the
Green's machinery; the two are never mixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .bundle_ops import FirstOrderOperator, MatrixField
from .expr import Bin, Num, diff
from .geometry import CauchyLine, DiagonalMetric
from .grids import GridSection


# the gamma matrices for signature (+,-): GAMMA0^2 = Id, GAMMA1^2 = -Id,
# {GAMMA0, GAMMA1} = 0 and GAMMA0 Hermitian.  Another representation is a
# unitary change of spinor frame, so none of the results depends on this one.
GAMMA0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
GAMMA1 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
GAMMA0.flags.writeable = GAMMA1.flags.writeable = False  # shared by every caller


@dataclass
class DiracModel:
    """Spin-1/2 model data: the mass.  The pair's mass term is i * m * Id.

    The factor i is forced by the current: gamma0 times the mass term must
    be anti-Hermitian for d_a j^a = 0 while gamma0 itself stays Hermitian
    for positivity of the Cauchy-line product, and a real multiple of Id
    satisfies both only at m = 0.
    """

    mass: float = 0.0


def build_dirac_pair(model: DiracModel, metric: DiagonalMetric) -> Tuple[FirstOrderOperator, FirstOrderOperator]:
    """The one Dirac construction: (P, Q) = (D + i m, D - i m) on a
    diagonal metric.  The principal part uses the orthonormal coframe,
    A^t = gamma0 / alpha and A^x = gamma1 / beta, so sigma_P sigma_Q =
    g(xi, xi) Id pointwise; on Minkowski it is plainly
    (gamma0, gamma1).  D carries the spin connection in its order-0 part,
    A^mu omega_mu with omega = ((d_t beta) / (2 beta), (d_x alpha) / (2 alpha)) Id,
    that is (gamma0 d_t beta + gamma1 d_x alpha) / (2 alpha beta), which
    keeps the current conserved (Baer, Ginoux and Pfaeffle, Wave Equations
    on Lorentzian Manifolds and Quantization, 2007).  It is 0 on metrics
    with d_t beta = d_x alpha = 0, Minkowski among them."""
    alpha, beta = metric.alpha_ast, metric.beta_ast
    gamma0, gamma1 = MatrixField.from_constant(GAMMA0), MatrixField.from_constant(GAMMA1)
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

def dirac_adjoint(values: np.ndarray) -> np.ndarray:
    """Co-spinor phi+ = conj(phi)^T gamma0 per node; anti-linear in phi."""
    if values.shape[-1] != 2:
        raise ValueError("Dirac adjoint needs rank-2 sections")
    return np.einsum("...i,ij->...j", np.conj(values), GAMMA0)


def dirac_current(psi: np.ndarray, phi: np.ndarray, index: str) -> np.ndarray:
    """Frame current j^a = psi+ gamma^a phi per node (a in {t, x});
    sesquilinear: anti-linear in psi, linear in phi."""
    gamma = GAMMA0 if index == "t" else GAMMA1
    psi_plus = dirac_adjoint(psi)
    return np.einsum("...i,ij,...j->...", psi_plus, gamma, phi)


def beta_sigma(
    psi: GridSection,
    phi: GridSection,
    sigma: CauchyLine,
    metric: DiagonalMetric,
) -> complex:
    """beta_Sigma(Psi, Phi) = int_Sigma n_a j^a d mu = int psi+ gamma0 phi
    beta(t0, x) dx: the lapse cancels between the normal covector and the
    frame current, leaving the plain gamma0 density against the induced
    measure."""
    grid = psi.grid
    j = grid.level_of(sigma.t0)
    density = dirac_current(psi.level(j), phi.level(j), "t")
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
) -> HermitianReport:
    """Evaluate beta_Sigma at each level; drift is the max pairwise
    deviation relative to the largest magnitude (0 if all values vanish)."""
    values = [beta_sigma(psi, phi, CauchyLine(t), metric) for t in t_levels]
    scale = max(abs(v) for v in values)
    drift = 0.0
    if scale > 0:
        drift = max(
            abs(a - b) for a in values for b in values
        ) / scale
    self_product = beta_sigma(phi, phi, CauchyLine(t_levels[0]), metric)
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
) -> IsometryReport:
    """Compare the Gram matrices of beta at Sigma and Sigma' over solved
    sections; the evolution map is an isometry up to scheme error, and the
    Gram matrix is positive definite for linearly independent data."""
    gram_a, gram_b = (
        np.array([[beta_sigma(a, b, line, metric) for b in solutions] for a in solutions])
        for line in (sigma, sigma_prime)
    )
    scale = float(np.max(np.abs(gram_a)))
    mismatch = float(np.max(np.abs(gram_a - gram_b))) / scale if scale > 0 else 0.0
    eigs = np.linalg.eigvalsh(0.5 * (gram_a + gram_a.conj().T))
    return IsometryReport(mismatch, float(np.min(eigs)), gram_a, gram_b)
