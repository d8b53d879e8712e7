"""Plain-numpy reference for the scan correctness sample.

Recomputes the uncertainty matrix sigma, the mean-commutator matrix C and the
two sides of the Heisenberg, Schrödinger and Robertson checks straight from
the README definitions, with density matrices throughout (a pure state psi
enters as |psi><psi|). It imports nothing from urlab, so a defect in the
package's moment code cannot hide in a shared helper.
"""

from __future__ import annotations

import numpy as np

REFERENCE_IDS = ("heisenberg", "schrodinger", "robertson")
RTOL = 1e-9


def moments(mats: list[np.ndarray], rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_ij = Tr(rho (X_i X_j + X_j X_i)/2) - <X_i><X_j>,
    C_ij = -(i/2) Tr(rho [X_i, X_j])."""
    n = len(mats)
    means = np.array([np.trace(rho @ x).real for x in mats])
    sigma = np.empty((n, n))
    cmat = np.empty((n, n))
    for i, xi in enumerate(mats):
        for j, xj in enumerate(mats):
            sigma[i, j] = np.trace(rho @ (xi @ xj + xj @ xi)).real / 2 - means[i] * means[j]
            cmat[i, j] = (-0.5j * np.trace(rho @ (xi @ xj - xj @ xi))).real
    return sigma, cmat


def sides(ur_id: str, sigma: np.ndarray, cmat: np.ndarray) -> tuple[float, float]:
    if ur_id == "heisenberg":
        return sigma[0, 0] * sigma[1, 1], cmat[0, 1] ** 2
    if ur_id == "schrodinger":
        return sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2, cmat[0, 1] ** 2
    if ur_id == "robertson":
        return float(np.linalg.det(sigma)), float(np.linalg.det(cmat))
    raise ValueError(f"no reference for {ur_id!r}")


def density(state) -> np.ndarray:
    """Density matrix of a urlab PureState or DensityMatrix, read by attribute."""
    if hasattr(state, "amplitudes"):
        psi = np.asarray(state.amplitudes)
        return np.outer(psi, psi.conj())
    return np.asarray(state.matrix)


def close(a, b, scale: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= RTOL * scale))


def mismatch(ur_id: str, observables, state, ms, report) -> str | None:
    """Compare a moment set and a report against the reference; describe the
    first disagreement beyond RTOL, or return None when both agree."""
    sigma, cmat = moments([np.asarray(o.matrix) for o in observables], density(state))
    scale = max(float(np.max(np.abs(sigma))), float(np.max(np.abs(cmat))), 1e-300)
    if not close(ms.sigma, sigma, scale):
        return f"{ur_id}: sigma differs from reference"
    if not close(ms.cmat, cmat, scale):
        return f"{ur_id}: C differs from reference"
    lhs, rhs = sides(ur_id, sigma, cmat)
    # A determinant of entries known to relative precision is known to that
    # precision of the product of its row norms (Hadamard's bound), which
    # matters when it cancels to roundoff size on a singular sigma.
    hadamard = max(float(np.prod(np.linalg.norm(a, axis=1))) for a in (sigma, cmat))
    side_scale = max(abs(lhs), abs(rhs), hadamard, 1e-300)
    if not (close(report.lhs, lhs, side_scale) and close(report.rhs, rhs, side_scale)):
        return (f"{ur_id}: sides ({report.lhs!r}, {report.rhs!r}) differ from "
                f"reference ({lhs!r}, {rhs!r})")
    return None
