"""Statistical moments of observable tuples, the Robertson matrix, both Gram
constructions for state-extended checks, and the linear transformation laws."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .linalg import as_numbers, gram, psd_certified
from .model import DensityMatrix, Observable, PureState, QuantumState

# Imaginary residues of nominally real moments are audited against this,
# relative to max(1, |value|).
RESIDUE_TOL = 1e-10
VARIANCE_FLOOR = -1e-12

# Observable tuples whose moment sets each state keeps, oldest dropped first. A
# check request applies every listed check to one observable tuple and its
# one- and two-observable sub-tuples; a fixed minimiser slot meets one tuple.
MEMO_SIZE = 4
# The attribute under which a state keeps its memo, {observable tuple:
# MomentSet}, in its instance dict as `digest` is kept: it dies with the state.
_MEMO_ATTR = "_moment_memo"


@dataclass(frozen=True, eq=False)
class MomentSet:
    """First and second moments of n observables in one state.

    means[i]    = <X_i>
    sigma[i, j] = <X_i X_j + X_j X_i>/2 - <X_i><X_j>   (uncertainty matrix)
    cmat[i, j]  = -(i/2) <[X_i, X_j]>                  (mean-commutator matrix)
    m2[i, j]    = <X_i X_j>                            (raw second moments)
    rows[i]     = X_i|psi> for a pure state; None for a density matrix

    `moment_tangent` and `catalog.slack_derivatives` also make MomentSets
    whose arrays carry a stack of tangent directions on a last axis, with
    rows None, so that `comm` reads m2.
    """

    means: np.ndarray
    sigma: np.ndarray
    cmat: np.ndarray
    m2: np.ndarray
    rows: np.ndarray | None

    def comm(self, i: int, j: int) -> complex:
        """<[X_i, X_j]>, imaginary up to roundoff: z - z* with z = <X_i psi|X_j psi>
        for a pure state, M_ij - M_ji for a density matrix."""
        if self.rows is None:
            return self.m2[i, j] - self.m2[j, i]
        z = np.vdot(self.rows[i], self.rows[j])
        return z - z.conjugate()


@dataclass(frozen=True, eq=False)
class GramUR:
    """A positive semidefinite matrix produced by one of the physical choices:
    kind "robertson" (sigma + i C), "centered" (Gram of (X_k - <X_k>)|psi_k>),
    or "raw" (Gram of X_k|psi_k>). ``provenance`` names the ingredients."""

    kind: str
    matrix: np.ndarray
    provenance: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _audit_real(values: np.ndarray, what: str) -> np.ndarray:
    resid = float(np.abs(values.imag).max(initial=0.0))
    # the scale is >= 1, so it is only needed for a residue above RESIDUE_TOL
    if resid > RESIDUE_TOL and resid > RESIDUE_TOL * max(1.0, float(np.abs(values).max())):
        raise NumericError(f"imaginary residue {resid:.3e} in {what}")
    return values.real


def _checked_observables(observables, dim: int) -> tuple:
    """The observables as a tuple, after checking there is at least one and
    each is an Observable of dimension ``dim``."""
    observables = tuple(observables)
    if len(observables) == 0:
        raise InputError("at least one observable required")
    for i, obs in enumerate(observables):
        if not isinstance(obs, Observable):
            raise InputError(f"argument {i} is not an Observable")
        if obs.dim != dim:
            raise InputError(f"observable {obs.name!r} has dimension {obs.dim}, state has {dim}")
    return observables


def _raw_moments(mats: list[np.ndarray], state: QuantumState):
    """Rows X_i|psi> (None for a density matrix), complex means and the raw
    second moments M_jk = <X_j X_k>: the Gram matrix of the rows for a pure
    state, Tr(rho X_j X_k) from the products rho X_i for a density matrix."""
    if isinstance(state, PureState):
        psi = state.amplitudes
        rows = np.array([m @ psi for m in mats])
        return rows, np.array([np.vdot(psi, v) for v in rows]), rows.conj() @ rows.T
    left = [state.matrix @ m for m in mats]
    m2 = np.array([[np.sum(lj.T * mk) for mk in mats] for lj in left])
    return None, np.array([np.trace(lj) for lj in left]), m2


def second_moment_matrix(observables, state: QuantumState) -> np.ndarray:
    """Matrix of raw second moments M_jk = <X_j X_k> in the given state: the
    read-only ``m2`` of moment_set, whose audits it runs."""
    return moment_set(observables, state).m2


def moment_tangent(observables, ms: MomentSet, psi: np.ndarray, dpsi: np.ndarray):
    """First-order change of a pure state's MomentSet ``ms`` of the tuple as
    its amplitudes ``psi`` move along each row of ``dpsi``.

    Returns a MomentSet of tangents, each array stacked over the directions on
    its last axis and ``rows`` None, and the rows X_i dpsi stacked as
    (observable, direction, amplitude). With R the rows X_i psi:
    dM = dR^* R^T + R^* dR^T, d<X_i> = 2 Re <X_i psi|dpsi>,
    dsigma = Re dM - dm m^T - m dm^T and dC = Im dM, exactly symmetric and
    antisymmetric as sigma and C are.
    """
    drows = np.array([dpsi @ o.matrix.T for o in observables])
    half = (drows.conj() @ ms.rows.T).transpose(0, 2, 1)  # <X_i dpsi|X_j psi>
    dm2 = half + half.transpose(1, 0, 2).conj()
    dmeans = 2 * (ms.rows.conj() @ dpsi.T).real
    outer = dmeans[:, None] * ms.means[None, :, None]
    dsigma = dm2.real - (outer + outer.transpose(1, 0, 2))
    return MomentSet(means=dmeans, sigma=dsigma, cmat=dm2.imag, m2=dm2, rows=None), drows


def moment_set(observables, state: QuantumState) -> MomentSet:
    """Means, uncertainty matrix and mean-commutator matrix of the tuple, with
    the raw second moments and, for a pure state, the rows X_i|psi> they come
    from, so that ``comm`` reads mean commutators without new products.

    Works for pure states (via <psi|..|psi>) and density matrices (via
    Tr(rho ..)); imaginary residues beyond roundoff and negative variances
    raise NumericError. The result is memoised per state: each state keeps
    the last MEMO_SIZE tuples, keyed by the observable objects themselves
    (they are immutable), and its memo is collected with it. A hit returns
    the MomentSet the miss built and audited, so every array of it is
    read-only; a failed audit memoises nothing.
    """
    if not isinstance(state, (PureState, DensityMatrix)):
        raise InputError(f"not a quantum state: {type(state).__name__}")
    observables = _checked_observables(observables, state.dim)
    memo = state.__dict__.setdefault(_MEMO_ATTR, {})
    hit = memo.get(observables)
    if hit is not None:
        return hit
    rows, means_c, m2 = _raw_moments([o.matrix for o in observables], state)
    means = _audit_real(means_c, "observable means")
    # both terms are exactly symmetric, so sigma needs no symmetrizing pass
    sym = (m2 + m2.T) / 2
    sigma = _audit_real(sym, "uncertainty matrix") - means[:, None] * means
    cmat = _audit_real(-0.5j * (m2 - m2.T), "mean-commutator matrix")
    cmat = (cmat - cmat.T) / 2
    min_var = sigma.diagonal().min()
    if min_var < VARIANCE_FLOOR and min_var < VARIANCE_FLOOR * max(1.0, np.abs(sigma).max()):
        raise NumericError(f"negative variance {min_var:.3e}")
    # setflags(False) is setflags(write=False) without the keyword's parsing cost
    for a in (rows, means, sigma, cmat, m2):
        if a is not None:
            a.setflags(False)
    if len(memo) >= MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[observables] = out = MomentSet(means=means, sigma=sigma, cmat=cmat, m2=m2, rows=rows)
    return out


def robertson_matrix(observables, state: QuantumState) -> GramUR:
    """Robertson matrix R = sigma + iC; Hermitian and positive semidefinite."""
    ms = moment_set(observables, state)
    r = ms.sigma + 1j * ms.cmat
    w = np.linalg.eigvalsh(r)
    if not psd_certified(w):
        raise NumericError(f"Robertson matrix failed psd certificate ({w[0]:.3e})")
    names = tuple(o.name for o in observables)
    return GramUR("robertson", r, names + (_state_label(state),))


def _state_label(state: QuantumState) -> str:
    return "pure" if isinstance(state, PureState) else "density"


def _amplitudes(states) -> list[np.ndarray]:
    """The amplitude vector of each state, at least one and all of one length:
    a PureState's own amplitudes, or a raw (possibly unnormalized) vector read
    by `as_numbers`. A density matrix is refused."""
    out = []
    for i, s in enumerate(states):
        if isinstance(s, PureState):
            a = s.amplitudes
        elif isinstance(s, DensityMatrix):
            raise InputError(f"state {i} is a density matrix; pure states are required")
        else:
            a = as_numbers(s, f"state {i}").ravel()
        if out and a.size != out[0].size:
            raise InputError(f"state {i} has dimension {a.size}, expected {out[0].size}")
        out.append(a)
    if not out:
        raise InputError("at least one state required")
    return out


def _memo_hit(observables, states):
    """The memoised MomentSet of the tuple when one PureState fills every slot
    of ``states`` and its memo holds it, else None; a Gram construction reads
    the memo but does not fill it."""
    first = states[0]
    memo = first.__dict__.get(_MEMO_ATTR) if isinstance(first, PureState) else None
    if memo is None or not all(s is first for s in states):
        return None
    return memo.get(tuple(observables))


def _gram(kind: str, observables, states) -> GramUR:
    """Gram matrix of the vectors X_k|psi_k>, centred by <psi_k|X_k|psi_k> for
    kind "centered" (which takes PureStates only), over at least one slot with
    one state per observable, all of one dimension. With one PureState in
    every slot the rows and means are read from its moment memo when it holds
    them."""
    observables, states = tuple(observables), tuple(states)
    if kind == "centered":
        for i, s in enumerate(states):
            if not isinstance(s, PureState):
                raise InputError(f"state {i} is not a pure state, which a centered Gram needs")
    amps = _amplitudes(states)
    if len(observables) != len(amps):
        raise InputError("need exactly one state per observable")
    observables = _checked_observables(observables, amps[0].size)
    hit = _memo_hit(observables, states)
    rows = hit.rows if hit is not None else [o.matrix @ a for o, a in zip(observables, amps)]
    if kind == "centered":
        means = hit.means if hit is not None else [np.vdot(a, v).real for a, v in zip(amps, rows)]
        rows = [v - z * a for v, z, a in zip(rows, means, amps)]
    return GramUR(kind, gram(rows), tuple([o.name for o in observables]))


def gram_centered(observables, states) -> GramUR:
    """Gram matrix of the centered vectors (X_k - <psi_k|X_k|psi_k>)|psi_k>.

    One normalized pure state per observable; the diagonal entries are the
    variances ΔX_k(psi_k)². With all states equal this is the Robertson matrix,
    and the rows X_k|psi> and means are read from the moment memo when it
    holds them.
    """
    return _gram("centered", observables, states)


def gram_raw(observables, states) -> GramUR:
    """Gram matrix of the uncentered vectors X_k|psi_k>.

    States may be PureState objects or raw (possibly unnormalized) vectors;
    the construction is linear in each state, which is what the state
    transformation law acts on. For normalized states the diagonal is
    ΔX_k² + <X_k>². With one PureState in every slot the vectors are read
    from the moment memo when it holds them.
    """
    return _gram("raw", observables, states)


def transform_observables(lam, observables) -> list[Observable]:
    """Linear mix X'_i = sum_j lam[i, j] X_j of an observable tuple.

    The moments transform covariantly: sigma' = lam sigma lam^T and
    C' = lam C lam^T. A singular lam is allowed here; checks that require
    nonsingularity flag it at the point of use.
    """
    lam = as_numbers(lam, "transformation")
    n = len(observables)
    if lam.shape != (n, n) or lam.imag.any():
        raise InputError(f"transformation must be {n}x{n} real, got shape {lam.shape}")
    lam = lam.real
    names = ",".join(o.name for o in observables)
    out = []
    for i in range(n):
        mixed = sum(lam[i, j] * observables[j].matrix for j in range(n))
        out.append(Observable(f"mix{i}({names})", mixed))
    return out


def transform_states(u, states) -> list[np.ndarray]:
    """Linear images psi'_i = sum_k conj(u[i, k]) psi_k of a state list.

    The images are deliberately not renormalized: the covariance law
    gram_raw(X, psi') = U gram_raw(X, psi) U† holds for the raw images.
    A (numerically) singular u is flagged with a warning.
    """
    amps = _amplitudes(states)
    u = as_numbers(u, "transformation")
    m = len(amps)
    if u.shape != (m, m):
        raise InputError(f"transformation must be {m}x{m}, got {u.shape}")
    sv = np.linalg.svd(u, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        warnings.warn("state transformation is numerically singular", stacklevel=2)
    return list(u.conj() @ np.array(amps))
