"""The two characteristic gaps against an independent reference.

Each state's Robertson matrix, centered Gram or raw Gram is formed here with
plain numpy from the observables' matrices and the state's amplitudes or
density matrix, and each characteristic coefficient C_r is the sum of the
principal r x r minors, found by brute force. Nothing here calls the
package's moments or linalg.
"""

import itertools

import numpy as np
import pytest

from urlab.catalog import CHAR_GAP_IDS, H_CHOICES, evaluate_ur
from urlab.linalg import slack_scale
from urlab.model import DensityMatrix, Observable, PureState

RTOL = 1e-9


def _hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def _pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _mixed(rng, d):
    k = int(rng.integers(1, d + 1))
    a = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _matrix(h_choice, mats, state):
    """One state's n x n matrix; ``state`` is an amplitude vector or, for
    "robertson" only, a density matrix."""
    if h_choice == "robertson":  # <ΔX_i ΔX_j> = sigma_ij + i C_ij
        rho = state if state.ndim == 2 else np.outer(state, state.conj())
        mean = [np.trace(rho @ x).real for x in mats]
        second = np.array([[np.trace(rho @ x @ y) for y in mats] for x in mats])
        return second - np.outer(mean, mean)
    vecs = [x @ state for x in mats]
    if h_choice == "centered":
        vecs = [v - np.vdot(state, v).real * state for v in vecs]
    return np.array([[np.vdot(u, v) for v in vecs] for u in vecs])


def _coeff(m, r):
    """C_r(m): the sum of the principal r x r minors."""
    total = sum(
        np.linalg.det(m[np.ix_(idx, idx)]) for idx in itertools.combinations(range(len(m)), r)
    )
    return total.real


def _reference(ur_id, h_list, r):
    if ur_id == "char_gap_entangled":
        total = sum(h_list)
        return _coeff(total.real, r), _coeff(total.imag, r)
    return _coeff(sum(h_list), r), sum(_coeff(h, r) for h in h_list)


def _cases(seed):
    """(rng, dim, n, m) over dims 2-12 and m = 1-3 with n drawn in 1..4, then
    two cases at dim 64."""
    rng = np.random.default_rng(seed)
    for dim in range(2, 13):
        for m in (1, 2, 3):
            yield rng, dim, int(rng.integers(1, 5)), m
    yield rng, 64, 3, 2
    yield rng, 64, 2, 3


@pytest.mark.parametrize("h_choice", H_CHOICES)
@pytest.mark.parametrize("ur_id", CHAR_GAP_IDS)
def test_gaps_match_brute_force_minors(ur_id, h_choice):
    may_mix = h_choice == "robertson"  # the Gram choices take pure states only
    for rng, dim, n, m in _cases(60 + 3 * CHAR_GAP_IDS.index(ur_id) + H_CHOICES.index(h_choice)):
        mats = [_hermitian(rng, dim) for _ in range(n)]
        raw = [_mixed(rng, dim) if may_mix and rng.random() < 0.5 else _pure(rng, dim)
               for _ in range(m)]
        observables = [Observable(f"H{i}", x) for i, x in enumerate(mats)]
        states = [DensityMatrix(s) if s.ndim == 2 else PureState(s) for s in raw]
        h_list = [_matrix(h_choice, mats, s) for s in raw]
        for r in range(1, n + 1):
            rep = evaluate_ur(ur_id, observables, states, r=r, h_choice=h_choice)
            lhs, rhs = _reference(ur_id, h_list, r)
            tol = RTOL * slack_scale(lhs, rhs)
            assert abs(rep.lhs - lhs) <= tol, (dim, n, m, r)
            assert abs(rep.rhs - rhs) <= tol, (dim, n, m, r)
            assert rep.type_nm == (n, m)
