"""Named uncertainty-relation checks.

Every evaluator returns a URReport with the raw left side, right side, slack
lhs - rhs, and a saturation flag at the relative tolerance SLACK_RTOL. The
type (n, m) records how many observables and states enter the check. Checks
whose right side is a product of mean commutators audit that the product is
real before discarding its imaginary part.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import linalg
from .errors import InputError, NumericError
from .linalg import slack_scale, slack_tolerance
from .model import DensityMatrix, Observable, PureState, QuantumState
from .moments import GramUR, MomentSet, gram_centered, gram_raw, moment_set, robertson_matrix


class _LazyDigest:
    """Descriptor behind ``URReport.inputs_digest``.

    The field holds either the 16-hex digest or the zero-argument hasher that
    ``_digest`` returns; the hasher runs on the first read and its value
    replaces it. A minimiser that never reads the digest never hashes.
    """

    def __get__(self, report, owner=None):
        if report is None:
            raise AttributeError("inputs_digest")  # the field has no default
        value = report.__dict__["inputs_digest"]
        if not isinstance(value, str):
            value = report.__dict__["inputs_digest"] = value()
        return value

    def __set__(self, report, value):
        report.__dict__["inputs_digest"] = value


@dataclass(frozen=True, eq=False)
class URReport:
    """Outcome of a single uncertainty-relation evaluation."""

    ur_id: str
    type_nm: tuple[int, int]
    lhs: float
    rhs: float
    slack: float
    saturated: bool
    tol: float
    inputs_digest: str = _LazyDigest()

    def as_dict(self) -> dict:
        return {
            "ur_id": self.ur_id,
            "type_nm": list(self.type_nm),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "saturated": self.saturated,
            "tol": self.tol,
            "inputs_digest": self.inputs_digest,
        }

    def holds(self, rtol: float = linalg.SLACK_RTOL) -> bool:
        return self.slack >= -rtol * slack_scale(self.lhs, self.rhs)


def _digest(ur_id: str, observables=(), states=(), extras=()):
    """Capture a report's inputs; the returned hasher digests them on call.

    Observables and states are immutable and hash themselves at most once
    (their ``digest``). Any other state entry (a raw amplitude array or a
    GramUR matrix) is copied now, so a later change to the caller's array does
    not change the digest.
    """
    states = tuple(
        st if isinstance(st, (PureState, DensityMatrix)) else np.array(st, dtype=complex)
        for st in states
    )
    return partial(_hash_inputs, ur_id, tuple(observables), states, tuple(extras))


def _hash_inputs(ur_id: str, observables, states, extras) -> str:
    """First 16 hex digits of SHA-256 over the UTF-8 id, each observable's
    32-byte sub-digest, for each state slot the state's sub-digest or b"V" and
    the bytes of its copied array, then the UTF-8 repr() of each extra."""
    h = hashlib.sha256(ur_id.encode())
    for obs in observables:
        h.update(obs.digest)
    for st in states:
        if isinstance(st, (PureState, DensityMatrix)):
            h.update(st.digest)
        else:
            h.update(b"V")
            h.update(np.ascontiguousarray(st))
    for x in extras:
        h.update(repr(x).encode())
    return h.hexdigest()[:16]


def _report(ur_id, n, m, lhs, rhs, digest) -> URReport:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = lhs - rhs
    tol = slack_tolerance(lhs, rhs)
    return URReport(
        ur_id=ur_id,
        type_nm=(n, m),
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        saturated=abs(slack) <= tol,
        tol=tol,
        inputs_digest=digest,
    )


def _real_audited(z: complex, what: str) -> float:
    if abs(z.imag) > 1e-10 * max(1.0, abs(z)):
        raise NumericError(f"imaginary residue {z.imag:.3e} in {what}")
    return z.real


def _require_pure(states) -> None:
    for i, s in enumerate(states):
        if not isinstance(s, PureState):
            raise InputError(f"state {i} must be pure for this check")


# ---------------------------------------------------------------------------
# one-state checks


def heisenberg(x: Observable, y: Observable, state: QuantumState) -> URReport:
    """ΔX²ΔY² >= |<[X,Y]>|²/4."""
    ms = moment_set((x, y), state)
    lhs = ms.sigma[0, 0] * ms.sigma[1, 1]
    rhs = abs(ms.comm(0, 1)) ** 2 / 4
    return _report("heisenberg", 2, 1, lhs, rhs, _digest("heisenberg", (x, y), (state,)))


def schrodinger(x: Observable, y: Observable, state: QuantumState) -> URReport:
    """ΔX²ΔY² − (ΔXY)² >= |<[X,Y]>|²/4, the two-observable Schwartz bound."""
    ms = moment_set((x, y), state)
    lhs = ms.sigma[0, 0] * ms.sigma[1, 1] - ms.sigma[0, 1] ** 2
    rhs = abs(ms.comm(0, 1)) ** 2 / 4
    return _report("schrodinger", 2, 1, lhs, rhs, _digest("schrodinger", (x, y), (state,)))


def robertson(observables, state: QuantumState) -> URReport:
    """det sigma >= det C for an n-tuple of observables, n >= 2."""
    if len(observables) < 2:
        raise InputError("robertson requires at least 2 observables")
    ms = moment_set(observables, state)
    lhs = np.linalg.det(ms.sigma)
    rhs = np.linalg.det(ms.cmat)
    n = len(observables)
    return _report("robertson", n, 1, lhs, rhs, _digest("robertson", observables, (state,)))


def characteristic(observables, state: QuantumState, r: int) -> URReport:
    """C_r(sigma) >= C_r(C) for every characteristic order 1 <= r <= n."""
    n = len(observables)
    if not 1 <= r <= n:
        raise InputError(f"order r={r} outside 1..{n}")
    ms = moment_set(observables, state)
    lhs = linalg.char_coeffs(ms.sigma)[r - 1]
    rhs = linalg.char_coeffs(ms.cmat)[r - 1]
    digest = _digest("characteristic", observables, (state,), (r,))
    return _report("characteristic", n, 1, lhs, rhs, digest)


def type_2_1(x: Observable, y: Observable, state: QuantumState) -> URReport:
    """<X²><Y²> >= (ΔXY + <X><Y>)² + |<[X,Y]>|²/4, the uncentered pair check."""
    ms = moment_set((x, y), state)
    lhs = (ms.sigma[0, 0] + ms.means[0] ** 2) * (ms.sigma[1, 1] + ms.means[1] ** 2)
    comm = abs(ms.comm(0, 1)) ** 2 / 4
    rhs = (ms.sigma[0, 1] + ms.means[0] * ms.means[1]) ** 2 + comm
    return _report("type_2_1", 2, 1, lhs, rhs, _digest("type_2_1", (x, y), (state,)))


def type_3_1(x: Observable, y: Observable, z: Observable, psi: PureState) -> URReport:
    """ΔX²(ΔY² + ΔZ²) >= 2ΔXY ΔXZ + Re(<[X,Z]><[Y,X]>)/2 in one pure state.

    With Z = Y the slack is exactly twice the Schrödinger slack; with X = Y it
    reduces to ΔX² + ΔZ² >= 2ΔXZ.
    """
    _require_pure((psi,))
    ms = moment_set((x, y, z), psi)
    lhs = ms.sigma[0, 0] * (ms.sigma[1, 1] + ms.sigma[2, 2])
    prod = ms.comm(0, 2) * ms.comm(1, 0)
    rhs = 2 * ms.sigma[0, 1] * ms.sigma[0, 2] + _real_audited(prod, "(3,1) commutator product") / 2
    return _report("type_3_1", 3, 1, lhs, rhs, _digest("type_3_1", (x, y, z), (psi,)))


def coherent_fixed(x: Observable, y: Observable, state: QuantumState) -> URReport:
    """ΔX² + ΔY² >= 1 for a dimensionless canonical pair ([X, Y] = i).

    Ordinary check obtained from the canonical two-state extension by freezing
    one slot at a coherent state; minimized by coherent states only.
    """
    ms = moment_set((x, y), state)
    lhs = ms.sigma[0, 0] + ms.sigma[1, 1]
    digest = _digest("coherent_fixed", (x, y), (state,))
    return _report("coherent_fixed", 2, 1, lhs, 1.0, digest)


# ---------------------------------------------------------------------------
# two-state checks


def type_1_2(x: Observable, psi1: PureState, psi2: PureState, variant: str) -> URReport:
    """Second-moment correlation of one observable across two pure states.

    Variant "a" compares the variance product against the centered cross term
    |<psi1|(X-<X>_1)(X-<X>_2)|psi2>|²; variant "b" compares <X²>_1 <X²>_2
    against |<psi1|X²|psi2>|². This is the (2,2) check with Y = X.
    """
    return _cross_state_pair("type_1_2", (x,), psi1, psi2, variant)


def type_2_2(
    x: Observable, y: Observable, psi1: PureState, psi2: PureState, variant: str
) -> URReport:
    """Cross-state pair check: variance (variant "a") or raw second moment
    (variant "b") of X in psi1 against Y in psi2, bounded by the matching
    Schwartz cross term."""
    return _cross_state_pair("type_2_2", (x, y), psi1, psi2, variant)


def _cross_state_pair(family: str, observables, psi1, psi2, variant: str) -> URReport:
    """Body of the (1,2) and (2,2) checks: X is the first observable, Y the last."""
    _require_pure((psi1, psi2))
    if variant not in ("a", "b"):
        raise InputError(f"variant must be 'a' or 'b', got {variant!r}")
    x, y = observables[0], observables[-1]
    ms1 = moment_set((x,), psi1)
    ms2 = moment_set((y,), psi2)
    vx1, my2 = ms1.sigma[0, 0], ms2.means[0]
    mx1, vy2 = ms1.means[0], ms2.sigma[0, 0]
    x1, y2 = ms1.rows[0], ms2.rows[0]
    if variant == "a":
        chi1 = x1 - mx1 * psi1.amplitudes
        chi2 = y2 - my2 * psi2.amplitudes
        lhs = vx1 * vy2
        rhs = abs(np.vdot(chi1, chi2)) ** 2
    else:
        lhs = (vx1 + mx1 * mx1) * (vy2 + my2 * my2)
        rhs = abs(np.vdot(x1, y2)) ** 2
    ur_id = family + variant
    digest = _digest(ur_id, observables, (psi1, psi2))
    return _report(ur_id, len(observables), 2, lhs, rhs, digest)


def _pairwise_extended_sides(msets: list[MomentSet], comms: list[complex]) -> tuple[float, float]:
    """Pairwise-symmetrized sides of the state-extended Schrödinger check."""
    lhs = 0.0
    rhs = 0.0
    m = len(msets)
    for i in range(m):
        for j in range(i + 1, m):
            a, b = msets[i], msets[j]
            lhs += 0.5 * (a.sigma[0, 0] * b.sigma[1, 1] + b.sigma[0, 0] * a.sigma[1, 1])
            lhs -= a.sigma[0, 1] * b.sigma[0, 1]
            prod = comms[i] * np.conj(comms[j])
            rhs += _real_audited(prod, "commutator product") / 4
    return lhs, rhs


def extended_schrodinger(
    x: Observable, y: Observable, psi1: PureState, psi2: PureState
) -> URReport:
    """State-extended Schrödinger check for two pure states:

    [ΔX²(ψ1)ΔY²(ψ2) + ΔX²(ψ2)ΔY²(ψ1)]/2 − ΔXY(ψ1)ΔXY(ψ2)
        >= Re(<[X,Y]>_1 <[X,Y]>_2*)/4.

    With ψ1 = ψ2 this is exactly the Schrödinger check.
    """
    _require_pure((psi1, psi2))
    return _pairwise_extended("extended_schrodinger", x, y, (psi1, psi2))


def _pairwise_extended(ur_id: str, x: Observable, y: Observable, states, extras=()) -> URReport:
    """Body of the extended Schrödinger and (2,m) checks."""
    msets = [moment_set((x, y), s) for s in states]
    comms = [ms.comm(0, 1) for ms in msets]
    lhs, rhs = _pairwise_extended_sides(msets, comms)
    digest = _digest(ur_id, (x, y), tuple(states), extras)
    return _report(ur_id, 2, len(states), lhs, rhs, digest)


def entangled_heisenberg(
    x: Observable, y: Observable, psi1: PureState, psi2: PureState
) -> URReport:
    """Entangled Heisenberg extension:

    [ΔX²(ψ1)ΔY²(ψ2) + ΔX²(ψ2)ΔY²(ψ1)]/2 >= |<[X,Y]>_1 <[X,Y]>_2|/4.

    For canonical X, Y the right side is 1/4, i.e. the doubled left side is
    bounded below by 1/2.
    """
    _require_pure((psi1, psi2))
    ms1 = moment_set((x, y), psi1)
    ms2 = moment_set((x, y), psi2)
    lhs = 0.5 * (
        ms1.sigma[0, 0] * ms2.sigma[1, 1] + ms2.sigma[0, 0] * ms1.sigma[1, 1]
    )
    rhs = abs(ms1.comm(0, 1) * ms2.comm(0, 1)) / 4
    digest = _digest("entangled_heisenberg", (x, y), (psi1, psi2))
    return _report("entangled_heisenberg", 2, 2, lhs, rhs, digest)


# ---------------------------------------------------------------------------
# many-state checks


def type_2_m(x: Observable, y: Observable, states) -> URReport:
    """Pairwise state-extended check for two observables over m >= 2 states
    (pure or mixed), one symmetrized term per state pair:

    sum_{u<v} { [ΔX²(u)ΔY²(v) + ΔX²(v)ΔY²(u)]/2 − ΔXY(u)ΔXY(v) }
        >= sum_{u<v} C(u) C(v),       C = -(i/2)<[X,Y]>.

    At m = 2 this is exactly the extended Schrödinger check; the slack equals
    half the superadditivity gap of the per-state Robertson matrices at order
    n = 2.
    """
    m = len(states)
    if m < 2:
        raise InputError(f"type_2_m requires m >= 2 states, got {m}")
    return _pairwise_extended("type_2_m", x, y, states)


def char_gap_check(matrices, r: int, flavor: str) -> URReport:
    """Characteristic gap check over a list of physically built psd matrices.

    flavor "entangled": C_r(sum of real parts) >= C_r(sum of imaginary parts);
    flavor "superadditive": C_r(sum) >= sum of C_r. At m = 1 the entangled
    flavor recovers the single-state characteristic check.
    """
    if flavor not in ("entangled", "superadditive"):
        raise InputError(f"flavor must be 'entangled' or 'superadditive', got {flavor!r}")
    if len(matrices) == 0:
        raise InputError("char_gap_check requires at least one matrix")
    for i, g in enumerate(matrices):
        if not isinstance(g, GramUR):
            raise InputError(f"entry {i} is not a GramUR")
    h_list = [g.matrix for g in matrices]
    if flavor == "entangled":
        lhs, rhs = linalg.entangled_char_pair(h_list, r)
    else:
        lhs, rhs = linalg.superadditive_char_pair(h_list, r)
    n = matrices[0].dim
    m = len(matrices)
    prov = tuple(f"{g.kind}:{','.join(g.provenance)}" for g in matrices)
    digest = _digest(f"char_gap_{flavor}", (), tuple(h_list), (r,) + prov)
    return _report(f"char_gap_{flavor}", n, m, lhs, rhs, digest)


# ---------------------------------------------------------------------------
# registry / dispatch


@dataclass(frozen=True)
class URSpec:
    """Call signature of a catalog check (how many observables and state slots
    it takes, whether they accept mixed states) and its evaluator. Evaluators
    call their check by its module-level name, so a rebinding is honoured."""

    ur_id: str
    n_observables: int  # -1 = variable (>= 2), 0 = any number
    n_states: int  # -1 = variable (>= 2), 0 = any number
    pure_only: bool
    evaluate: Callable[[tuple, tuple, dict], URReport]


UR_SPECS = {
    "heisenberg": URSpec("heisenberg", 2, 1, False, lambda o, s, e: heisenberg(*o, *s)),
    "schrodinger": URSpec("schrodinger", 2, 1, False, lambda o, s, e: schrodinger(*o, *s)),
    "robertson": URSpec("robertson", -1, 1, False, lambda o, s, e: robertson(o, *s)),
    "characteristic": URSpec(
        "characteristic", -1, 1, False, lambda o, s, e: characteristic(o, *s, e.get("r", len(o)))
    ),
    "type_1_2a": URSpec("type_1_2a", 1, 2, True, lambda o, s, e: type_1_2(*o, *s, "a")),
    "type_1_2b": URSpec("type_1_2b", 1, 2, True, lambda o, s, e: type_1_2(*o, *s, "b")),
    "type_2_1": URSpec("type_2_1", 2, 1, False, lambda o, s, e: type_2_1(*o, *s)),
    "type_2_2a": URSpec("type_2_2a", 2, 2, True, lambda o, s, e: type_2_2(*o, *s, "a")),
    "type_2_2b": URSpec("type_2_2b", 2, 2, True, lambda o, s, e: type_2_2(*o, *s, "b")),
    "extended_schrodinger": URSpec(
        "extended_schrodinger", 2, 2, True, lambda o, s, e: extended_schrodinger(*o, *s)
    ),
    "entangled_heisenberg": URSpec(
        "entangled_heisenberg", 2, 2, True, lambda o, s, e: entangled_heisenberg(*o, *s)
    ),
    "type_3_1": URSpec("type_3_1", 3, 1, True, lambda o, s, e: type_3_1(*o, *s)),
    "type_2_m": URSpec("type_2_m", 2, -1, False, lambda o, s, e: type_2_m(*o, s)),
    "coherent_fixed": URSpec("coherent_fixed", 2, 1, False, lambda o, s, e: coherent_fixed(*o, *s)),
}

# The characteristic gaps build one psd matrix per state before checking, so
# they take any number of observables and states; UR_SPECS lists the others.
CHAR_GAP_IDS = ("char_gap_entangled", "char_gap_superadditive")
# the per-state matrices char_gap_from_states can build
H_CHOICES = ("robertson", "centered", "raw")


def _char_gap_evaluate(ur_id: str, observables, states, extras) -> URReport:
    r, h_choice = extras.get("r"), extras.get("h_choice", "robertson")
    return char_gap_from_states(ur_id, observables, states, r=r, h_choice=h_choice)


_SPECS = {
    **UR_SPECS,
    **{g: URSpec(g, 0, 0, False, partial(_char_gap_evaluate, g)) for g in CHAR_GAP_IDS},
}


def evaluate_ur(ur_id: str, observables, states, **extras) -> URReport:
    """Evaluate a catalog check by name on explicit observables and states.

    ``extras`` forwards check-specific parameters: r (characteristic and the
    characteristic gaps), h_choice (the characteristic gaps).
    """
    spec = _SPECS.get(ur_id)
    if spec is None:
        raise InputError(f"unknown UR id {ur_id!r}")
    observables = tuple(observables)
    states = tuple(states)
    for what, want, got in (
        ("observables", spec.n_observables, len(observables)),
        ("states", spec.n_states, len(states)),
    ):
        if want > 0 and got != want:
            raise InputError(f"{ur_id} takes {want} {what}, got {got}")
        if want < 0 and got < 2:
            raise InputError(f"{ur_id} takes at least 2 {what}")
    return spec.evaluate(observables, states, extras)


def char_gap_from_states(
    ur_kind: str, observables, states, r: int | None = None, h_choice: str = "robertson"
) -> URReport:
    """Build per-state matrices with one of the physical choices and run the
    requested characteristic gap check over them.

    ``h_choice`` is "robertson", "centered", or "raw"; the centered and raw
    Gram choices need one pure state per observable and are applied per state
    by using that state in every slot.
    """
    if ur_kind not in CHAR_GAP_IDS:
        raise InputError(f"unknown characteristic-gap kind {ur_kind!r}")
    mats = []
    for s in states:
        if h_choice == "robertson":
            mats.append(robertson_matrix(observables, s))
        elif h_choice == "centered":
            mats.append(gram_centered(observables, [s] * len(observables)))
        elif h_choice == "raw":
            mats.append(gram_raw(observables, [s] * len(observables)))
        else:
            raise InputError(f"unknown H choice {h_choice!r}")
    if r is None:
        r = len(observables)
    return char_gap_check(mats, r, ur_kind.removeprefix("char_gap_"))
