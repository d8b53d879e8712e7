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
from .errors import InputError
from .linalg import slack_scale, slack_tolerance
from .model import DensityMatrix, Observable, PureState, QuantumState
from .moments import (
    GramUR,
    MomentSet,
    _audit_real,
    gram_centered,
    gram_raw,
    moment_set,
    moment_tangent,
    robertson_matrix,
)


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
    the bytes of its copied array, then the UTF-8 repr() of each extra, a
    numpy scalar's as its Python value's, so r=np.int64(2) hashes as r=2."""
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
        h.update(repr(x.item() if isinstance(x, np.generic) else x).encode())
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


def _real_audited(z, what: str):
    """The real part of a product of mean commutators, after auditing that its
    imaginary part is roundoff. A record stacked over tangent directions moves
    a record whose values passed this audit, and is not audited again."""
    return _audit_real(z, what) if z.ndim == 0 else z.real


# ---------------------------------------------------------------------------
# records and sides
#
# Each check gathers a record and applies one formula to it, sides(record,
# extras) -> (lhs, rhs). The record holds the MomentSet of each state slot, and
# for the (1,2) and (2,2) checks the cross-state inner product after them.
# Every formula indexes the record's arrays from the front, so it also reads a
# record whose arrays carry a stack of tangent directions on their last axis:
# `slack_derivatives` evaluates the same formulas on such a record.


def _slot_observables(observables, cross: str | None, slot: int):
    """The observables a state slot's MomentSet covers: all of them, or for a
    (1,2)/(2,2) record (``cross`` "a" or "b") X, the first, in slot 0 and Y,
    the last, in slot 1."""
    if cross is None:
        return observables
    return observables[:1] if slot == 0 else observables[-1:]


def _gather(observables, states, cross: str | None = None) -> tuple:
    """The record of a check: the moment_set of each state slot; with
    ``cross`` "a" or "b", then <u1|u2> with u1 = X|psi1>, u2 = Y|psi2>,
    centred by their means for "a"."""
    record = tuple([moment_set(_slot_observables(observables, cross, k), s)
                    for k, s in enumerate(states)])
    if cross is None:
        return record
    (ms1, ms2), (psi1, psi2) = record, states
    return ms1, ms2, np.vdot(_cross_vector(ms1, psi1, cross), _cross_vector(ms2, psi2, cross))


def _cross_vector(ms: MomentSet, psi: PureState, cross: str) -> np.ndarray:
    """u = X|psi> of a (1,2)/(2,2) record, centred by <X> for variant "a"."""
    return ms.rows[0] - ms.means[0] * psi.amplitudes if cross == "a" else ms.rows[0]


def _check(ur_id: str, observables, states, **extras) -> URReport:
    """Admit a call of a UR_SPECS check, gather its record, apply its sides and
    report; the extras' values join the digest in order."""
    spec = UR_SPECS[ur_id]
    _admit(spec, observables, states, extras)
    lhs, rhs = spec.sides(_gather(observables, states, spec.cross), extras)
    digest = _digest(ur_id, observables, states, extras.values())
    return _report(ur_id, len(observables), len(states), lhs, rhs, digest)


def _matrixwise(f, a: np.ndarray):
    """f of a matrix, or an array of f over a stack of matrices a[:, :, k]."""
    if a.ndim == 2:
        return f(a)
    return np.array([f(a[:, :, k]) for k in range(a.shape[2])])


def _heisenberg_sides(record, extras):
    (ms,) = record
    return ms.sigma[0, 0] * ms.sigma[1, 1], abs(ms.comm(0, 1)) ** 2 / 4


def _schrodinger_sides(record, extras):
    (ms,) = record
    lhs = ms.sigma[0, 0] * ms.sigma[1, 1] - ms.sigma[0, 1] ** 2
    return lhs, abs(ms.comm(0, 1)) ** 2 / 4


def _robertson_sides(record, extras):
    (ms,) = record
    return _matrixwise(np.linalg.det, ms.sigma), _matrixwise(np.linalg.det, ms.cmat)


def _characteristic_sides(record, extras):
    (ms,) = record
    r = extras.get("r", ms.means.shape[0])
    coeff = lambda m: linalg.char_coeffs(m)[r - 1]
    return _matrixwise(coeff, ms.sigma), _matrixwise(coeff, ms.cmat)


def _type_2_1_sides(record, extras):
    (ms,) = record
    lhs = (ms.sigma[0, 0] + ms.means[0] ** 2) * (ms.sigma[1, 1] + ms.means[1] ** 2)
    comm = abs(ms.comm(0, 1)) ** 2 / 4
    return lhs, (ms.sigma[0, 1] + ms.means[0] * ms.means[1]) ** 2 + comm


def _type_3_1_sides(record, extras):
    (ms,) = record
    lhs = ms.sigma[0, 0] * (ms.sigma[1, 1] + ms.sigma[2, 2])
    prod = ms.comm(0, 2) * ms.comm(1, 0)
    rhs = 2 * ms.sigma[0, 1] * ms.sigma[0, 2] + _real_audited(prod, "(3,1) commutator product") / 2
    return lhs, rhs


def _coherent_fixed_sides(record, extras):
    (ms,) = record
    return ms.sigma[0, 0] + ms.sigma[1, 1], 1.0


def _centered_cross_sides(record, extras):
    ms1, ms2, cross = record
    return ms1.sigma[0, 0] * ms2.sigma[0, 0], abs(cross) ** 2


def _raw_cross_sides(record, extras):
    ms1, ms2, cross = record
    mx1, my2 = ms1.means[0], ms2.means[0]
    return (ms1.sigma[0, 0] + mx1 * mx1) * (ms2.sigma[0, 0] + my2 * my2), abs(cross) ** 2


def _pairwise_extended_sides(record, extras=None):
    """Pairwise-symmetrized sides of the state-extended Schrödinger check over
    the record's states."""
    comms = [ms.comm(0, 1) for ms in record]
    lhs = 0.0
    rhs = 0.0
    m = len(record)
    for i in range(m):
        for j in range(i + 1, m):
            a, b = record[i], record[j]
            lhs += 0.5 * (a.sigma[0, 0] * b.sigma[1, 1] + b.sigma[0, 0] * a.sigma[1, 1])
            lhs -= a.sigma[0, 1] * b.sigma[0, 1]
            prod = comms[i] * np.conj(comms[j])
            rhs += _real_audited(prod, "commutator product") / 4
    return lhs, rhs


def _entangled_heisenberg_sides(record, extras):
    ms1, ms2 = record
    lhs = 0.5 * (ms1.sigma[0, 0] * ms2.sigma[1, 1] + ms2.sigma[0, 0] * ms1.sigma[1, 1])
    return lhs, abs(ms1.comm(0, 1) * ms2.comm(0, 1)) / 4


# step of the central difference in record space: exact up to rounding (about
# 1e-16 / step relative) for formulas of degree <= 2 in the record, and off by
# step^2 |third derivative| / 6 for the others
_RECORD_STEP = 1e-5


def _line(base, tangent: np.ndarray) -> np.ndarray:
    """base + step t and then base - step t for each tangent t of the last axis."""
    return np.asarray(base)[..., None] + np.concatenate([tangent, -tangent], axis=-1) * _RECORD_STEP


def slack_derivatives(ur_id: str, observables, states, tangents: dict, extras: dict) -> np.ndarray:
    """Derivatives of a UR_SPECS check's slack lhs - rhs at pure ``states``
    along state tangents.

    ``tangents`` maps state slots to arrays whose rows are tangent vectors
    d psi of that slot's amplitudes; the result holds one derivative per row,
    slot by slot. The record is gathered again, a memo hit once the check has
    run on these states. For each slot, its MomentSet and the cross term are
    moved to first order along every direction (`moments.moment_tangent`),
    and the check's own sides formula is applied to the record stacked at
    +step and -step. No state is built and no check is reported.
    """
    spec = UR_SPECS[ur_id]
    observables = tuple(observables)
    record = _gather(observables, states, spec.cross)
    out = []
    for slot, dpsi in tangents.items():
        ms, psi = record[slot], states[slot].amplitudes
        dms, drows = moment_tangent(_slot_observables(observables, spec.cross, slot), ms, psi, dpsi)
        moved = list(record)
        moved[slot] = MomentSet(_line(ms.means, dms.means), _line(ms.sigma, dms.sigma),
                                _line(ms.cmat, dms.cmat), _line(ms.m2, dms.m2), rows=None)
        if spec.cross is not None:
            # d<u1|u2> with u = X psi, centred for "a": du = X dpsi - d<X> psi - <X> dpsi
            du = drows[0]
            if spec.cross == "a":
                du = du - np.outer(dms.means[0], psi) - ms.means[0] * dpsi
            v = _cross_vector(record[1 - slot], states[1 - slot], spec.cross)
            moved[2] = _line(record[2], du.conj() @ v if slot == 0 else du @ v.conj())
        lhs, rhs = spec.sides(tuple(moved), extras)
        f = lhs - rhs
        out.append((f[: len(dpsi)] - f[len(dpsi) :]) / (2 * _RECORD_STEP))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# one-state checks


def heisenberg(x: Observable, y: Observable, state: QuantumState) -> URReport:
    """ΔX²ΔY² >= |<[X,Y]>|²/4."""
    return _check("heisenberg", (x, y), (state,))


def schrodinger(x: Observable, y: Observable, state: QuantumState) -> URReport:
    """ΔX²ΔY² − (ΔXY)² >= |<[X,Y]>|²/4, the two-observable Schwartz bound."""
    return _check("schrodinger", (x, y), (state,))


def robertson(observables, state: QuantumState) -> URReport:
    """det sigma >= det C for an n-tuple of observables, n >= 2."""
    return _check("robertson", observables, (state,))


def characteristic(observables, state: QuantumState, r: int) -> URReport:
    """C_r(sigma) >= C_r(C) for every characteristic order 1 <= r <= n."""
    return _check("characteristic", observables, (state,), r=r)


def type_2_1(x: Observable, y: Observable, state: QuantumState) -> URReport:
    """<X²><Y²> >= (ΔXY + <X><Y>)² + |<[X,Y]>|²/4, the uncentered pair check."""
    return _check("type_2_1", (x, y), (state,))


def type_3_1(x: Observable, y: Observable, z: Observable, psi: PureState) -> URReport:
    """ΔX²(ΔY² + ΔZ²) >= 2ΔXY ΔXZ + Re(<[X,Z]><[Y,X]>)/2 in one pure state.

    With Z = Y the slack is exactly twice the Schrödinger slack; with X = Y it
    reduces to ΔX² + ΔZ² >= 2ΔXZ.
    """
    return _check("type_3_1", (x, y, z), (psi,))


def coherent_fixed(x: Observable, y: Observable, state: QuantumState) -> URReport:
    """ΔX² + ΔY² >= 1 for a dimensionless canonical pair ([X, Y] = i).

    Ordinary check obtained from the canonical two-state extension by freezing
    one slot at a coherent state; minimized by coherent states only.
    """
    return _check("coherent_fixed", (x, y), (state,))


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
    if variant not in ("a", "b"):
        raise InputError(f"variant must be 'a' or 'b', got {variant!r}")
    return _check(family + variant, observables, (psi1, psi2))


def extended_schrodinger(
    x: Observable, y: Observable, psi1: PureState, psi2: PureState
) -> URReport:
    """State-extended Schrödinger check for two pure states:

    [ΔX²(ψ1)ΔY²(ψ2) + ΔX²(ψ2)ΔY²(ψ1)]/2 − ΔXY(ψ1)ΔXY(ψ2)
        >= Re(<[X,Y]>_1 <[X,Y]>_2*)/4.

    With ψ1 = ψ2 this is exactly the Schrödinger check.
    """
    return _check("extended_schrodinger", (x, y), (psi1, psi2))


def entangled_heisenberg(
    x: Observable, y: Observable, psi1: PureState, psi2: PureState
) -> URReport:
    """Entangled Heisenberg extension:

    [ΔX²(ψ1)ΔY²(ψ2) + ΔX²(ψ2)ΔY²(ψ1)]/2 >= |<[X,Y]>_1 <[X,Y]>_2|/4.

    For canonical X, Y the right side is 1/4, i.e. the doubled left side is
    bounded below by 1/2.
    """
    return _check("entangled_heisenberg", (x, y), (psi1, psi2))


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
    return _check("type_2_m", (x, y), states)


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
    it takes, whether they accept mixed states, which extras it takes), its
    evaluator, and its sides formula over the record `_gather` makes
    (``cross`` names the (1,2)/(2,2) cross term, "a" centred or "b" raw).
    `_admit` enforces the signature. Evaluators call their check by its
    module-level name, so a rebinding is honoured."""

    ur_id: str
    n_observables: int  # -1 = at least 2, 0 = at least 1 (the two gaps)
    n_states: int  # -1 = at least 2, 0 = at least 1 (the two gaps)
    pure_only: bool
    evaluate: Callable[[tuple, tuple, dict], URReport]
    sides: Callable[[tuple, dict], tuple] | None = None
    cross: str | None = None
    extras: tuple[str, ...] = ()


def _admit(spec: URSpec, observables, states, extras) -> None:
    """Raise InputError unless the call fits the check's signature: the counts
    of observables and states, only the extras it takes, an integer order r in
    1..n, an h_choice of H_CHOICES, and pure states only where ``pure_only`` or
    the h_choice builds a Gram. `evaluate_ur` admits a call before it
    dispatches and `_check` before it gathers, so a direct call meets the same
    rules."""
    for what, want, got in (
        ("observables", spec.n_observables, len(observables)),
        ("states", spec.n_states, len(states)),
    ):
        if want > 0 and got != want:
            raise InputError(f"{spec.ur_id} takes {want} {what}, got {got}")
        if want <= 0 and got < 1 - want:
            raise InputError(f"{spec.ur_id} takes at least {1 - want} {what}")
    for key in extras:
        if key not in spec.extras:
            takes = ", ".join(spec.extras) or "none"
            raise InputError(f"{spec.ur_id} takes no extra {key!r} (its extras: {takes})")
    r, n = extras.get("r", 1), len(observables)
    if not (type(r) is int or isinstance(r, np.integer)) or not 1 <= r <= n:  # no bool
        raise InputError(f"order r must be an integer in 1..{n}, got {r!r}")
    h_choice = extras.get("h_choice", "robertson")
    if h_choice not in H_CHOICES:
        raise InputError(f"h_choice must be one of {H_CHOICES}, got {h_choice!r}")
    if spec.pure_only or h_choice != "robertson":
        for i, s in enumerate(states):
            if not isinstance(s, PureState):
                raise InputError(f"state {i} must be pure for this check")


UR_SPECS = {
    "heisenberg": URSpec(
        "heisenberg", 2, 1, False, lambda o, s, e: heisenberg(*o, *s), _heisenberg_sides
    ),
    "schrodinger": URSpec(
        "schrodinger", 2, 1, False, lambda o, s, e: schrodinger(*o, *s), _schrodinger_sides
    ),
    "robertson": URSpec(
        "robertson", -1, 1, False, lambda o, s, e: robertson(o, *s), _robertson_sides
    ),
    "characteristic": URSpec(
        "characteristic", -1, 1, False,
        lambda o, s, e: characteristic(o, *s, e.get("r", len(o))), _characteristic_sides,
        extras=("r",),
    ),
    "type_1_2a": URSpec(
        "type_1_2a", 1, 2, True, lambda o, s, e: type_1_2(*o, *s, "a"), _centered_cross_sides, "a"
    ),
    "type_1_2b": URSpec(
        "type_1_2b", 1, 2, True, lambda o, s, e: type_1_2(*o, *s, "b"), _raw_cross_sides, "b"
    ),
    "type_2_1": URSpec(
        "type_2_1", 2, 1, False, lambda o, s, e: type_2_1(*o, *s), _type_2_1_sides
    ),
    "type_2_2a": URSpec(
        "type_2_2a", 2, 2, True, lambda o, s, e: type_2_2(*o, *s, "a"), _centered_cross_sides, "a"
    ),
    "type_2_2b": URSpec(
        "type_2_2b", 2, 2, True, lambda o, s, e: type_2_2(*o, *s, "b"), _raw_cross_sides, "b"
    ),
    "extended_schrodinger": URSpec(
        "extended_schrodinger", 2, 2, True,
        lambda o, s, e: extended_schrodinger(*o, *s), _pairwise_extended_sides,
    ),
    "entangled_heisenberg": URSpec(
        "entangled_heisenberg", 2, 2, True,
        lambda o, s, e: entangled_heisenberg(*o, *s), _entangled_heisenberg_sides,
    ),
    "type_3_1": URSpec(
        "type_3_1", 3, 1, True, lambda o, s, e: type_3_1(*o, *s), _type_3_1_sides
    ),
    "type_2_m": URSpec(
        "type_2_m", 2, -1, False, lambda o, s, e: type_2_m(*o, s), _pairwise_extended_sides
    ),
    "coherent_fixed": URSpec(
        "coherent_fixed", 2, 1, False, lambda o, s, e: coherent_fixed(*o, *s), _coherent_fixed_sides
    ),
}

# The characteristic gaps build one psd matrix per state before checking, so
# they take at least one observable and one state; UR_SPECS lists the others.
CHAR_GAP_IDS = ("char_gap_entangled", "char_gap_superadditive")
# the per-state matrices a characteristic gap can build
H_CHOICES = ("robertson", "centered", "raw")


def _char_gap(ur_id: str, observables, states, extras) -> URReport:
    """Body of an admitted gap call: one matrix per state by ``h_choice``, the
    centered and raw Grams with that state in every observable's slot."""
    h_choice, n = extras.get("h_choice", "robertson"), len(observables)
    if h_choice == "robertson":
        mats = [robertson_matrix(observables, s) for s in states]
    else:
        gram = gram_centered if h_choice == "centered" else gram_raw
        mats = [gram(observables, [s] * n) for s in states]
    return char_gap_check(mats, extras.get("r", n), ur_id.removeprefix("char_gap_"))


# every check id evaluate_ur takes: UR_SPECS and the two characteristic gaps
SPECS = {
    **UR_SPECS,
    **{
        g: URSpec(g, 0, 0, False, partial(_char_gap, g), extras=("r", "h_choice"))
        for g in CHAR_GAP_IDS
    },
}


def evaluate_ur(ur_id: str, observables, states, **extras) -> URReport:
    """Evaluate a catalog check by name on explicit observables and states.

    ``extras`` forwards check-specific parameters, those its spec declares:
    r (characteristic and the characteristic gaps), h_choice (the
    characteristic gaps). The call is admitted (`_admit`) before it dispatches.
    """
    spec = SPECS.get(ur_id)
    if spec is None:
        raise InputError(f"unknown UR id {ur_id!r}")
    observables = tuple(observables)
    states = tuple(states)
    _admit(spec, observables, states, extras)
    return spec.evaluate(observables, states, extras)


def char_gap_from_states(
    ur_kind: str, observables, states, r: int | None = None, h_choice: str = "robertson"
) -> URReport:
    """The characteristic gap ``ur_kind`` over per-state matrices of one of the
    physical choices ``h_choice`` ("robertson", "centered" or "raw"), at order
    r (default n), evaluated through `evaluate_ur`."""
    if ur_kind not in CHAR_GAP_IDS:
        raise InputError(f"unknown characteristic-gap kind {ur_kind!r}")
    extras = {"h_choice": h_choice} if r is None else {"r": r, "h_choice": h_choice}
    return evaluate_ur(ur_kind, observables, states, **extras)
