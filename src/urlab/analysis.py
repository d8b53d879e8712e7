"""Saturation diagnostics, slack minimization over the Gaussian family,
precision comparison between checks, saturation-transfer audits, and
observable-induced divergences."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import UR_SPECS, _pairwise_extended_sides, evaluate_ur, type_1_2
from .errors import InputError, TruncationError
from .linalg import slack_tolerance
from .model import Observable, PureState, fock_operators, squeezed_state
from .moments import moment_set

_TINY = 1e-300


@dataclass(frozen=True)
class SaturationCertificate:
    """Proportionality certificate for the centered two-state check.

    ``degenerate`` marks the case of a vanishing centered vector (an
    eigenstate of X in some slot), where the proportionality condition is
    vacuous and no lambda is defined.
    """

    is_saturated: bool
    lam: complex | None
    residual: float
    degenerate: bool = False


def saturation_1_2a(x: Observable, psi1: PureState, psi2: PureState) -> SaturationCertificate:
    """Test whether (X - <X>_2)|psi2> = lambda (X - <X>_1)|psi1>.

    The residual is the smallest singular value of the stacked centered pair
    divided by the largest; the saturation verdict matches the type (1,2)
    variant "a" check because the product of the two singular values squared
    is exactly that check's slack.
    """
    for i, s in enumerate((psi1, psi2)):
        if not isinstance(s, PureState):
            raise InputError(f"state {i} must be pure")
    chis = []
    for s in (psi1, psi2):
        xs = x.matrix @ s.amplitudes
        mean = np.vdot(s.amplitudes, xs).real
        chis.append(xs - mean * s.amplitudes)
    norms = [float(np.linalg.norm(c)) for c in chis]
    op_scale = max(1.0, float(np.max(np.abs(x.matrix))))
    if min(norms) <= 1e-10 * op_scale:
        return SaturationCertificate(True, None, 0.0, degenerate=True)
    svals = np.linalg.svd(np.array(chis), compute_uv=False)
    residual = float(svals[-1] / svals[0])
    slack = float((svals[0] * svals[-1]) ** 2)
    lhs = norms[0] ** 2 * norms[1] ** 2
    saturated = slack <= slack_tolerance(lhs, lhs - slack)
    lam = complex(np.vdot(chis[0], chis[1]) / norms[0] ** 2)
    return SaturationCertificate(saturated, lam, residual)


# ---------------------------------------------------------------------------
# slack minimization over displaced squeezed states


@dataclass(frozen=True)
class GaussianParams:
    """Displaced-squeezed family coordinates of one state slot."""

    alpha: complex
    r: float
    phi: float


@dataclass(frozen=True)
class MinimizationResult:
    ur_id: str
    slots: tuple[GaussianParams, ...]
    slack: float
    tol: float
    iterations: int
    evaluations: int
    converged: bool


def nelder_mead(f, x0, step=0.25, budget=2000, stall_iters=20, ftol=1e-10):
    """Simplex descent; converged when the best value improves by less than
    `ftol` over the final `stall_iters` iterations and the simplex's values
    lie within `ftol` of each other.

    A stall while the values still spread wider is stagnation, not a minimum:
    the simplex has flattened across a narrow valley, and restarting from its
    best vertex with the same step repeats the same stall. The simplex is
    rebuilt around the best vertex at a tenth of its size and the descent
    goes on, a restart in the manner of Kelley (SIAM J. Optim. 10, 1999).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size

    def axis_simplex(x0, f0, size):
        simplex, fvals = [x0], [f0]
        for i in range(n):
            x = x0.copy()
            x[i] += size
            simplex.append(x)
            fvals.append(f(x))
        return simplex, fvals

    simplex, fvals = axis_simplex(x0.copy(), f(x0), step)
    evals = n + 1
    history = [min(fvals)]
    iterations = 0
    converged = False
    while evals < budget:
        iterations += 1
        order = np.argsort(fvals)
        simplex = [simplex[k] for k in order]
        fvals = [fvals[k] for k in order]
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = f(xr)
        evals += 1
        if fvals[0] <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(xe)
            evals += 1
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = f(xc)
            evals += 1
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for k in range(1, n + 1):
                    simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
                    fvals[k] = f(simplex[k])
                evals += n
        history.append(min(fvals))
        if len(history) > stall_iters and history[-stall_iters - 1] - history[-1] < ftol:
            if max(fvals) - min(fvals) < ftol:
                converged = True
                break
            best = int(np.argmin(fvals))
            size = max(float(np.abs(v - simplex[best]).max()) for v in simplex)
            simplex, fvals = axis_simplex(simplex[best], fvals[best], 0.1 * size)
            evals += n
            history = [fvals[0]]
    best = int(np.argmin(fvals))
    return simplex[best], fvals[best], iterations, evals, converged


def minimize_slack(
    ur_id: str,
    observables,
    dim: int,
    free_slots=None,
    fixed_states: dict | None = None,
    init=None,
    budget: int = 400,
    restarts: int = 8,
    seed: int = 0,
    alpha_max: float = 1.4,
    r_max: float = 1.0,
    extras: dict | None = None,
) -> MinimizationResult:
    """Minimize the slack of a catalog check over displaced squeezed states.

    Each free slot contributes four real parameters (Re alpha, Im alpha, r,
    phi). Parameters outside the truncation-safe box are clipped for state
    construction and penalized quadratically, so the optimum is searched in
    the admissible region. Restarts run from seeded initial points; the best
    run wins and carries its convergence verdict.
    """
    spec = UR_SPECS.get(ur_id)
    if spec is None:
        raise InputError(f"unknown UR id {ur_id!r}")
    fixed_states = dict(fixed_states or {})
    extras = dict(extras or {})
    n_slots = spec.n_states if spec.n_states >= 0 else len(fixed_states) + len(free_slots or [1])
    if free_slots is None:
        free_slots = [i for i in range(n_slots) if i not in fixed_states]
    free_slots = list(free_slots)
    if not free_slots:
        raise InputError("no free state slots to optimize")
    if sorted(free_slots + list(fixed_states)) != list(range(n_slots)):
        raise InputError(
            f"free slots {free_slots} and fixed slots {sorted(fixed_states)} must number "
            f"the {n_slots} state slots 0..{n_slots - 1} once each"
        )

    template = [fixed_states.get(slot) for slot in range(n_slots)]

    def unpack(x: np.ndarray) -> tuple[list[tuple[complex, float, float]], float]:
        """(alpha, r, phi) per free slot, clipped to the truncation-safe box,
        and the quadratic penalty for leaving it."""
        penalty = 0.0
        slots = []
        values = x.tolist()
        for k in range(len(free_slots)):
            re, im, r, phi = values[4 * k : 4 * k + 4]
            amag = math.hypot(re, im)
            if amag > alpha_max:
                penalty += 1e3 * (amag - alpha_max) ** 2
                f = alpha_max / amag
                re, im = re * f, im * f
            if abs(r) > r_max:
                penalty += 1e3 * (abs(r) - r_max) ** 2
                r = math.copysign(r_max, r)
            slots.append((complex(re, im), r, phi))
        return slots, penalty

    def build_states(slots):
        states = list(template)
        for slot, (alpha, r, phi) in zip(free_slots, slots):
            states[slot] = squeezed_state(alpha, r, phi, dim)
        return states

    def objective(x: np.ndarray) -> float:
        slots, penalty = unpack(x)
        try:
            report = evaluate_ur(ur_id, observables, build_states(slots), **extras)
        except TruncationError:
            return 1e6 + penalty
        return report.slack + penalty

    rng = np.random.default_rng(seed)
    n_par = 4 * len(free_slots)
    starts = []
    if init is not None:
        starts.append(np.asarray(init, dtype=float))
    starts.append(np.zeros(n_par))
    while len(starts) < max(1, restarts):
        x = np.zeros(n_par)
        for k in range(len(free_slots)):
            x[4 * k] = rng.uniform(-0.6, 0.6) * alpha_max
            x[4 * k + 1] = rng.uniform(-0.6, 0.6) * alpha_max
            x[4 * k + 2] = rng.uniform(-0.7, 0.7) * r_max
            x[4 * k + 3] = rng.uniform(0, 2 * np.pi)
        starts.append(x)

    best = None
    for x0 in starts[: max(1, restarts)]:
        xb, fb, iters, evals, conv = nelder_mead(objective, x0, budget=budget)
        if best is None or fb < best[1]:
            best = (xb, fb, iters, evals, conv)
    xb, _, iters, evals, conv = best
    slots, _ = unpack(xb)
    report = evaluate_ur(ur_id, observables, build_states(slots), **extras)
    return MinimizationResult(
        ur_id=ur_id,
        slots=tuple(GaussianParams(*slot) for slot in slots),
        slack=report.slack,
        tol=report.tol,
        iterations=iters,
        evaluations=evals,
        converged=conv,
    )


# ---------------------------------------------------------------------------
# precision comparison


@dataclass(frozen=True)
class CounterExample:
    label: str
    slack_a: float
    slack_b: float
    defect_a: float
    defect_b: float


@dataclass(frozen=True)
class PrecisionStats:
    """Slack orderings of two checks over a shared ensemble.

    ``fraction_a_tighter`` orders raw slacks; ``fraction_a_tighter_relative``
    orders the relative saturation defects slack / max(|lhs|, |rhs|), which
    compare meaningfully across checks whose sides live on different scales.
    Ties count one half toward either fraction. The stored counterexamples
    are the extremal instances of each relative ordering direction.
    """

    ur_a: str
    ur_b: str
    size: int
    fraction_a_tighter: float
    fraction_a_tighter_relative: float
    ties: int
    min_slack_a: float
    min_slack_b: float
    example_a_tighter: CounterExample | None
    example_b_tighter: CounterExample | None


def _relative_defect(report) -> float:
    return report.slack / max(abs(report.lhs), abs(report.rhs), _TINY)


def compare_precision(
    ur_a: str,
    ur_b: str,
    instances,
    extras_a: dict | None = None,
    extras_b: dict | None = None,
    tie_tol: float = 1e-12,
) -> PrecisionStats:
    """Evaluate two checks on each (label, observables, states) instance and
    record which is closer to saturation, raw and relative."""
    extras_a = dict(extras_a or {})
    extras_b = dict(extras_b or {})
    n_raw_a = n_rel_a = 0.0
    ties = 0
    ex_a = ex_b = None
    gap_a = gap_b = 0.0
    min_a = math.inf
    min_b = math.inf
    size = 0
    for label, observables, states in instances:
        try:
            ra = evaluate_ur(ur_a, observables, states, **extras_a)
            rb = evaluate_ur(ur_b, observables, states, **extras_b)
        except InputError as exc:
            raise InputError(f"incompatible signatures for {ur_a} vs {ur_b}: {exc}") from exc
        size += 1
        sa, sb = ra.slack, rb.slack
        za, zb = _relative_defect(ra), _relative_defect(rb)
        min_a = min(min_a, sa)
        min_b = min(min_b, sb)
        if abs(sa - sb) <= tie_tol * max(1.0, abs(sa), abs(sb)):
            n_raw_a += 0.5
        elif sa < sb:
            n_raw_a += 1.0
        if abs(za - zb) <= tie_tol:
            n_rel_a += 0.5
            ties += 1
        elif za < zb:
            n_rel_a += 1.0
            if zb - za > gap_a:
                gap_a = zb - za
                ex_a = CounterExample(label, sa, sb, za, zb)
        else:
            if za - zb > gap_b:
                gap_b = za - zb
                ex_b = CounterExample(label, sa, sb, za, zb)
    if size == 0:
        raise InputError("compare_precision needs at least one instance")
    return PrecisionStats(
        ur_a=ur_a,
        ur_b=ur_b,
        size=size,
        fraction_a_tighter=n_raw_a / size,
        fraction_a_tighter_relative=n_rel_a / size,
        ties=ties,
        min_slack_a=min_a,
        min_slack_b=min_b,
        example_a_tighter=ex_a,
        example_b_tighter=ex_b,
    )


# ---------------------------------------------------------------------------
# saturation-transfer audit


@dataclass(frozen=True)
class NonInverseExample:
    index: int
    extended_slack: float
    schrodinger_slack_1: float
    schrodinger_slack_2: float


@dataclass(frozen=True)
class SaturationTransferAudit:
    """Forward direction: whenever the extended check is saturated within
    epsilon, both single-state Schrödinger checks are saturated within
    eps_prime. The non-inverse example shows the converse failing."""

    size: int
    epsilon: float
    eps_prime: float
    n_triggered: int
    violations: tuple[int, ...]
    non_inverse: NonInverseExample | None


def saturation_transfer_audit(
    x: Observable,
    y: Observable,
    pairs,
    epsilon: float = 1e-8,
    eps_factor: float = 10.0,
) -> SaturationTransferAudit:
    """Audit saturation transfer from the extended Schrödinger check to the
    per-state Schrödinger checks over (psi1, psi2) pairs.

    Moment sets are cached per state object, so pair ensembles drawn from a
    pool of states evaluate in time linear in the pool size.
    """
    eps_prime = eps_factor * epsilon
    cache: dict[int, tuple] = {}

    def stats(state):
        key = id(state)
        if key not in cache:
            ms = moment_set((x, y), state)
            comm = ms.comm(0, 1)
            sur = ms.sigma[0, 0] * ms.sigma[1, 1] - ms.sigma[0, 1] ** 2 - abs(comm) ** 2 / 4
            cache[key] = (ms, comm, float(sur))
        return cache[key]

    violations = []
    n_triggered = 0
    non_inverse = None
    best_gap = 100.0 * eps_prime
    size = 0
    for idx, (s1, s2) in enumerate(pairs):
        ms1, c1, sur1 = stats(s1)
        ms2, c2, sur2 = stats(s2)
        lhs, rhs = _pairwise_extended_sides([ms1, ms2], [c1, c2])
        slack = lhs - rhs
        size += 1
        if slack <= epsilon:
            n_triggered += 1
            if sur1 > eps_prime or sur2 > eps_prime:
                violations.append(idx)
        if sur1 <= eps_prime and sur2 <= eps_prime and slack > best_gap:
            best_gap = slack
            non_inverse = NonInverseExample(idx, float(slack), sur1, sur2)
    return SaturationTransferAudit(
        size=size,
        epsilon=epsilon,
        eps_prime=eps_prime,
        n_triggered=n_triggered,
        violations=tuple(violations),
        non_inverse=non_inverse,
    )


def gaussian_pair_ensemble(
    n_pairs: int,
    dim: int = 64,
    seed: int = 0,
    pool_size: int = 200,
    alpha_max: float = 1.0,
    r_max: float = 0.9,
):
    """A pool of displaced squeezed states and seeded state pairs drawn from it.

    Returns (x, y, pairs) with (x, y) the quadrature pair at `dim` and
    `pairs` a list of (state, state) tuples (repeats across pairs are
    intentional so the audit's moment cache is effective).
    """
    rng = np.random.default_rng(seed)
    pool_size = min(pool_size, max(2, n_pairs))
    pool = []
    for _ in range(pool_size):
        amag = alpha_max * math.sqrt(rng.uniform())
        aph = rng.uniform(0, 2 * math.pi)
        alpha = amag * complex(math.cos(aph), math.sin(aph))
        r = rng.uniform(-r_max, r_max)
        phi = rng.uniform(0, 2 * math.pi)
        pool.append(squeezed_state(alpha, r, phi, dim))
    idx = rng.integers(0, pool_size, size=(n_pairs, 2))
    pairs = [(pool[i], pool[j]) for i, j in idx]
    q, p = fock_operators(dim)
    return q, p, pairs


# ---------------------------------------------------------------------------
# observable-induced divergence


def divergence(x: Observable, psi1: PureState, psi2: PureState, variant: str = "a") -> float:
    """Nonnegative square root of the type (1,2) slack.

    Vanishes exactly at saturation (in particular at psi1 = psi2) and is
    symmetric under swapping the states. Whether this matches any metric
    axioms beyond symmetry and nonnegativity is not asserted.
    """
    report = type_1_2(x, psi1, psi2, variant)
    return math.sqrt(max(0.0, report.slack))


def triangle_scan(x: Observable, states, variant: str = "a", margin: float = 1e-12) -> float:
    """Exploratory triangle-inequality violation rate of the divergence over
    all ordered triples of the given states. Reported, never asserted."""
    n = len(states)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = divergence(x, states[i], states[j], variant)
    triples = 0
    violations = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                triples += 1
                if d[i, k] > d[i, j] + d[j, k] + margin:
                    violations += 1
    return violations / triples if triples else 0.0
