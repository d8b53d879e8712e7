"""Saturation diagnostics, slack minimization over the Gaussian family,
precision comparison between checks, saturation-transfer audits, and
observable-induced divergences."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .catalog import SPECS, UR_SPECS, _pairwise_extended_sides, _schrodinger_sides, evaluate_ur
from .catalog import _admit, _admit_keys, _cross_vector, slack_derivatives, type_1_2
from .errors import InputError, TruncationError
from .linalg import as_choice, as_container, as_integer, as_numbers, as_real, as_seed, slack_scale
from .linalg import slack_tolerance
from .model import Observable, PureState, fock_operators, squeezed_state
from .model import _check_dim, _displacement_edge, _squeeze_edge, _squeezed_tangents
from .moments import moment_set

_TINY = 1e-300
TIE_TOL = 1e-12  # rounding: a tie in compare_precision, no violation in triangle_scan


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
    _admit(UR_SPECS["type_1_2a"], (x,), (psi1, psi2), {})
    chis = [_cross_vector(moment_set((x,), s), s, "a") for s in (psi1, psi2)]
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
    slack: float
    tol: float
    iterations: int
    evaluations: int
    gradients: int
    converged: bool
    truncation_rejects: int
    slots: tuple[GaussianParams, ...]


_GRAD_TOL, _F_NOISE = 1e-7, 1e-13  # the certificate; a slack of order one's rounding floor

ALPHA_BOX = 1.4  # the largest displacement modulus minimize_slack searches


def nelder_mead(f, x0, budget=2000, project=None):
    """Projected quasi-Newton descent of `f` from `x0` over the convex set
    onto which `project` maps (all of R^n when None); returns
    (x, f(x), iterations, evaluations, converged).

    `f(x)` returns the value and a no-argument callable for the gradient at
    x (None where the value is not finite), called only at accepted points.
    Each iteration steps along the projected path x(t) = P(x - t H g), H the
    BFGS inverse-Hessian estimate, halving t from 1 until f(x(t)) <= f(x) +
    1e-4 g.(x(t) - x) + 2e-13 max(1, |f(x)|): Armijo's test as in Bertsekas
    (SIAM J. Control Optim. 20, 1982), relaxed by twice the rounding floor of
    f (Berahas, Byrd & Nocedal, SIAM J. Optim. 29, 2019) so that the exact
    gradient can move it across values that rounding cannot order. H is reset
    once when no step is accepted. `converged` means |x - P(x - g)| <= 1e-7,
    a first-order certificate of a minimum over the set. `budget` caps the
    evaluations: 1 per value and 2n per gradient (the probes of a central
    difference), a gradient taken only when those fit. A non-finite value is
    a barrier: the line search backtracks from it.

    The benchmark's tracer wraps this module global by name to count the
    objective calls, and `minimize_slack` calls it through that global once
    per start, so it keeps its historical name until the benchmark renames it.
    """
    project = project or (lambda x: x)
    x = project(np.asarray(x0, dtype=float))
    n = x.size
    (fx, grad), evals, iterations, h_inv = f(x), 1, 0, None

    def gradient(fx, grad):  # None when the value is not finite or the budget is spent
        nonlocal evals
        if math.isfinite(fx) and evals + 2 * n <= budget:
            evals += 2 * n
            return grad()

    g = gradient(fx, grad)
    while g is not None:
        if np.linalg.norm(x - project(x - g)) <= _GRAD_TOL:
            return x, fx, iterations, evals, True
        d, t = (-g if h_inv is None else -(h_inv @ g)), 1.0
        for _ in range(40):
            xt = project(x + t * d)
            decrease = float(g @ (xt - x))
            t *= 0.5
            if decrease < 0 and evals < budget:
                (ft, grad), evals = f(xt), evals + 1
                if ft <= fx + 1e-4 * decrease + 2 * _F_NOISE * max(1.0, abs(fx)):
                    break
        else:
            if h_inv is None:
                break
            h_inv = None
            continue
        iterations += 1
        g_new = gradient(ft, grad)
        if g_new is not None:
            s, y = xt - x, g_new - g
            sy = float(s @ y)
            if sy > 0:
                v = np.eye(n) - np.outer(s, y) / sy
                h0 = np.eye(n) * (sy / float(y @ y)) if h_inv is None else h_inv
                h_inv = v @ h0 @ v.T + np.outer(s, s) / sy
        x, fx, g = xt, ft, g_new
    return x, fx, iterations, evals, False


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
    extras: dict | None = None,
) -> MinimizationResult:
    """Minimize the slack of a catalog check over displaced squeezed states.

    Each free slot contributes four real parameters (Re alpha, Im alpha, r,
    phi; `init` is a first start) within the box |r| <= r_max = min(1, the
    truncation audit's squeeze edge at alpha = 0 in `dim`) and |alpha| <=
    `ALPHA_BOX` (from dim 40; below it, as far as the audit admits every
    seeded start), onto which the descent projects; a state the audit still
    rejects is a barrier. The gradient is exact: the states' tangents
    (`model._squeezed_tangents`) through the check's own formula
    (`catalog.slack_derivatives`). The best start wins and carries its
    convergence verdict; `evaluations` (1 per value, 2n per gradient),
    `gradients` and `truncation_rejects` count over all.
    """
    spec = UR_SPECS[as_choice(ur_id, "minimize check id", UR_SPECS)]
    dim, seed = _check_dim(dim), as_seed(seed)
    budget, restarts = as_integer(budget, "budget", 1), as_integer(restarts, "restarts", 1)
    fixed_states = as_container(fixed_states, "fixed_states", "mapping")
    extras = as_container(extras, "extras", "mapping")
    _admit_keys(spec, extras)
    if free_slots is not None:
        free_slots = list(as_container(free_slots, "free_slots", "sequence"))
    n_slots = spec.n_states if spec.n_states >= 0 else len(fixed_states) + len(free_slots or [1])
    fixed_states = {
        as_integer(slot, "fixed_states key", 0, n_slots - 1): s for slot, s in fixed_states.items()
    }
    if free_slots is None:
        free_slots = [i for i in range(n_slots) if i not in fixed_states]
    free_slots = [as_integer(slot, "free slot", 0, n_slots - 1) for slot in free_slots]
    if not free_slots:
        raise InputError("no free state slots to optimize")
    if sorted(free_slots + list(fixed_states)) != list(range(n_slots)):
        raise InputError(
            f"free slots {free_slots} and fixed slots {sorted(fixed_states)} must number "
            f"the {n_slots} state slots 0..{n_slots - 1} once each"
        )

    n_par = 4 * len(free_slots)
    starts = [np.zeros(n_par)]
    if init is not None:
        x0 = as_numbers(init, "init")
        if x0.shape != (n_par,) or x0.imag.any():
            raise InputError(f"init must hold 4 finite reals per free slot, {n_par} in all")
        starts.insert(0, x0.real)
    r_max = min(1.0, _squeeze_edge(dim, 0.0))
    reach = math.hypot(0.6, 0.6)  # a seeded start's largest |alpha| / a_max; |r| <= 0.7 r_max
    a_max = min(ALPHA_BOX, _displacement_edge(dim, 0.7 * r_max, reach * ALPHA_BOX) / reach)
    template = [fixed_states.get(slot) for slot in range(n_slots)]

    def project(x: np.ndarray) -> np.ndarray:
        # the nearest point of the box: each alpha scaled into its disc, each r clipped
        v = x.reshape(-1, 4).copy()
        v[:, :2] *= (a_max / np.maximum(np.hypot(v[:, 0], v[:, 1]), a_max))[:, None]
        v[:, 2] = np.clip(v[:, 2], -r_max, r_max)
        return v.ravel()

    def slot_params(x: np.ndarray) -> list[GaussianParams]:
        return [GaussianParams(complex(a, b), r, phi) for a, b, r, phi in x.reshape(-1, 4).tolist()]

    def build_states(params: list[GaussianParams]):
        states = list(template)
        for slot, par in zip(free_slots, params):
            states[slot] = squeezed_state(par.alpha, par.r, par.phi, dim)
        return states

    rejects = gradients = 0

    def objective(x: np.ndarray):
        nonlocal rejects
        params = slot_params(x)
        try:
            states = build_states(params)
        except TruncationError:
            rejects += 1
            return math.inf, None

        def gradient() -> np.ndarray:
            nonlocal gradients
            gradients += 1
            tangents = {k: _squeezed_tangents(p.alpha, p.r, p.phi, states[k].amplitudes)
                        for k, p in zip(free_slots, params)}
            return slack_derivatives(ur_id, observables, states, tangents, extras)

        return evaluate_ur(ur_id, observables, states, **extras).slack, gradient

    rng = np.random.default_rng(seed)
    box = ([-0.6, -0.6, -0.7, 0], [0.6, 0.6, 0.7, 2 * np.pi], (len(free_slots), 4))
    seeded = ((rng.uniform(*b) * [a_max, a_max, r_max, 1.0]).ravel() for b in repeat(box))

    best, evaluations = None, 0
    for x0 in islice(chain(starts, seeded), restarts):  # a seeded start is drawn as it descends
        xb, fb, iters, evals, conv = nelder_mead(objective, x0, budget=budget, project=project)
        evaluations += evals
        if best is None or fb < best[1]:
            best = (xb, fb, iters, conv)
    xb, _, iters, conv = best
    report = evaluate_ur(ur_id, observables, build_states(slot_params(xb)), **extras)
    return MinimizationResult(
        ur_id=ur_id,
        slack=report.slack,
        tol=report.tol,
        iterations=iters,
        evaluations=evaluations,
        gradients=gradients,
        converged=conv,
        truncation_rejects=rejects,
        slots=tuple(slot_params(xb)),
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
    Ties count one half toward either fraction. ``min_relative_slack_*`` is
    the least slack / slack_scale(lhs, rhs), the quantity `URReport.holds`
    compares with -rtol. The stored counterexamples are the extremal
    instances of each relative ordering direction.
    """

    ur_a: str
    ur_b: str
    size: int
    fraction_a_tighter: float
    fraction_a_tighter_relative: float
    ties: int
    min_slack_a: float
    min_slack_b: float
    min_relative_slack_a: float
    min_relative_slack_b: float
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
) -> PrecisionStats:
    """Evaluate two checks on each (label, observables, states) instance and
    record which is closer to saturation, raw and relative."""
    extras_a = as_container(extras_a, "extras_a", "mapping")
    extras_b = as_container(extras_b, "extras_b", "mapping")
    for ur_id, extras in ((ur_a, extras_a), (ur_b, extras_b)):
        _admit_keys(SPECS[as_choice(ur_id, "UR id", SPECS)], extras)
    n_raw_a = n_rel_a = 0.0
    ties = 0
    ex_a = ex_b = None
    gap_a = gap_b = 0.0
    min_a = min_b = min_rel_a = min_rel_b = math.inf
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
        min_rel_a = min(min_rel_a, sa / slack_scale(ra.lhs, ra.rhs))
        min_rel_b = min(min_rel_b, sb / slack_scale(rb.lhs, rb.rhs))
        if abs(sa - sb) <= TIE_TOL * max(1.0, abs(sa), abs(sb)):
            n_raw_a += 0.5
        elif sa < sb:
            n_raw_a += 1.0
        if abs(za - zb) <= TIE_TOL:
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
        min_relative_slack_a=min_rel_a,
        min_relative_slack_b=min_rel_b,
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
    eps_prime = 10 epsilon. The non-inverse example shows the converse failing."""

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
) -> SaturationTransferAudit:
    """Audit saturation transfer from the extended Schrödinger check to the
    per-state Schrödinger checks over (psi1, psi2) pairs.

    Moment sets are cached per state object, so pair ensembles drawn from a
    pool of states evaluate in time linear in the pool size.
    """
    epsilon = as_real(epsilon, "epsilon", 0.0)
    eps_prime = 10.0 * epsilon
    cache: dict[int, tuple] = {}

    def stats(state):
        key = id(state)
        if key not in cache:
            ms = moment_set((x, y), state)
            lhs, rhs = _schrodinger_sides((ms,), {})
            cache[key] = (ms, float(lhs - rhs))
        return cache[key]

    violations = []
    n_triggered = 0
    non_inverse = None
    best_gap = 100.0 * eps_prime
    size = 0
    for idx, (s1, s2) in enumerate(pairs):
        ms1, sur1 = stats(s1)
        ms2, sur2 = stats(s2)
        lhs, rhs = _pairwise_extended_sides((ms1, ms2))
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
):
    """A pool of displaced squeezed states and seeded state pairs drawn from it.

    Each state has alpha uniform in the unit disc and r uniform with |r| <=
    min(0.9, the truncation audit's squeeze edge at |alpha| = 1 in `dim`), so
    every draw passes the audit. Returns (x, y, pairs) with (x, y) the quadrature pair at `dim` and
    `pairs` a list of (state, state) tuples (repeats across pairs are
    intentional so the audit's moment cache is effective).
    """
    n_pairs, dim = as_integer(n_pairs, "n_pairs", 1), _check_dim(dim)
    seed, pool_size = as_seed(seed), as_integer(pool_size, "pool_size", 1)
    try:
        r_max = min(0.9, _squeeze_edge(dim, 1.0))
    except TruncationError as exc:  # |alpha| = 1 fails even unsqueezed
        raise InputError(f"gaussian_pair_ensemble needs dimension >= {exc.required_dim}") from exc
    rng = np.random.default_rng(seed)
    pool_size = min(pool_size, max(2, n_pairs))
    pool = []
    for _ in range(pool_size):
        amag = math.sqrt(rng.uniform())
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


def triangle_scan(x: Observable, states, variant: str = "a") -> float:
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
                if d[i, k] > d[i, j] + d[j, k] + TIE_TOL:
                    violations += 1
    return violations / triples if triples else 0.0
