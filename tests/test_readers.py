"""The package's readers (`linalg.as_numbers`, `as_real`, `as_complex`,
`as_integer`, `as_seed`, `as_choice`) and every public entry that reads an
array, real, complex number, count, slot, seed or enumerated value (a check
id, variant, flavor, h_choice or sample kind) through them, before any cache."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

from urlab.analysis import compare_precision, divergence, gaussian_pair_ensemble, minimize_slack
from urlab.analysis import saturation_transfer_audit
from urlab.catalog import char_gap_check, char_gap_from_states, evaluate_ur, type_1_2, type_2_2
from urlab.ensembles import coherent_pair_grid, random_instances, scan_report, stream_rng
from urlab.errors import InputError
from urlab.linalg import as_choice, as_complex, as_integer, as_numbers, as_real, as_seed
from urlab.moments import robertson_matrix
from urlab.model import (
    Observable,
    PureState,
    coherent_state,
    fock_operators,
    quad_mix,
    quad_plus,
    raw_vector_state,
    sample,
    spin_operators,
    squeezed_state,
)

# the malformed values of each argument kind; a count is at least 1, a slot
# at least 0, and any integer is a seed (10**400 too, read mod 2^64)
_NOT_A_NUMBER = ("0.2", True, None, math.nan, math.inf, -math.inf)
_BAD = {
    "real": _NOT_A_NUMBER + (10**400,),
    "complex": _NOT_A_NUMBER + (10**400, complex(0, math.nan)),
    "count": _NOT_A_NUMBER + (10**400, 1.5, 0, -1),
    "slot": _NOT_A_NUMBER + (10**400, 1.5, -1),
    "seed": _NOT_A_NUMBER + (1.5, 3.0),
    # 8.0 and np.float64(8) equal the valid dimension 8, a cached key
    "dim": _NOT_A_NUMBER + (10**400, 1.5, 0, -1, 8.0, np.float64(8)),
}


def _heisenberg_minimum(**kwargs):
    args = {"budget": 5, "restarts": 1, "seed": 0, **kwargs}
    return minimize_slack("heisenberg", fock_operators(16), 16, **args)


def _extended_minimum(slot):
    return minimize_slack(
        "extended_schrodinger", fock_operators(16), 16, budget=5, restarts=1,
        fixed_states={slot: coherent_state(0, 16)}, free_slots=[1],
    )


def _audit(epsilon):
    q, p = fock_operators(16)
    psi = coherent_state(0.3, 16)
    return saturation_transfer_audit(q, p, [(psi, psi)], epsilon)


def _scan(ur_id="char_gap_entangled", dims=(2, 3), **pinned):
    return scan_report(ur_id, stream_rng(5, "scan"), list(dims), pinned)


# (entry, the argument's name in the error, its kind, a valid value, the call);
# a valid value equal to a malformed one (1 == True, 8 == 8.0) is called
# first, so that a cache keyed by it would answer the malformed one
ENTRIES = [
    ("coherent_state", "alpha", "complex", 0.5, lambda v: coherent_state(v, 16)),
    ("squeezed_state", "alpha", "complex", 0.1, lambda v: squeezed_state(v, 0.2, 0.0, 16)),
    ("squeezed_state", "r", "real", 0.2, lambda v: squeezed_state(0.1, v, 0.0, 16)),
    ("squeezed_state", "phi", "real", 0.0, lambda v: squeezed_state(0.1, 0.2, v, 16)),
    ("spin_operators", "j", "real", 1, spin_operators),
    ("sample", "seed", "seed", 3, lambda v: sample("pure", 4, v)),
    ("fock_operators", "Hilbert dimension", "dim", 8, fock_operators),
    ("quad_plus", "Hilbert dimension", "dim", 8, quad_plus),
    ("quad_mix", "Hilbert dimension", "dim", np.int64(8), quad_mix),
    ("minimize_slack", "budget", "count", 5, lambda v: _heisenberg_minimum(budget=v)),
    ("minimize_slack", "restarts", "count", 1, lambda v: _heisenberg_minimum(restarts=v)),
    ("minimize_slack", "seed", "seed", 7, lambda v: _heisenberg_minimum(restarts=2, seed=v)),
    ("minimize_slack", "free slot", "slot", 0, lambda v: _heisenberg_minimum(free_slots=[v])),
    ("minimize_slack", "fixed_states key", "slot", 0, _extended_minimum),
    ("saturation_transfer_audit", "epsilon", "real", 1e-8, _audit),
    ("gaussian_pair_ensemble", "n_pairs", "count", 2, lambda v: gaussian_pair_ensemble(v, 64)),
    ("gaussian_pair_ensemble", "pool_size", "count", 2,
     lambda v: gaussian_pair_ensemble(2, 64, pool_size=v)),
    ("gaussian_pair_ensemble", "seed", "seed", 1, lambda v: gaussian_pair_ensemble(2, 64, v)),
    ("stream_rng", "seed", "seed", 3, lambda v: stream_rng(v, "scan").random()),
    ("random_instances", "size", "count", 2, lambda v: random_instances("heisenberg", v, [2], 0)),
    ("random_instances", "seed", "seed", 0, lambda v: random_instances("heisenberg", 2, [2], v)),
    ("coherent_pair_grid", "extent", "real", 1, lambda v: coherent_pair_grid(32, v, 2)),
    ("coherent_pair_grid", "points", "count", 2, lambda v: coherent_pair_grid(32, 1.0, v)),
    ("scan_report", "Hilbert dimension", "dim", 8, lambda v: _scan(dims=[v])),
    ("scan_report", "Hilbert dimension", "dim", 8, lambda v: _scan(dim=v)),
    ("scan_report", "pinned 'n'", "count", 2, lambda v: _scan(n=v)),
    ("scan_report", "pinned 'm'", "count", 2, lambda v: _scan(m=v)),
    ("scan_report", "pinned 'r'", "count", 1, lambda v: _scan(r=v)),
    ("scan_report", "pinned 'n'", "count", 2, lambda v: _scan("robertson", n=v)),
    ("scan_report", "pinned 'm'", "count", 2, lambda v: _scan("type_2_m", m=v)),
    ("scan_report", "pinned 'r'", "count", 1, lambda v: _scan("characteristic", n=2, r=v)),
]

CASES = [
    pytest.param(call, name, valid, bad, id=f"{entry}-{name}-{bad!r}")
    for entry, name, kind, valid, call in ENTRIES
    for bad in _BAD[kind]
]


@pytest.mark.parametrize("call,name,valid,bad", CASES)
def test_each_entry_reads_its_arguments_before_any_cache(call, name, valid, bad):
    call(valid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{re.escape(name)} must be"):
            call(bad)


@pytest.mark.parametrize("value", [2, np.int8(2), np.uint64(2), 2.0, np.float32(2.0)])
def test_as_real_takes_python_and_numpy_reals(value):
    x = as_real(value, "x")
    assert type(x) is float and x == 2.0


@pytest.mark.parametrize("value", [np.True_, 1j, np.complex128(1), [1.0], 1e308 * 10])
def test_as_real_refuses_other_values(value):
    with pytest.raises(InputError, match="^x must be a finite real number, got"):
        as_real(value, "x")


def test_as_real_bounds():
    assert as_real(0, "epsilon", 0.0) == 0.0
    with pytest.raises(InputError, match="epsilon must be a finite real number >= 0, got"):
        as_real(-1e-300, "epsilon", 0.0)


@pytest.mark.parametrize("value", [2, np.int16(2), 2.0, np.float32(2.0), 2 + 0j, np.complex64(2)])
def test_as_complex_takes_python_and_numpy_numbers(value):
    z = as_complex(value, "alpha")
    assert type(z) is complex and z == 2


@pytest.mark.parametrize("value", [np.True_, False, "1j", complex(math.inf, 0), (1, 0)])
def test_as_complex_refuses_other_values(value):
    with pytest.raises(InputError, match="^alpha must be a finite complex number"):
        as_complex(value, "alpha")


def test_seeds_are_read_mod_2_to_the_64():
    assert as_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    assert as_seed(-1) == 2**64 - 1 == as_seed(2**128 - 1)
    assert as_seed(np.int64(-2)) == 2**64 - 2
    # 0..2^64-1 draw the streams they drew before the reader
    for seed in (0, 7, 2**64 - 1):
        assert sample("pure", 3, seed).amplitudes.tobytes() == sample(
            "pure", 3, seed - 2**64).amplitudes.tobytes()
        assert np.random.default_rng(seed).random() == np.random.default_rng(
            as_seed(seed)).random()


def test_as_integer_is_bounded_by_the_largest_array_size():
    assert as_integer(np.int64(sys.maxsize), "budget", 1) == sys.maxsize
    with pytest.raises(InputError, match=f"^budget must be an integer in 1..{sys.maxsize}, got 0$"):
        as_integer(0, "budget", 1)


def test_equal_readings_share_one_cache_entry():
    assert fock_operators(np.int64(12)) is fock_operators(12)
    assert quad_plus(np.uint16(12)) is quad_plus(12)
    assert spin_operators(np.float64(1.5)) is spin_operators(1.5)


def test_a_negative_seed_minimizes_as_its_64_bit_twin():
    a = _heisenberg_minimum(restarts=3, seed=-1)
    b = _heisenberg_minimum(restarts=3, seed=2**64 - 1)
    assert a == b


# numpy reads [True, 1.5] as a float array, so the bool hides from the dtype
@pytest.mark.parametrize(
    "call",
    [
        lambda: PureState([True, 0.0]),
        lambda: raw_vector_state([True, 1.5]),
        lambda: raw_vector_state((np.True_, 1.5)),
        lambda: Observable("x", [[1.0, True], [True, 1.0]]),
        lambda: Observable("x", [np.array([1.0, 0.0]), [0.0, np.True_]]),
        lambda: as_numbers([[[1.0, False]], [[0.5, 0.0]]], "pairs"),
    ],
)
def test_as_numbers_refuses_a_bool_among_numbers(call):
    with pytest.raises(InputError, match="must be an array of numbers$"):
        call()


def test_as_numbers_reads_python_integers_as_numbers():
    # an integer beyond int64 makes numpy's array an object array; its leaves
    # are numbers, read as complex() reads them, unless beyond the float range
    assert as_numbers([2**70, 1.5], "x").tolist() == [complex(2**70), 1.5]
    with pytest.raises(InputError, match="^x contains non-finite entries$"):
        as_numbers([10**400, 1.5], "x")
    c = np.eye(2, dtype=complex)
    assert as_numbers(c, "x") is c


# ---------------------------------------------------------------------------
# enumerated arguments

_Q, _P = fock_operators(16)
_PSI, _PHI = coherent_state(0.3, 16), coherent_state(-0.2j, 16)


def _pair_stats(ur_a):
    return compare_precision(ur_a, "heisenberg", [("i", (_Q, _P), (_PSI,))])


# (entry, the argument's name in the error, a valid value, a wrong string, the
# call); a wrong string for minimize and the random instances is a real id
# they do not take, a characteristic gap
CHOICE_ENTRIES = [
    ("evaluate_ur", "UR id", "heisenberg", "heisenbrg",
     lambda v: evaluate_ur(v, (_Q, _P), (_PSI,))),
    ("evaluate_ur", "h_choice", "raw", "Raw",
     lambda v: evaluate_ur("char_gap_entangled", (_Q, _P), (_PSI,), h_choice=v)),
    ("type_1_2", "variant", "a", "c", lambda v: type_1_2(_Q, _PSI, _PHI, v)),
    ("type_2_2", "variant", "b", "A", lambda v: type_2_2(_Q, _P, _PSI, _PHI, v)),
    ("divergence", "variant", "a", "ab", lambda v: divergence(_Q, _PSI, _PHI, v)),
    ("char_gap_check", "flavor", "entangled", "multiplicative",
     lambda v: char_gap_check([robertson_matrix((_Q, _P), _PSI)], 1, v)),
    ("char_gap_from_states", "characteristic-gap kind", "char_gap_superadditive",
     "heisenberg", lambda v: char_gap_from_states(v, (_Q, _P), (_PSI,))),
    ("minimize_slack", "minimize check id", "heisenberg", "char_gap_entangled",
     lambda v: minimize_slack(v, fock_operators(16), 16, budget=5, restarts=1)),
    ("compare_precision", "UR id", "schrodinger", "schroedinger", _pair_stats),
    ("scan_report", "UR id", "char_gap_entangled", "char_gap", lambda v: _scan(v)),
    ("scan_report", "pinned 'h_choice'", "centered", "gram", lambda v: _scan(h_choice=v)),
    ("random_instances", "non-gap UR id", "robertson", "char_gap_superadditive",
     lambda v: random_instances(v, 2, [2], 0)),
    ("sample", "sample kind", "psd", "thermal", lambda v: sample(v, 4, 0)),
]

CHOICE_CASES = [
    pytest.param(call, name, valid, bad, id=f"{entry}-{name}-{label}")
    for entry, name, valid, wrong, call in CHOICE_ENTRIES
    for label, bad in [("list", ["x"]), ("dict", {"a": 1}), ("array", np.array([valid, valid])),
                       ("None", None), ("wrong", wrong)]
]


@pytest.mark.parametrize("call,name,valid,bad", CHOICE_CASES)
def test_each_entry_reads_its_enumerated_arguments(call, name, valid, bad):
    # an unhashable value, an array (whose == is elementwise) and a string
    # outside the set are each refused by the reader, naming the argument
    call(valid)
    with pytest.raises(InputError, match=f"^unknown {re.escape(name)} "):
        call(bad)


def test_as_choice_names_the_argument_and_its_choices():
    assert as_choice("b", "variant", ("a", "b")) == "b"
    with pytest.raises(InputError, match=r"^unknown variant 'c'; expected one of: a, b$"):
        as_choice("c", "variant", ("a", "b"))


@pytest.mark.parametrize("call", [
    lambda e: minimize_slack("heisenberg", fock_operators(16), 16, extras=e),
    lambda e: compare_precision("heisenberg", "schrodinger", [], extras_a=e),
])
def test_extras_keys_are_admitted_before_they_are_expanded(call):
    # a key that is not a string cannot be a keyword argument: the gate refuses
    # it as it refuses any other extra the check does not take
    with pytest.raises(InputError, match=r"^heisenberg takes no extra 1 \(its extras: none\)$"):
        call({1: 2})
