"""Every validity gate rejects NaN and +-inf with `ValueError` and without a
warning: `not (x <= tol)` fails where `x > tol` would let a NaN deviation
through. The qubit-state gates also reject amplitudes whose squared norm
overflows with `ValueError`."""

import numpy as np
import pytest

from anticlone import machine, optimize, probclone
from anticlone.qubit import QubitState, check_density_matrix

NAN = float("nan")


def _block(x):
    blocks = machine.optimal_params()
    blocks[0] = x
    return machine.build_isometry(blocks)


def _coefficient(x):
    blocks = machine.optimal_params()
    blocks[0, 0] = x  # block a is a * |0>
    return machine.build_isometry(blocks)


def _prob_cloner(**change):
    pc = probclone.build_two_state_anticloner(1.0)
    fields = {"u": pc.u, "theta": pc.theta, "f": pc.f, **change}
    return probclone.ProbCloner(**fields)


# each case feeds one non-finite value x to a gate
NONFINITE_CASES = {
    "qubit-state": lambda x: QubitState(x, 0),
    "qubit-state-normalized": lambda x: QubitState.normalized(x, 1),
    "check-density-matrix-diagonal": lambda x: check_density_matrix([[x, 0], [0, 1]]),
    "check-density-matrix-off-diagonal": lambda x: check_density_matrix([[0.5, x], [x, 0.5]]),
    "block": _block,
    "target-forms": lambda x: machine.target_forms([x, 0, 0], 1 / 3),
    "build-isometry": _coefficient,
    "anticlone": lambda x: machine.anticlone(QubitState(1, 0), np.full((16, 2), x)),
    "anticlone-all": lambda x: machine.anticlone_all([], np.full((16, 2), x)),
    "prob-cloner-u": lambda x: _prob_cloner(u=np.full((8, 8), x)),
    "prob-cloner-theta": lambda x: _prob_cloner(theta=x),
    "prob-cloner-f": lambda x: _prob_cloner(f=x),
    "optimizer-init": lambda x: optimize.optimize_universal(
        optimize.OptimizerConfig(restarts=1, max_iters=4), init=np.full(64, x)
    ),
}


@pytest.mark.parametrize("make", NONFINITE_CASES.values(), ids=NONFINITE_CASES.keys())
def test_nan_is_rejected(make):
    with pytest.raises(ValueError):
        make(NAN)


@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["+inf", "-inf"])
@pytest.mark.parametrize("make", NONFINITE_CASES.values(), ids=NONFINITE_CASES.keys())
def test_infinity_is_rejected(make, value):
    # with every RuntimeWarning an error, a gate that lets inf reach a
    # product first fails here with the warning, not with ValueError
    with pytest.raises(ValueError):
        make(value)


OVERFLOW_CASES = {
    "qubit-state": lambda: QubitState(1e200, 0),
    "qubit-state-normalized": lambda: QubitState.normalized(1e200, 0),
    "qubit-state-modulus": lambda: QubitState(complex(1e308, 1e308), 0),
    "qubit-state-normalized-modulus": lambda: QubitState.normalized(0, complex(1e308, 1e308)),
}


@pytest.mark.parametrize("make", OVERFLOW_CASES.values(), ids=OVERFLOW_CASES.keys())
def test_overflowing_amplitudes_are_rejected(make):
    # squaring 1e200, or taking the modulus of 1e308 + 1e308j, raises
    # OverflowError in plain Python arithmetic
    with pytest.raises(ValueError, match="squared norm (inf|overflows)"):
        make()


def test_anticlone_rejects_a_nan_machine_at_its_isometry_gate():
    with pytest.raises(ValueError, match="the machine is not an isometry"):
        machine.anticlone(QubitState(1, 0), np.full((16, 2), NAN))
