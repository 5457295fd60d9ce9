"""Every validity gate rejects NaN: `not (x <= tol)` fails where `x > tol`
would let a NaN deviation through. The qubit-state gates also reject
amplitudes whose squared norm overflows with `ValueError`."""

import numpy as np
import pytest

from anticlone import machine, optimize, probclone
from anticlone.qubit import QubitState

NAN = float("nan")


def _nan_ancilla():
    p = machine.optimal_params()
    return machine.AnticlonerParams(p.coeffs, {**p.ancillas, "a": np.array([NAN, 0, 0, 0])})


def _prob_cloner(**change):
    pc = probclone.build_two_state_anticloner(1.0)
    fields = {"u": pc.u, "theta": pc.theta, "f": pc.f, **change}
    return probclone.ProbCloner(**fields)


NAN_CASES = {
    "qubit-state": lambda: QubitState(NAN, 0),
    "qubit-state-normalized": lambda: QubitState.normalized(NAN, 1),
    "ancilla": _nan_ancilla,
    "target-forms": lambda: machine.target_forms([NAN, 0, 0], 1 / 3),
    "build-isometry": lambda: machine.build_isometry(
        machine.optimal_params().replace_coeff("a", NAN)
    ),
    "prob-cloner-u": lambda: _prob_cloner(u=np.full((8, 8), NAN)),
    "prob-cloner-f": lambda: _prob_cloner(f=NAN),
    "optimizer-init": lambda: optimize.optimize_universal(
        optimize.OptimizerConfig(restarts=1, max_iters=4), init=np.full(64, NAN)
    ),
}


@pytest.mark.parametrize("make", NAN_CASES.values(), ids=NAN_CASES.keys())
def test_nan_is_rejected(make):
    with pytest.raises(ValueError):
        make()


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
