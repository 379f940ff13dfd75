"""Declarative ODE environments.

External simulators (medical treatment models and the like) plug in as
config files: state names, named constants, controlled input symbols with
one value-tuple per discrete action, right-hand-side expressions, a reward
expression, and the integration grid.  Expressions are parsed with sympy
and compiled to numpy callables; integration is classic RK4 with a fixed
substep, several substeps per decision.

The reward expression is evaluated at the state where the decision is
taken, with the chosen action's input values substituted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..core import ActionId, StateVec
from .base import Environment


class DivergedError(RuntimeError):
    """The integrated state left the finite range."""


@dataclass(frozen=True)
class ODESpec:
    """Everything needed to build an ODE-backed environment.

    state_names:        symbols of the state vector, in order
    params:             named constants substituted into all expressions
    input_names:        controlled-input symbols
    actions:            one tuple of input values per discrete action
    rhs:                d(state)/dt expressions, one per state symbol
    reward:             reward expression over state + input symbols
    dt:                 integration substep
    steps_per_decision: substeps per environment step
    initial_states:     candidate starting states (sampled uniformly)
    horizon:            decision-step cap
    source:             free-text provenance note for externally published
                        coefficient sets
    """

    state_names: tuple[str, ...]
    params: dict[str, float]
    input_names: tuple[str, ...]
    actions: tuple[tuple[float, ...], ...]
    rhs: tuple[str, ...]
    reward: str
    dt: float
    steps_per_decision: int
    initial_states: tuple[tuple[float, ...], ...]
    horizon: int
    source: str = ""

    def __post_init__(self) -> None:
        if len(self.rhs) != len(self.state_names):
            raise ValueError("need exactly one rhs expression per state symbol")
        if self.dt <= 0 or self.steps_per_decision < 1:
            raise ValueError("dt must be positive and steps_per_decision >= 1")
        for act in self.actions:
            if len(act) != len(self.input_names):
                raise ValueError("every action must assign every input symbol")
        for s in self.initial_states:
            if len(s) != len(self.state_names):
                raise ValueError("initial states must match the state dimension")

    @property
    def dim(self) -> int:
        return len(self.state_names)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @staticmethod
    def from_dict(d: dict) -> "ODESpec":
        return ODESpec(
            state_names=tuple(d["state_names"]),
            params={k: float(v) for k, v in d.get("params", {}).items()},
            input_names=tuple(d.get("input_names", ())),
            actions=tuple(tuple(float(v) for v in a) for a in d["actions"]),
            rhs=tuple(d["rhs"]),
            reward=d["reward"],
            dt=float(d["dt"]),
            steps_per_decision=int(d["steps_per_decision"]),
            initial_states=tuple(
                tuple(float(v) for v in s) for s in d["initial_states"]
            ),
            horizon=int(d["horizon"]),
            source=d.get("source", ""),
        )

    @staticmethod
    def from_json(path: str | Path) -> "ODESpec":
        return ODESpec.from_dict(json.loads(Path(path).read_text()))


def _compile(spec: ODESpec) -> tuple[Callable, Callable]:
    """Lambdify (rhs, reward) over state + input symbols with params bound."""
    # Imported here, not at module level: only ODE environments need sympy,
    # and importing it takes longer than the rest of moesim together.
    import sympy

    syms = sympy.symbols(list(spec.state_names) + list(spec.input_names))
    local = {name: sym for name, sym in zip(
        list(spec.state_names) + list(spec.input_names), syms
    )}
    subs = {sympy.Symbol(k): v for k, v in spec.params.items()}
    rhs_exprs = [sympy.sympify(e, locals=local).subs(subs) for e in spec.rhs]
    reward_expr = sympy.sympify(spec.reward, locals=local).subs(subs)
    rhs_fn = sympy.lambdify(syms, sympy.Matrix(rhs_exprs), modules="numpy")
    reward_fn = sympy.lambdify(syms, reward_expr, modules="numpy")

    def rhs(state: np.ndarray, inputs: Sequence[float]) -> np.ndarray:
        return np.asarray(rhs_fn(*state, *inputs), dtype=np.float64).ravel()

    def reward(state: np.ndarray, inputs: Sequence[float]) -> float:
        return float(reward_fn(*state, *inputs))

    return rhs, reward


def _rk4(rhs: Callable, state: np.ndarray, inputs, h: float, n: int) -> np.ndarray:
    s = state
    for _ in range(n):
        k1 = rhs(s, inputs)
        k2 = rhs(s + 0.5 * h * k1, inputs)
        k3 = rhs(s + 0.5 * h * k2, inputs)
        k4 = rhs(s + h * k3, inputs)
        s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(s)):
            raise DivergedError("diverged: non-finite state during integration")
    return s


def ode_env(spec: ODESpec) -> Environment:
    """Build an Environment from an ODESpec."""
    rhs, reward = _compile(spec)
    starts = [np.array(s, dtype=np.float64) for s in spec.initial_states]

    def step(x: StateVec, a: ActionId) -> tuple[np.ndarray, float]:
        inputs = spec.actions[a]
        r = reward(np.asarray(x, dtype=np.float64), inputs)
        x_next = _rk4(
            rhs, np.asarray(x, dtype=np.float64), inputs, spec.dt, spec.steps_per_decision
        )
        return x_next, r

    def sample_initial(rng: np.random.Generator) -> np.ndarray:
        return starts[int(rng.integers(len(starts)))].copy()

    return Environment(
        dim=spec.dim,
        n_actions=spec.n_actions,
        horizon=spec.horizon,
        step=step,
        sample_initial=sample_initial,
        is_terminal=None,
    )
