"""Solver configuration dataclasses.

Defaults reproduce the reference parameterization: funnel constants
(tau_bar, kappa_bar, kappa, delta, sigma, beta), the trust-region schedule
(initial radius 10, halving on rejection, doubling on active accepts), and the
line-search backtracking floor.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, is_dataclass


@dataclass
class FunnelParams:
    tau_bar: float = 100.0      # initial width floor
    kappa_bar: float = 1.25     # initial width multiple of h0
    kappa: float = 0.5          # memory in the width update
    delta: float = 0.999        # switching-condition scale
    sigma: float = 1e-4         # Armijo fraction
    beta: float = 0.99          # sufficient-decrease fraction of the width
    gould_update: bool = False  # use the max-form width update

    @property
    def theta(self) -> float:
        """Guaranteed width contraction factor on h-type steps."""
        return 1.0 - (1.0 - self.beta) * (1.0 - self.kappa)


@dataclass
class FilterParams:
    beta: float = 0.999         # envelope fraction for h-acceptability
    gamma: float = 1e-3         # f-margin slope vs h
    tau_bar: float = 100.0      # initial h_max floor
    kappa_bar: float = 1.25     # initial h_max multiple of h0
    capacity: int = 50          # max stored entries before eviction
    delta: float = 0.999        # switching-condition scale
    sigma: float = 1e-4         # Armijo fraction


@dataclass
class TrustRegionParams:
    delta_init: float = 10.0
    grow: float = 2.0
    shrink: float = 0.5
    delta_min: float = 1e-16    # below this the mechanism gives up
    delta_max: float = 1e10
    activity_tol: float = 1e-8  # step is "at the boundary" within this relative slack


@dataclass
class LineSearchParams:
    alpha_min: float = 1e-9
    backtrack: float = 0.5


@dataclass
class SubproblemParams:
    eta0: float = 1e-4          # first regularization magnitude
    eta_growth: float = 10.0
    eta_max: float = 1e20
    zero_step_tol: float = 1e-14


@dataclass
class SolverConfig:
    strategy: str = "funnel"            # "funnel" | "filter"
    mechanism: str = "trust-region"     # "trust-region" | "line-search"
    tol: float = 1e-6
    max_outer: int = 4000
    unbounded_threshold: float = -1e20
    funnel: FunnelParams = field(default_factory=FunnelParams)
    filter: FilterParams = field(default_factory=FilterParams)
    trust_region: TrustRegionParams = field(default_factory=TrustRegionParams)
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    subproblem: SubproblemParams = field(default_factory=SubproblemParams)

    def validated(self) -> "SolverConfig":
        if self.strategy not in ("funnel", "filter"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.mechanism not in ("trust-region", "line-search"):
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        return self


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def apply_overrides(config: SolverConfig, overrides: dict[str, str]) -> SolverConfig:
    """Apply dotted KEY=VAL overrides, e.g. {"funnel.kappa": "0.4", "tol": "1e-8"}.

    Values are parsed with the target field's current type; a bool takes
    true/false, 1/0, yes/no or on/off in any case. Unknown keys and values
    that do not parse raise ValueError.
    """
    cfg = copy.deepcopy(config)
    for key, raw in overrides.items():
        parts = key.split(".")
        obj = cfg
        for part in parts[:-1]:
            if not hasattr(obj, part) or not is_dataclass(getattr(obj, part)):
                raise ValueError(f"unknown config group {key!r}")
            obj = getattr(obj, part)
        leaf = parts[-1]
        names = {f.name for f in fields(obj)}
        if leaf not in names:
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(obj, leaf)
        if isinstance(current, bool):
            value = _BOOLS.get(raw.strip().lower())
            if value is None:
                raise ValueError(f"{key} takes true or false, not {raw!r}")
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = raw
        setattr(obj, leaf, value)
    return cfg
