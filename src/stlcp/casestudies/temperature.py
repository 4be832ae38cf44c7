"""Hall temperature control among two occupant-driven meeting rooms.

Room 1 is a public space whose heater valve we control; Rooms 2 and 3 are
adjusted manually by whoever occupies them and act as uncontrollable agents.
The plant is bilinear in (state, input),

    x_{k+1} = x_k + tau_s.(alpha_e.(T_e - x_k) + alpha_h.(T_h - x_k).u_k),

but substituting w_k := (T_h - x_k).u_k makes it exactly linear, with the
valve bounds u in [0,1] mapping to 0 <= w_k <= T_h - x_k.  The substitution
divides by T_h - x_k when recovering u, which stays well away from zero
because the heater runs hotter than any reachable room temperature.

The comfort task: whenever the public space drifts more than 5 degrees from
either meeting room, it must come back within 5 degrees of both inside two
sampling periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..prediction import AgentTrajectory, TrajectoryDataset, split_dataset
from ..stl import (
    AffinePredicate,
    Always,
    And,
    Eventually,
    Formula,
    Not,
    Or,
    Pred,
    to_pnf,
)
from ..synthesis import MixedRow, SystemModel


@dataclass(frozen=True)
class TemperatureScenario:
    """Physical constants plus the invented room-occupancy process.

    The plant constants are fixed by the model (sampling time, heater and
    outside temperatures, exchange coefficients, start state, boxes).  The
    room process is only loosely determined: occupants enter at random times
    and pull the room exponentially toward a preferred temperature, Newton
    cooling style.  Its parameters (preference range, cooling-coefficient
    range, event counts, per-room spread around a shared base preference)
    are declared here and drawn per trajectory from a seeded generator.
    """

    tau_s: float = 2.0  # sampling time, minutes
    t_heater: float = 55.0  # degrees C
    t_outside: float = 5.0
    alpha_e: float = 0.06
    alpha_h: float = 0.08
    x0: float = 5.0
    temp_lo: float = 0.0
    temp_hi: float = 45.0
    delta: float = 0.15
    horizon: int = 12  # end of the comfort window; lookahead adds the F[0,2] tail
    comfort_gap: float = 5.0
    # room-occupancy process (invented; seed-controlled)
    pref_lo: float = 15.0
    pref_hi: float = 30.0
    kappa_lo: float = 0.05
    kappa_hi: float = 0.3
    room_spread: float = 1.5  # per-room offset around the shared base preference
    event_jump: float = 1.0  # preference shift when a new group enters
    events_max: int = 2
    prefix_len: int = 6

    def __post_init__(self):
        if self.t_heater <= self.temp_hi:
            raise ValueError("heater temperature must exceed the state box")
        if not self.temp_lo <= self.x0 <= self.temp_hi:
            raise ValueError(f"x0 must lie in [temp_lo, temp_hi] = [{self.temp_lo}, {self.temp_hi}]; got {self.x0}")
        if not self.pref_lo < self.pref_hi:
            raise ValueError("empty preference range")
        if self.events_max < 1:
            raise ValueError(f"events_max must be at least 1, the first group entering; got {self.events_max}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, where the comfort window starts; got {self.horizon}")

    @property
    def t_phi(self) -> int:
        return self.horizon + 2


# ---------------------------------------------------------------------------
# dynamics


def temperature_reformulate(sc: TemperatureScenario) -> SystemModel:
    """Exact linear form in the substituted input w = (T_h - x).u.

    x_{k+1} = (1 - tau_s.alpha_e) x_k + tau_s.alpha_h w_k + tau_s.alpha_e.T_e
    with w >= 0 as a variable bound and w + x <= T_h as a mixed row; together
    these are exactly u in [0,1].  The physical valve setting is recovered as
    u = w / (T_h - x), never fed back into the optimization.
    """
    a = [[1.0 - sc.tau_s * sc.alpha_e]]
    b = [[sc.tau_s * sc.alpha_h]]
    c = [sc.tau_s * sc.alpha_e * sc.t_outside]
    heater = sc.t_heater
    return SystemModel(
        a,
        b,
        c,
        [sc.x0],
        state_box=([sc.temp_lo], [sc.temp_hi]),
        input_box=([0.0], [heater - sc.temp_lo]),
        mixed_rows=(MixedRow((1.0,), (1.0,), "<=", heater, name="valve"),),
        input_recover=lambda x, w: np.array([float(w[0]) / (heater - float(x[0]))]),
    )


# ---------------------------------------------------------------------------
# specification


def _gap_atom(sign: float, room: int, offset: float, name: str) -> Pred:
    """Atom sign.(x - Y_room) + offset >= 0 over (x, Y_r2, Y_r3)."""
    cy = [(0.0,), (0.0,)]
    cy[room] = (-sign,)
    return Pred(AffinePredicate((sign,), tuple(cy), offset, name=name))


def build_temperature_spec(horizon: int = 12, gap: float = 5.0) -> Formula:
    """Comfort task over the sampled window, in positive normal form.

    G[1,horizon](  (x-Y_r2 >= gap  or  x-Y_r2 <= -gap  or
                    x-Y_r3 >= gap  or  x-Y_r3 <= -gap)
                 implies
                   F[0,2](x-Y_r2 <= gap and x-Y_r2 >= -gap and
                          x-Y_r3 <= gap and x-Y_r3 >= -gap) )
    """
    escape = Or(
        (
            _gap_atom(1.0, 0, -gap, "x-r2>=+gap"),
            _gap_atom(-1.0, 0, -gap, "x-r2<=-gap"),
            _gap_atom(1.0, 1, -gap, "x-r3>=+gap"),
            _gap_atom(-1.0, 1, -gap, "x-r3<=-gap"),
        )
    )
    within = And(
        (
            _gap_atom(-1.0, 0, gap, "x-r2<=+gap"),
            _gap_atom(1.0, 0, gap, "x-r2>=-gap"),
            _gap_atom(-1.0, 1, gap, "x-r3<=+gap"),
            _gap_atom(1.0, 1, gap, "x-r3>=-gap"),
        )
    )
    clause = Or((Not(escape), Eventually(0, 2, within)))
    return to_pnf(Always(1, horizon, clause))


# ---------------------------------------------------------------------------
# room dataset


def _room_path(sc: TemperatureScenario, rng: np.random.Generator, total: int, base: float) -> np.ndarray:
    """One room: Y_{t+1} = Y_t + kappa.(pref - Y_t), an exponential approach
    to a preference that shifts at random occupancy events."""
    kappa = rng.uniform(sc.kappa_lo, sc.kappa_hi)
    pref = base + rng.uniform(-sc.room_spread, sc.room_spread)
    n_events = int(rng.integers(1, sc.events_max + 1))
    times = set(int(t) for t in rng.integers(0, total - 1, size=n_events))
    y = np.empty(total)
    y[0] = np.clip(pref + rng.uniform(-1.0, 1.0), sc.pref_lo, sc.pref_hi)
    for t in range(total - 1):
        if t in times:
            pref = float(np.clip(pref + rng.uniform(-sc.event_jump, sc.event_jump), sc.pref_lo, sc.pref_hi))
        y[t + 1] = y[t] + kappa * (pref - y[t])
    return y


def gen_temperature_dataset(
    n: int,
    seed: int,
    scenario: TemperatureScenario = TemperatureScenario(),
    sizes: tuple[int, int, int] | None = None,
) -> TrajectoryDataset:
    """n two-room trajectories of length t_phi with a warm-start prefix.

    Rooms share a base preference per trajectory (meetings in the same hall
    keep similar temperatures) with an independent per-room offset, cooling
    coefficient, and event schedule.  Deterministic in seed.  sizes defaults
    to a 25/25/50 train/cal/test partition.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    sc = scenario
    rng = np.random.default_rng(seed)
    total = sc.prefix_len + sc.t_phi + 1
    lo = sc.pref_lo + sc.room_spread
    hi = sc.pref_hi - sc.room_spread
    raw = []
    for _ in range(n):
        base = rng.uniform(lo, hi)
        rooms = [_room_path(sc, rng, total, base) for _ in range(2)]
        raw.append(
            AgentTrajectory(
                tuple(r[sc.prefix_len :] for r in rooms),
                prefix=tuple(r[: sc.prefix_len] for r in rooms),
            )
        )
    if sizes is None:
        sizes = (n // 4, n // 4, n - 2 * (n // 4))
    return split_dataset(raw, sizes, seed=seed, dt=sc.tau_s)
