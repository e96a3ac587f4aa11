"""Construction of the TA-KiBaM network (Figure 5 and Tables 1-2 of the paper).

For every battery the network contains a *total charge* automaton and a
*height difference* automaton; a single *load*, *scheduler* and *maximum
finder* automaton complete the network.  Synchronisation channels follow
Table 2 of the paper:

========== ===================== ==================== =========================================
channel    senders               receivers            purpose
========== ===================== ==================== =========================================
new_job    load, total charge    scheduler            request a scheduling decision
go_on_i    scheduler             total charge i       switch the chosen battery on
go_off     load                  total charge (on)    switch the serving battery off at job end
use_charge total charge i        height difference i  propagate a draw to the height difference
emptied    total charge i        maximum finder       count empty batteries
all_empty  maximum finder        (broadcast)          stop all processes when everything is empty
========== ===================== ==================== =========================================

Two intentional, behaviour-preserving deviations from the figures are
documented in DESIGN.md: the residual charge is added to the cost directly
on the final ``all_empty`` switch instead of via a cost-rate location, and a
``job_active`` flag replaces the implicit "a job is running" knowledge when
an emptied battery asks the scheduler for a replacement.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.kibam.discrete import DiscreteKibam
from repro.kibam.parameters import BatteryParameters
from repro.pta.automaton import Automaton, Edge, Location, Sync
from repro.pta.network import Network
from repro.takibam.arrays import LoadArrays, load_arrays
from repro.workloads.load import Load


@dataclasses.dataclass(frozen=True)
class TakibamModel:
    """A built TA-KiBaM network plus the data needed to interpret it.

    Attributes:
        network: the priced timed automata network.
        params: battery parameters, one per battery.
        discretizers: the per-battery dKiBaM discretizers (shared time step
            and charge unit).
        arrays: the precomputed load arrays.
        load: the original load object.
        time_step: tick length in minutes.
        charge_unit: charge unit in Amin.
    """

    network: Network
    params: Tuple[BatteryParameters, ...]
    discretizers: Tuple[DiscreteKibam, ...]
    arrays: LoadArrays
    load: Load
    time_step: float
    charge_unit: float

    @property
    def n_batteries(self) -> int:
        return len(self.params)

    def available_charge(self, variables: Mapping[str, int], battery: int) -> float:
        """Available charge (Amin) of one battery from a variable valuation."""
        params = self.params[battery]
        n = variables[f"n_gamma_{battery}"]
        m = variables[f"m_delta_{battery}"]
        return self.charge_unit * (params.c * n - (1.0 - params.c) * m)

    def total_charge(self, variables: Mapping[str, int], battery: int) -> float:
        """Total charge (Amin) of one battery from a variable valuation."""
        return self.charge_unit * variables[f"n_gamma_{battery}"]

    def is_battery_empty(self, variables: Mapping[str, int], battery: int) -> bool:
        return variables[f"bat_empty_{battery}"] == 1


def _total_charge_automaton(
    battery: int,
    params: BatteryParameters,
    arrays: LoadArrays,
    n_batteries: int,
) -> Automaton:
    """The total charge automaton of Figure 5(a) for one battery."""
    c_permille = params.c_permille
    cur = arrays.cur
    cur_times = arrays.cur_times
    n_epochs = arrays.n_epochs
    clock = f"c_disch_{battery}"
    n_var = f"n_gamma_{battery}"
    m_var = f"m_delta_{battery}"
    empty_var = f"bat_empty_{battery}"

    def cur_times_now(variables: Mapping[str, int]) -> int:
        j = variables["j"]
        return cur_times[j] if j < n_epochs else 1

    def cur_now(variables: Mapping[str, int]) -> int:
        j = variables["j"]
        return cur[j] if j < n_epochs else 0

    def empty_condition(variables: Mapping[str, int]) -> bool:
        # Equation (8) in the paper's per-mille integer form.
        return (1000 - c_permille) * variables[m_var] >= c_permille * variables[n_var]

    def invariant_on(variables, clocks) -> bool:
        return clocks[clock] <= cur_times_now(variables)

    def guard_draw(variables, clocks) -> bool:
        return clocks[clock] >= cur_times_now(variables) and not empty_condition(variables)

    def guard_empty(variables, _clocks) -> bool:
        return empty_condition(variables)

    def update_draw(variables) -> None:
        variables[n_var] -= cur_now(variables)

    def update_mark_empty(variables) -> None:
        variables[empty_var] = 1

    def guard_others_alive(variables, _clocks) -> bool:
        return variables["empty_count"] < n_batteries and variables["job_active"] == 1

    def guard_no_reschedule(variables, _clocks) -> bool:
        return variables["empty_count"] >= n_batteries or variables["job_active"] == 0

    return Automaton(
        name=f"total_charge_{battery}",
        locations=(
            Location(name="idle"),
            Location(name="on", invariant=invariant_on),
            Location(name="empty_notify", committed=True),
            Location(name="empty"),
        ),
        initial_location="idle",
        clocks=(clock,),
        edges=(
            Edge(
                source="idle",
                target="on",
                sync=Sync.receive(f"go_on_{battery}"),
                clock_resets=(clock,),
                name="switch_on",
            ),
            Edge(
                source="on",
                target="idle",
                sync=Sync.receive("go_off"),
                clock_resets=(clock,),
                name="switch_off",
            ),
            Edge(
                source="on",
                target="on",
                guard=guard_draw,
                sync=Sync.send(f"use_charge_{battery}"),
                update=update_draw,
                clock_resets=(clock,),
                name="draw",
            ),
            Edge(
                source="on",
                target="empty_notify",
                guard=guard_empty,
                sync=Sync.send("emptied"),
                update=update_mark_empty,
                name="observe_empty",
            ),
            Edge(
                source="empty_notify",
                target="empty",
                guard=guard_others_alive,
                sync=Sync.send("new_job"),
                name="request_replacement",
            ),
            Edge(
                source="empty_notify",
                target="empty",
                guard=guard_no_reschedule,
                name="retire",
            ),
        ),
    )


def _height_difference_automaton(
    battery: int,
    discretizer: DiscreteKibam,
    arrays: LoadArrays,
) -> Automaton:
    """The height difference automaton of Figure 5(b) for one battery."""
    recov_time = discretizer.recovery_steps
    cur = arrays.cur
    n_epochs = arrays.n_epochs
    clock = f"c_recov_{battery}"
    m_var = f"m_delta_{battery}"

    def cur_now(variables: Mapping[str, int]) -> int:
        j = variables["j"]
        return cur[j] if j < n_epochs else 0

    def recov_now(variables: Mapping[str, int]) -> int:
        m = variables[m_var]
        if m < 2:
            return recov_time[1]
        return recov_time[min(m, len(recov_time) - 1)]

    def invariant_recovering(variables, clocks) -> bool:
        return clocks[clock] <= recov_now(variables)

    def update_use(variables) -> None:
        variables[m_var] += cur_now(variables)

    def update_recover(variables) -> None:
        variables[m_var] -= 1

    return Automaton(
        name=f"height_difference_{battery}",
        locations=(
            Location(name="m_delta_0"),
            Location(name="m_delta_1"),
            Location(name="m_delta_gt_1", invariant=invariant_recovering),
            Location(name="off"),
        ),
        initial_location="m_delta_0",
        clocks=(clock,),
        edges=(
            Edge(
                source="m_delta_0",
                target="m_delta_1",
                guard=lambda v, c: cur_now(v) == 1,
                sync=Sync.receive(f"use_charge_{battery}"),
                update=update_use,
                name="first_use_single",
            ),
            Edge(
                source="m_delta_0",
                target="m_delta_gt_1",
                guard=lambda v, c: cur_now(v) > 1,
                sync=Sync.receive(f"use_charge_{battery}"),
                update=update_use,
                clock_resets=(clock,),
                name="first_use_multi",
            ),
            Edge(
                source="m_delta_1",
                target="m_delta_gt_1",
                sync=Sync.receive(f"use_charge_{battery}"),
                update=update_use,
                clock_resets=(clock,),
                name="use",
            ),
            Edge(
                source="m_delta_gt_1",
                target="m_delta_gt_1",
                sync=Sync.receive(f"use_charge_{battery}"),
                update=update_use,
                name="use_while_recovering",
            ),
            Edge(
                source="m_delta_gt_1",
                target="m_delta_gt_1",
                guard=lambda v, c: v[m_var] > 2 and c[clock] >= recov_now(v),
                update=update_recover,
                clock_resets=(clock,),
                name="recover",
            ),
            Edge(
                source="m_delta_gt_1",
                target="m_delta_1",
                guard=lambda v, c: v[m_var] == 2 and c[clock] >= recov_now(v),
                update=update_recover,
                name="recover_to_one",
            ),
            Edge(source="m_delta_0", target="off", sync=Sync.receive("all_empty"), name="stop0"),
            Edge(source="m_delta_1", target="off", sync=Sync.receive("all_empty"), name="stop1"),
            Edge(
                source="m_delta_gt_1",
                target="off",
                sync=Sync.receive("all_empty"),
                name="stop_gt1",
            ),
        ),
    )


def _load_automaton(arrays: LoadArrays) -> Automaton:
    """The load automaton of Figure 5(c)."""
    load_time = arrays.load_time
    cur = arrays.cur
    n_epochs = arrays.n_epochs

    def epoch_end(variables: Mapping[str, int]) -> int:
        j = variables["j"]
        return load_time[j] if j < n_epochs else load_time[-1]

    def is_job(variables: Mapping[str, int]) -> bool:
        j = variables["j"]
        return j < n_epochs and cur[j] > 0

    def invariant_running(variables, clocks) -> bool:
        return clocks["t"] <= epoch_end(variables)

    def invariant_exhausted(variables, clocks) -> bool:
        # Time stops at the end of the load: a network whose batteries
        # outlive the load deadlocks there instead of idling forever.
        return clocks["t"] <= load_time[-1]

    def advance_epoch(variables) -> None:
        variables["j"] += 1
        variables["job_active"] = 0

    def mark_job(variables) -> None:
        variables["job_active"] = 1

    return Automaton(
        name="load",
        locations=(
            Location(name="start", committed=True),
            Location(name="load_on", invariant=invariant_running),
            Location(name="dispatch", committed=True),
            Location(name="exhausted", invariant=invariant_exhausted),
            Location(name="off"),
        ),
        initial_location="start",
        clocks=("t",),
        edges=(
            Edge(
                source="start",
                target="load_on",
                guard=lambda v, c: is_job(v),
                sync=Sync.send("new_job"),
                update=mark_job,
                name="first_job",
            ),
            Edge(
                source="start",
                target="load_on",
                guard=lambda v, c: not is_job(v),
                name="first_idle",
            ),
            Edge(
                source="load_on",
                target="dispatch",
                guard=lambda v, c: c["t"] >= epoch_end(v) and is_job(v),
                sync=Sync.send("go_off"),
                update=advance_epoch,
                name="end_job",
            ),
            Edge(
                source="load_on",
                target="dispatch",
                guard=lambda v, c: c["t"] >= epoch_end(v) and not is_job(v),
                update=advance_epoch,
                name="end_idle",
            ),
            Edge(
                source="dispatch",
                target="load_on",
                guard=lambda v, c: v["j"] < n_epochs and is_job(v),
                sync=Sync.send("new_job"),
                update=mark_job,
                name="next_job",
            ),
            Edge(
                source="dispatch",
                target="load_on",
                guard=lambda v, c: v["j"] < n_epochs and not is_job(v),
                name="next_idle",
            ),
            Edge(
                source="dispatch",
                target="exhausted",
                guard=lambda v, c: v["j"] >= n_epochs,
                name="load_exhausted",
            ),
            Edge(source="load_on", target="off", sync=Sync.receive("all_empty"), name="stop"),
        ),
    )


def _scheduler_automaton(n_batteries: int) -> Automaton:
    """The scheduler automaton of Figure 5(d).

    The choice among the ``go_on_k`` edges in the committed ``choose``
    location is the only nondeterminism of the network; resolving it is what
    produces a schedule.
    """
    edges: List[Edge] = [
        Edge(source="wait", target="choose", sync=Sync.receive("new_job"), name="new_job"),
        Edge(source="wait", target="off", sync=Sync.receive("all_empty"), name="stop"),
    ]
    for battery in range(n_batteries):
        edges.append(
            Edge(
                source="choose",
                target="wait",
                guard=lambda v, c, b=battery: v[f"bat_empty_{b}"] == 0,
                sync=Sync.send(f"go_on_{battery}"),
                name=f"choose_{battery}",
            )
        )
    return Automaton(
        name="scheduler",
        locations=(
            Location(name="wait"),
            Location(name="choose", committed=True),
            Location(name="off"),
        ),
        initial_location="wait",
        clocks=(),
        edges=tuple(edges),
    )


def _maximum_finder_automaton(n_batteries: int) -> Automaton:
    """The maximum finder automaton of Figure 5(e).

    The paper converts the residual charge into cost by letting a clock run
    with cost rate 1 for ``charge_left`` ticks; we add the same amount to
    the cost directly on the final broadcast, which is equivalent for the
    minimum-cost query and keeps the state space small.
    """

    def count_up(variables) -> None:
        variables["empty_count"] += 1

    def residual_charge(variables: Mapping[str, int]) -> float:
        return float(
            sum(variables[f"n_gamma_{battery}"] for battery in range(n_batteries))
        )

    return Automaton(
        name="maximum_finder",
        locations=(
            Location(name="counting"),
            Location(name="pre_done", committed=True),
            Location(name="done"),
        ),
        initial_location="counting",
        clocks=(),
        edges=(
            Edge(
                source="counting",
                target="counting",
                guard=lambda v, c: v["empty_count"] < n_batteries - 1,
                sync=Sync.receive("emptied"),
                update=count_up,
                name="count_empty",
            ),
            Edge(
                source="counting",
                target="pre_done",
                guard=lambda v, c: v["empty_count"] >= n_batteries - 1,
                sync=Sync.receive("emptied"),
                update=count_up,
                name="last_empty",
            ),
            Edge(
                source="pre_done",
                target="done",
                sync=Sync.send("all_empty"),
                cost=residual_charge,
                name="all_empty",
            ),
        ),
    )


def build_takibam(
    params: Sequence[BatteryParameters],
    load: Load,
    time_step: float = 0.01,
    charge_unit: float = 0.01,
) -> TakibamModel:
    """Build the TA-KiBaM network for the given batteries and load.

    Args:
        params: battery parameter sets, one per battery; they may differ in
            capacity but must share ``c`` (the per-mille empty criterion is
            evaluated per battery, so differing ``c`` would also work, but
            the paper never needs it).
        load: the load to serve; every epoch duration must be a whole number
            of ticks.
        time_step: tick length in minutes.
        charge_unit: charge unit in Amin.
    """
    if not params:
        raise ValueError("at least one battery is required")
    discretizers = tuple(
        DiscreteKibam(p, time_step=time_step, charge_unit=charge_unit) for p in params
    )
    arrays = load_arrays(load, discretizers[0])
    n_batteries = len(params)

    automata: List[Automaton] = []
    variables: Dict[str, int] = {"j": 0, "empty_count": 0, "job_active": 0}
    for battery, (battery_params, discretizer) in enumerate(zip(params, discretizers)):
        automata.append(_total_charge_automaton(battery, battery_params, arrays, n_batteries))
        automata.append(_height_difference_automaton(battery, discretizer, arrays))
        variables[f"n_gamma_{battery}"] = discretizer.total_units
        variables[f"m_delta_{battery}"] = 0
        variables[f"bat_empty_{battery}"] = 0
    automata.append(_load_automaton(arrays))
    automata.append(_scheduler_automaton(n_batteries))
    automata.append(_maximum_finder_automaton(n_batteries))

    network = Network(
        automata=tuple(automata),
        initial_variables=variables,
        broadcast_channels=frozenset({"all_empty", "go_off"}),
    )
    return TakibamModel(
        network=network,
        params=tuple(params),
        discretizers=discretizers,
        arrays=arrays,
        load=load,
        time_step=time_step,
        charge_unit=charge_unit,
    )
