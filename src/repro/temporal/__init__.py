"""Temporal substrate: stores, the T operator, algorithm BT, periodicity.

Implements Sections 3.1–3.2 and Figure 1 of the paper: slice-oriented
temporal stores with states/snapshots/segments, the immediate-consequence
operator for temporal rules, the bottom-up algorithm BT (verbatim and
semi-naive), minimal-period detection with forwardness certificates, and
the semi-normal/normal transformations.
"""

from .bt import (BTResult, bt_evaluate, bt_verbatim, evaluate_window,
                 verify_period)
from .explain import Derivation, explain
from .incremental import IncrementalModel
from .interval_engine import (IntervalSet, IntervalStore,
                              interval_fixpoint)
from .intervals import (compress, describe_periodic, format_intervals,
                        from_intervals, timeline, to_intervals)
from .operator import continue_fixpoint
from .stratified import is_definite, stratified_fixpoint
from .topdown import TopDownEngine, topdown_ask
from .upsets import UPSet, UPStore, infinite_objects
from .database import TemporalDatabase
from .normalize import is_normal, is_semi_normal, to_normal, to_semi_normal
from .operator import fixpoint, step
from .periodicity import (Period, find_minimal_period, forward_lookback,
                          holds_with_period, range_of, state_ids)
from .store import EMPTY_STATE, State, TemporalStore

__all__ = [
    "TemporalStore", "TemporalDatabase", "State", "EMPTY_STATE",
    "step", "fixpoint",
    "bt_evaluate", "bt_verbatim", "BTResult", "verify_period",
    "evaluate_window", "stratified_fixpoint", "is_definite",
    "IncrementalModel", "continue_fixpoint",
    "explain", "Derivation",
    "TopDownEngine", "topdown_ask",
    "to_intervals", "from_intervals", "compress", "format_intervals",
    "describe_periodic", "timeline",
    "IntervalSet", "IntervalStore", "interval_fixpoint",
    "UPSet", "UPStore", "infinite_objects",
    "Period", "find_minimal_period", "holds_with_period",
    "forward_lookback", "range_of", "state_ids",
    "to_semi_normal", "to_normal", "is_semi_normal", "is_normal",
]
