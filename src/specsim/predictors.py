"""Branch direction prediction (2-bit bimodal) and return-address prediction.

Counters initialize to 1 (weak not-taken) so fresh state is deterministic and
primable: two taken outcomes at a pc flip its slot to predicting taken.
The RSB is a bounded stack; overflow drops the oldest entry and popping empty
yields None, which the front end treats as "no prediction" (fetch stalls until
the indirect branch executes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class PredictorState:
    table_size: int = 1024
    rsb_depth: int = 16
    bht: List[int] = field(default_factory=list)
    rsb: List[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.bht:
            self.bht = [1] * self.table_size

    def clone(self) -> PredictorState:
        return PredictorState(self.table_size, self.rsb_depth, list(self.bht),
                              list(self.rsb))

    def slot(self, pc: int) -> int:
        return (pc >> 2) % self.table_size


def predict_branch(state: PredictorState, pc: int) -> bool:
    """Whether the branch at `pc` is predicted taken."""
    return state.bht[state.slot(pc)] >= 2


def train_branch(state: PredictorState, pc: int, taken: bool) -> None:
    i = state.slot(pc)
    if taken:
        if state.bht[i] < 3:
            state.bht[i] += 1
    else:
        if state.bht[i] > 0:
            state.bht[i] -= 1


def rsb_push(state: PredictorState, address: int) -> None:
    state.rsb.append(address)
    if len(state.rsb) > state.rsb_depth:
        del state.rsb[0]


def rsb_pop(state: PredictorState) -> Optional[int]:
    if not state.rsb:
        return None
    return state.rsb.pop()
