"""Three-valued certificates for all semi-decision procedures.

Every bounded search reports Witness, RefutedAtBound or ExhaustedAtBound,
with the bounds echoed and the number of explored nodes, so a verdict is
always re-checkable and budget exhaustion is never silent.
"""

from dataclasses import dataclass, field

WITNESS = "witness"
REFUTED = "refuted_at_bound"
EXHAUSTED = "exhausted_at_bound"

DEFAULT_NODE_BUDGET = 100_000


class GiveUp(Exception):
    """A bounded search stops without an answer; the message is the
    certificate's detail."""


class Budget:
    """The nodes one bounded search has examined, against its limit.

    A search that runs inside another spends from its caller's budget, so
    nodes_explored counts every candidate examined once, and the first node
    over the limit stops the whole search with the detail "node budget".
    """

    def __init__(self, limit):
        self.limit = limit
        self.nodes = 0

    def tick(self, n=1):
        self.nodes += n
        if self.nodes > self.limit:
            raise GiveUp("node budget")


@dataclass
class Certificate:
    status: str
    witness: object = None
    refuted: object = None
    bounds: dict = field(default_factory=dict)
    nodes_explored: int = 0
    detail: str = ""

    def is_witness(self):
        return self.status == WITNESS

    def is_refuted(self):
        return self.status == REFUTED

    def is_exhausted(self):
        return self.status == EXHAUSTED

    def to_json(self):
        out = {
            "status": self.status,
            "bounds": dict(self.bounds),
            "nodes_explored": self.nodes_explored,
        }
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        if self.refuted is not None:
            out["refuted"] = _jsonable(self.refuted)
        if self.detail:
            out["detail"] = self.detail
        return out


def witness(payload, bounds, nodes, detail=""):
    return Certificate(WITNESS, witness=payload, bounds=bounds, nodes_explored=nodes, detail=detail)


def refuted(payload, bounds, nodes, detail=""):
    return Certificate(REFUTED, refuted=payload, bounds=bounds, nodes_explored=nodes, detail=detail)


def exhausted(bounds, nodes, detail=""):
    return Certificate(EXHAUSTED, bounds=bounds, nodes_explored=nodes, detail=detail)


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in obj]
    return str(obj)
