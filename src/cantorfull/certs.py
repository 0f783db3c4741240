"""Three-valued certificates for all semi-decision procedures.

Every bounded search runs under one Budget, which holds its bounds, counts
the nodes it explores, stops it at bounds["node_budget"] and writes its
certificate: Witness, RefutedAtBound or ExhaustedAtBound, with the bounds
echoed and the number of explored nodes, so a verdict is always
re-checkable and budget exhaustion is never silent.
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
    """One bounded search: its bounds, the nodes it has examined, and the
    certificate it reports.

    One tick spends one node, one candidate the search examines, and no
    tick spends several, so nodes_explored measures the work done.  The
    limit is bounds["node_budget"]; a search whose bounds have none counts
    its nodes and never runs out.  A search that runs inside another spends
    from its caller's budget, so nodes_explored counts every candidate
    examined once, and the first node over the limit stops the whole search
    with the detail "node budget".
    """

    def __init__(self, bounds):
        self.bounds = bounds
        self.limit = bounds.get("node_budget")
        self.nodes = 0

    @property
    def spent(self):
        return self.limit is not None and self.nodes > self.limit

    def tick(self):
        """Spend one node; the first node over the limit raises GiveUp."""
        self.nodes += 1
        if self.spent:
            raise GiveUp("node budget")

    def witness(self, payload):
        return Certificate(WITNESS, witness=payload, bounds=self.bounds, nodes_explored=self.nodes)

    def refuted(self, payload):
        return Certificate(REFUTED, refuted=payload, bounds=self.bounds, nodes_explored=self.nodes)

    def exhausted(self, detail=""):
        return Certificate(EXHAUSTED, bounds=self.bounds, nodes_explored=self.nodes, detail=detail)


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


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in obj]
    return str(obj)
