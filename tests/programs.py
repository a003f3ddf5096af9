"""Small vertex programs for the engine and runtime tests.

The engine has one message plane: a program sends packed,
self-addressed :class:`~repro.core.psi.GpsiColumns` rows.  A test
program that only wants to move integers uses two-column rows — column 0
the destination data vertex (``next_vertex`` 0, so the row addresses
itself), column 1 the payload — and :class:`PerVertex` turns the packed
calls back into the textbook one-vertex-at-a-time shape.
"""

import numpy as np

from repro.bsp import VertexProgram
from repro.core import GpsiColumns


def payload_columns(dests, payloads):
    """Rows sending ``payloads[i]`` to data vertex ``dests[i]``."""
    mapping = np.column_stack([dests, payloads]).astype(np.int64).reshape(-1, 2)
    n = len(mapping)
    return GpsiColumns(
        mapping, np.zeros((n, 1), dtype=np.uint32), np.zeros(n, dtype=np.uint8)
    )


def delivered(columns):
    """``{vertex: [payload, ...]}`` of a delivered block, vertices in
    delivery order."""
    by_vertex = {}
    for dest, payload in columns.mapping.tolist():
        by_vertex.setdefault(dest, []).append(payload)
    return by_vertex


class PerVertex(VertexProgram):
    """A vertex-at-a-time program on the packed plane.

    ``visit(ctx, vertex, payloads)`` runs once per active vertex, in
    activation order, with the payloads delivered to it (none at
    superstep 0), and returns the payload to send to each of its
    neighbours — or ``None`` to stay silent.
    """

    def visit(self, ctx, vertex, payloads):
        raise NotImplementedError

    def initialize_columns(self, ctx, vertices):
        self._visit_all(ctx, {v: [] for v in vertices.tolist()})

    def compute_columns(self, ctx, columns):
        self._visit_all(ctx, delivered(columns))

    def _visit_all(self, ctx, inbox):
        dests, payloads = [], []
        for vertex, received in inbox.items():
            out = self.visit(ctx, vertex, received)
            if out is not None:
                neighbours = ctx.graph.neighbors(vertex).tolist()
                dests += neighbours
                payloads += [out] * len(neighbours)
        if dests:
            ctx.send_columns(payload_columns(dests, payloads))


class Ripple(PerVertex):
    """Every active vertex pings its neighbours with its own id for
    ``rounds`` supersteps.

    An active vertex costs ``1 + skew * worker_id`` plus one unit per
    ping it received; every ping is recorded in ``pings`` as
    ``(superstep, vertex, sender)``, counted in ``hops`` and tallied per
    sender in ``seen``, all of which reach the driver through the
    state-delta hooks.
    """

    def __init__(self, rounds=3, skew=0.0):
        self.rounds = rounds
        self.skew = skew
        self.seen = {}
        self.pings = []
        self.hops = 0

    def visit(self, ctx, vertex, senders):
        for sender in senders:
            self.seen[sender] = self.seen.get(sender, 0) + 1
            self.pings.append((ctx.superstep, vertex, sender))
        self.hops += len(senders)
        ctx.add_cost(1.0 + self.skew * ctx.worker_id + len(senders))
        return vertex if ctx.superstep < self.rounds else None

    def collect_state_delta(self):
        delta = self.seen, self.pings, self.hops
        self.seen, self.pings, self.hops = {}, [], 0
        return delta

    def merge_state_delta(self, delta):
        seen, pings, hops = delta
        for key, n in seen.items():
            self.seen[key] = self.seen.get(key, 0) + n
        self.pings.extend(pings)
        self.hops += hops
