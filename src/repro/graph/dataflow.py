"""The dataflow graph: operation instances plus dependency edges."""

from __future__ import annotations

from typing import Iterable, Iterator

import networkx as nx

from repro.graph.op import OpInstance


class DataflowGraph:
    """A directed acyclic graph of :class:`OpInstance` nodes.

    Edges point from producers to consumers: an edge ``a -> b`` means ``b``
    cannot start until ``a`` has finished (data or control dependency).
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._g = nx.DiGraph()
        self._ops: dict[str, OpInstance] = {}

    # -- construction -------------------------------------------------------------

    def add_op(self, op: OpInstance, deps: Iterable[str | OpInstance] = ()) -> OpInstance:
        """Add ``op`` with dependencies ``deps`` (names or instances)."""
        if op.name in self._ops:
            raise ValueError(f"duplicate operation name: {op.name}")
        self._ops[op.name] = op
        self._g.add_node(op.name)
        for dep in deps:
            dep_name = dep if isinstance(dep, str) else dep.name
            if dep_name not in self._ops:
                raise KeyError(f"dependency {dep_name!r} not in graph")
            self._g.add_edge(dep_name, op.name)
        return op

    def add_dependency(self, producer: str | OpInstance, consumer: str | OpInstance) -> None:
        """Add an edge producer -> consumer between existing nodes.

        The edge is rejected up front (and never added) when the consumer
        already reaches the producer, since it would close a cycle.
        """
        p = producer if isinstance(producer, str) else producer.name
        c = consumer if isinstance(consumer, str) else consumer.name
        for node in (p, c):
            if node not in self._ops:
                raise KeyError(f"unknown operation {node!r}")
        if p == c:
            raise ValueError("an operation cannot depend on itself")
        if nx.has_path(self._g, c, p):
            raise ValueError(f"edge {p} -> {c} would create a cycle")
        self._g.add_edge(p, c)

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __iter__(self) -> Iterator[OpInstance]:
        return iter(self._ops.values())

    def op(self, name: str) -> OpInstance:
        return self._ops[name]

    @property
    def ops(self) -> tuple[OpInstance, ...]:
        return tuple(self._ops.values())

    @property
    def num_edges(self) -> int:
        return self._g.number_of_edges()

    def predecessors(self, name: str | OpInstance) -> tuple[str, ...]:
        node = name if isinstance(name, str) else name.name
        return tuple(self._g.predecessors(node))

    def successors(self, name: str | OpInstance) -> tuple[str, ...]:
        node = name if isinstance(name, str) else name.name
        return tuple(self._g.successors(node))

    def sources(self) -> tuple[str, ...]:
        """Operations with no dependencies (ready at step start)."""
        return tuple(n for n in self._g.nodes if self._g.in_degree(n) == 0)

    def sinks(self) -> tuple[str, ...]:
        """Operations nothing depends on."""
        return tuple(n for n in self._g.nodes if self._g.out_degree(n) == 0)

    def validate(self) -> None:
        """Raise ``ValueError`` if the graph is not a non-empty DAG."""
        if len(self._ops) == 0:
            raise ValueError(f"graph {self.name!r} is empty")
        if not nx.is_directed_acyclic_graph(self._g):
            raise ValueError(f"graph {self.name!r} contains a cycle")

    def op_types(self) -> dict[str, int]:
        """Histogram of operation types -> instance counts."""
        histogram: dict[str, int] = {}
        for op in self._ops.values():
            histogram[op.op_type] = histogram.get(op.op_type, 0) + 1
        return histogram

    def instances_of(self, op_type: str) -> tuple[OpInstance, ...]:
        """All instances of a given operation type."""
        return tuple(op for op in self._ops.values() if op.op_type == op_type)

    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying networkx graph (node names only)."""
        return self._g.copy()

    def subgraph(self, names: Iterable[str]) -> "DataflowGraph":
        """Induced subgraph on ``names`` (keeping internal edges)."""
        keep = set(names)
        missing = keep - set(self._ops)
        if missing:
            raise KeyError(f"unknown operations: {sorted(missing)}")
        sub = DataflowGraph(name=f"{self.name}/subgraph")
        for name in self._ops:
            if name in keep:
                sub._ops[name] = self._ops[name]
                sub._g.add_node(name)
        for u, v in self._g.edges:
            if u in keep and v in keep:
                sub._g.add_edge(u, v)
        return sub

    def __str__(self) -> str:
        return (
            f"DataflowGraph({self.name!r}, {len(self)} ops, "
            f"{self.num_edges} edges)"
        )
