"""Causal DAG model: parsing, d-separation, backdoor adjustment-set search.

Graph text format (UTF-8), one statement per line; ``;`` also separates
statements, ``#`` starts a comment, whitespace is ignored:

    Z -> T
    Z -> Y; T -> Y
    @treatment T
    @outcome Y
    @unobserved U

Edges implicitly declare their endpoints as covariates.  A bare identifier
declares an isolated covariate node.  Role lines may appear in any order
and override the default ``covariate`` role.

All graph values are immutable; every function here is pure, so graphs can
be shared freely across threads.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from typing import Container, Iterable, Mapping

from .errors import (
    CycleError,
    NotIdentifiableError,
    ParseError,
    RoleError,
    UnknownNodeError,
)

ROLES = ("covariate", "treatment", "outcome", "unobserved")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class CausalGraph:
    """Directed acyclic graph over named nodes with causal roles.

    Node names are case-sensitive identifiers (``[A-Za-z_][A-Za-z0-9_]*``)
    so they can match CSV headers exactly.  At most one node may carry the
    ``treatment`` role and at most one the ``outcome`` role.
    """

    __slots__ = ("_roles", "_edges", "_parents", "_children")

    def __init__(
        self,
        nodes: Mapping[str, str] | Iterable[tuple[str, str]],
        edges: Iterable[tuple[str, str]] = (),
    ):
        roles = dict(nodes)
        for name, role in roles.items():
            if not _NAME_RE.match(name):
                raise ParseError(f"invalid node name {name!r}")
            if role not in ROLES:
                raise ParseError(f"invalid role {role!r} for node {name!r}")
        for role in ("treatment", "outcome"):
            carriers = [n for n, r in roles.items() if r == role]
            if len(carriers) > 1:
                raise RoleError(f"multiple {role} nodes: {sorted(carriers)}")

        edge_set = set()
        for a, b in edges:
            if a not in roles:
                raise UnknownNodeError(f"edge endpoint {a!r} is not a declared node")
            if b not in roles:
                raise UnknownNodeError(f"edge endpoint {b!r} is not a declared node")
            if a == b:
                raise CycleError(f"self-loop on {a!r}")
            edge_set.add((a, b))

        parents: dict[str, frozenset[str]] = {}
        children: dict[str, frozenset[str]] = {}
        for n in roles:
            parents[n] = frozenset(a for a, b in edge_set if b == n)
            children[n] = frozenset(b for a, b in edge_set if a == n)

        self._roles = dict(sorted(roles.items()))
        self._edges = frozenset(edge_set)
        self._parents = parents
        self._children = children
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        indegree = {n: len(self._parents[n]) for n in self._roles}
        queue = deque(n for n, d in indegree.items() if d == 0)
        seen = 0
        while queue:
            n = queue.popleft()
            seen += 1
            for c in self._children[n]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    queue.append(c)
        if seen != len(self._roles):
            cyclic = sorted(n for n, d in indegree.items() if d > 0)
            raise CycleError(f"graph has no topological order (cycle through {cyclic})")

    # -- accessors ------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._roles)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    def role(self, name: str) -> str:
        try:
            return self._roles[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None

    @property
    def treatment(self) -> str | None:
        return next((n for n, r in self._roles.items() if r == "treatment"), None)

    @property
    def outcome(self) -> str | None:
        return next((n for n, r in self._roles.items() if r == "outcome"), None)

    @property
    def unobserved(self) -> frozenset[str]:
        return frozenset(n for n, r in self._roles.items() if r == "unobserved")

    def parents(self, name: str) -> frozenset[str]:
        self.role(name)
        return self._parents[name]

    def children(self, name: str) -> frozenset[str]:
        self.role(name)
        return self._children[name]

    def descendants(self, name: str) -> frozenset[str]:
        """All nodes reachable from ``name`` by a directed path (exclusive)."""
        return frozenset(_component(self._children, self.children(name)))

    def ancestral_closure(self, names: Iterable[str]) -> frozenset[str]:
        """The given nodes plus all their ancestors."""
        names = tuple(names)
        for n in names:
            self.role(n)
        return frozenset(_component(self._parents, names))

    def without_outgoing(self, name: str) -> "CausalGraph":
        """Copy of the graph with every edge out of ``name`` removed."""
        self.role(name)
        return CausalGraph(self._roles, [(a, b) for a, b in self._edges if a != name])

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return self._roles == other._roles and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((tuple(self._roles.items()), self._edges))

    def __repr__(self) -> str:
        return f"CausalGraph(nodes={len(self._roles)}, edges={len(self._edges)})"


def parse_graph(text: str) -> CausalGraph:
    """Parse the line-oriented graph format into a :class:`CausalGraph`.

    Raises :class:`ParseError` for malformed statements, :class:`CycleError`
    when the edges admit no topological order, and :class:`RoleError` when
    more than one node is declared treatment or outcome.
    """
    roles: dict[str, str] = {}
    edges: list[tuple[str, str]] = []

    def declare(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid node name {name!r}")
        roles.setdefault(name, "covariate")

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if stmt.startswith("@"):
                parts = stmt[1:].split()
                if len(parts) != 2 or parts[0] not in ("treatment", "outcome", "unobserved"):
                    raise ParseError(f"line {lineno}: bad role statement {stmt!r}")
                role, name = parts
                declare(name)
                if roles[name] not in ("covariate", role):  # "covariate": no @ line yet
                    raise RoleError(
                        f"line {lineno}: node {name!r} declared both {roles[name]} and {role}"
                    )
                roles[name] = role
            elif "->" in stmt:
                parts = [p.strip() for p in stmt.split("->")]
                if len(parts) != 2 or not all(parts):
                    raise ParseError(f"line {lineno}: bad edge statement {stmt!r}")
                a, b = parts
                declare(a)
                declare(b)
                edges.append((a, b))
            else:
                if len(stmt.split()) != 1:
                    raise ParseError(f"line {lineno}: cannot parse {stmt!r}")
                declare(stmt)

    return CausalGraph(roles, edges)


def serialize_graph(g: CausalGraph) -> str:
    """Canonical text for ``g``; ``parse_graph(serialize_graph(g)) == g``."""
    lines = [f"@{g.role(n)} {n}" for n in g.nodes if g.role(n) != "covariate"]
    touched = {n for e in g.edges for n in e}
    lines += [n for n in g.nodes if g.role(n) == "covariate" and n not in touched]
    lines += [f"{a} -> {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def _moral_graph(g: CausalGraph, nodes: frozenset[str]) -> dict[str, set[str]]:
    """Undirected moral graph of ``g`` restricted to ``nodes``: every edge
    between two of them loses its direction, and co-parents are married."""
    neighbors: dict[str, set[str]] = {n: set() for n in nodes}
    for n in nodes:
        ps = [p for p in g.parents(n) if p in nodes]
        for p in ps:
            neighbors[n].add(p)
            neighbors[p].add(n)
        for p, q in itertools.combinations(ps, 2):
            neighbors[p].add(q)
            neighbors[q].add(p)
    return neighbors


def _component(
    neighbors: Mapping[str, Iterable[str]], starts: Iterable[str], removed: Container[str] = ()
) -> set[str]:
    """The ``starts`` and every node reachable from them without entering
    ``removed``; the one breadth-first walk of this module."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        for m in neighbors[queue.popleft()]:
            if m not in seen and m not in removed:
                seen.add(m)
                queue.append(m)
    return seen


def d_separated(g: CausalGraph, a: str, b: str, z: Iterable[str] = ()) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked by ``z``.

    Uses the moralized-ancestral-graph reachability method: restrict to the
    ancestral closure of ``{a, b} | z``, marry co-parents, drop directions,
    delete ``z``, and test connectivity.  Chains and forks are blocked by
    conditioning on the middle node; colliders are open only when the
    collider or one of its descendants is conditioned on.
    """
    zset = frozenset(z)
    for name in (a, b, *zset):
        g.role(name)
    if a == b:
        raise ValueError("d-separation of a node from itself is undefined")
    if a in zset or b in zset:
        raise ValueError("endpoints may not appear in the conditioning set")

    neighbors = _moral_graph(g, g.ancestral_closure({a, b} | zset))
    return b not in _component(neighbors, (a,), zset)


def backdoor_sets(g: CausalGraph, t: str, y: str) -> list[tuple[str, ...]]:
    """All minimal backdoor adjustment sets for the effect of ``t`` on ``y``.

    A valid set contains no descendant of ``t`` and no unobserved node, and
    d-separates ``t`` from ``y`` once the edges out of ``t`` are deleted.
    The result is exactly the minimal valid sets, ordered by size then
    lexicographically, with no cap on their size.

    Minimal valid sets lie in the ancestors of ``{t, y}`` in the trimmed
    graph (Tian, Paz & Pearl 1998), where d-separation is vertex separation
    in the moral graph.  So they are the minimal ``t``-``y`` vertex
    separators of that moral graph that hold only allowed nodes, which are
    listed by closure (Kloks & Kratsch 1998; Berry et al. 1999; van der
    Zander, Liśkiewicz & Textor 2019): each separator found is extended by
    one of its nodes to the ``t`` side and closed again, and a forbidden
    node met on a separator is moved to the ``t`` side.  The cost is
    polynomial per minimal set, but there can be exponentially many of
    them: k disjoint two-node backdoor paths give 2^k sets.

    Raises :class:`NotIdentifiableError` when no subset of observed
    non-descendants blocks every backdoor path.
    """
    if g.role(t) != "treatment":
        raise RoleError(f"graph does not mark {t!r} as treatment")
    if g.role(y) != "outcome":
        raise RoleError(f"graph does not mark {y!r} as outcome")

    trimmed = g.without_outgoing(t)
    forbidden = g.descendants(t) | {t, y} | g.unobserved
    h = _moral_graph(trimmed, trimmed.ancestral_closure({t, y}))

    def close(a: set[str]) -> tuple[frozenset[str], set[str]] | None:
        # The minimal separator with no forbidden node that lies nearest
        # to the connected set ``a`` (which holds t), and its t-side
        # component; None when y is next to ``a``.
        while True:
            na = a.union(*(h[n] for n in a))
            if y in na:
                return None
            c_y = _component(h, (y,), na)
            s = {m for n in c_y for m in h[n]} - c_y
            bad = s & forbidden
            if not bad:
                return frozenset(s), _component(h, (t,), s)
            a = a | bad

    found: set[frozenset[str]] = set()
    stack = [close({t})]
    while stack:
        closed = stack.pop()
        if closed is None or closed[0] in found:
            continue
        s, c_t = closed
        found.add(s)
        stack.extend(close(c_t | {x}) for x in s)
    if not found:
        culprits = sorted(
            u
            for u in g.unobserved
            if t in g.descendants(u) and y in g.descendants(u)
        )
        raise NotIdentifiableError(
            f"no observed set blocks every backdoor path from {t!r} to {y!r}"
            + (f"; unobserved common causes: {culprits}" if culprits else "")
        )
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))
