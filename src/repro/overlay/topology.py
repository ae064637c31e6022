"""Mutable overlay topology with neighbour tables and join/leave support."""

from __future__ import annotations

from itertools import chain, repeat
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components

__all__ = ["OverlayTopology"]


def _lookup_columns(keys: np.ndarray, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Map each of ``ids`` to the ``values`` entry of its key, -1 when absent.

    Ids are small non-negative ints in every generated or churned overlay,
    so one dense lookup table indexed by id does it in two passes.  The
    table's size follows the largest id, though, so sparse ids (any id
    past a few times the input size) and negative ids, which would index
    the table from its end, go through a binary search over the sorted
    keys instead.
    """
    lowest = min(int(keys.min(initial=0)), int(ids.min(initial=0)))
    highest = max(int(keys.max(initial=-1)), int(ids.max(initial=-1)))
    if lowest >= 0 and highest < 4 * (keys.size + ids.size) + 1024:
        table = np.full(highest + 1, -1, dtype=np.int64)
        table[keys] = values
        return table[ids]
    if keys.size == 0:
        return np.full(ids.size, -1, dtype=np.int64)
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    positions = np.minimum(np.searchsorted(sorted_keys, ids), keys.size - 1)
    return np.where(sorted_keys[positions] == ids, values[by_key][positions], -1)


class OverlayTopology:
    """An undirected P2P overlay graph with explicit neighbour tables.

    Peers are identified by integer ids.  The class wraps an adjacency-set
    representation (rather than delegating every operation to networkx) so
    the hot paths used by the simulators — neighbour lookup, degree queries,
    join/leave — are dictionary operations; conversion to a
    :class:`networkx.Graph` is available for analysis.

    Examples
    --------
    >>> topo = OverlayTopology.from_edges(3, [(0, 1), (1, 2)])
    >>> sorted(topo.neighbors(1))
    [0, 2]
    >>> topo.degree(1)
    2
    """

    def __init__(self, peer_ids: Optional[Iterable[int]] = None) -> None:
        self._adjacency: Dict[int, Set[int]] = {}
        self._edge_count = 0
        if peer_ids is not None:
            for peer_id in peer_ids:
                self.add_peer(int(peer_id))

    # ------------------------------------------------------------------ construction

    @classmethod
    def from_edges(cls, num_peers: int, edges: Iterable[Tuple[int, int]]) -> "OverlayTopology":
        """Build a topology on peers ``0..num_peers-1`` from an edge list."""
        topo = cls(range(num_peers))
        for u, v in edges:
            topo.add_edge(int(u), int(v))
        return topo

    @classmethod
    def from_edge_arrays(
        cls, num_peers: int, src: np.ndarray, dst: np.ndarray
    ) -> "OverlayTopology":
        """Bulk-build a topology on peers ``0..num_peers-1`` from endpoint arrays.

        ``src[i]``–``dst[i]`` pairs are undirected edges; self-loops and
        duplicates (in either orientation) are dropped.  Unlike
        :meth:`from_edges`, the adjacency sets are materialised through
        array operations — one in-place sort of the packed edge keys, one
        sort of the symmetrised edge list plus one C-level ``set()``
        construction per peer — so million-peer overlays
        build in seconds instead of the minutes a per-edge Python loop
        takes.  The result is identical to feeding the same (deduplicated)
        edges through :meth:`from_edges`.
        """
        num_peers = int(num_peers)
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if src.size and (
            int(src.min()) < 0
            or int(dst.min()) < 0
            or int(src.max()) >= num_peers
            or int(dst.max()) >= num_peers
        ):
            raise ValueError("edge endpoints must lie in [0, num_peers)")
        keep = src != dst
        src, dst = src[keep], dst[keep]
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        # Sorted distinct keys, as `np.unique` returns them but without its
        # hash path (several times slower on millions of keys).
        keys = lo * num_peers + hi
        keys.sort()
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        unique_keys = keys[distinct]
        lo, hi = unique_keys // num_peers, unique_keys % num_peers
        # Each peer's higher neighbours ascending, then its lower ones.
        return cls._from_neighbor_entries(
            num_peers, np.concatenate([lo, hi]), np.concatenate([hi, lo])
        )

    @classmethod
    def _from_neighbor_entries(
        cls, num_peers: int, owner: np.ndarray, other: np.ndarray
    ) -> "OverlayTopology":
        """Peers ``0..num_peers-1`` whose sets receive ``other[i]`` for ``owner[i]``.

        ``owner``/``other`` list every undirected edge once in each
        direction, without self-loops or duplicates.  Each peer's set is
        filled in the order its entries appear, which fixes the set's
        iteration order: CPython sets iterate in hash-slot order, and ids
        that collide in a slot keep their insertion order.  One stable
        sort groups the entries by owner, then one C-level ``set()`` call
        builds each peer's set.
        """
        order = np.argsort(owner, kind="stable")
        bounds = np.searchsorted(owner[order], np.arange(num_peers + 1)).tolist()
        grouped = other[order]
        # Only the grouped copy stays alive while the Python lists build
        # (this pass sets the peak RSS of a large overlay's generation).
        del owner, other, order
        others = grouped.tolist()
        del grouped
        topo = cls()
        topo._adjacency = {
            peer: set(others[bounds[peer] : bounds[peer + 1]])
            for peer in range(num_peers)
        }
        topo._edge_count = len(others) // 2
        return topo

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "OverlayTopology":
        """Build a topology from an undirected networkx graph (nodes must be ints)."""
        topo = cls(int(node) for node in graph.nodes)
        for u, v in graph.edges:
            if u != v:
                topo.add_edge(int(u), int(v))
        return topo

    def to_networkx(self) -> nx.Graph:
        """Return a networkx copy of the overlay (for analysis/plotting)."""
        graph = nx.Graph()
        graph.add_nodes_from(self._adjacency)
        graph.add_edges_from(self.edges())
        return graph

    def copy(self) -> "OverlayTopology":
        """Return a deep copy of the topology."""
        clone = OverlayTopology(self._adjacency)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    # ------------------------------------------------------------------ peers

    def add_peer(self, peer_id: int) -> None:
        """Add an isolated peer (no-op if already present)."""
        self._adjacency.setdefault(int(peer_id), set())

    def remove_peer(self, peer_id: int) -> List[int]:
        """Remove a peer and all its edges; return its former neighbours."""
        peer_id = int(peer_id)
        if peer_id not in self._adjacency:
            raise KeyError(f"peer {peer_id} is not in the overlay")
        former = sorted(self._adjacency[peer_id])
        for neighbor in former:
            self._adjacency[neighbor].discard(peer_id)
            self._edge_count -= 1
        del self._adjacency[peer_id]
        return former

    def has_peer(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is currently in the overlay."""
        return int(peer_id) in self._adjacency

    def peers(self) -> List[int]:
        """Sorted list of current peer ids."""
        return sorted(self._adjacency)

    @property
    def num_peers(self) -> int:
        """Number of peers currently in the overlay."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges currently in the overlay."""
        return self._edge_count

    # ------------------------------------------------------------------ edges

    def add_edge(self, u: int, v: int) -> bool:
        """Connect peers ``u`` and ``v``; returns False if the edge already existed."""
        u, v = int(u), int(v)
        if u == v:
            raise ValueError("self-loops are not allowed in the overlay")
        if u not in self._adjacency or v not in self._adjacency:
            raise KeyError(f"both endpoints must be in the overlay (got {u}, {v})")
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._edge_count += 1
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Disconnect peers ``u`` and ``v`` (raises KeyError if not connected)."""
        u, v = int(u), int(v)
        if u not in self._adjacency or v not in self._adjacency[u]:
            raise KeyError(f"edge ({u}, {v}) is not in the overlay")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._edge_count -= 1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether peers ``u`` and ``v`` are neighbours."""
        return int(v) in self._adjacency.get(int(u), set())

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(min, max)`` tuples, sorted."""
        for u in sorted(self._adjacency):
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------ neighbour queries

    def neighbors(self, peer_id: int) -> FrozenSet[int]:
        """Frozen set of neighbour ids of ``peer_id``."""
        peer_id = int(peer_id)
        if peer_id not in self._adjacency:
            raise KeyError(f"peer {peer_id} is not in the overlay")
        return frozenset(self._adjacency[peer_id])

    def degree(self, peer_id: int) -> int:
        """Number of neighbours of ``peer_id``."""
        peer_id = int(peer_id)
        if peer_id not in self._adjacency:
            raise KeyError(f"peer {peer_id} is not in the overlay")
        return len(self._adjacency[peer_id])

    def degree_array(self, peer_ids: Sequence[int]) -> np.ndarray:
        """Degrees of ``peer_ids`` as an int64 array, in the given order.

        One C-level pass over the adjacency sets; raises ``KeyError`` for
        a peer that is not in the overlay, like :meth:`degree`.
        """
        return np.fromiter(
            map(len, map(self._adjacency.__getitem__, peer_ids)),
            dtype=np.int64,
            count=len(peer_ids),
        )

    def degrees(self) -> Dict[int, int]:
        """Mapping of peer id to degree for every peer."""
        return {peer: len(neigh) for peer, neigh in self._adjacency.items()}

    def mean_degree(self) -> float:
        """Average degree over current peers (0.0 for an empty overlay)."""
        if not self._adjacency:
            return 0.0
        return 2.0 * self._edge_count / len(self._adjacency)

    def isolated_peers(self) -> List[int]:
        """Peers with no neighbours."""
        return sorted(p for p, neigh in self._adjacency.items() if not neigh)

    # ------------------------------------------------------------------ structure metrics

    def is_connected(self) -> bool:
        """Whether the overlay is a single connected component (False when empty)."""
        if not self._adjacency:
            return False
        start = next(iter(self._adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._adjacency)

    def connected_components(self) -> List[Set[int]]:
        """Return connected components as a list of peer-id sets.

        Components are ordered by size, largest first, and equal sizes by
        their smallest peer id.  The labelling runs in scipy's
        ``csgraph.connected_components`` over the CSR adjacency, not a
        Python BFS.
        """
        if not self._adjacency:
            return []
        order = self.peers()
        peers = np.array(order, dtype=np.int64)
        row_start, columns = self.csr_adjacency(order)
        graph = csr_matrix(
            (np.ones(columns.size), columns, row_start),
            shape=(peers.size, peers.size),
        )
        count, labels = _csgraph_components(graph, directed=False)
        sizes = np.bincount(labels, minlength=count)
        # Positions index the sorted peer ids, so a component's smallest
        # position is its smallest peer id.
        smallest = np.full(count, peers.size, dtype=np.int64)
        np.minimum.at(smallest, labels, np.arange(peers.size, dtype=np.int64))
        ranked = np.lexsort((smallest, -sizes))
        members = np.argsort(labels, kind="stable")
        bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        ids = peers[members].tolist()
        return [set(ids[bounds[label] : bounds[label + 1]]) for label in ranked.tolist()]

    def degree_histogram(self) -> Dict[int, int]:
        """Return ``{degree: number of peers with that degree}``."""
        histogram: Dict[int, int] = {}
        for neighbors in self._adjacency.values():
            histogram[len(neighbors)] = histogram.get(len(neighbors), 0) + 1
        return histogram

    def partition_boundary_edges(self, shard_of) -> List[Tuple[int, int]]:
        """Edges whose endpoints fall in different shards, as sorted tuples.

        ``shard_of`` maps a peer id to its shard — either a callable (for
        example :meth:`~repro.runner.shard.ShardPlan.shard_of_peer`) or a
        mapping/array indexable by peer id.  These are exactly the edges
        whose traffic crosses the boundary-exchange phase of a sharded
        round.
        """
        shard = shard_of if callable(shard_of) else shard_of.__getitem__
        return [(u, v) for u, v in self.edges() if shard(u) != shard(v)]

    def partition_metrics(self, shard_of) -> Dict[str, object]:
        """Quality metrics of a peer-space partition over this overlay.

        Returns ``edge_cut`` (boundary edge count), ``total_edges``,
        ``cut_fraction``, per-shard ``shard_sizes`` and ``imbalance``
        (largest shard over the balanced ideal; 1.0 is perfect).
        """
        shard = shard_of if callable(shard_of) else shard_of.__getitem__
        sizes: Dict[int, int] = {}
        for peer in self._adjacency:
            key = int(shard(peer))
            sizes[key] = sizes.get(key, 0) + 1
        edge_cut = sum(1 for u, v in self.edges() if shard(u) != shard(v))
        shard_sizes = {key: sizes[key] for key in sorted(sizes)}
        ideal = self.num_peers / len(shard_sizes) if shard_sizes else 0.0
        return {
            "edge_cut": edge_cut,
            "total_edges": self._edge_count,
            "cut_fraction": edge_cut / self._edge_count if self._edge_count else 0.0,
            "shard_sizes": shard_sizes,
            "imbalance": max(shard_sizes.values()) / ideal if shard_sizes else 1.0,
        }

    def adjacency_matrix(self, order: Optional[List[int]] = None) -> np.ndarray:
        """Dense 0/1 adjacency matrix in the given peer order (default: sorted ids)."""
        order = list(order) if order is not None else self.peers()
        index = {peer: i for i, peer in enumerate(order)}
        matrix = np.zeros((len(order), len(order)))
        for u, v in self.edges():
            if u in index and v in index:
                matrix[index[u], index[v]] = 1.0
                matrix[index[v], index[u]] = 1.0
        return matrix

    def csr_adjacency(
        self,
        order: Optional[List[int]] = None,
        columns: Optional[Mapping[int, int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat CSR adjacency: ``(row_start, col_indices)`` in the given peer order.

        Row ``r`` of the implied matrix lists the neighbours of
        ``order[r]`` as positions into ``order``, ascending:
        ``col_indices[row_start[r]:row_start[r+1]]``.  This is the
        segmented layout the million-peer simulator kernels consume —
        memory scales with the edge count (``2 × num_edges`` int64
        entries), never ``N × max_degree`` padding or the ``N²`` cells of
        :meth:`adjacency_matrix`.  Peers outside ``order`` are ignored,
        matching :meth:`adjacency_matrix`.

        ``columns`` replaces the positions: a mapping from peer id to
        column (the simulators pass their peer-to-slot map), under which
        neighbours missing from the mapping are ignored instead.

        The rows are gathered with one C-level pass over the adjacency
        sets and ordered with one sort of packed ``(row, column)`` keys.
        """
        order = list(order) if order is not None else self.peers()
        count = len(order)
        if columns is None:
            keys = np.array(order, dtype=np.int64)
            values = np.arange(count, dtype=np.int64)
        else:
            keys = np.fromiter(columns, dtype=np.int64, count=len(columns))
            values = np.fromiter(columns.values(), dtype=np.int64, count=len(columns))
        sets = list(map(self._adjacency.get, order, repeat(())))
        listed = np.fromiter(map(len, sets), dtype=np.int64, count=count)
        neighbors = np.fromiter(
            chain.from_iterable(sets), dtype=np.int64, count=int(listed.sum())
        )
        col_indices = _lookup_columns(keys, values, neighbors)
        del neighbors
        rows = np.repeat(np.arange(count, dtype=np.int64), listed)
        if col_indices.size and col_indices.min() < 0:
            kept = col_indices >= 0
            col_indices, rows = col_indices[kept], rows[kept]
        row_start = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=count), out=row_start[1:])
        # Ascending columns within each row: sort packed (row, column)
        # keys in place, then take the row back off.
        rows *= int(values.max(initial=0)) + 1
        col_indices += rows
        col_indices.sort()
        col_indices -= rows
        return row_start, col_indices

    # ------------------------------------------------------------------ dunder

    def __contains__(self, peer_id: int) -> bool:
        return self.has_peer(peer_id)

    def __len__(self) -> int:
        return self.num_peers

    def __repr__(self) -> str:
        return f"OverlayTopology(num_peers={self.num_peers}, num_edges={self.num_edges})"
