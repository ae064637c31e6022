"""Tracker-style membership service for dynamic overlays.

When peers join a dynamic overlay (Sec. VI-E of the paper) they must be
wired into the existing mesh.  The :class:`MembershipTracker` plays the role
of the tracker/bootstrap server of a real deployment: it knows the current
population and hands each newcomer a set of neighbour candidates, with a
degree-proportional ("rich get more neighbours") bias so the scale-free
shape of the overlay is preserved under churn.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.overlay.topology import OverlayTopology
from repro.utils.rng import make_rng

__all__ = ["MembershipTracker"]


class MembershipTracker:
    """Bootstrap service that attaches joining peers to an overlay.

    Parameters
    ----------
    topology:
        The (mutable) overlay the tracker manages.
    target_degree:
        Number of neighbours handed to a joining peer (capped at the current
        population minus one).
    preferential:
        If True (default), neighbour candidates are sampled with probability
        proportional to ``degree + 1`` — preferential attachment, preserving
        the scale-free character of the paper's overlays under churn.  If
        False, candidates are sampled uniformly.
    seed:
        Randomness seed for candidate selection.
    """

    def __init__(
        self,
        topology: OverlayTopology,
        target_degree: int = 20,
        preferential: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        if target_degree < 1:
            raise ValueError(f"target_degree must be at least 1, got {target_degree}")
        self.topology = topology
        self.target_degree = int(target_degree)
        self.preferential = bool(preferential)
        self._rng = make_rng(seed, "membership-tracker")
        self._next_peer_id = (max(topology.peers()) + 1) if topology.num_peers else 0
        self.joins = 0
        self.leaves = 0
        self._touched: Set[int] = set()

    # ------------------------------------------------------------------ queries

    def population(self) -> int:
        """Current number of peers in the overlay."""
        return self.topology.num_peers

    def allocate_peer_id(self) -> int:
        """Reserve and return a fresh peer id (ids are never reused)."""
        peer_id = self._next_peer_id
        self._next_peer_id += 1
        return peer_id

    def take_touched(self) -> List[int]:
        """Peers whose neighbour sets changed since the last call, sorted.

        Covers every edge the tracker added or removed: a joiner and its
        new neighbours, a departed peer's former neighbours, and both ends
        of every orphan-repair edge.  Simulators re-derive exactly these
        rows after a round of churn; the record is cleared on each call.
        """
        touched = sorted(self._touched)
        self._touched.clear()
        return touched

    def select_neighbors(self, exclude: int, count: Optional[int] = None) -> List[int]:
        """Pick up to ``count`` neighbour candidates for a joining peer.

        Candidates never include ``exclude`` and are distinct.  Returns an
        empty list when the overlay is empty.
        """
        count = self.target_degree if count is None else int(count)
        candidates = self.topology.peers()
        if self.topology.has_peer(exclude):
            candidates.remove(exclude)
        if not candidates or count <= 0:
            return []
        count = min(count, len(candidates))
        if self.preferential:
            weights = self.topology.degree_array(candidates) + 1.0
            weights /= weights.sum()
            chosen = self._rng.choice(candidates, size=count, replace=False, p=weights)
        else:
            chosen = self._rng.choice(candidates, size=count, replace=False)
        return [int(peer) for peer in chosen]

    # ------------------------------------------------------------------ mutation

    def join(self, peer_id: Optional[int] = None, degree: Optional[int] = None) -> int:
        """Add a new peer to the overlay and wire it to neighbour candidates.

        Returns the id of the peer that joined.
        """
        if peer_id is None:
            peer_id = self.allocate_peer_id()
        else:
            peer_id = int(peer_id)
            self._next_peer_id = max(self._next_peer_id, peer_id + 1)
        if self.topology.has_peer(peer_id):
            raise ValueError(f"peer {peer_id} is already in the overlay")
        neighbors = self.select_neighbors(exclude=peer_id, count=degree)
        self.topology.add_peer(peer_id)
        for neighbor in neighbors:
            self.topology.add_edge(peer_id, neighbor)
        self._touched.add(peer_id)
        self._touched.update(neighbors)
        self.joins += 1
        return peer_id

    def leave(self, peer_id: int, repair: bool = True) -> List[int]:
        """Remove a peer; optionally repair the orphans it leaves behind.

        When ``repair`` is True, former neighbours that became isolated are
        re-attached to a random remaining peer, so the overlay never
        fragments into singleton components because of a departure.

        Returns the list of former neighbours of the departed peer.
        """
        former = self.topology.remove_peer(peer_id)
        self._touched.discard(peer_id)
        self._touched.update(former)
        self.leaves += 1
        if repair and self.topology.num_peers > 1:
            for orphan in former:
                if self.topology.has_peer(orphan) and self.topology.degree(orphan) == 0:
                    candidates = self.select_neighbors(exclude=orphan, count=1)
                    for candidate in candidates:
                        self.topology.add_edge(orphan, candidate)
                    self._touched.update(candidates)
        return former
