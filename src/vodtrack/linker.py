"""Whole-video tubelet linking and re-scoring (Seq-NMS and Seq-Track-NMS).

Detections in consecutive frames are linked into a graph under an overlap
constraint; maximum-score paths (tubelets) are extracted one by one, each
member is re-scored to the tubelet's mean score, and overlapping same-class
detections are suppressed around every member. Extraction runs within each
independent component (nodes joined by links or suppressing overlaps): one
extraction changes no other component, so the order across components does
not change the output. The two graph constraints differ in which box
represents frame ``t`` when testing overlap against frame ``t+1``: the raw
detection itself, or the tracker's predicted next-frame box (which keeps
links alive under large motion).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .detections import Detection, TrackPrediction
from .geometry import iou

__all__ = [
    "LinkGraph",
    "Tubelet",
    "LINK_IOU_DEFAULT",
    "build_graph_seqnms",
    "build_graph_seqtrack",
    "best_path",
    "rescore_and_suppress",
]

LINK_IOU_DEFAULT = 0.5


@dataclass(frozen=True)
class LinkGraph:
    """Per-frame node lists with directed edges between consecutive frames only.

    ``edges[t]`` maps a node index in frame ``t`` to its successor indices
    in frame ``t+1``.
    """

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[dict[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if len(self.edges) != max(len(self.nodes) - 1, 0):
            raise ValueError("edge table must cover exactly the consecutive frame pairs")
        for t, table in enumerate(self.edges):
            for i, succs in table.items():
                if i not in self.nodes[t]:
                    raise ValueError(f"edge from unknown node {i} in frame {t}")
                for j in succs:
                    if j not in self.nodes[t + 1]:
                        raise ValueError(f"edge to unknown node {j} in frame {t + 1}")

    @property
    def n_frames(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Tubelet:
    """A chain of (frame, detection index) members over strictly consecutive frames."""

    members: tuple[tuple[int, int], ...]
    path_score: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("tubelet must have at least one member")
        for (t0, _), (t1, _) in zip(self.members, self.members[1:]):
            if t1 != t0 + 1:
                raise ValueError("tubelet frames must be strictly consecutive")

    @property
    def rescored(self) -> float:
        return self.path_score / len(self.members)


def _overlaps_above(a: Sequence[Detection], boxes_a, b: Sequence[Detection], boxes_b, thresh: float) -> np.ndarray:
    """Boolean matrix: ``a[i]`` and ``b[j]`` share a class and overlap above ``thresh``."""
    classes_a = np.array([d.class_id for d in a])
    classes_b = np.array([d.class_id for d in b])
    return (iou(boxes_a, boxes_b) > thresh) & (classes_a[:, None] == classes_b)


def _row_table(hits: np.ndarray) -> dict[int, tuple[int, ...]]:
    """The true columns of each row that has any, in ascending order."""
    table: dict[int, list[int]] = {}
    rows, cols = np.nonzero(hits)
    for i, j in zip(rows.tolist(), cols.tolist()):
        table.setdefault(i, []).append(j)
    return {i: tuple(js) for i, js in table.items()}


def _build_graph(video: Sequence[Sequence[Detection]], probes, link_iou: float) -> LinkGraph:
    """``probes[t]`` holds, aligned with ``video[t]``, the boxes tested against frame ``t+1``."""
    nodes = tuple(tuple(range(len(frame))) for frame in video)
    edges = tuple(
        _row_table(_overlaps_above(video[t], probes[t], video[t + 1], [d.box for d in video[t + 1]], link_iou))
        for t in range(len(video) - 1)
    )
    return LinkGraph(nodes=nodes, edges=edges)


def build_graph_seqnms(
    video: Sequence[Sequence[Detection]], link_iou: float = LINK_IOU_DEFAULT
) -> LinkGraph:
    """Link detections whose own boxes overlap across consecutive frames.

    An edge requires the same class and strictly more than ``link_iou``
    overlap between the frame-``t`` box and the frame-``t+1`` box.
    """
    return _build_graph(video, [[d.box for d in frame] for frame in video], link_iou)


def build_graph_seqtrack(
    video: Sequence[Sequence[Detection]],
    preds: Sequence[Sequence[TrackPrediction]],
    link_iou: float = LINK_IOU_DEFAULT,
) -> LinkGraph:
    """Link using each detection's tracker-predicted next-frame box.

    ``preds[t]`` must align index for index with ``video[t]``; the final
    frame's predictions are unused and may be absent.
    """
    n = len(video)
    if len(preds) not in (n, n - 1) and not (n == 0 and not preds):
        raise ValueError(f"predictions cover {len(preds)} frames, video has {n}")
    for t in range(n - 1):
        if len(preds[t]) != len(video[t]):
            raise ValueError(
                f"frame {t}: {len(preds[t])} predictions for {len(video[t])} detections"
            )
    probes = [[p.predicted_box for p in frame] for frame in preds[: max(n - 1, 0)]]
    return _build_graph(video, probes, link_iou)


def best_path(
    graph: LinkGraph,
    scores: Sequence[Sequence[float]],
    alive: Mapping[int, set[int]] | None = None,
) -> Tubelet | None:
    """Maximum-total-score path over the alive nodes, by dynamic programming.

    ``alive`` maps a frame to its alive node indices and may omit frames
    (``None``: every node); the DP visits only the frames it names. Paths may
    start and end at any frame but step through consecutive frames along
    edges. Score ties prefer the earliest start frame, then the
    lexicographically smallest index sequence. Returns ``None`` when no alive
    node exists.
    """
    if len(scores) != graph.n_frames:
        raise ValueError("scores must align with the graph's frames")
    if alive is None:
        alive = {t: set(frame) for t, frame in enumerate(graph.nodes)}

    # chains[t][j] = (total, start_frame, back) of the best chain ending at
    # node j of frame t, where back is its node in frame t-1 (-1 if none).
    chains: dict[int, dict[int, tuple[float, int, int]]] = {}

    def path(t: int, j: int) -> list[int]:
        seq = []
        while j >= 0:
            seq.append(j)
            t, j = t - 1, chains[t][j][2]
        return seq[::-1]

    def outranks(a, b) -> bool:
        """Chain ``a`` beats ``b``; each is ``(total, start, t, j)`` and ends at node j of frame t."""
        return (a[0], -a[1]) > (b[0], -b[1]) if a[:2] != b[:2] else path(*a[2:]) < path(*b[2:])

    best = None
    for t in sorted(alive):
        nodes = alive[t]
        prev = chains.get(t - 1, {})
        # Predecessors of each node, in ascending order because prev is.
        incoming: dict[int, list[int]] = {}
        for i in prev:
            for j in graph.edges[t - 1].get(i, ()):
                if j in nodes:
                    incoming.setdefault(j, []).append(i)
        current = chains[t] = {}
        for j in sorted(nodes):
            s = scores[t][j]
            # Candidates for node j differ only before j: compare the chains they extend.
            cand = (s, t, t - 1, -1)
            for i in incoming.get(j, ()):
                total, start, _ = prev[i]
                if outranks((total + s, start, t - 1, i), cand):
                    cand = (total + s, start, t - 1, i)
            current[j] = (cand[0], cand[1], cand[3])
            if best is None or outranks((cand[0], cand[1], t, j), best):
                best = (cand[0], cand[1], t, j)

    if best is None:
        return None
    total, start, t, j = best
    members = tuple((start + k, idx) for k, idx in enumerate(path(t, j)))
    return Tubelet(members=members, path_score=total)


def rescore_and_suppress(
    video: Sequence[Sequence[Detection]],
    graph: LinkGraph,
    nms_iou: float = 0.45,
) -> list[list[Detection]]:
    """Extract tubelets best-first, average their scores, suppress around members.

    Repeats until every detection is either re-scored as a tubelet member or
    suppressed (same class, overlap above ``nms_iou`` with a member in its
    frame). Emits the surviving detections in original frame order with
    their re-scored values; geometry is never modified. Extraction runs
    within each component of nodes joined by link edges or clashes; one
    changes only its own component, so the result is the whole-video one.
    """
    if len(video) != graph.n_frames:
        raise ValueError("video and graph frame counts differ")

    scores = [[d.score for d in frame] for frame in video]
    # clashes[t][i]: the other nodes of frame t that a member (t, i) suppresses.
    clashes = []
    for frame in video:
        boxes = [d.box for d in frame]
        hits = _overlaps_above(frame, boxes, frame, boxes, nms_iou)
        np.fill_diagonal(hits, False)
        clashes.append(_row_table(hits))

    # Node (t, i) has the flat id offsets[t] + i; parent is a union-find forest.
    offsets = [0, *accumulate(len(frame) for frame in video)]
    parent = list(range(offsets[-1]))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    links = [(t, t, table) for t, table in enumerate(clashes)]
    links += [(t, t + 1, table) for t, table in enumerate(graph.edges)]
    for t, u, table in links:
        for i, js in table.items():
            for j in js:
                parent[find(offsets[t] + i)] = find(offsets[u] + j)

    # components[root] = {frame: alive nodes}, frames in ascending order.
    components: dict[int, dict[int, set[int]]] = {}
    for t, frame_nodes in enumerate(graph.nodes):
        for i in frame_nodes:
            components.setdefault(find(offsets[t] + i), {}).setdefault(t, set()).add(i)

    rescored: list[float | None] = [None] * offsets[-1]
    for alive in components.values():
        while alive:
            tube = best_path(graph, scores, alive)
            mean = tube.rescored
            for t, i in tube.members:
                rescored[offsets[t] + i] = mean
                alive[t].discard(i)
            for t, i in tube.members:
                alive[t].difference_update(clashes[t].get(i, ()))
                if not alive[t]:
                    del alive[t]

    return [[d.with_score(rescored[offsets[t] + i]) for i, d in enumerate(frame) if rescored[offsets[t] + i] is not None]
            for t, frame in enumerate(video)]
