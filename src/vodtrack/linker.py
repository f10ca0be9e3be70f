"""Whole-video tubelet linking and re-scoring (Seq-NMS and Seq-Track-NMS).

Detections in consecutive frames are linked under an overlap constraint. A
link graph is its edge tables, one per pair of consecutive frames, from a
detection's index in frame ``t`` to its successors' indices in frame
``t+1``; the video says how many detections each frame holds. Maximum-score
paths (tubelets) are extracted one by one, each member is re-scored to the
tubelet's mean score, and overlapping same-class detections are suppressed
around every member. Extraction runs within each independent component
(nodes joined by links or suppressing overlaps): one extraction changes no
other component, so the order across components does not change the output.
The two graph constraints differ in which box represents frame ``t`` when
testing overlap against frame ``t+1``: the raw detection itself, or the
tracker's predicted next-frame box (which keeps links alive under large
motion).

Each stage takes a video as a :class:`~vodtrack.evalio.VideoDetectionSet`
(and its predictions as a :class:`~vodtrack.evalio.VideoPredictions`) and
reads them one frame's column slices at a time; re-scoring returns a set.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .evalio import VideoDetectionSet, VideoPredictions
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


class LinkGraph(NamedTuple):
    """``edges[t]`` maps a detection index in frame ``t`` to its successor indices in frame ``t+1``."""

    edges: tuple[dict[int, tuple[int, ...]], ...]


class Tubelet(NamedTuple):
    """A chain of (frame, detection index) members over strictly consecutive frames."""

    members: tuple[tuple[int, int], ...]
    path_score: float

    @property
    def rescored(self) -> float:
        return self.path_score / len(self.members)


def _overlaps_above(classes_a, boxes_a, classes_b, boxes_b, thresh: float) -> np.ndarray:
    """Boolean matrix: box ``a[i]`` and ``b[j]`` share a class and overlap above ``thresh``."""
    return (iou(boxes_a, boxes_b) > thresh) & (classes_a[:, None] == classes_b)


def _row_table(hits: np.ndarray) -> dict[int, tuple[int, ...]]:
    """The true columns of each row that has any, in ascending order."""
    table: dict[int, list[int]] = {}
    rows, cols = np.nonzero(hits)
    for i, j in zip(rows.tolist(), cols.tolist()):
        table.setdefault(i, []).append(j)
    return {i: tuple(js) for i, js in table.items()}


def _build_graph(video: VideoDetectionSet, probes: np.ndarray, link_iou: float) -> LinkGraph:
    """``probes`` holds, row for row with ``video``, the boxes tested against the next frame."""
    b = video.offsets.tolist()
    return LinkGraph(tuple(
        _row_table(_overlaps_above(video.class_id[b[t] : b[t + 1]], probes[b[t] : b[t + 1]],
                                   video.class_id[b[t + 1] : b[t + 2]], video.boxes[b[t + 1] : b[t + 2]],
                                   link_iou))
        for t in range(video.n_frames - 1)
    ))


def build_graph_seqnms(video: VideoDetectionSet, link_iou: float = LINK_IOU_DEFAULT) -> LinkGraph:
    """Link detections whose own boxes overlap across consecutive frames.

    An edge requires the same class and strictly more than ``link_iou``
    overlap between the frame-``t`` box and the frame-``t+1`` box.
    """
    return _build_graph(video, video.boxes, link_iou)


def build_graph_seqtrack(
    video: VideoDetectionSet,
    preds: VideoPredictions,
    link_iou: float = LINK_IOU_DEFAULT,
) -> LinkGraph:
    """Link using each detection's tracker-predicted next-frame box.

    ``preds`` predicts from ``video``'s rows.
    """
    if len(preds.boxes) != len(video.score):
        raise ValueError(f"predictions on {len(preds.boxes)} rows do not cover a video of {len(video.score)} rows")
    return _build_graph(video, preds.boxes, link_iou)


def best_path(
    graph: LinkGraph,
    scores: Sequence[Sequence[float]],
    alive: Mapping[int, set[int]] | None = None,
) -> Tubelet | None:
    """Maximum-total-score path over the alive nodes, by dynamic programming.

    ``alive`` maps a frame to its alive node indices and may omit frames
    (``None``: every scored node); the DP visits only the frames it names.
    Paths may start and end at any frame but step through consecutive frames
    along edges. Score ties prefer the earliest start frame, then the
    lexicographically smallest index sequence. Returns ``None`` when no alive
    node exists.
    """
    if len(graph.edges) != max(len(scores) - 1, 0):
        raise ValueError("scores must align with the graph's frames")
    if alive is None:
        alive = {t: set(range(len(frame))) for t, frame in enumerate(scores)}

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


def rescore_and_suppress(video: VideoDetectionSet, graph: LinkGraph, nms_iou: float) -> VideoDetectionSet:
    """Extract tubelets best-first, average their scores, suppress around members.

    Repeats until every detection is either re-scored as a tubelet member or
    suppressed (same class, overlap above ``nms_iou`` with a member in its
    frame). Emits the surviving detections in original frame order with
    their re-scored values; geometry is never modified. Extraction runs
    within each component of nodes joined by link edges or clashes; one
    changes only its own component, so the result is the whole-video one.
    Returns the set of surviving rows.
    """
    if len(graph.edges) != max(video.n_frames - 1, 0):
        raise ValueError("video and graph frame counts differ")

    bounds = video.offsets.tolist()
    scores = [video.score[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    # clashes[t][i]: the other nodes of frame t that a member (t, i) suppresses.
    clashes = []
    for a, b in zip(bounds, bounds[1:]):
        classes, boxes = video.class_id[a:b], video.boxes[a:b]
        hits = _overlaps_above(classes, boxes, classes, boxes, nms_iou)
        np.fill_diagonal(hits, False)
        clashes.append(_row_table(hits))

    # Node (t, i) has the flat id bounds[t] + i, its row; parent is a union-find forest.
    parent = list(range(bounds[-1]))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    links = [(t, t, table) for t, table in enumerate(clashes)]
    links += [(t, t + 1, table) for t, table in enumerate(graph.edges)]
    for t, u, table in links:
        for i, js in table.items():
            for j in js:
                parent[find(bounds[t] + i)] = find(bounds[u] + j)

    # components[root] = {frame: alive nodes}, frames in ascending order.
    components: dict[int, dict[int, set[int]]] = {}
    for t, rows in enumerate(video):
        for i, row in enumerate(rows):
            components.setdefault(find(row), {}).setdefault(t, set()).add(i)

    rescored: list[float | None] = [None] * bounds[-1]
    for alive in components.values():
        while alive:
            tube = best_path(graph, scores, alive)
            mean = tube.rescored
            for t, i in tube.members:
                rescored[bounds[t] + i] = mean
                alive[t].discard(i)
            for t, i in tube.members:
                alive[t].difference_update(clashes[t].get(i, ()))
                if not alive[t]:
                    del alive[t]

    kept = np.array([score is not None for score in rescored], bool)
    return video.select(kept, [score for score in rescored if score is not None])
