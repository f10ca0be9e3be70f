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

Each stage reads a video as a :class:`~vodtrack.evalio.VideoDetectionSet`,
one frame's column slices at a time, and returns one. Per-frame lists of
``Detection`` objects (and of ``TrackPrediction``) are read as their columns,
and re-scoring returns such lists for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .detections import Detection, TrackPrediction
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
            here, there = set(self.nodes[t]), set(self.nodes[t + 1])
            for i, succs in table.items():
                if i not in here:
                    raise ValueError(f"edge from unknown node {i} in frame {t}")
                for j in succs:
                    if j not in there:
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


Video = VideoDetectionSet | Sequence[Sequence[Detection]]


def _as_set(video: Video) -> VideoDetectionSet:
    return video if isinstance(video, VideoDetectionSet) else VideoDetectionSet("", video)


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
    edges = tuple(
        _row_table(_overlaps_above(video.class_id[b[t] : b[t + 1]], probes[b[t] : b[t + 1]],
                                   video.class_id[b[t + 1] : b[t + 2]], video.boxes[b[t + 1] : b[t + 2]],
                                   link_iou))
        for t in range(video.n_frames - 1)
    )
    return LinkGraph(nodes=tuple(tuple(range(len(frame))) for frame in video), edges=edges)


def build_graph_seqnms(video: Video, link_iou: float = LINK_IOU_DEFAULT) -> LinkGraph:
    """Link detections whose own boxes overlap across consecutive frames.

    An edge requires the same class and strictly more than ``link_iou``
    overlap between the frame-``t`` box and the frame-``t+1`` box.
    """
    video = _as_set(video)
    return _build_graph(video, video.boxes, link_iou)


def build_graph_seqtrack(
    video: Video,
    preds: VideoPredictions | Sequence[Sequence[TrackPrediction]],
    link_iou: float = LINK_IOU_DEFAULT,
) -> LinkGraph:
    """Link using each detection's tracker-predicted next-frame box.

    ``preds`` predicts from ``video``'s rows: a ``VideoPredictions`` on
    them, or per-frame lists aligned index for index with ``video``'s frames
    (see :meth:`VideoPredictions.aligned`). The final frame's predictions
    are unused and may be absent.
    """
    video = _as_set(video)
    if not isinstance(preds, VideoPredictions):
        preds = VideoPredictions.aligned(video, preds)
    if len(preds.boxes) != len(video.score) or preds.n_predicted < video.n_frames - 1:
        raise ValueError(f"predictions on {len(preds.boxes)} rows over {preds.n_predicted} frames "
                         f"do not cover a video of {len(video.score)} rows over {video.n_frames} frames")
    return _build_graph(video, preds.boxes, link_iou)


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


def rescore_and_suppress(video: Video, graph: LinkGraph, nms_iou: float = 0.45):
    """Extract tubelets best-first, average their scores, suppress around members.

    Repeats until every detection is either re-scored as a tubelet member or
    suppressed (same class, overlap above ``nms_iou`` with a member in its
    frame). Emits the surviving detections in original frame order with
    their re-scored values; geometry is never modified. Extraction runs
    within each component of nodes joined by link edges or clashes; one
    changes only its own component, so the result is the whole-video one.

    A ``VideoDetectionSet`` gives the set of its surviving rows; per-frame
    ``Detection`` lists give per-frame lists of re-scored copies.
    """
    frames = _as_set(video)
    if frames.n_frames != graph.n_frames:
        raise ValueError("video and graph frame counts differ")

    bounds = frames.offsets.tolist()
    scores = [frames.score[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    # clashes[t][i]: the other nodes of frame t that a member (t, i) suppresses.
    clashes = []
    for a, b in zip(bounds, bounds[1:]):
        classes, boxes = frames.class_id[a:b], frames.boxes[a:b]
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
    for t, frame_nodes in enumerate(graph.nodes):
        for i in frame_nodes:
            components.setdefault(find(bounds[t] + i), {}).setdefault(t, set()).add(i)

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

    if isinstance(video, VideoDetectionSet):
        kept = np.array([score is not None for score in rescored], bool)
        return video.select(kept, [score for score in rescored if score is not None])
    return [[d.with_score(rescored[bounds[t] + i]) for i, d in enumerate(frame) if rescored[bounds[t] + i] is not None]
            for t, frame in enumerate(video)]
