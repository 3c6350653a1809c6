"""Pareto-front utilities for the accuracy-vs-cost design space (Fig. 4).

All functions treat points as tuples of objectives where *every*
coordinate is minimized.  The classic use is the 2-D ``(params, loss)``
plane of Fig. 4, but the hardware-in-the-loop sweep annotates points with
deployment metrics (latency, energy, quantized loss, …), so the dominance
test, front extraction and hypervolume all accept objective tuples of any
dimensionality.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["dominates", "pareto_front", "pareto_points", "hypervolume"]

Point = Tuple[float, ...]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if ``a`` Pareto-dominates ``b`` (<= in all, < in at least one)."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_front(points: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated points, sorted lexicographically.

    Points with a NaN coordinate are excluded outright: NaN compares False
    to everything, which would make such a point undominatable and plant a
    meaningless vertex on the front.  (Inf is a legitimate — terrible —
    objective value and is kept.)
    """
    valid = [i for i, p in enumerate(points)
             if not any(math.isnan(float(c)) for c in p)]
    indices = []
    for i in valid:
        p = points[i]
        if not any(dominates(points[j], p) for j in valid if j != i):
            indices.append(i)
    indices.sort(key=lambda i: tuple(points[i]))
    return indices


def pareto_points(points: Sequence[Sequence[float]]) -> List[Point]:
    """The non-dominated points themselves, in lexicographic order."""
    return [tuple(points[i]) for i in pareto_front(points)]


def hypervolume(points: Sequence[Sequence[float]],
                reference: Sequence[float]) -> float:
    """Dominated hypervolume w.r.t. a reference (worst-corner) point.

    Scalar quality of an N-D minimization front: the volume dominated
    between the front and ``reference`` (larger is better).  Points outside
    the reference box contribute nothing.

    Computed by slicing along the first objective (the HSO scheme): sweeping
    the front in ascending first coordinate, the slab between consecutive
    abscissae is the slab width times the (N-1)-D hypervolume of the points
    seen so far, projected onto the remaining objectives.  Exact, and fast
    enough for the few-dozen-point fronts a DSE sweep produces.
    """
    reference = tuple(float(r) for r in reference)
    box: List[Point] = []
    for p in points:
        p = tuple(float(c) for c in p)
        if len(p) != len(reference):
            raise ValueError(
                f"point dimension {len(p)} != reference dimension "
                f"{len(reference)}")
        if all(c <= r for c, r in zip(p, reference)):
            box.append(p)
    if not box:
        return 0.0
    return _slab_volume([box[i] for i in pareto_front(box)], reference)


def _slab_volume(front: List[Point], reference: Point) -> float:
    """HSO recursion over a non-dominated front sorted by first coordinate."""
    if len(reference) == 1:
        return max(0.0, reference[0] - min(p[0] for p in front))
    volume = 0.0
    for i, point in enumerate(front):
        next_x = front[i + 1][0] if i + 1 < len(front) else reference[0]
        width = next_x - point[0]
        if width <= 0.0:
            continue  # duplicate abscissa: folded into the next slab
        slab = [q[1:] for q in front[:i + 1]]
        sub_front = [slab[j] for j in pareto_front(slab)]
        volume += width * _slab_volume(sub_front, reference[1:])
    return volume

