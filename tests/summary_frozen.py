"""Frozen copies of ``evalsel.aggregate``, ``evalsel.pair_with_erm`` and
``evalsel.mean_and_se``, the first two each with its own grouping loop.

The implementations in ``fond.evalsel`` must reproduce these functions
row for row, with equal floats. Keep this file unchanged; it is the
reference, not a second implementation.
"""

import math

import numpy as np

from fond.evalsel import BASELINE, AggregateRow, PairedRow, ResultRow


def mean_and_se(values: list[float]):
    if not values:
        return None, None
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, None
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def ref_aggregate(rows: list[ResultRow]) -> list[AggregateRow]:
    cells: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        cells.setdefault((row.dataset, row.setting, row.variant), []).append(row)
    out = []
    for key in sorted(cells):
        members = cells[key]
        y_l = [r.y_l_accuracy for r in members if r.y_l_accuracy is not None]
        y_s = [r.y_s_accuracy for r in members if r.y_s_accuracy is not None]
        l_mean, l_se = mean_and_se(y_l)
        s_mean, s_se = mean_and_se(y_s)
        out.append(AggregateRow(dataset=key[0], setting=key[1], variant=key[2],
                                reps=len(members), y_l_mean=l_mean, y_l_se=l_se,
                                y_s_mean=s_mean, y_s_se=s_se))
    return out


def ref_pair_with_erm(rows: list[ResultRow]) -> list[PairedRow]:
    baseline = {(r.dataset, r.setting, r.rep): r for r in rows if r.variant == BASELINE}
    cells: dict[tuple, list[tuple[ResultRow, ResultRow]]] = {}
    for row in rows:
        base = baseline.get((row.dataset, row.setting, row.rep))
        if row.variant != BASELINE and base is not None:
            cells.setdefault((row.dataset, row.setting, row.variant), []).append((row, base))

    def diffs(pairs, score: str) -> list[float]:
        both = ((getattr(row, score), getattr(base, score)) for row, base in pairs)
        return [v - b for v, b in both if v is not None and b is not None]

    out = []
    for key in sorted(cells):
        y_l, y_s = (diffs(cells[key], score) for score in ("y_l_accuracy", "y_s_accuracy"))
        out.append(PairedRow(*key, len(cells[key]), *mean_and_se(y_l), sum(d > 0 for d in y_l),
                             *mean_and_se(y_s), sum(d > 0 for d in y_s)))
    return out
