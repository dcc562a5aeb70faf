"""Product plans: the matrix products that multiply out a batch of id run forms.

A run form ``(head, body, reps, tail)`` over the ids 0..k-1 of a batch's
distinct steps spells ``head + body * reps + tail``.  ``schedule._evolve_form``
plans a batch's run forms here, and ``metrics`` evaluates the plan on the
step unitaries, level by level, in one pool of matrices.  A plan depends on
the run forms' ids alone, never on a coefficient, so each shape is planned
once per process and shared by every schedule and batch of that shape.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

__all__ = ["product_plan"]

# Plans kept per process, least recently used dropped first.  The schedules scored in one
# process repeat a few shapes: a table's batches, the CNOT families at a fixed n, one length
# of unrepeated steps, a fit's iterates on one skeleton.
PLANS_KEPT = 64


@lru_cache(maxsize=PLANS_KEPT)
def product_plan(runs: tuple[tuple, ...], k: int) -> tuple[tuple, tuple, int]:
    """The product plan of id run forms over k distinct steps in one pool: (levels, finals, slots).

    Memoized on its arguments, so ``runs`` is a tuple of ``(head, body,
    reps, tail)`` with tuple parts, and equal run forms and k share one
    plan object, built once while it stays among the last ``PLANS_KEPT``
    shapes.  The plan is immutable: tuples of read-only arrays and ints.

    Pool node j is step j for j < k, then the products level by level; a
    level is (left, right) read-only arrays of its operands' slots, node j
    kept in slot j % ``slots`` until the level after its last read.
    ``finals`` holds each run form's slot, None if it is empty.  Each part
    of a run form (head, the body once, tail) multiplies as a pairwise
    tree, an odd layer's last node waiting; the body is raised to ``reps``
    by squaring, low bit first; then (head . power) . tail is folded, empty
    parts skipped.  Fewer than two repeats are written out as one tree.
    Every product is made by ``times``, once a batch however often it is
    asked for, so n repeats cost O(cycle + log n) products.  Then each is
    given its level, one above its later operand, and the products are
    renumbered level by level, planning order kept within a level.
    """
    products: dict[tuple[int, int], int] = {}  # (left, right) -> node, k + planning order

    def times(a: int, b: int) -> int:
        return products.setdefault((a, b), k + len(products))

    def tree(layer: Sequence[int]) -> int | None:
        while len(layer) > 1:
            layer = [*map(times, layer[::2], layer[1::2]), *layer[len(layer) - len(layer) % 2 :]]
        return layer[0] if layer else None

    roots = []
    for head, body, reps, tail in runs:
        if reps < 2:
            head, body, reps, tail = (), (), 0, (*head, *body * reps, *tail)
        power, node = None, tree(body)
        while reps:
            if reps & 1:
                power = node if power is None else times(power, node)
            reps >>= 1
            if reps:
                node = times(node, node)
        parts = [part for part in (tree(head), power, tree(tail)) if part is not None]
        roots.append(reduce(times, parts) if parts else None)
    level = [0] * k  # per node: 0 for a step, a product one above its later operand
    for a, b in products:  # operands are planned before their products
        level.append(1 + max(level[a], level[b]))
    plan = np.array([*zip(*products), level[k:]], dtype=np.intp).reshape(3, -1)  # left, right, level
    order = np.argsort(plan[2], kind="stable")
    index = np.arange(len(level))
    index[k + order] = index[k:].copy()
    plan = plan[:, order]
    plan[:2], roots = index[plan[:2]], [None if r is None else int(index[r]) for r in roots]
    ends = k + np.cumsum(np.bincount(plan[2], minlength=1))  # one past each level's last node
    # a slot is free once its node's readers' levels end; a final's never is, and the k steps all fit
    kept = max([k] + [len(level) - r for r in roots if r is not None])
    slots = int(np.max(ends[plan[2]] - plan[:2], initial=kept))
    nodes, bounds = plan[:2] % max(slots, 1), (ends - k).tolist()
    nodes.setflags(write=False)
    # from a list, not a generator: tuple() of a generator grows the tuple by resizing, and built
    # that way the levels raised the long-schedules peak RSS by ~0.6 MB every 1000 jobs
    levels = tuple([(nodes[0, a:b], nodes[1, a:b]) for a, b in zip(bounds, bounds[1:])])
    return levels, tuple([None if r is None else r % slots for r in roots]), slots
