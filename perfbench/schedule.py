"""Op schedules and request lists: pure functions of the seed."""

import random

from perfbench.common import CHEAP, COST_MODELS, EXPERIMENTS

#: Requests per block in ``serve_requests``: one new point, the rest
#: repeats of points from earlier blocks (the first block is all new).
BLOCK = 4

#: Length of the ``serve-mixed`` prefix the traced run replays: the
#: first 35 new points are exactly one of each (experiment, cost model)
#: pair at its first value, so the traced run computes the same set of
#: points at every seed.
TRACED_REQUESTS = BLOCK + (len(CHEAP) * len(COST_MODELS) - BLOCK) * BLOCK


def cold_rounds(seed, rounds):
    """``rounds`` seed-shuffled orders of the 17 experiments."""
    rng = random.Random(f"paper-cold/{seed}")
    order = []
    for _ in range(rounds):
        names = list(EXPERIMENTS)
        rng.shuffle(names)
        order.append(names)
    return order


def _values(default):
    """Fresh size values near ``default``: +1, -1, +2, -2, ... (values
    below 1 skipped)."""
    step = 1
    while True:
        for value in (default + step, default - step):
            if value >= 1:
                yield value
        step += 1


def serve_requests(seed, count):
    """The ``serve-mixed`` request list: ``count`` request documents.

    New points cycle through seed-shuffled rounds of every (cheap
    experiment, cost model) pair; the n-th new point of a pair takes the
    pair's n-th fresh size value.  In each block of ``BLOCK`` requests
    after the first, one is new and the others repeat a uniformly chosen
    point from an earlier block, so with two requests in flight a repeat
    normally finds its point already in the cache.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    pairs = [(name, model) for name in sorted(CHEAP) for model in COST_MODELS]
    values = {pair: _values(CHEAP[pair[0]][1]) for pair in pairs}
    queue = []

    def new_point():
        if not queue:
            batch = list(pairs)
            rng.shuffle(batch)
            queue.extend(batch)
        name, model = queue.pop(0)
        param = CHEAP[name][0]
        return {"kind": "experiment", "experiment": name,
                "params": {"cost_model": model,
                           param: next(values[(name, model)])}}

    requests = []
    earlier = 0       # distinct points issued before the current block
    points = []
    while len(requests) < count:
        block_start = len(requests)
        if block_start == 0:
            kinds = ["new"] * BLOCK
        else:
            kinds = ["repeat"] * BLOCK
            kinds[rng.randrange(BLOCK)] = "new"
        for kind in kinds:
            if len(requests) == count:
                break
            if kind == "new":
                doc = new_point()
                points.append(doc)
            else:
                doc = points[rng.randrange(earlier)]
            requests.append(doc)
        earlier = len(points)
    return requests
