"""Seeded inputs for the random workloads.  Nothing here imports substrum.

The family is constant-length substitutions on m = 4 letters with image
length q in {2, 3}, half of them column-bijective, each primitive and
injective on letters.  A batch holds, for each (q, bijective) cell, three
draws whose characteristic polynomial splits into irreducible factors of
degree <= 2 and one draw with a factor of degree 3.  Fixing that share
(1/4; the unstratified family has about 0.29) keeps the cost mix of every
batch the same, because a degree-3 factor costs ~1000x more to classify at
the seed commit than the closed-form cases.

Two kinds of draw are left out, because the program at the seed commit
fails on them and a benchmark workload must not fail (see README.md,
"Known defects"; `run.py --workload known-defects` still runs such inputs):

* a repeated root of the characteristic polynomial: `analysis_report`
  lists an eigenvalue of multiplicity k k^2 times (about 27% of draws);
* height h > 1: `pure_base` raises ResourceBudgetError on some of them
  (under 1% of draws).  Height one also lets the oracle check every
  verdict by the coincidence test.
"""

from __future__ import annotations

import random

import oracle

M = 4
LENGTHS = (2, 3)
LOW_PER_CELL = 3  # draws whose factors all have degree <= 2
HIGH_PER_CELL = 1  # draws with a factor of degree >= 3


def rules_text(images) -> str:
    return "".join(f"{a} -> {' '.join(map(str, img))}\n" for a, img in enumerate(images))


def draw(rng: random.Random, m: int, q: int, bijective: bool) -> tuple:
    """One primitive, letter-injective, squarefree, height-one substitution
    as a tuple of images."""
    while True:
        if bijective:
            cols = [rng.sample(range(m), m) for _ in range(q)]
            images = tuple(tuple(col[a] for col in cols) for a in range(m))
        else:
            images = tuple(tuple(rng.randrange(m) for _ in range(q)) for _ in range(m))
        if (len(set(images)) == m and oracle.is_primitive(images)
                and oracle.squarefree(images) and oracle.height(images) == 1):
            return images


def batch(rng: random.Random) -> list[tuple]:
    """One stratified batch of images, in seeded order."""
    out = []
    for q in LENGTHS:
        for bijective in (True, False):
            want = {False: LOW_PER_CELL, True: HIGH_PER_CELL}
            while any(want.values()):
                images = draw(rng, M, q, bijective)
                high = oracle.max_factor_degree(images) >= 3
                if want[high]:
                    want[high] -= 1
                    out.append(images)
    rng.shuffle(out)
    return out
