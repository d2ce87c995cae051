"""A polynomial reference for mappings past the oracle's cap.

The oracle enumerates subsets or selections, so it stops at 12 to 20
elements.  The reference below takes a maximum matching (Kuhn) and the
strongly connected components of its alternating digraph (Tarjan) instead,
so it runs at n = 25..60, and it shares no code with the package:

- the positions that reach a free value along alternating edges are the last
  block; every other block is a component, taken as the smallest whose
  successors are all taken, ties going to the least position;
- a value lies in the kernel when it is matched to the element, free, or held
  by a position that reaches a free value or the element (Berge);
- the least selection fixes one element at a time to its least value that
  leaves a complete matching of the rest.
"""

import random

from hallkernel import (
    FiniteMapping,
    HallPartition,
    alldifferent_kernel,
    check_hall,
    compute_hall_partition,
    extract_selection,
    has_unique_selection,
)


def kuhn(images, banned=frozenset()):
    """``owner``: value -> position, for a matching of every position, else ``None``."""
    owner = {}

    def augment(p, seen):
        for v in images[p] - banned:
            if v not in seen:
                seen.add(v)
                if v not in owner or augment(owner[v], seen):
                    owner[v] = p
                    return True
        return False

    return owner if all(augment(p, set()) for p in range(len(images))) else None


def components(succ):
    """Tarjan's strongly connected components, as frozensets of positions."""
    index, low, stack, found = {}, {}, [], []

    def visit(p):
        index[p] = low[p] = len(index)
        stack.append(p)
        for q in succ[p]:
            if q not in index:
                visit(q)
                low[p] = min(low[p], low[q])
            elif q in stack:
                low[p] = min(low[p], index[q])
        if low[p] == index[p]:
            found.append(frozenset(stack[stack.index(p):]))
            del stack[stack.index(p):]

    for p in range(len(succ)):
        if p not in index:
            visit(p)
    return found


def reference(images):
    """``(blocks, residual_images, kernel)`` of a list of value sets, or ``None``."""
    owner = kuhn(images)
    if owner is None:
        return None
    succ = [{owner[v] for v in img if v in owner} for img in images]
    rest = {p for p, img in enumerate(images) if img - owner.keys()}
    while grown := {p for p, s in enumerate(succ) if s & rest} - rest:
        rest |= grown
    component = {p: c for c in components(succ) for p in c}
    left = {c for c in component.values() if not c & rest}
    blocks, taken = [], set()
    while left:
        block = min([c for c in left if set().union(*[succ[p] for p in c]) <= c | taken],
                    key=lambda c: (len(c), min(c)))
        blocks.append(block)
        taken |= block
        left.remove(block)
    blocks += [frozenset(rest)] if rest else []
    residuals, struck = [], set()
    for block in blocks:
        residuals.append(frozenset(set().union(*[images[p] for p in block]) - struck))
        struck |= residuals[-1]
    kernel = [frozenset(v for v in img if v not in owner or owner[v] in rest
                        or component[owner[v]] == component[p])
              for p, img in enumerate(images)]
    return tuple(blocks), tuple(residuals), tuple(kernel)


def least_selection(images):
    picks = []
    for k, img in enumerate(images):
        picks.append(next(v for v in sorted(img - set(picks))
                          if kuhn(images[k + 1:], {*picks, v}) is not None))
    return tuple(picks)


def check(images):
    """Hold every public answer for ``images`` to the reference; whether Hall holds."""
    f = FiniteMapping.from_dict(dict(enumerate(images)))
    found = reference(images)
    if found is None:
        witness = check_hall(f)
        assert len(set().union(*[images[p] for p in witness.witness])) == len(
            witness.witness) - 1
        assert compute_hall_partition(f) == extract_selection(f) == witness
        assert alldifferent_kernel(f).is_empty and alldifferent_kernel(f).witness == witness
        assert not has_unique_selection(f)
        return False
    blocks, residuals, kernel = found
    assert compute_hall_partition(f) == HallPartition(blocks, residuals)
    assert alldifferent_kernel(f).images == kernel
    assert extract_selection(f).values == least_selection(images)
    assert has_unique_selection(f) == all(len(k) == 1 for k in kernel)
    return True


def planted(rng, n, extra, density):
    """Random images over n + extra values, each holding a value of a planted permutation."""
    values = rng.sample(range(n + extra), n)
    return [{values[p]} | {v for v in range(n + extra) if rng.random() < density}
            for p in range(n)]


def block_dag(rng, n):
    """Blocks of 1 to 12 elements, each on its own values and some of the earlier
    blocks'; the last block also holds up to 3 spare values; positions shuffled."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 12), n - sum(sizes)))
    values = rng.sample(range(n + 3), n + rng.randint(0, 3))
    images, start = [], 0
    for size in sizes:
        own = values[start:start + size] + (values[n:] if start + size == n else [])
        images += [{own[k]} | {v for v in own if rng.random() < 0.4}
                   | {v for v in values[:start] if rng.random() < 0.05} for k in range(size)]
        start += size
    rng.shuffle(images)
    return images


def chain_violator(rng, n):
    """A shuffled chain of nested images, plus one element with an earlier link's image."""
    order, values = rng.sample(range(n), n), rng.sample(range(n), n)
    images = [set()] * n
    for k, p in enumerate(order[:-1]):
        images[p] = set(values[:k + 1])
    images[order[-1]] = images[order[rng.randrange(n - 1)]]
    return images


def test_random_mappings_with_a_planted_permutation():
    rng = random.Random(16)
    assert all([check(planted(rng, rng.randint(25, 60), rng.randint(0, 3),
                              rng.choice([0.03, 0.08, 0.2]))) for _ in range(160)])


def test_chains():
    for n in (25, 42, 60):
        assert check([set(range(p + 1)) for p in range(n)])  # n one-element blocks
        assert check([set(range(p, n)) for p in range(n)])  # the same, last first
        assert check([{p, (p + 1) % n} for p in range(n)])  # a cycle: one critical block
        assert check([{p, p + 1} for p in range(n)])  # a path: one non-critical block


def test_block_dags():
    rng = random.Random(17)
    assert all([check(block_dag(rng, rng.randint(25, 60))) for _ in range(100)])


def test_violators():
    rng = random.Random(18)
    small = []
    for _ in range(60):  # a deficient set planted in a random mapping, under the cap
        images = planted(rng, rng.randint(10, 24), 0, 0.15)
        few = rng.sample(range(len(images)), rng.randint(1, 5))
        for p in rng.sample(range(len(images)), len(few) + 1):
            images[p] = {v for v in few if rng.random() < 0.7} or {few[0]}
        small.append(check(images))
    assert not any(small)
    # Past the cap: the scan's one-element pass finds the witness.
    assert not any([check(chain_violator(rng, rng.randint(25, 60))) for _ in range(20)])
