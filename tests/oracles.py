"""Slow, definitional oracles shared by the test modules.

Each works on plain tuples or bytes and enumerates the definition directly.
From the library they use only ``canonical_pattern``, the first-occurrence
labeling, never the matcher, its power tables or ``blocks_pattern``.
"""

from permavoid.alphas import canonical_pattern


def perm_powers(images):
    """Image tuples of f^0, f^1, ..., f^(order-1) for the permutation with these images."""
    powers = [tuple(range(len(images)))]
    while True:
        nxt = tuple(images[a] for a in powers[-1])
        if nxt == powers[0]:
            break
        powers.append(nxt)
    return powers


def oracle_suffix_witness(w, tables, forbidden, exponents=None):
    """First forbidden instance that is a suffix of w, by exhaustive enumeration.

    ``tables`` lists ``perm_powers`` of each candidate permutation.  Block
    lengths are tried in ascending order and permutations in the order of
    ``tables``.  In abstract mode (exponents None) each exponent is the least
    e in 0..order(f)-1 whose power maps u onto the block, with 0 reported as
    order(f) (the same power): a block equal to u always gets order(f), even
    when a smaller power fixes u.  In fixed mode the given exponents must map
    u onto the blocks.  Returns (start, block length, index into ``tables``,
    exponents), or None.
    """
    n = len(w)
    for b in range(1, n // 4 + 1):
        s = n - 4 * b
        blocks = [tuple(w[s + l * b : s + (l + 1) * b]) for l in range(4)]
        if canonical_pattern(blocks) not in forbidden:
            continue
        u = blocks[0]
        for index, powers in enumerate(tables):
            order = len(powers)
            images = [tuple(power[a] for a in u) for power in powers]  # f^e(u) at e % order
            if exponents is None:
                found = tuple(
                    next((e or order for e in range(order) if images[e] == v), None)
                    for v in blocks[1:]
                )
            else:
                found = tuple(
                    e if images[e % order] == v else None for e, v in zip(exponents, blocks[1:])
                )
            if None not in found:
                return s, b, index, found
    return None


def oracle_longest_avoiding_word(m, tables, forbidden, exponents, cap, budget, prune):
    """Depth-first search for a longest word avoiding every suffix instance.

    Follows the library's order and counting: letters ascend; with ``prune``
    a letter is at most one more than the largest letter before it (so the
    first is 0); every letter tried is a node; the search stops when the node
    count passes ``budget`` or when a word reaches ``cap``.  Each word is
    checked with ``oracle_suffix_witness``.  Returns (longest length, the
    first longest word as a tuple, exhausted, nodes).
    """
    nodes = 0
    best = ()
    stopped = False

    def grow(w, high):
        nonlocal nodes, best, stopped
        for c in range(min(m, high + 2) if prune else m):
            nodes += 1
            if nodes > budget:
                stopped = True
                return
            w.append(c)
            if oracle_suffix_witness(w, tables, forbidden, exponents) is None:
                if len(w) > len(best):
                    best = tuple(w)
                if len(w) >= cap:
                    stopped = True
                    return
                grow(w, max(high, c))
                if stopped:
                    return
            w.pop()

    grow([], -1)
    return len(best), best, not stopped, nodes


def oracle_first_set_within(sets, mask):
    """Index of the first set whose members a all have bit a - 1 of ``mask`` set, or -1."""
    for index, s in enumerate(sets):
        if all(mask >> (a - 1) & 1 for a in s):
            return index
    return -1


def oracle_minmax(values, sets):
    """(least over ``sets`` of the largest ``values[a - 1]`` of a member a, first set attaining it)."""
    maxima = [max(values[a - 1] for a in s) for s in sets]
    best = min(maxima)
    return best, sets[maxima.index(best)]


def oracle_power_free(w: bytes, copies: int) -> bool:
    n = len(w)
    for s in range(n):
        for b in range(1, (n - s) // copies + 1):
            if w[s] != w[s + b]:
                continue
            if all(w[s + t * b : s + (t + 1) * b] == w[s : s + b] for t in range(1, copies)):
                return False
    return True


def oracle_overlap_free(w: bytes) -> bool:
    n = len(w)
    for s in range(n):
        for b in range(1, (n - s - 1) // 2 + 1):
            if w[s] == w[s + b] and w[s : s + b + 1] == w[s + b : s + 2 * b + 1]:
                return False
    return True


def oracle_fixed_point_prefix(images, seed, length):
    """First ``length`` letters of phi^k(seed), applying phi until the word is long enough.

    ``images`` maps each letter to its image, a tuple of letters.
    """
    word = (seed,)
    while len(word) < length:
        word = tuple(c for a in word for c in images[a])
    return word[:length]


def oracle_max_gap(base_images, seed, coding_images, length):
    """Longest factor [x, y) of the first ``length`` coded letters that holds no whole image.

    The coded word is the fixed point of ``base_images`` from ``seed`` with
    each letter a replaced by ``coding_images[a]``; both map letters to tuples
    of letters.  Every factor is tested against every image span.
    """
    spans, start = [], 0
    for a in oracle_fixed_point_prefix(base_images, seed, length):
        spans.append((start, start + len(coding_images[a])))
        start += len(coding_images[a])
    return max(
        y - x
        for x in range(length + 1)
        for y in range(x, length + 1)
        if not any(x <= s and e <= y for s, e in spans)
    )
