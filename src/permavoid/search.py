"""Backtracking search for long words avoiding forbidden instance structures.

A factor u v1 v2 v3 (four blocks of equal length) is a forbidden instance
when a single permutation f from the configured model maps u onto every
block by some positive power, and the equality pattern of the four blocks is
in the forbidden set.  In abstract mode the powers range freely over
1..order(f) (powers repeat with period order(f), so this is exhaustive); in
fixed mode the three powers are the configured exponents.

The set of blocks reachable from u under powers of f determines everything:
whichever exponent witnesses a block does not change the block, so the
equality pattern is computed from the blocks directly and the permutation
check only decides whether the factor is an instance at all.

``longest_avoiding_word`` grows words depth-first, one letter at a time,
killing a branch as soon as the new letter completes a forbidden suffix.
Candidate letters are the letters already used plus one fresh letter, and
the first letter is fixed to 0; this canonical-form pruning is sound because
the forbidden relation is invariant under renaming the alphabet (all three
permutation models are closed under conjugation).

Every power of f is a bijection on letters, so in an instance the four
blocks are relabellings of one another.  The suffix check tests this on a
previous-occurrence index, ``prev[t] = t - (last index before t holding
w[t])``, or ``t + 1`` when there is none, before any block is sliced.  This is
Baker's prev-encoding from parameterized matching (B. S. Baker, "Parameterized
pattern matching: algorithms and applications", JCSS 52, 1996), clipped to a
block: a letter whose previous occurrence lies inside its block is coded by
that distance, any other letter as new, and two blocks are relabellings
exactly when their codes agree.  A position with ``inside`` letters of its
block before it is coded by ``q = prev[t]`` when ``q < inside``, else as new.
The last letters are compared first, in O(1) (``inside = b``); only a split
that passes goes on to the remaining positions (``_same_shape``), the first
letter of a block being new in every block.  The splits it drops are not
instances, and block lengths are still tried in ascending order, so witnesses
and node counts are those of the unfiltered check.  The search keeps ``prev``
in step with its word, one ``rfind`` per node.

Whether a split is an instance, and by which pattern, permutation and
exponents, depends only on its factor ``w[end - 4b:end]`` and the config, not
on where the factor sits.  Its pattern depends on the factor alone, and
whether a permutation's powers map u onto the other three blocks
(``_match``) on the factor, the model, the alphabet and the exponents, not on
the forbidden set.  So one verdict table for the whole process maps each
decided factor to its pattern and, once a config forbidding that pattern has
asked, ``_match``'s answer; each read applies the config's pattern test to
the stored pattern, so searches that differ only in their forbidden sets,
such as the subset loops of a criterion scan, share every verdict.  A
witness still reports its own start, so results and node counts are those of
deciding every split afresh.  Memory is bounded independently of the word
length and of the block bound: only blocks of at most 64 letters are stored
(keys of at most 256 bytes), and the table is emptied when it reaches 65,536
entries, about 25 MB at worst.  It belongs to one (model, alphabet,
exponents): a search or scan under another replaces it by an empty one, and
one that runs meanwhile keeps the table it started with.  In fixed mode
``_match`` walks each permutation with its i-th, j-th and k-th power tables,
each kept once per (model, alphabet, exponent).

The scan only decides: a hit is the block length and the split's outcome,
and the search prunes on it without building anything.  Only
``suffix_instance`` and ``verify_word_avoids`` build an ``InstanceWitness``
(``_suffix_witness``), once, for the split they return.

Every split with b = 1 passes the filter (``prev[t] >= 1``), and its outcome
depends only on the last four letters: the parent's last three and the new
letter.  So ``longest_avoiding_word`` keeps one table per search from those
four letters to whether they end an instance, and looks a child up before
appending it; a factor not yet in the table is read from the verdict table
or decided then, so each 4-letter factor is looked up once per search and
only when a node ending in it is visited.  A child that ends a b = 1
instance is counted as a node and dropped without being appended or scanned;
a surviving child's scan starts at b = 2, and a word of fewer than 8 letters,
whose only split has b = 1, is not scanned at all.  The table holds at most
m^4 entries, and the model-size cap keeps m <= 9 (6,561 entries), so it needs
no bound of its own.

A node's candidates are tried in one inner loop, the sibling loop: each is
counted as a node (the budget and the progress lines see every one), and a
run of candidates that end a b = 1 instance is passed over there, each looked
up or decided as above, without a trip through the outer loop.  The path from
the root is kept as one tuple per ancestor (its next candidate, its bound on
candidates and the key of its last three letters) and the current word as
``bytes``: a child is the word plus one letter and a return drops the last
one, so no prefix is stored and memory stays linear in the depth.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _all_permutations
from typing import Iterable

from .alphas import ALL_EQUAL, REPRESENTATIONS, blocks_pattern, is_canonical_pattern
from .words import MAX_ALPHABET, Permutation, Word, WordLike, as_letters

__all__ = [
    "PermModel",
    "SearchConfig",
    "InstanceWitness",
    "SearchResult",
    "model_permutations",
    "forbidden_patterns",
    "suffix_instance",
    "verify_word_avoids",
    "longest_avoiding_word",
]

logger = logging.getLogger(__name__)

_PROGRESS_EVERY = 1_000_000  # search nodes between progress lines
_POSITIONS_PROGRESS_EVERY = 100_000  # scanned end positions between progress lines

#: Bounds of the verdict table (see the module docstring): the longest
#: block it stores and the entry count at which it is emptied.
_MEMO_MAX_BLOCK = 64
_MEMO_MAX_ENTRIES = 1 << 16
_UNSEEN = object()


class PermModel(enum.Enum):
    """Which permutations may substitute the function variable."""

    FULL_CYCLE = "cycle"
    FIX_ONE_POINT_CYCLE = "fixcycle"
    ALL_PERMUTATIONS = "all"


#: Largest model enumerated: 8!, the `all` model over eight letters.  Its
#: compile already takes about 0.5-0.7 s and ~100 MB, and each further letter
#: multiplies both by about the alphabet size.
_MAX_MODEL_SIZE = 40_320


def model_permutations(model: PermModel, m: int) -> tuple[Permutation, ...]:
    """Every permutation of {0..m-1} belonging to the model.

    Models with more than 40,320 permutations are rejected before any is built.
    """
    if not 2 <= m <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {m}")
    if model is PermModel.FIX_ONE_POINT_CYCLE and m < 3:
        raise ValueError("fix-one-point cycles need an alphabet of size at least 3")
    sizes = {
        PermModel.FULL_CYCLE: math.factorial(m - 1),
        PermModel.FIX_ONE_POINT_CYCLE: m * math.factorial(m - 2),
        PermModel.ALL_PERMUTATIONS: math.factorial(m),
    }
    if model not in sizes:
        raise ValueError(f"unknown permutation model {model!r}")
    if sizes[model] > _MAX_MODEL_SIZE:
        raise ValueError(
            f"the {model.value!r} model over {m} letters has {sizes[model]:,} permutations;"
            f" at most {_MAX_MODEL_SIZE:,} are supported"
        )
    if model is PermModel.FULL_CYCLE:
        perms = []
        for rest in _all_permutations(range(1, m)):
            cycle = (0,) + rest
            perms.append(Permutation.from_cycles([cycle], m))
        return tuple(perms)
    if model is PermModel.FIX_ONE_POINT_CYCLE:
        perms = []
        for fixed in range(m):
            others = [a for a in range(m) if a != fixed]
            for rest in _all_permutations(others[1:]):
                cycle = (others[0],) + rest
                perms.append(Permutation.from_cycles([cycle], m))
        return tuple(perms)
    return tuple(Permutation(images) for images in _all_permutations(range(m)))


#: Gapped-square representations and their completion: in 0101 both gapped
#: pairs coincide at once, so a factor of that shape still carries the gapped
#: square of 0102 (positions 0 and 2 equal) or of 0121 (positions 1 and 3).
_GAPPED_SQUARE_REPS = frozenset({"0102", "0121"})
_TWO_GAPPED_SQUARES = "0101"


def forbidden_patterns(params: Iterable[int]) -> frozenset[str]:
    """Equality patterns forbidden for a parameter index set.

    Two closure rules always apply.  The all-equal pattern is forbidden
    alongside the representations: four equal blocks form a 4-power
    u u u u, which is an instance in abstract mode (f^order fixes u) and,
    under the ``all`` model, for any exponents (the identity fixes u).  With
    fixed exponents under ``cycle`` or ``fixcycle`` it is an instance only
    when some model permutation's i-th, j-th and k-th powers all fix u, so
    there a word of one repeated letter can avoid the pattern.  And when the
    set carries a gapped-square
    representation, the two-gapped-squares pattern 0101 is forbidden as well:
    a factor u v u v whose halves are power-related exhibits the gapped
    square on both position pairs simultaneously, and letting it escape the
    ban because of the extra coincidence would lengthen the search's maximal
    words beyond the values the avoidance bounds rest on.  A
    :class:`SearchConfig` built from explicit patterns searches without them.
    """
    patterns = {REPRESENTATIONS[a] for a in params} | {ALL_EQUAL}
    if patterns & _GAPPED_SQUARE_REPS:
        patterns.add(_TWO_GAPPED_SQUARES)
    return frozenset(patterns)


@dataclass(frozen=True)
class SearchConfig:
    """Alphabet, forbidden equality patterns, permutation model, and caps."""

    alphabet: int
    forbidden: frozenset[str]
    model: PermModel = PermModel.ALL_PERMUTATIONS
    exponents: tuple[int, int, int] | None = None  # None means abstract mode
    length_cap: int = 400
    node_budget: int = 100_000_000

    def __post_init__(self) -> None:
        if self.alphabet < 2:
            raise ValueError("alphabet size must be at least 2")
        if not self.forbidden:
            raise ValueError("forbidden set must be nonempty")
        for pattern in self.forbidden:
            if not is_canonical_pattern(pattern):
                raise ValueError(f"{pattern!r} is not a canonical equality pattern")
        if self.exponents is not None and len(self.exponents) != 3:
            raise ValueError(f"fixed mode needs three exponents, got {self.exponents!r}")
        if self.exponents is not None and min(self.exponents) < 1:
            raise ValueError("fixed exponents must be positive")
        if self.length_cap < 1 or self.node_budget < 1:
            raise ValueError("caps must be positive")

    @classmethod
    def for_params(cls, alphabet: int, params: Iterable[int], **fields) -> "SearchConfig":
        """The config forbidding ``forbidden_patterns(params)``; ``fields`` go to the constructor."""
        return cls(alphabet=alphabet, forbidden=forbidden_patterns(params), **fields)


@dataclass(frozen=True)
class InstanceWitness:
    """A forbidden instance located inside a word."""

    start: int
    block_length: int
    blocks: tuple[bytes, bytes, bytes, bytes]
    permutation: Permutation
    exponents: tuple[int, int, int]
    pattern: str

    def factor(self) -> bytes:
        return b"".join(self.blocks)

    def as_json(self) -> dict:
        return {
            "start": self.start,
            "block_length": self.block_length,
            "blocks": ["".join(str(a) for a in blk) for blk in self.blocks],
            "permutation": list(self.permutation.images),
            "exponents": list(self.exponents),
            "pattern": self.pattern,
        }


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a backtracking run."""

    max_length_found: int
    witness_word: Word
    exhausted: bool
    nodes_visited: int

    def as_json(self) -> dict:
        return {
            "max_length_found": self.max_length_found,
            "witness_word": self.witness_word.text(),
            "exhausted": self.exhausted,
            "nodes_visited": self.nodes_visited,
        }


#: Each model permutation with its power tables f^0 .. f^(order-1).
_Compiled = tuple[tuple[Permutation, tuple[bytes, ...]], ...]


@lru_cache(maxsize=64)
def _compiled(model: PermModel, m: int) -> _Compiled:
    """Power translation tables in ``model_permutations`` order, shared across a search."""
    perms = model_permutations(model, m)
    # the pairs are built after all the tables, so they lie together in memory
    # for the matcher's walk over every permutation (5,040 at m = 7)
    return tuple(zip(perms, [perm.power_tables() for perm in perms]))


def _match(
    tables: tuple, u: bytes, v1: bytes, v2: bytes, v3: bytes, exponents: tuple[int, int, int] | None
):
    """First (permutation, exponents) whose powers map u onto v1, v2 and v3, or None.

    ``tables`` is the verdict table's ``tables`` for the config: in abstract
    mode the compiled model, in fixed mode its permutations and their i-th,
    j-th and k-th power tables, one column each (``_power_column``).  In
    abstract mode (exponents None) each reported exponent is the least power
    in 0..order(f)-1 that maps u onto the block, with 0 written as order(f);
    in fixed mode the exponents are the given ones.  The mode is tested once
    per call: a test inside the loop over permutations slows the fixed-mode
    searches measurably.
    """
    if exponents is None:
        for perm, powers in tables:
            images = [u.translate(table) for table in powers]
            if v1 in images and v2 in images and v3 in images:
                order = len(powers)
                return perm, tuple(images.index(v) or order for v in (v1, v2, v3))
        return None
    for perm, ti, tj, tk in zip(*tables):
        if v1 == u.translate(ti) and v2 == u.translate(tj) and v3 == u.translate(tk):
            return perm, exponents
    return None


@lru_cache(maxsize=64)
def _model_column(model: PermModel, m: int) -> tuple[Permutation, ...]:
    """The model's permutations, in ``_compiled`` order."""
    return tuple(perm for perm, _ in _compiled(model, m))


@lru_cache(maxsize=64)
def _power_column(model: PermModel, m: int, e: int) -> tuple[bytes, ...]:
    """Each model permutation's e-th power table, in ``_compiled`` order."""
    return tuple(powers[e % len(powers)] for _, powers in _compiled(model, m))


class _Verdicts:
    """The process-wide verdict table (module docstring): factor -> (pattern, outcome).

    The outcome is ``_split_outcome``'s answer under a config forbidding the
    pattern, or ``_UNSEEN`` while no such config has asked.  The table
    belongs to one (model, alphabet, exponents), ``key``, and ``tables`` is
    what ``_match`` walks for it.  Another key gets a new instance rather
    than a changed one, so a scan that read ``_verdicts`` once works on one
    consistent table even if another thread hands it to another key meanwhile.
    """

    def __init__(self, key: tuple | None = None, tables: tuple = ()) -> None:
        self.key = key
        self.tables = tables
        self.table: dict = {}


_verdicts = _Verdicts()  # no config has asked yet


def _verdicts_for(config: SearchConfig) -> _Verdicts:
    """The verdict table of the config's model, alphabet and exponents, replacing another's."""
    global _verdicts
    shared = _verdicts
    model, m, exponents = key = (config.model, config.alphabet, config.exponents)
    if shared.key != key:
        if exponents is None:
            tables = _compiled(model, m)
        else:
            tables = (_model_column(model, m), *(_power_column(model, m, e) for e in exponents))
        shared = _verdicts = _Verdicts(key, tables)
    return shared


def _prev_index(w: bytes) -> list[int]:
    """``prev[t]``: t minus the last index before t holding w[t], or t + 1 when none does."""
    seen = {}
    prev = []
    for t, c in enumerate(w):
        prev.append(t - seen.get(c, -1))
        seen[c] = t
    return prev


def _same_shape(prev: list[int], last: int, b: int) -> bool:
    """Whether the four b-letter blocks ending at ``last`` are relabellings of one another.

    Compares the blocks' clipped prev-encodings (module docstring) at every
    position but the last, which the caller has compared, and the first,
    which is new in every block.
    """
    for j in range(1, b - 1):
        x = last - j
        inside = b - j  # a recurrence at a distance below this lies inside the block
        q = prev[x]
        if q < inside:
            if prev[x - b] != q or prev[x - 2 * b] != q or prev[x - 3 * b] != q:
                return False
        elif prev[x - b] < inside or prev[x - 2 * b] < inside or prev[x - 3 * b] < inside:
            return False
    return True


def _split_outcome(factor: bytes, b: int, config: SearchConfig, shared: _Verdicts):
    """(pattern, permutation, exponents) when ``factor``'s four b-letter blocks form an instance.

    Decides the split and stores the verdict in ``shared`` (blocks of at most
    64 letters); ``_verdict`` reads it back.
    """
    u, v1, v2, v3 = factor[:b], factor[b : 2 * b], factor[2 * b : 3 * b], factor[3 * b :]
    pattern = blocks_pattern(u, v1, v2, v3)
    outcome = _UNSEEN
    if pattern in config.forbidden:
        hit = _match(shared.tables, u, v1, v2, v3, config.exponents)
        outcome = None if hit is None else (pattern, *hit)
    if b <= _MEMO_MAX_BLOCK:
        table = shared.table
        if len(table) >= _MEMO_MAX_ENTRIES:
            table.clear()
        table[factor] = (pattern, outcome)
    return None if outcome is _UNSEEN else outcome


def _verdict(factor: bytes, b: int, config: SearchConfig, shared: _Verdicts):
    """``_split_outcome``'s answer, read from the verdict table where it is stored."""
    entry = shared.table.get(factor) if b <= _MEMO_MAX_BLOCK else None
    if entry is None:
        return _split_outcome(factor, b, config, shared)
    pattern, outcome = entry
    if pattern not in config.forbidden:
        return None
    if outcome is _UNSEEN:
        return _split_outcome(factor, b, config, shared)
    return outcome


def _suffix_split(
    w: bytes,
    prev: list[int],
    end: int,
    config: SearchConfig,
    shared: _Verdicts,
    max_block: int,
    first: int = 1,
):
    """The first block split of a suffix of w[:end] that is an instance, or None.

    A hit is ``(b, outcome)``: the block length and the split's
    (pattern, permutation, exponents); ``_suffix_witness`` turns it into a
    report.

    ``prev`` is the previous-occurrence index of w (at least its first
    ``end`` entries); a split whose four blocks are not relabellings of one
    another (module docstring) is skipped unsliced: the last letters are
    compared first, the other positions by ``_same_shape``.  The others are
    decided through ``shared``, the config's verdict table.  Block lengths
    below ``first`` are not tried.
    """
    top = end // 4
    if max_block < top:
        top = max_block
    last = end - 1
    p = prev[last] if end else 0  # the empty word has no splits
    for b in range(first, top + 1):
        if p < b:
            if prev[last - b] != p or prev[last - 2 * b] != p or prev[last - 3 * b] != p:
                continue
        elif prev[last - b] < b or prev[last - 2 * b] < b or prev[last - 3 * b] < b:
            continue
        if b > 2 and not _same_shape(prev, last, b):
            continue
        outcome = _verdict(w[end - 4 * b : end], b, config, shared)
        if outcome is not None:
            return b, outcome
    return None


def _suffix_witness(w: bytes, end: int, found) -> InstanceWitness:
    """The witness for the split ``(b, outcome)`` of w[:end] that ``_suffix_split`` found."""
    b, (pattern, permutation, exponents) = found
    s = end - 4 * b
    return InstanceWitness(
        start=s,
        block_length=b,
        blocks=(w[s : s + b], w[s + b : s + 2 * b], w[s + 2 * b : s + 3 * b], w[s + 3 * b : end]),
        permutation=permutation,
        exponents=exponents,
        pattern=pattern,
    )


def _letters(word: WordLike, alphabet: int) -> bytes:
    """The word's letters, rejecting any outside the config's alphabet as ``Word`` does."""
    w = as_letters(word)
    if w and max(w) >= alphabet:
        raise ValueError(f"letter {max(w)} out of range for alphabet of size {alphabet}")
    return w


def suffix_instance(word: WordLike, config: SearchConfig) -> InstanceWitness | None:
    """First forbidden instance that is a suffix of the word, over all block lengths.

    A letter outside the config's alphabet raises ``ValueError``.
    """
    w = _letters(word, config.alphabet)
    found = _suffix_split(w, _prev_index(w), len(w), config, _verdicts_for(config), len(w))
    return None if found is None else _suffix_witness(w, len(w), found)


def verify_word_avoids(
    word: WordLike, config: SearchConfig, max_block: int | None = None
) -> InstanceWitness | None:
    """First forbidden instance anywhere in the word, or None if it avoids them all.

    Scans suffixes of every prefix in increasing length, so the result agrees
    with running :func:`suffix_instance` on each prefix in turn.  ``max_block``
    bounds the block length and must be positive.  A letter outside the
    config's alphabet raises ``ValueError``.
    """
    if max_block is not None and max_block < 1:
        raise ValueError(f"max_block must be positive, got {max_block}")
    w = _letters(word, config.alphabet)
    shared = _verdicts_for(config)
    prev = _prev_index(w)
    limit = max_block if max_block is not None else len(w)
    for end in range(4, len(w) + 1):
        if end % _POSITIONS_PROGRESS_EVERY == 0:
            logger.debug("verify: end position %d of %d, memo %d", end, len(w), len(shared.table))
        found = _suffix_split(w, prev, end, config, shared, limit)
        if found is not None:
            return _suffix_witness(w, end, found)
    return None


def longest_avoiding_word(config: SearchConfig) -> SearchResult:
    """Depth-first backtracking for the longest word avoiding the forbidden set.

    Grows only canonical words, whose first letter is 0 and whose fresh
    letters ascend (see the module docstring).  Returns exhausted=True only
    when that tree was explored below the length cap within the node budget.
    The search stops at the first word that reaches the cap: words of at
    least that length exist, which leaves longer words undecided, so such
    runs report exhausted=False.
    """
    m = config.alphabet
    shared = _verdicts_for(config)
    cap = config.length_cap
    budget = config.node_budget
    letters = [bytes((c,)) for c in range(m)]
    # ends[tail | c]: whether the letter c after the word's last three letters
    # ends a b = 1 instance (module docstring)
    ends: dict = {}
    prev: list[int] = []
    best = b""
    best_n = 0
    nodes = 0
    budget_hit = False
    cap_hit = False
    # the node at the top of the path: its word w of n letters, its next
    # candidate c, its candidates' bound top (fresh letters ascend) and tail,
    # w's last three letters as (w[-3] << 24) | (w[-2] << 16) | (w[-1] << 8);
    # path holds (next candidate, top, tail) of each node below it
    w = b""
    n = 0
    c, top, tail = 0, 1, 0
    path: list[tuple[int, int, int]] = []
    stop = min(budget + 1, _PROGRESS_EVERY)  # the next node count that logs or stops
    while True:
        # the sibling loop: count each candidate as a node and skip those that
        # end a b = 1 instance, until one survives or the candidates run out
        while c < top:
            nodes += 1
            if nodes == stop:
                if nodes > budget:
                    budget_hit = True
                    break
                logger.debug(
                    "search: %d nodes, depth %d, best %d, memo %d",
                    nodes, n, best_n, len(shared.table),
                )
                stop = min(budget + 1, nodes + _PROGRESS_EVERY)
            if n < 3:
                break
            dead = ends.get(tail | c)
            if dead is None:
                factor = w[-3:] + letters[c]
                dead = ends[tail | c] = _verdict(factor, 1, config, shared) is not None
            if not dead:
                break
            c += 1
        else:
            if not path:
                break
            c, top, tail = path.pop()
            w = w[:-1]
            n -= 1
            prev.pop()
            continue
        if budget_hit:
            break
        prev.append(n - w.rfind(c))  # rfind gives -1 when c is new
        child = w + letters[c]
        end = n + 1
        if end >= 8 and _suffix_split(child, prev, end, config, shared, end, 2) is not None:
            prev.pop()
            c += 1
            continue
        path.append((c + 1, top, tail))
        w = child
        n += 1
        if n > best_n:
            best, best_n = w, n
        if n >= cap:
            cap_hit = True
            break
        if c + 1 == top < m:
            top += 1
        tail = ((tail | c) << 8) & 0xFFFFFF00
        c = 0

    return SearchResult(
        max_length_found=best_n,
        witness_word=Word(best, m),
        exhausted=not budget_hit and not cap_hit,
        nodes_visited=nodes,
    )
