"""Alphabets, words, permutations, morphisms, and repetition checkers.

Letters are nonnegative integers below an alphabet size ``m`` and are stored
as single bytes, so alphabets are limited to 256 letters.  Words over
alphabets of at most ten letters render as digit strings ("012021..."); for
larger alphabets a comma-separated numeric form is used instead.

Everything here is an immutable value after construction and every operation
is a pure function, so objects can be shared between concurrent workers
without coordination.  The module needs only the standard library: the
repetition checkers compare a word with its shifts as big integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "MAX_ALPHABET",
    "TEXT_ALPHABET_MAX",
    "Word",
    "Permutation",
    "Morphism",
    "THUE_MORSE_MORPHISM",
    "TERNARY_THUE_MORPHISM",
    "as_letters",
    "is_square_free",
    "is_cube_free",
    "is_overlap_free",
    "is_four_power_free",
]

MAX_ALPHABET = 256
#: Largest permutation order :meth:`Permutation.power_tables` builds tables for.
_MAX_ORDER = 10_000
TEXT_ALPHABET_MAX = 10

WordLike = Union["Word", bytes, bytearray, str, Sequence[int]]


def parse_letters(text: str) -> bytes:
    """Parse a word from digit text ("0120") or delimited form ("0,12,3")."""
    stripped = text.strip()
    parts = stripped.split(",") if "," in stripped else stripped
    try:
        return bytes(int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"cannot parse letters {text!r}: expected digits or comma-separated integers in 0..255"
        ) from None


def format_letters(letters: bytes, alphabet: int) -> str:
    """Render letters as digits for small alphabets, commas otherwise."""
    if alphabet <= TEXT_ALPHABET_MAX:
        return "".join(str(a) for a in letters)
    return ",".join(str(a) for a in letters)


def as_letters(word: WordLike) -> bytes:
    """Coerce a word-like value (Word, bytes, digit string, int sequence) to bytes."""
    if isinstance(word, Word):
        return word.letters
    if isinstance(word, bytes):
        return word
    if isinstance(word, bytearray):
        return bytes(word)
    if isinstance(word, str):
        return parse_letters(word)
    return bytes(word)


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet {0, ..., alphabet-1}; may be empty."""

    letters: bytes
    alphabet: int

    def __post_init__(self) -> None:
        if not 1 <= self.alphabet <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [1, {MAX_ALPHABET}], got {self.alphabet}")
        if self.letters and max(self.letters) >= self.alphabet:
            raise ValueError(
                f"letter {max(self.letters)} out of range for alphabet of size {self.alphabet}"
            )

    @classmethod
    def parse(cls, text: str, alphabet: int | None = None) -> "Word":
        letters = parse_letters(text)
        if alphabet is None:
            alphabet = (max(letters) + 1) if letters else 1
        return cls(letters, alphabet)

    def text(self) -> str:
        return format_letters(self.letters, self.alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.letters[index], self.alphabet)
        return self.letters[index]

    def __repr__(self) -> str:
        return f"Word({self.text()!r}, alphabet={self.alphabet})"


class Permutation:
    """A bijection on {0, ..., m-1}, applied to words letterwise.

    ``images[a]`` is the image of letter ``a``.  Words are mapped by
    translating their bytes through :meth:`power_tables`, which lists every
    power f^0 .. f^(order-1).  The search builds only model permutations
    (m <= 9, order <= 20); orders above ``_MAX_ORDER`` are rejected.
    """

    __slots__ = ("images", "_tables")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(a) for a in images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"images {imgs} are not a bijection on 0..{len(imgs) - 1}")
        if len(imgs) > MAX_ALPHABET:
            raise ValueError("alphabet too large")
        self.images = imgs
        self._tables: tuple[bytes, ...] | None = None

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], m: int) -> "Permutation":
        images = list(range(m))
        for cycle in cycles:
            for pos, a in enumerate(cycle):
                images[a] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    @property
    def order(self) -> int:
        """Least n > 0 with the n-th power equal to the identity."""
        return len(self.power_tables())

    def power_tables(self) -> tuple[bytes, ...]:
        """256-byte translation tables for f^0 ... f^(order-1).

        Composes the one-step table with itself until the identity returns.
        """
        if self._tables is None:
            identity = bytes(range(256))
            step = bytes(self.images) + identity[len(self.images) :]
            tables = [identity]
            table = step
            while table != identity:
                if len(tables) == _MAX_ORDER:
                    raise ValueError(f"permutation order exceeds {_MAX_ORDER:,}")
                tables.append(table)
                table = table.translate(step)
            self._tables = tuple(tables)
        return self._tables

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


class Morphism:
    """A map letter -> nonempty word, extended to words by concatenation."""

    __slots__ = ("images", "source_alphabet", "target_alphabet")

    def __init__(self, images: Mapping[int, WordLike], target_alphabet: int | None = None):
        pairs = {int(k): as_letters(v) for k, v in images.items()}
        source = len(pairs)
        if sorted(pairs) != list(range(source)) or source == 0:
            raise ValueError("images must be given for every letter 0..m-1 of the source alphabet")
        for a, img in pairs.items():
            if not img:
                raise ValueError(f"image of letter {a} is empty")
        if target_alphabet is None:
            target_alphabet = max(max(img) for img in pairs.values()) + 1
        self.images = tuple(pairs[a] for a in range(source))
        self.source_alphabet = source
        self.target_alphabet = target_alphabet
        if target_alphabet > MAX_ALPHABET:
            raise ValueError(f"target alphabet must be at most {MAX_ALPHABET}, got {target_alphabet}")
        if any(max(img) >= target_alphabet for img in self.images):
            raise ValueError("image letter out of range for the target alphabet")

    def image(self, a: int) -> bytes:
        if not 0 <= a < self.source_alphabet:
            raise ValueError(f"letter {a} undefined for this morphism")
        return self.images[a]

    def apply_letters(self, letters: bytes) -> bytes:
        images = self.images
        try:
            return b"".join(images[a] for a in letters)
        except IndexError:
            bad = next(a for a in letters if a >= self.source_alphabet)
            raise ValueError(f"letter {bad} undefined for this morphism") from None

    def is_prolongable(self, seed: int) -> bool:
        """True if image(seed) starts with seed and has length at least two."""
        img = self.image(seed)
        return len(img) >= 2 and img[0] == seed

    def fixed_point_prefix(self, seed: int, length: int) -> Word:
        """Length-``length`` prefix of the fixed point obtained by iterating from ``seed``."""
        if length < 1:
            raise ValueError("length must be positive")
        if not self.is_prolongable(seed):
            raise ValueError(f"morphism is not prolongable on seed {seed}")
        # the fixed point w is image(w[0]) image(w[1]) ...: read it as it grows
        out = bytearray(self.image(seed))
        i = 1
        while len(out) < length:
            out += self.image(out[i])
            i += 1
        prefix = bytes(out[:length])
        if max(prefix) >= self.source_alphabet:  # no image, so no fixed point
            raise ValueError(f"letter {max(prefix)} undefined for this morphism")
        return Word(prefix, self.target_alphabet)

    def to_json_dict(self) -> dict[str, str]:
        return {
            str(a): format_letters(self.images[a], self.target_alphabet)
            for a in range(self.source_alphabet)
        }

    @classmethod
    def from_json_dict(
        cls, data: Mapping[str, str], target_alphabet: int | None = None
    ) -> "Morphism":
        return cls({int(k): parse_letters(str(v)) for k, v in data.items()}, target_alphabet)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Morphism)
            and self.images == other.images
            and self.target_alphabet == other.target_alphabet
        )

    def __hash__(self) -> int:
        return hash((self.images, self.target_alphabet))

    def __repr__(self) -> str:
        return f"Morphism({self.to_json_dict()})"


THUE_MORSE_MORPHISM = Morphism({0: "01", 1: "10"})
TERNARY_THUE_MORPHISM = Morphism({0: "012", 1: "02", 2: "1"})


# ---------------------------------------------------------------------------
# Repetition checkers.
#
# Each checker reduces every period b to one question: do ``need`` consecutive
# positions s satisfy w[s] == w[s+b]?  A factor of length b + r has period b
# exactly when it starts a run of r such equalities.  The definitional factor
# scans in the test oracles are compared with these checkers.
# ---------------------------------------------------------------------------


def _has_periodic_run(w: bytes, b: int, need: int) -> bool:
    """True iff ``need`` consecutive positions s satisfy w[s] == w[s+b]."""
    n = len(w)
    # equal letters XOR to a zero byte; the integers keep every byte in place
    diff = int.from_bytes(w[: n - b], "big") ^ int.from_bytes(w[b:], "big")
    return bytes(need) in diff.to_bytes(n - b, "big")


def _power_free(w: bytes, copies: int) -> bool:
    return not any(
        _has_periodic_run(w, b, (copies - 1) * b) for b in range(1, len(w) // copies + 1)
    )


def is_square_free(word: WordLike) -> bool:
    """True iff no factor uu with u nonempty occurs."""
    return _power_free(as_letters(word), 2)


def is_cube_free(word: WordLike) -> bool:
    """True iff no factor uuu with u nonempty occurs."""
    return _power_free(as_letters(word), 3)


def is_four_power_free(word: WordLike) -> bool:
    """True iff no factor uuuu with u nonempty occurs."""
    return _power_free(as_letters(word), 4)


def is_overlap_free(word: WordLike) -> bool:
    """True iff no factor of the form a v a v a (a a letter, v possibly empty) occurs."""
    w = as_letters(word)
    # a v a v a is a factor of length 2b + 1 with period b = |a v|
    return not any(_has_periodic_run(w, b, b + 1) for b in range(1, (len(w) - 1) // 2 + 1))
