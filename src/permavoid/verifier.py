"""Bounded avoidance certificates on prefixes of morphic words.

A morphic word spec is a prolongable base morphism with a seed, optionally
followed by a letter-to-block coding.  ``verify_prefix_avoids`` generates a
prefix, runs the instance detector over every factor up to a block-length
bound, and issues a certificate that records exactly what was checked; it
never claims more than the stated bounds.

The built-in "h-alpha" spec codes the ternary Thue word letterwise through
three 16-letter images over a five-letter alphabet.  Its prefixes contain no
factor u f^i(u) f^j(u) f^k(u) with short u that is modelled by any of the
parameters alpha_2..alpha_14, and the longest factor containing no complete
coding image is 30 letters, so any block of 31 letters or more covers a full
image.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .alphas import ALPHA_INDICES
from .search import InstanceWitness, PermModel, SearchConfig, verify_word_avoids
from .words import TERNARY_THUE_MORPHISM, THUE_MORSE_MORPHISM, Morphism, Word

__all__ = [
    "MorphicWordSpec",
    "AvoidanceCertificate",
    "H_ALPHA_CODING",
    "h_alpha_spec",
    "load_spec",
    "max_gap_without_full_image",
    "verify_prefix_avoids",
]

#: Longest prefix ``verify_prefix_avoids`` generates: the prefix grows in a
#: Python loop, and 10**6 letters already take seconds and tens of MB.
_MAX_PREFIX_LENGTH = 10_000_000

#: Letter-to-block coding of the ternary Thue word onto five letters.
H_ALPHA_CODING = Morphism(
    {
        0: "0123041203410234",
        1: "0132403124302134",
        2: "0123402134201324",
    },
    target_alphabet=5,
)


@dataclass(frozen=True)
class MorphicWordSpec:
    """A base fixed point plus an optional letterwise coding."""

    base: Morphism
    seed: int
    coding: Morphism | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.base.is_prolongable(self.seed):
            raise ValueError(f"base morphism is not prolongable on seed {self.seed}")
        if self.coding is not None and self.coding.source_alphabet < self.base.target_alphabet:
            raise ValueError("coding must be defined on every letter of the base alphabet")

    @property
    def target_alphabet(self) -> int:
        return self.coding.target_alphabet if self.coding else self.base.target_alphabet

    def base_prefix_length_for(self, length: int) -> int:
        if self.coding is None:
            return length
        shortest = min(len(img) for img in self.coding.images)
        return -(-length // shortest)

    def generate(self, length: int) -> Word:
        """The length-``length`` prefix of the coded fixed point."""
        if length < 1:
            raise ValueError("length must be positive")
        base_word = self.base.fixed_point_prefix(self.seed, self.base_prefix_length_for(length))
        if self.coding is None:
            return Word(base_word.letters[:length], self.base.target_alphabet)
        coded = self.coding.apply_letters(base_word.letters)
        return Word(coded[:length], self.coding.target_alphabet)

    def as_json(self) -> dict:
        out: dict = {"base": self.base.to_json_dict(), "seed": self.seed}
        if self.coding is not None:
            out["coding"] = self.coding.to_json_dict()
            out["target_alphabet"] = self.coding.target_alphabet
        out["base_alphabet"] = self.base.target_alphabet
        if self.name:
            out["name"] = self.name
        return out


_BUILTINS = {
    spec.name: spec
    for spec in (
        MorphicWordSpec(THUE_MORSE_MORPHISM, 0, name="thue-morse"),
        MorphicWordSpec(TERNARY_THUE_MORPHISM, 0, name="ternary-thue"),
        MorphicWordSpec(TERNARY_THUE_MORPHISM, 0, coding=H_ALPHA_CODING, name="h-alpha"),
    )
}


def h_alpha_spec() -> MorphicWordSpec:
    return _BUILTINS["h-alpha"]


def load_spec(source: str | Path) -> MorphicWordSpec:
    """A builtin spec by name, or a spec parsed from a JSON file.

    The builtin names are thue-morse, ternary-thue and h-alpha.
    """
    if isinstance(source, str) and source in _BUILTINS:
        return _BUILTINS[source]
    path = Path(source)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"spec file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"spec file {path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"spec file {path}: expected a JSON object")
    for key in ("base", "seed"):
        if key not in data:
            raise ValueError(f"spec file {path}: missing key {key!r}")
    for key in ("base", "coding"):
        images = data.get(key, {})
        if not isinstance(images, dict) or not all(isinstance(v, str) for v in images.values()):
            raise ValueError(f"spec file {path}: {key!r} must be a JSON object of strings")
    for key in ("seed", "base_alphabet", "target_alphabet"):
        if key in data and type(data[key]) is not int:  # bool is an int subclass
            raise ValueError(
                f"spec file {path}: {key!r} must be an integer, got {json.dumps(data[key])}"
            )
    if "name" in data and not isinstance(data["name"], str):
        raise ValueError(
            f"spec file {path}: 'name' must be a string, got {json.dumps(data['name'])}"
        )
    with _spec_key(path, "base"):
        base = Morphism.from_json_dict(data["base"], data.get("base_alphabet"))
    with _spec_key(path, "seed"):
        spec = MorphicWordSpec(base, data["seed"], name=data.get("name"))
    if "coding" not in data:
        return spec
    with _spec_key(path, "coding"):
        coding = Morphism.from_json_dict(data["coding"], data.get("target_alphabet"))
        return replace(spec, coding=coding)


@contextmanager
def _spec_key(path: Path, key: str):
    """Name the spec file and key in the ValueErrors raised while reading that key."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"spec file {path}: {key!r}: {exc}") from None


def max_gap_without_full_image(spec: MorphicWordSpec, length: int) -> int:
    """Longest factor of the length-L prefix containing no complete coding image.

    The complete images w_0, w_1, ... tile the prefix from position 0.  A
    longest such factor starts at 0 or one letter after an image start and
    stops one letter short of the end of the next image, or at L after the
    last image start s_last.  So the gap is the largest of w_0 - 1,
    w_t + w_(t+1) - 2 and L - s_last - 1, or L when no image is complete.
    """
    if spec.coding is None:
        raise ValueError("spec has no coding")
    base_word = spec.base.fixed_point_prefix(spec.seed, spec.base_prefix_length_for(length))
    widths = []
    end = 0
    for letter in base_word.letters:
        width = len(spec.coding.image(letter))
        if end + width > length:
            break
        widths.append(width)
        end += width
    if not widths:
        return length
    pairs = [a + b - 2 for a, b in zip(widths, widths[1:])]
    return max(widths[0] - 1, length - (end - widths[-1]) - 1, *pairs)


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Record of a bounded avoidance check; its scope is explicit in the bounds."""

    spec: MorphicWordSpec
    prefix_length: int
    max_block_length: int
    forbidden_params: tuple[int, ...]
    model: PermModel
    status: str  # "clean" | "witness"
    witness: InstanceWitness | None = None
    gap_without_full_image: int | None = None
    checked_prefix_length: int | None = None

    @property
    def clean(self) -> bool:
        return self.status == "clean"

    def as_json(self) -> dict:
        return {
            "spec": self.spec.as_json(),
            "prefix_length": self.prefix_length,
            "max_block_length": self.max_block_length,
            "forbidden_params": list(self.forbidden_params),
            "model": self.model.value,
            "status": self.status,
            "witness": self.witness.as_json() if self.witness else None,
            "gap_without_full_image": self.gap_without_full_image,
            "checked_prefix_length": self.checked_prefix_length,
        }


def verify_prefix_avoids(
    spec: MorphicWordSpec,
    forbidden_params,
    model: PermModel,
    max_block_length: int,
    prefix_length: int,
) -> AvoidanceCertificate:
    """Exhaustively check every factor of the prefix up to the block-length bound."""
    if max_block_length < 1 or prefix_length < 1:
        raise ValueError("bounds must be positive")
    if prefix_length > _MAX_PREFIX_LENGTH:
        raise ValueError(
            f"prefix length {prefix_length:,} exceeds the supported {_MAX_PREFIX_LENGTH:,} letters"
        )
    params = tuple(sorted(set(forbidden_params)))
    if any(a not in ALPHA_INDICES for a in params):
        raise ValueError("forbidden parameters must be alpha indices in 1..14")
    letters = spec.generate(prefix_length).letters
    config = SearchConfig.for_params(
        alphabet=spec.target_alphabet, params=params, model=model
    )
    witness = verify_word_avoids(letters, config, max_block=max_block_length)
    if witness is not None:
        status, checked_length = "witness", witness.start + 4 * witness.block_length
    else:
        status, checked_length = "clean", prefix_length
    return AvoidanceCertificate(
        spec=spec,
        prefix_length=prefix_length,
        max_block_length=max_block_length,
        forbidden_params=params,
        model=model,
        status=status,
        witness=witness,
        gap_without_full_image=(
            max_gap_without_full_image(spec, prefix_length) if spec.coding is not None else None
        ),
        checked_prefix_length=checked_length,
    )
