"""Command-line interface: JSON reports for every library operation.

Exit codes: 0 success, 1 domain errors (invalid exponents, bad inputs) and
a reader that closes stdout early, 2 resource-capped inconclusive results,
64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from . import __version__
from .alphas import PatternExponents, alpha_json_value, profile
from .families import FAMILY_IDS, all_unavoidable_sets, classify, enumerate_family, set_max, sigma
from .search import PermModel, SearchConfig, longest_avoiding_word, verify_word_avoids
from .verifier import load_spec, verify_prefix_avoids
from .words import Word

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching, so a deleted option such as --mode is not read as --model
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_exponents(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--i", type=int, required=required)
    parser.add_argument("--j", type=int, required=required)
    parser.add_argument("--k", type=int, required=required)


def _add_pattern_options(parser: argparse.ArgumentParser) -> None:
    """The forbidden set and permutation model, shared by the three avoidance commands."""
    parser.add_argument(
        "--forbidden", type=str, required=True, help="comma list of alpha indices, e.g. 1,2,4,6,7"
    )
    parser.add_argument(
        "--model",
        choices=[m.value for m in PermModel],
        default="all",
        help="permutations that may stand for f",
    )


def _add_instance_options(parser: argparse.ArgumentParser) -> None:
    """What makes a search configuration, shared by `search` and `verify-word`.

    Giving --i, --j and --k fixes the exponents; without them they range freely.
    """
    parser.add_argument("--m", type=int, required=True, help="alphabet size")
    _add_pattern_options(parser)
    _add_exponents(parser, required=False)


def _add_verbose(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verbose", action="store_true", help="log progress of long runs to stderr"
    )


def _parse_params(raw: str) -> tuple[int, ...]:
    try:
        params = tuple(sorted({int(part) for part in raw.split(",") if part.strip()}))
    except ValueError:
        raise ValueError(f"cannot parse parameter list {raw!r}") from None
    if not params or any(a < 1 or a > 14 for a in params):
        raise ValueError("forbidden parameters must be a comma list of indices in 1..14")
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="permavoid", description=__doc__)
    parser.add_argument("--version", action="version", version=f"permavoid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_exponents(sub.add_parser("alphas", help="the 14 alpha values and representations"))
    _add_exponents(sub.add_parser("sigma", help="min-max bound over the unavoidable families"))
    _add_exponents(sub.add_parser("classify", help="avoidable/unavoidable alphabet ranges"))

    families_cmd = sub.add_parser("families", help="dump the family enumerations")
    families_cmd.add_argument("--family", type=int, default=None, help="restrict to one family")
    _add_exponents(families_cmd, required=False)

    search_cmd = sub.add_parser("search", help="longest word avoiding a parameter set")
    _add_instance_options(search_cmd)
    search_cmd.add_argument("--cap", type=int, default=SearchConfig.length_cap, help="length cap")
    search_cmd.add_argument(
        "--budget", type=int, default=SearchConfig.node_budget, help="node budget"
    )
    _add_verbose(search_cmd)

    verify_word_cmd = sub.add_parser("verify-word", help="check one word against a parameter set")
    verify_word_cmd.add_argument("--word", type=str, required=True, help="digit string")
    _add_instance_options(verify_word_cmd)
    _add_verbose(verify_word_cmd)

    verify_morphic_cmd = sub.add_parser(
        "verify-morphic", help="bounded avoidance certificate for a morphic word prefix"
    )
    verify_morphic_cmd.add_argument(
        "--spec",
        type=str,
        required=True,
        help="builtin name (h-alpha, thue-morse, ternary-thue) or JSON file path",
    )
    _add_pattern_options(verify_morphic_cmd)
    verify_morphic_cmd.add_argument("--umax", type=int, default=30, help="largest block length")
    verify_morphic_cmd.add_argument("--len", type=int, default=3000, dest="length")
    _add_verbose(verify_morphic_cmd)

    return parser


def _config_echo(args: argparse.Namespace) -> dict:
    """The options that decide the result; ``--verbose`` only adds stderr lines."""
    return {
        key: value for key, value in sorted(vars(args).items()) if key not in ("command", "verbose")
    }


def _exponents_from(args: argparse.Namespace) -> PatternExponents:
    if args.i is None or args.j is None or args.k is None:
        raise ValueError("this command needs --i, --j and --k")
    return PatternExponents(args.i, args.j, args.k)


def _optional_exponents(args: argparse.Namespace) -> PatternExponents | None:
    """The exponents when any of --i, --j, --k is given (then all three must be), else None."""
    if args.i is None and args.j is None and args.k is None:
        return None
    return _exponents_from(args)


def _search_config(args: argparse.Namespace, **caps) -> SearchConfig:
    params = _parse_params(args.forbidden)
    exponents = _optional_exponents(args)
    return SearchConfig.for_params(
        alphabet=args.m,
        params=params,
        model=PermModel(args.model),
        exponents=exponents.as_tuple() if exponents is not None else None,
        **caps,
    )


def _run_alphas(args) -> tuple[dict, int]:
    return profile(_exponents_from(args)).as_json(), EXIT_OK


def _run_sigma(args) -> tuple[dict, int]:
    exp = _exponents_from(args)
    value, witness = sigma(exp)
    result = {
        "exponents": {"i": exp.i, "j": exp.j, "k": exp.k},
        "sigma": alpha_json_value(value),
        "witness_set": sorted(witness),
    }
    return result, EXIT_OK


def _run_classify(args) -> tuple[dict, int]:
    return classify(_exponents_from(args)).as_json(), EXIT_OK


def _run_families(args) -> tuple[dict, int]:
    ids = [args.family] if args.family is not None else list(FAMILY_IDS)
    exponents = _optional_exponents(args)
    families = {}
    for family_id in ids:
        sets = []
        for s in enumerate_family(family_id):
            entry: dict = {"indices": sorted(s)}
            if exponents is not None:
                entry["max"] = alpha_json_value(set_max(s, exponents))
            sets.append(entry)
        families[str(family_id)] = sets
    result: dict = {"families": families, "total_sets": len(all_unavoidable_sets())}
    if exponents is not None:
        result["exponents"] = {"i": exponents.i, "j": exponents.j, "k": exponents.k}
    return result, EXIT_OK


def _run_search(args) -> tuple[dict, int]:
    config = _search_config(args, length_cap=args.cap, node_budget=args.budget)
    outcome = longest_avoiding_word(config)
    result = outcome.as_json()
    result["forbidden_patterns"] = sorted(config.forbidden)
    return result, EXIT_OK if outcome.exhausted else EXIT_INCONCLUSIVE


def _run_verify_word(args) -> tuple[dict, int]:
    config = _search_config(args)
    try:
        word = Word.parse(args.word, alphabet=args.m)
    except ValueError as exc:
        raise ValueError(f"--word: {exc}") from None
    witness = verify_word_avoids(word, config)
    if witness is None:
        return {"status": "avoids", "word": word.text()}, EXIT_OK
    return {"status": "instance", "word": word.text(), "witness": witness.as_json()}, EXIT_OK


def _run_verify_morphic(args) -> tuple[dict, int]:
    spec = load_spec(args.spec)
    params = _parse_params(args.forbidden)
    certificate = verify_prefix_avoids(
        spec,
        params,
        PermModel(args.model),
        max_block_length=args.umax,
        prefix_length=args.length,
    )
    return certificate.as_json(), EXIT_OK


_HANDLERS = {
    "alphas": _run_alphas,
    "sigma": _run_sigma,
    "classify": _run_classify,
    "families": _run_families,
    "search": _run_search,
    "verify-word": _run_verify_word,
    "verify-morphic": _run_verify_morphic,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # --verbose sends the library's progress lines to stderr for this call only
    log = logging.getLogger("permavoid")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("permavoid: %(message)s"))
    level = log.level
    if getattr(args, "verbose", False):
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    started = time.perf_counter()
    try:
        result, code = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"permavoid: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    elapsed = time.perf_counter() - started

    report = {
        "tool": "permavoid",
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "elapsed_seconds": round(elapsed, 6),
        "result": result,
    }
    try:
        print(json.dumps(report, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout early; point it at devnull so that the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"permavoid: error: cannot write the report: {exc.strerror}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
