"""Command-line entry point: extract, eval, baseline, select-heads, render.

All subcommands run single-threaded and are deterministic given their
inputs and flags (the ``rand.attn`` baseline via ``--seed``); ``--jobs`` is
accepted and ignored.  Output files are written atomically: on failure no
partial file remains.
Set ``ATTNSYNTAX_LOG=debug|info|warning`` to control verbosity.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
from itertools import count, islice
from typing import Callable, Iterator, Sequence

from .attn_io import AttentionDump, Head, all_heads, atomic_output, load_dump
from .errors import AlignmentError, AttnSyntaxError, TreeParseError
from .phrases import build_phrase_table
from .scoring import CountingPolicy, EvalReport, score, score_arrays
from .selection import (
    dev_sentence,
    greedy_ablation,
    greedy_addition,
    heads_spec,
    layer_distribution,
)
from .synth import random_attention_baseline
from .treebank import (
    MAX_TREE_DEPTH,
    ConstituencyTree,
    bracket_arrays,
    gold_tree_for_dump,
    read_bracketed,
    reference_arrays,
    well_formed_lines,
)
from .render import image_name, render_head, sidecar_text
from .trees import (
    cky_parse,
    extract_tree,
    lbal_tree,
    parse_span_tree,
    rbal_tree,
    span_tree_arrays,
)

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    name = os.environ.get("ATTNSYNTAX_LOG", "warning").upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# glibc's mallopt parameter number for the mmap threshold, and its default
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 * 1024


def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its default for this process.

    glibc raises the threshold, and the heap trim threshold to twice it,
    each time a mapped block is freed.  Decoding a dump line with orjson
    allocates and frees buffers a few times the line's size, so after the
    first large record later buffers come from the heap, and up to ~20 MB
    of freed heap stays resident.  How much depends on the order of record
    sizes: peak memory of ``extract`` swung by ~10 MB between dumps of the
    same records.  Setting the threshold turns that adjustment off, so
    blocks of 128 KiB or more are mapped and handed back when freed.  Where
    the C library has no ``mallopt`` nothing changes.

    The price is that every block of 128 KiB or more is mapped afresh and
    its pages are faulted in on first touch, each time it is allocated.
    So the loops that allocate again and again keep their temporaries
    under the threshold: ``attn_io._openers`` counts a record's brackets
    in 64 KiB slices, ``eval`` scores its lines in chunks of
    ``_CHUNK_CHARS``, and the head search's grouped fills gather one
    operand at a time and pool in blocks, both within about
    ``selection._FILL_BYTES`` / 12 (``tests/test_selection.py`` checks
    these two bounds).  A pass that crosses the threshold pays a page
    fault per 4 KiB it touches: gathering a grouped fill's four operands
    at once did, at 350 KB a step: an in-process ``select-heads`` on the
    ``headsearch`` benchmark's input made 26.5k minor faults so, against
    3.5k with one operand at a time.
    """
    if os.name != "posix":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type for an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)  # counts


def _head_set(text: str) -> tuple[Head, ...] | None:
    """argparse type for ``--heads``: None for ``all`` (every head of each
    sentence), else the sorted distinct pairs of a comma list of 1-based
    ``layer:head`` items, each number at least 1.  Whether a pair lies in a
    sentence's universe is checked per sentence, since records may differ
    in universe."""
    text = text.strip()
    if text == "all":
        return None
    pairs = set()
    for item in text.split(","):
        item = item.strip()
        try:
            layer, head = map(int, item.split(":"))
            if layer < 1 or head < 1:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad head spec item {item!r}: expected layer:head, each at least 1"
            ) from None
        pairs.add((layer, head))
    return tuple(sorted(pairs))


def _heads_for(dump: AttentionDump, heads: tuple[Head, ...] | None) -> tuple[Head, ...]:
    """A parsed ``--heads`` for one sentence; None is all of its heads."""
    return all_heads(dump.layers, dump.heads) if heads is None else heads


def _write_output(path: str | None, data: str | bytes) -> None:
    """Write text or bytes to ``path`` atomically, text as UTF-8; with no
    path, write text to stdout."""
    if path is None:
        sys.stdout.write(data)
        sys.stdout.flush()
        return
    if isinstance(data, str):
        data = data.encode("utf-8")
    with atomic_output(path) as fh:
        fh.write(data)


def _text_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 file, each with its LF, read front to back.

    Lines end at LF only, as in a dump: a U+2028, form feed or CR inside a
    line is whitespace to the tree readers, not a line break.  Each line
    is decoded alone, so a line that is no UTF-8 raises TreeParseError
    naming the file and the line, and a byte past the lines read is never
    decoded.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TreeParseError(f"{path}: line {lineno}: {exc}") from None
            yield text


# --- extract ---------------------------------------------------------------


def _extract_one(dump: AttentionDump, heads: tuple[Head, ...] | None,
                 emit_phrases: bool) -> tuple[str, dict | None]:
    """A sentence's tree line, and its phrase record if ``emit_phrases``."""
    table = build_phrase_table(dump, _heads_for(dump, heads))
    tree = cky_parse(table, dump.n)
    record = {
        "id": dump.sentence_id,
        "phrases": [
            {"span": [a, b], "raw": raw, "equalized": equalized}
            for (a, b), (raw, equalized) in table.items()
        ],
    } if emit_phrases else None
    return tree.to_bracketed(dump.subwords), record


def _cmd_extract(args: argparse.Namespace) -> int:
    failed = 0

    def extract(dump: AttentionDump) -> tuple[str, dict | None]:
        nonlocal failed
        try:
            return _extract_one(dump, args.heads, bool(args.emit_phrases))
        except (AttnSyntaxError, ValueError) as exc:
            if not args.keep_going:  # main reports it; no later line is read
                raise AttnSyntaxError(f"sentence {dump.sentence_id!r}: {exc}") from exc
            failed += 1
            print(f"error: sentence {dump.sentence_id!r}: {exc}", file=sys.stderr)
            return "", {"id": dump.sentence_id, "error": str(exc)}

    results = load_dump(args.dump, keep=extract)
    _write_output(args.out, "".join(line + "\n" for line, _ in results))
    if args.emit_phrases:
        _write_output(
            args.emit_phrases,
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for _, r in results),
        )
    return 1 if failed else 0


# --- eval ------------------------------------------------------------------


def _reference_tree(index: int, line: str, subwords: Sequence[str]) -> ConstituencyTree:
    """Read reference line ``index`` (1-based) and align it to ``subwords``;
    errors name the sentence."""
    try:
        return gold_tree_for_dump(read_bracketed(line), subwords)
    except AttnSyntaxError as exc:
        raise type(exc)(f"sentence {index}: {exc}") from exc


def _score_line(index: int, extracted_line: str, gold_line: str,
                counting: CountingPolicy) -> EvalReport:
    try:
        tree, tokens = parse_span_tree(extracted_line)
    except TreeParseError as exc:
        raise TreeParseError(f"sentence {index}: {exc}") from exc
    return score(tree, _reference_tree(index, gold_line, tokens), counting)


def _percent(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def _eval_text(total: EvalReport, n_sentences: int,
               per_sentence: list[EvalReport] | None,
               counting: CountingPolicy) -> str:
    lines = [f"counting: {counting.value}"]
    if per_sentence is not None:
        for i, report in enumerate(per_sentence, start=1):
            lines.append(
                f"sentence {i}: precision={report.extracted_consistent}/"
                f"{report.extracted_phrases_total} recall={report.gold_consistent}/"
                f"{report.gold_phrases_total} f1={_percent(report.f1)}"
            )
    lines += [
        f"sentences: {n_sentences}",
        f"extracted_phrases_total: {total.extracted_phrases_total}",
        f"extracted_consistent: {total.extracted_consistent}",
        f"gold_phrases_total: {total.gold_phrases_total}",
        f"gold_consistent: {total.gold_consistent}",
        f"precision: {_percent(total.precision)} "
        f"({total.extracted_consistent}/{total.extracted_phrases_total})",
        f"recall: {_percent(total.recall)} "
        f"({total.gold_consistent}/{total.gold_phrases_total})",
        f"f1: {_percent(total.f1)}",
    ]
    return "\n".join(lines) + "\n"


# ``eval`` scores its lines in chunks of about this many characters of the
# two files together.  The pass's largest temporaries, a few int64 arrays
# over the chunk's tokens, then stay near _MMAP_THRESHOLD_BYTES, so they
# are mapped and handed back at each chunk, and memory is bounded by the
# chunk and the longest line, not by the files.
_CHUNK_CHARS = 32 * 1024


def _line_pairs(extracted_path: str, gold_path: str) -> Iterator[tuple[str, str]]:
    """The two files' lines in pairs, each file read once, LF kept.

    Errors come in the order of reading the extracted file whole, then the
    reference file, then comparing their lengths: the extracted file's
    errors at once, the reference file's once the extracted file is read,
    then an AlignmentError if the files' line counts differ.
    """
    gold = _text_lines(gold_path)
    gold_error: Exception | None = None
    extracted_count = gold_count = 0
    for extracted_line in _text_lines(extracted_path):
        extracted_count += 1
        if gold_error is None and gold_count == extracted_count - 1:
            try:
                gold_line = next(gold)
            except StopIteration:
                continue
            except (OSError, ValueError, TreeParseError) as exc:
                gold_error = exc
                continue
            gold_count += 1
            yield extracted_line, gold_line
    if gold_error is not None:
        raise gold_error
    gold_count += sum(1 for _ in gold)
    if extracted_count != gold_count:
        raise AlignmentError(
            f"{extracted_path} has {extracted_count} lines but {gold_path} has {gold_count}"
        )


def _chunks(pairs: Iterator[tuple[str, str]]) -> Iterator[list[tuple[str, str]]]:
    """The pairs in runs, each ended by the pair that brings it to
    _CHUNK_CHARS characters or more."""
    chunk: list[tuple[str, str]] = []
    size = 0
    for pair in pairs:
        chunk.append(pair)
        size += len(pair[0]) + len(pair[1])
        if size >= _CHUNK_CHARS:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _score_chunk(pairs: list[tuple[str, str]],
                 counting: CountingPolicy) -> list[EvalReport] | None:
    """The reports of a chunk of (extracted, reference) line pairs, or None
    if the array checks reject any line of it.

    Each check runs on the whole chunk once the checks before it accept
    every line; which line is bad is left to the per-line readers.
    """
    extracted = bracket_arrays([line for line, _ in pairs])
    reference = bracket_arrays([line for _, line in pairs])
    shaped = min(well_formed_lines(extracted), well_formed_lines(reference, MAX_TREE_DEPTH))
    if shaped < len(pairs):
        return None
    trees = span_tree_arrays(extracted)
    if not trees.ok.all():
        return None
    gold = reference_arrays(reference, trees.n, extracted.continues)
    return score_arrays(trees, gold, counting) if gold.ok.all() else None


def evaluate_files(
    extracted_path: str, gold_path: str, counting: CountingPolicy = CountingPolicy.NONTRIVIAL
) -> tuple[EvalReport, list[EvalReport]]:
    """Score an extracted-trees file against a reference-trees file.

    Lines are read and scored in chunks by array passes, which only accept
    or reject a chunk.  Once both files are read, the first rejected
    chunk's lines go through the per-line readers in order, and the first
    line they reject raises its located error.
    """
    reports: list[EvalReport] = []
    rejected: tuple[int, list[tuple[str, str]]] | None = None  # (first index, chunk)
    for chunk in _chunks(_line_pairs(extracted_path, gold_path)):
        if rejected is None:  # later chunks are only read, for errors that come first
            scored = _score_chunk(chunk, counting)
            if scored is None:
                rejected = (len(reports) + 1, chunk)
            else:
                reports += scored
    if rejected is not None:
        first, chunk = rejected
        for index, (extracted_line, gold_line) in enumerate(chunk, start=first):
            _score_line(index, extracted_line.removesuffix("\n"), gold_line.removesuffix("\n"),
                        counting)
        raise AssertionError(f"sentences {first}-{first + len(chunk) - 1}: the per-line "
                             f"readers accept lines that the array checks reject")
    return EvalReport.aggregate(reports), reports


def _cmd_eval(args: argparse.Namespace) -> int:
    counting = CountingPolicy(args.counting)
    total, reports = evaluate_files(args.extracted, args.gold, counting)
    text = _eval_text(total, len(reports), reports if args.per_sentence else None, counting)
    _write_output(args.out, text)
    return 0


# --- baseline ----------------------------------------------------------------


def _cmd_baseline(args: argparse.Namespace) -> int:
    indices = count()  # sentence i's rand.attn seed is [seed, i]

    def tree_line(dump: AttentionDump) -> str:
        index = next(indices)
        if args.kind == "lbal":
            tree = lbal_tree(dump.n)
        elif args.kind == "rbal":
            tree = rbal_tree(dump.n)
        else:  # rand.attn: fresh seeded matrices of the same shape
            random = random_attention_baseline(
                [args.seed, index],
                dump.n,
                dump.layers,
                dump.heads,
                sentence_id=dump.sentence_id,
                subwords=dump.subwords,
            )
            try:
                tree = extract_tree(random, _heads_for(random, args.heads))
            except (AttnSyntaxError, ValueError) as exc:
                raise AttnSyntaxError(f"sentence {dump.sentence_id!r}: {exc}") from exc
        return tree.to_bracketed(dump.subwords)

    lines = load_dump(args.dump, keep=tree_line)
    _write_output(args.out, "".join(line + "\n" for line in lines))
    return 0


# --- select-heads ------------------------------------------------------------


def _cmd_select_heads(args: argparse.Namespace) -> int:
    counting = CountingPolicy(args.counting)
    sentences = load_dump(args.dump, limit=args.dev_size, keep=dev_sentence)
    gold_lines = list(islice(_text_lines(args.gold), len(sentences)))
    if len(gold_lines) < len(sentences):
        raise AlignmentError(
            f"{args.gold} has {len(gold_lines)} lines, need at least {len(sentences)}"
        )
    golds = [
        _reference_tree(index, line.removesuffix("\n"), sentence.subwords)
        for index, (sentence, line) in enumerate(zip(sentences, gold_lines), start=1)
    ]
    search = greedy_addition if args.strategy == "add" else greedy_ablation
    trace = search(sentences, golds, objective=args.objective, counting=counting)
    best = trace.best_mask
    distribution = layer_distribution(best, trace.universe[0])
    text = (
        trace.to_text()
        + f"best-mask: {heads_spec(best, trace.universe)}\n"
        + "layer-distribution: "
        + " ".join(f"{100 * distribution[layer]:.0f}%" for layer in sorted(distribution))
        + "\n"
    )
    _write_output(args.out, text)
    return 0


# --- render ------------------------------------------------------------------


def _cmd_render(args: argparse.Namespace) -> int:
    if args.all == (args.layer is not None or args.head is not None):
        raise ValueError("use either --all or both --layer and --head")
    if not args.all and (args.layer is None or args.head is None):
        raise ValueError("--layer and --head go together")
    found: AttentionDump | None = None  # the last record with the id, so far

    def sentence_id(dump: AttentionDump) -> str:
        nonlocal found
        if dump.sentence_id == args.sentence:
            found = dump
        return dump.sentence_id

    ids = load_dump(args.dump, keep=sentence_id)
    if found is None:
        known = ", ".join(sorted(set(ids))[:10])
        raise ValueError(f"sentence id {args.sentence!r} not in dump (have: {known})")
    dump = found
    pairs = all_heads(dump.layers, dump.heads) if args.all else [(args.layer, args.head)]
    for layer, head in pairs:  # a head outside the universe raises before any output
        dump.matrix(layer, head)
    os.makedirs(args.out_dir, exist_ok=True)
    for layer, head in pairs:
        stem = os.path.join(
            args.out_dir, image_name(dump.sentence_id, layer, head, hardened=args.hardened)
        )
        _write_output(stem + ".pgm", render_head(dump, layer, head, hardened=args.hardened))
        _write_output(stem + ".txt", sidecar_text(dump.subwords))
    log.info("wrote %d heatmaps to %s", len(pairs), args.out_dir)
    return 0


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnsyntax",
        description="Extract constituency trees from encoder self-attention "
        "matrices and score them against reference parses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # kept because existing command lines pass it; it must still be >= 1
    jobs_help = "accepted and ignored: every subcommand runs single-threaded"

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dump", required=True, help="attention dump file (JSON lines)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--jobs", type=_positive_int, default=1, help=jobs_help)

    p = sub.add_parser("extract", help="extract one bracketed tree per sentence")
    add_common(p)
    p.add_argument("--heads", type=_head_set, default="all",
                   help="'all' or comma list layer:head (1-based)")
    p.add_argument("--emit-phrases", default=None, metavar="PATH",
                   help="also write the phrase tables as JSON lines")
    p.add_argument("--keep-going", action="store_true",
                   help="on a per-sentence error, emit an empty line and continue")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("eval", help="score extracted trees against reference parses")
    p.add_argument("--extracted", required=True, help="extracted trees, one per line")
    p.add_argument("--gold", required=True, help="reference trees, one per line")
    p.add_argument("--counting", choices=["all", "nontrivial"], default="nontrivial")
    p.add_argument("--per-sentence", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_positive_int, default=1, help=jobs_help)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="uninformed baseline trees for a dump")
    add_common(p)
    p.add_argument("--kind", choices=["lbal", "rbal", "rand.attn"], required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for rand.attn")
    p.add_argument("--heads", type=_head_set, default="all",
                   help="heads for rand.attn extraction, as for extract")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("select-heads", help="greedy head subset search on a dev set")
    add_common(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--strategy", choices=["add", "ablate"], required=True)
    p.add_argument("--dev-size", type=_positive_int, default=100,
                   help="use the first N sentences of the dump (default: 100)")
    p.add_argument("--objective", choices=["precision", "f1"], default="precision")
    p.add_argument("--counting", choices=["all", "nontrivial"], default="nontrivial")
    p.set_defaults(func=_cmd_select_heads)

    p = sub.add_parser("render", help="write attention heatmaps as P5 graymaps")
    p.add_argument("--dump", required=True)
    p.add_argument("--sentence", required=True, help="sentence id to render")
    p.add_argument("--layer", type=_positive_int, default=None, help="1-based")
    p.add_argument("--head", type=_positive_int, default=None, help="1-based")
    p.add_argument("--all", action="store_true", help="render every layer x head")
    p.add_argument("--hardened", action="store_true",
                   help="render the per-row-maximum matrix instead")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--jobs", type=_positive_int, default=1, help=jobs_help)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    _pin_mmap_threshold()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AttnSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
