"""The array passes that ``eval`` reads its lines with, against the
per-line readers they replaced (``tests/oracles.py::evaluate_files_per_line``):
the same reports, the same first rejected line and the same error,
whatever the chunking.  Also how much of its reference file and its dump
``select-heads`` reads."""

import contextlib
import io
import itertools
import os
import pathlib
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsyntax import (AlignmentError, AttnSyntaxError, SpanTree, TreeParseError,
                        gold_tree_for_dump, read_bracketed)
from attnsyntax import cli, treebank
from attnsyntax.cli import evaluate_files, main
from attnsyntax.scoring import CountingPolicy
from attnsyntax.synth import random_binary_tree
from attnsyntax.treebank import (
    MAX_TREE_DEPTH,
    bracket_arrays,
    reference_arrays,
    well_formed_lines,
)
from attnsyntax.trees import parse_span_tree, span_tree_arrays

from oracles import BRACKET_LINES, evaluate_files_per_line

# whitespace of every kind the tree readers split at, LF excepted
SPACES = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
# subword pieces: parens (written escaped), '@' that is no marker, non-ASCII
PIECES = ["a", "bc", "(", ")x", "@", "x@y", "é", "語", "-LRB-"]
WORDS = ["w", "-LRB-", "-RRB-", "v@@", "ü"]
# how a line that starts with the byte 0xff fails to decode
DECODE_FF = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def _subword_tree(word_tree: SpanTree, word_spans, n: int) -> SpanTree:
    """The binary tree over n subwords that agrees with the word tree:
    each word right-branching, EOS joined at the top."""

    def word(a, b):
        return SpanTree.leaf(a) if a == b else SpanTree.node(SpanTree.leaf(a), word(a + 1, b))

    def build(node):
        if node.is_leaf:
            return word(*word_spans[node.span[0] - 1])
        return SpanTree.node(build(node.left), build(node.right))

    return SpanTree.node(build(word_tree), SpanTree.leaf(n))


def _spaced(draw, line: str) -> str:
    """``line`` with its single spaces replaced by drawn whitespace, perhaps
    with whitespace around its parens and at its ends."""
    seps = itertools.cycle(draw(st.lists(st.sampled_from(SPACES), min_size=1, max_size=3)))
    line = "".join(part + next(seps) for part in line.split(" "))[:-1]
    if draw(st.booleans()):
        line = line.replace("(", "( ").replace(")", " )")
    pad = draw(st.sampled_from(["", " ", "\t", "\u3000"]))
    return pad + line + pad


@st.composite
def sentence(draw, fault=None):
    """(extracted line, reference line) of one sentence.  ``fault`` puts a
    continuation marker on the subword before EOS ("marker") or one word
    too many in the reference ("words")."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_words = draw(st.integers(1, 8))
    subwords, word_spans = [], []
    for _ in range(n_words):
        pieces = draw(st.lists(st.sampled_from(PIECES), min_size=1, max_size=3))
        word_spans.append((len(subwords) + 1, len(subwords) + len(pieces)))
        subwords += [piece + "@@" for piece in pieces[:-1]] + [pieces[-1]]
    if fault == "marker":
        subwords[-1] += "@@"
    subwords.append(draw(st.sampled_from(["EOS", "e@@"])))
    word_tree = random_binary_tree(rng, n_words)
    if draw(st.booleans()):
        extracted = _subword_tree(word_tree, word_spans, len(subwords))
    else:
        extracted = random_binary_tree(rng, len(subwords))

    words = [draw(st.sampled_from(WORDS)) for _ in range(n_words + (fault == "words"))]
    if fault == "words":
        word_tree = random_binary_tree(rng, n_words + 1)

    def items(node: SpanTree) -> list[str]:
        """The node's children as they stand in its parent: a phrase, or
        spliced into the parent, which gives n-ary phrases."""
        if node.is_leaf:
            word = words[node.span[0] - 1]
            found = [f"(P {word})" if draw(st.booleans()) else word]
        else:
            found = items(node.left) + items(node.right)
            if not draw(st.integers(0, 3)):
                return found
            found = [phrase(found)]
        for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
            found = [f"(X {found[0]})"]  # a unary chain
        return found

    def phrase(children: list[str]) -> str:
        # a phrase is unlabeled only when its first child is a phrase:
        # otherwise that child would be read as the label
        labels = ["S ", "NP ", "-LRB- "] + ([""] if children[0].startswith("(") else [])
        return "(" + draw(st.sampled_from(labels)) + " ".join(children) + ")"

    top = items(word_tree)
    reference = top[0] if len(top) == 1 and top[0].startswith("(") else phrase(top)
    return _spaced(draw, extracted.to_bracketed(subwords)), _spaced(draw, reference)


def _corrupt(draw, line: str, side: str) -> str:
    """One of the malformed line classes, or one character edited."""
    kind = draw(st.sampled_from(
        ["empty", "unbalanced", "closed twice", "trailing", "unary root", "third child",
         "empty phrase", "empty phrases last", "too deep", "edit"]))
    if kind == "empty":
        return draw(st.sampled_from(["", " ", "\t\u2028"]))
    if ")" not in line:  # already emptied
        return line + "("
    if kind == "unbalanced":
        return line[: line.rindex(")")]
    if kind == "closed twice":
        return line + ")"
    if kind == "trailing":
        return line + draw(st.sampled_from([" x", " (y z)"]))
    if kind == "unary root":
        return f"({line})" if side == "extracted" else f"(S {line})"
    if kind == "third child":
        return line[: line.rindex(")")] + " z)"
    if kind == "empty phrase":
        return line.replace("(", "(S () ", 1) if side == "gold" else "()"
    if kind == "empty phrases last":  # after the last leaf, perhaps nested
        empty = draw(st.lists(st.sampled_from(["()", "(())"]), min_size=2, max_size=3))
        return line[: line.rindex(")")] + " " + " ".join(empty) + ")"
    if kind == "too deep":
        return "(X " * MAX_TREE_DEPTH + line + ")" * MAX_TREE_DEPTH
    at = draw(st.integers(0, len(line)))
    edit = draw(st.sampled_from(["", "(", ")", " x", "()", "@@ ", " "]))
    return line[:at] + edit + line[at + 1 :]


@st.composite
def line_files(draw, max_lines=8):
    """(extracted lines, reference lines), up to two of them malformed."""
    lines = [draw(sentence(fault=draw(st.sampled_from([None] * 6 + ["marker", "words"]))))
             for _ in range(draw(st.integers(1, max_lines)))]
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(lines) - 1))
        side = draw(st.sampled_from(["extracted", "gold"]))
        extracted, gold = lines[index]
        if side == "extracted":
            lines[index] = (_corrupt(draw, extracted, side), gold)
        else:
            lines[index] = (extracted, _corrupt(draw, gold, side))
    return [e for e, _ in lines], [g for _, g in lines]


@st.composite
def chunk_sizes(draw, extracted_lines, gold_lines):
    """A chunk that ends at a drawn line, or one line before or after it,
    or one smaller than most lines."""
    sizes = list(itertools.accumulate(len(e) + len(g) + 2 for e, g in zip(extracted_lines,
                                                                          gold_lines)))
    if draw(st.booleans()):
        return max(1, draw(st.sampled_from(sizes)) + draw(st.sampled_from([-1, 0, 1])))
    return draw(st.integers(1, 40))


def _write(path: pathlib.Path, lines, final_newline=True) -> pathlib.Path:
    text = "\n".join(lines) + ("\n" if final_newline and lines else "")
    path.write_bytes(text.encode("utf-8"))
    return path


def _outcome(evaluate, *args):
    """An evaluation's reports, or the type and message of its error."""
    try:
        total, reports = evaluate(*args)
    except (AttnSyntaxError, ValueError, OSError) as exc:
        return type(exc), str(exc)
    return total, reports


def _cli(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def _compare(directory, extracted_lines, gold_lines, counting, chunk, final_newline=True):
    extracted = _write(directory / "extracted.txt", extracted_lines, final_newline)
    gold = _write(directory / "gold.txt", gold_lines, final_newline)
    expected = _outcome(evaluate_files_per_line, extracted, gold, counting)
    with mock.patch.object(cli, "_CHUNK_CHARS", chunk):
        assert _outcome(evaluate_files, extracted, gold, counting) == expected
        got = _cli(["eval", "--extracted", extracted, "--gold", gold,
                    "--counting", counting.value, "--per-sentence"])
    if isinstance(expected[0], type):
        assert got == (1, "", f"error: {expected[1]}\n")
    else:
        total, reports = expected
        assert got == (0, cli._eval_text(total, len(reports), reports, counting), "")
    return expected


@settings(max_examples=100, deadline=None)
@given(sentence())
def test_sentences_are_accepted(pair):
    """The strategy's lines are well-formed unless faulted, so the
    comparisons below compare reports, not only errors."""
    cli._score_line(1, *pair, CountingPolicy.NONTRIVIAL)


class TestEvalMatchesPerLineLoop:
    @settings(max_examples=250, deadline=None)
    @given(st.data(), line_files(), st.sampled_from(list(CountingPolicy)), st.booleans())
    def test_reports_and_errors(self, data, files, counting, final_newline):
        chunk = data.draw(chunk_sizes(*files))
        with tempfile.TemporaryDirectory() as tmp:
            _compare(pathlib.Path(tmp), *files, counting, chunk, final_newline)

    @settings(max_examples=60, deadline=None)
    @given(line_files(max_lines=4), st.sampled_from(list(CountingPolicy)))
    def test_lines_longer_than_a_chunk(self, files, counting):
        with tempfile.TemporaryDirectory() as tmp:
            _compare(pathlib.Path(tmp), *files, counting, chunk=1)

    def test_toy_corpus(self, toy_dump_path, toy_gold_path, tmp_path):
        trees = tmp_path / "trees.txt"
        assert main(["extract", "--dump", str(toy_dump_path), "--out", str(trees)]) == 0
        extracted = trees.read_text().splitlines()
        gold = toy_gold_path.read_text().splitlines()
        for chunk in (1, 700, 10**6):
            for counting in CountingPolicy:
                assert not isinstance(_compare(tmp_path, extracted, gold, counting, chunk)[0],
                                      type)

    @pytest.mark.parametrize("depth, accepted", [(MAX_TREE_DEPTH, True),
                                                 (MAX_TREE_DEPTH + 1, False)])
    def test_depth_limit(self, depth, accepted, tmp_path):
        gold = ["(X " * (depth - 1) + "(S a b))" + ")" * (depth - 2)]
        expected = _compare(tmp_path, ["((a b) EOS)"], gold, CountingPolicy.ALL, 100)
        assert isinstance(expected[0], type) != accepted

    def test_first_bad_line_across_chunks(self, tmp_path):
        good = ("((a b) EOS)", "(S a b)")
        lines = [good] * 9
        lines[6] = ("((a b EOS)", "(S a b)")  # in a later chunk, and first bad in it
        lines[2] = ("((a b) EOS)", "(S a)")  # word count, in the first chunk's last line
        chunk = sum(len(e) + len(g) + 2 for e, g in lines[:3])
        expected = _compare(tmp_path, [e for e, _ in lines], [g for _, g in lines],
                            CountingPolicy.NONTRIVIAL, chunk)
        assert expected[1] == "sentence 3: reference tree has 1 words but the subwords form 2"


    @pytest.mark.parametrize("bad", ["(a (()))", "(a b () ())"])
    @pytest.mark.parametrize("lines_in_chunk", [1, 2])
    @pytest.mark.parametrize("extra_gold_line", [False, True])
    def test_empty_phrase_after_the_last_leaf(self, bad, lines_in_chunk, extra_gold_line,
                                              tmp_path):
        """A phrase with no leaves after a line's last leaf starts one past
        the line's end; as the last line of its chunk, with the most leaves,
        it is rejected like any other, after the line counts are compared."""
        good = ("(a EOS)", "(S a)")
        extracted = [good[0], bad, good[0]]
        gold = [good[1]] * (3 + extra_gold_line)
        pair = len(good[0]) + len(good[1]) + 2
        chunk = pair if lines_in_chunk == 1 else 2 * pair
        expected = _compare(tmp_path, extracted, gold, CountingPolicy.NONTRIVIAL, chunk)
        if extra_gold_line:
            assert expected[0] is AlignmentError
        else:
            assert expected[1].startswith("sentence 2: extracted trees must be strictly binary")


class TestErrorOrder:
    """Decode errors, then the line counts, then the first bad line, as
    when each file was read whole before scoring."""

    @pytest.mark.parametrize("extracted, gold", [
        (b"((a b) EOS)\n((a b) EOS)\xff\n", b"\xff(S a b)\n(S a b)\n"),
        (b"((a b) EOS)\n", b"(S a b)\n\xfe\n"),
        (b"\xff\n", b"(S a b)\n(S a b)\n"),
        (b"((a b) EOS)\n" * 3, b"(S a b)\n(S a)\n"),
        (b"((a b) EOS)\n((a b EOS)\n", b"(S a b)\n(S a b)\n(S a b)\n"),
        (b"((a b) EOS)\n(a b EOS)\n", b"(S a b)\n(S a b)"),
        (b"", b""),
    ])
    def test_matches_reading_whole_files(self, extracted, gold, tmp_path):
        (tmp_path / "e.txt").write_bytes(extracted)
        (tmp_path / "g.txt").write_bytes(gold)
        with mock.patch.object(cli, "_CHUNK_CHARS", 1):
            got = _outcome(evaluate_files, tmp_path / "e.txt", tmp_path / "g.txt")
        assert got == _outcome(evaluate_files_per_line, tmp_path / "e.txt", tmp_path / "g.txt")
        # a byte that is no UTF-8 is named by its file and line, the extracted file's first
        undecodable = [f"{tmp_path / name}: line {lineno}: "
                       for name, data in (("e.txt", extracted), ("g.txt", gold))
                       for lineno, line in enumerate(data.split(b"\n"), start=1)
                       if b"\xff" in line or b"\xfe" in line]
        if undecodable:
            assert got[0] is TreeParseError and got[1].startswith(undecodable[0])

    def test_decode_error_names_file_and_line(self, tmp_path):
        (tmp_path / "e.txt").write_bytes(b"((a b) EOS)\n\xff\n")
        (tmp_path / "g.txt").write_bytes(b"\xfe\n")
        expected = (TreeParseError, f"{tmp_path / 'e.txt'}: line 2: {DECODE_FF}")
        for evaluate in (evaluate_files, evaluate_files_per_line):
            assert _outcome(evaluate, tmp_path / "e.txt", tmp_path / "g.txt") == expected

    @pytest.mark.parametrize("side", ["extracted", "gold"])
    def test_decode_error_far_into_a_file(self, side, tmp_path):
        """The line and the position within it, not an offset into a read
        buffer."""
        lines = {"extracted": [b"((a b) EOS)\n"] * 3001, "gold": [b"(S a b)\n"] * 3001}
        lines[side][3000] = {"extracted": b"((a\xff b) EOS)\n", "gold": b"(S a\xff b)\n"}[side]
        paths = {name: tmp_path / f"{name}.txt" for name in lines}
        for name, path in paths.items():
            path.write_bytes(b"".join(lines[name]))
        position = {"extracted": 3, "gold": 4}[side]
        expected = (TreeParseError, f"{paths[side]}: line 3001: 'utf-8' codec can't decode "
                                    f"byte 0xff in position {position}: invalid start byte")
        for evaluate in (evaluate_files, evaluate_files_per_line):
            assert _outcome(evaluate, paths["extracted"], paths["gold"]) == expected

    def test_missing_reference_after_extracted_decode_error(self, tmp_path):
        (tmp_path / "e.txt").write_bytes(b"((a b) EOS)\n\xff\n")
        args = (tmp_path / "e.txt", tmp_path / "missing.txt")
        got = _outcome(evaluate_files, *args)
        assert got == _outcome(evaluate_files_per_line, *args)
        assert got == (TreeParseError, f"{tmp_path / 'e.txt'}: line 2: {DECODE_FF}")

    def test_missing_reference(self, tmp_path):
        (tmp_path / "e.txt").write_bytes(b"((a b) EOS)\n")
        args = (tmp_path / "e.txt", tmp_path / "missing.txt")
        assert _outcome(evaluate_files, *args)[0] is FileNotFoundError
        assert _outcome(evaluate_files, *args) == _outcome(evaluate_files_per_line, *args)


def test_a_chunk_rejected_without_cause_names_its_sentences(toy_gold_path, golden_dir,
                                                             monkeypatch):
    """If the array checks reject a chunk whose every line the per-line
    readers accept, the passes are at fault: no located error, and no
    reports."""
    score_chunk, calls = cli._score_chunk, itertools.count()
    # by the toy files' line lengths, chunks of sentences 1-2, 3-5 and 6-10
    monkeypatch.setattr(cli, "_CHUNK_CHARS", 256)
    monkeypatch.setattr(cli, "_score_chunk", lambda pairs, counting: (
        None if next(calls) == 1 else score_chunk(pairs, counting)))
    with pytest.raises(AssertionError, match=r"^sentences 3-5: the per-line readers accept"):
        evaluate_files(str(golden_dir / "toy_trees.txt"), str(toy_gold_path))


def test_reads_each_file_once(tmp_path):
    """Both inputs may be pipes: each is read once, front to back."""
    fifos = [tmp_path / "e.fifo", tmp_path / "g.fifo"]
    texts = ["((a b) EOS)\n((a b) EOS)\n", "(S a b)\n(S (X a) b)\n"]
    writers = []
    for fifo, text in zip(fifos, texts):
        os.mkfifo(fifo)
        writers.append(threading.Thread(target=fifo.write_text, args=(text,), daemon=True))
        writers[-1].start()
    got = evaluate_files(str(fifos[0]), str(fifos[1]), CountingPolicy.ALL)
    for writer in writers:
        writer.join(timeout=10)
    files = [_write(tmp_path / f"{i}.txt", text.splitlines()) for i, text in enumerate(texts)]
    assert got == evaluate_files_per_line(*files, CountingPolicy.ALL)
    assert len(got[1]) == 2


def test_whitespace_is_str_isspace():
    codes = np.arange(0x110000)
    table = treebank._CHAR_CLASS[np.minimum(codes, len(treebank._CHAR_CLASS) - 1)]
    assert np.flatnonzero(table == 0).tolist() == [
        c for c in range(0x110000) if chr(c).isspace()]
    assert np.flatnonzero(table == 1).tolist() == [ord("("), ord(")")]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(BRACKET_LINES, sentence().map(lambda pair: pair[0])),
                min_size=1, max_size=6))
def test_span_tree_arrays_match_parse_span_tree(lines):
    shaped = [well_formed_lines(bracket_arrays([line])) == 1 for line in lines]
    for line, ok in zip(lines, shaped):
        if not ok:  # a lone leaf parses, but never aligns with a reference
            with contextlib.suppress(AttnSyntaxError):
                assert len(parse_span_tree(line)[1]) == 1
    lines = [line + "\n" for line, ok in zip(lines, shaped) if ok]
    tokens = bracket_arrays(lines)
    assert well_formed_lines(tokens) == len(lines)
    trees = span_tree_arrays(tokens)
    for index, line in enumerate(lines):
        try:
            tree, leaves = parse_span_tree(line)
        except AttnSyntaxError:
            assert not trees.ok[index]
            continue
        assert trees.ok[index] and trees.n[index] == len(leaves)
        nodes = {(a, b) for l, a, b in zip(trees.line, trees.a, trees.b) if l == index}
        assert nodes == {(a, b) for a, b in tree.preorder if a < b}
        assert (trees.a[index], trees.b[index]) == tree.span  # roots first


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(sentence(), st.sampled_from([None, "marker", "words"])),
                min_size=1, max_size=5))
def test_reference_arrays_match_gold_tree_for_dump(pairs):
    """The pass gives each reference tree's spans in postorder and its
    boundaries, or rejects the line that ``gold_tree_for_dump`` rejects."""
    lines, subwords = [], []
    for (extracted, gold), fault in pairs:
        tokens = list(parse_span_tree(extracted)[1])
        if fault == "marker":
            tokens[-2] += "@@"
        if fault == "words":
            tokens = tokens[:1] + tokens[-1:]
        lines.append(gold)
        subwords.append(tokens)
    expected = []
    for line, tokens in zip(lines, subwords):
        try:
            expected.append(gold_tree_for_dump(read_bracketed(line), tokens))
        except AttnSyntaxError:
            expected.append(None)
    arrays = bracket_arrays([line + "\n" for line in lines])
    assert well_formed_lines(arrays, MAX_TREE_DEPTH) == len(lines)
    gold = reference_arrays(
        arrays,
        np.array([len(t) for t in subwords]),
        np.array([t.endswith("@@") for tokens in subwords for t in tokens], dtype=bool),
    )
    assert gold.ok.tolist() == [tree is not None for tree in expected]
    if not gold.ok.all():
        return
    for index, tree in enumerate(expected):
        spans = [(a, b) for line, a, b in zip(gold.line, gold.starts, gold.ends)
                 if line == index]
        root = (1, len(subwords[index]))
        assert sorted(spans) == sorted(span for span in tree.postorder if span != root)
    first_end = [v for tree in expected for v in tree.boundaries[0]]
    last_start = [v for tree in expected for v in tree.boundaries[1]]
    assert gold.first_end.tolist() == first_end
    assert gold.last_start.tolist() == last_start


@pytest.mark.parametrize("filler", [0, 5000])
def test_select_heads_reads_only_its_dev_lines(filler, toy_dump_path, toy_gold_path,
                                               tmp_path):
    """A byte past the dev set that is no UTF-8 goes undecoded, right
    after the dev lines or far past them; one within them is rejected."""
    gold = tmp_path / "gold.txt"
    head = toy_gold_path.read_bytes().splitlines(keepends=True)[:3]
    gold.write_bytes(b"".join(head) + b"(S x)\n" * filler + b"\xff\n")
    args = ["select-heads", "--dump", toy_dump_path, "--strategy", "add", "--dev-size", 3]
    expected = _cli(args + ["--gold", toy_gold_path])
    assert expected[0] == 0
    assert _cli(args + ["--gold", gold]) == expected
    gold.write_bytes(head[0] + b"\xff" + b"".join(head[1:]))
    code, out, err = _cli(args + ["--gold", gold])
    assert (code, out, err) == (1, "", f"error: {gold}: line 2: {DECODE_FF}\n")


def test_select_heads_decodes_only_its_dev_records(toy_dump_path, toy_gold_path, tmp_path):
    """A malformed dump record right after the dev set is never decoded;
    one within it is rejected, naming its line."""
    dump = tmp_path / "d.jsonl"
    records = toy_dump_path.read_bytes().splitlines(keepends=True)
    args = ["select-heads", "--gold", toy_gold_path, "--strategy", "add", "--dev-size", 3,
            "--dump", dump]
    dump.write_bytes(b"".join(records[:3]))
    expected = _cli(args)
    assert expected[0] == 0
    dump.write_bytes(b"".join(records[:3]) + b"{not json\n" + b"".join(records[3:]))
    assert _cli(args) == expected
    dump.write_bytes(records[0] + b"{not json\n" + b"".join(records[1:]))
    code, out, err = _cli(args)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2: ")


def _plain_pair(rng: np.random.Generator, n_words: int) -> tuple[str, str]:
    """A seeded (extracted, reference) pair: words of one or two subwords
    under a random binary word tree, a random extracted tree."""
    subwords = []
    for word in range(n_words):
        subwords += [f"s{word}@@"] * int(rng.integers(0, 2)) + [f"s{word}"]
    extracted = random_binary_tree(rng, len(subwords) + 1).to_bracketed(subwords + ["EOS"])

    def render(node: SpanTree) -> str:
        if node.is_leaf:
            return f"(P w{node.span[0]})"
        return f"(X {render(node.left)} {render(node.right)})"

    return extracted, render(random_binary_tree(rng, n_words))


def _eval_peak(directory: pathlib.Path, lines: int) -> int:
    """tracemalloc's peak during ``evaluate_files`` less what it returns."""
    rng = np.random.default_rng(7)
    pairs = [_plain_pair(rng, 16) for _ in range(25)]
    extracted = _write(directory / f"e{lines}.txt", [pairs[i % 25][0] for i in range(lines)])
    gold = _write(directory / f"g{lines}.txt", [pairs[i % 25][1] for i in range(lines)])
    tracemalloc.start()
    try:
        result = evaluate_files(extracted, gold)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[1]) == lines
    return peak - current


def test_memory_is_bounded_by_the_chunk(tmp_path):
    """Temporaries do not grow with the files: ten times the lines take
    about the same peak, beyond the reports kept."""
    small, large = _eval_peak(tmp_path, 2_000), _eval_peak(tmp_path, 20_000)
    assert abs(large - small) < 1 << 20, (small, large)
