"""Seeded inputs, CLI commands and output checks for the benchmark workloads.

Each workload is a pure function of its seed: ``write_inputs`` draws every
sentence from ``numpy.random.default_rng([seed, ...])`` and writes the files
the ``attnsyntax`` command reads, and nothing else.  ``check_output`` then
validates what the command wrote, with structural checks that hold for any
seed and, for the seeds recorded in ``expected.json``, a digest of the output
bytes, which must not change while the library keeps its outputs stable.

Sentences follow the paper's setting: subword tokens with the trailing-``@@``
continuation convention (about one subword in five continues a word), an
``EOS`` token last, and a random binary reference tree over the words.
Reference lines are labeled bracketings with a preterminal per word, e.g.
``(X (X (P s1s2) (P s3)) (P s4))``, so post-processing strips labels,
splits words into subwords and flattens unary nodes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from attnsyntax.attn_io import AttentionDump, write_dump
from attnsyntax.synth import baluster_matrix, random_attention_baseline, random_binary_tree
from attnsyntax.trees import SpanTree

EOS = "EOS"
CONTINUATION_SHARE = 0.2
PLANTED_HEAD_SHARE = 0.25
PLANTED_SPAN_SHARE = 0.5

EXTRACT_SENTENCES = 60
EXTRACT_UNIVERSE = (6, 16)
EXTRACT_LENGTHS = (12, 48)  # subwords including EOS, spread evenly; mean 30

HEADSEARCH_SENTENCES = 12
HEADSEARCH_UNIVERSE = (3, 4)
HEADSEARCH_LENGTH = 30

EVAL_PAIRS = 2000
EVAL_LENGTH = 64

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Sentence:
    subwords: tuple[str, ...]  # EOS last
    word_spans: tuple[tuple[int, int], ...]  # 1-based subword span of each word
    tree: SpanTree  # binary tree over word indices 1..len(word_spans)

    def reference_line(self) -> str:
        """Labeled bracketing over the words, one preterminal per word."""
        words = [
            "".join(t[: -2] if t.endswith("@@") else t for t in self.subwords[a - 1 : b])
            for a, b in self.word_spans
        ]

        def render(node: SpanTree) -> str:
            if node.is_leaf:
                return f"(P {words[node.span[0] - 1]})"
            return f"(X {render(node.left)} {render(node.right)})"

        return render(self.tree)

    def reference_spans(self) -> list[tuple[int, int]]:
        """Subword spans of multi-subword phrases and words, EOS excluded."""
        spans = {(self.word_spans[a - 1][0], self.word_spans[b - 1][1])
                 for a, b in self.tree.spans()}
        return sorted(s for s in spans if s[1] > s[0])

    def subword_tree(self) -> SpanTree:
        """Binary tree over all subwords that agrees with the reference:
        the word tree, each word right-branching, EOS joined at the top."""

        def word(a: int, b: int) -> SpanTree:
            return SpanTree.leaf(a) if a == b else SpanTree.node(SpanTree.leaf(a), word(a + 1, b))

        def build(node: SpanTree) -> SpanTree:
            if node.is_leaf:
                return word(*self.word_spans[node.span[0] - 1])
            return SpanTree.node(build(node.left), build(node.right))

        n = len(self.subwords)
        return SpanTree.node(build(self.tree), SpanTree.leaf(n))


def draw_sentence(rng: np.random.Generator, n: int) -> Sentence:
    """n subwords including EOS, segmented into words, with a word tree."""
    continues = rng.random(n - 1) < CONTINUATION_SHARE
    continues[-1] = False  # the token before EOS must end a word
    subwords = [f"s{i}@@" if c else f"s{i}" for i, c in enumerate(continues, start=1)]
    spans, start = [], 1
    for i, c in enumerate(continues, start=1):
        if not c:
            spans.append((start, i))
            start = i + 1
    tree = random_binary_tree(rng, len(spans))
    return Sentence(tuple(subwords) + (EOS,), tuple(spans), tree)


def planted_attention(seed: list[int], sentence: Sentence, universe: tuple[int, int],
                      planted: list[int], sentence_id: str) -> AttentionDump:
    """Simplex rows everywhere, with reference spans planted as balusters
    into the given flat head indices (a random half of the spans each)."""
    layers, heads = universe
    n = len(sentence.subwords)
    base = random_attention_baseline(seed + [0], n, layers, heads)
    matrices = np.array(base.matrices)
    rng = np.random.default_rng(seed + [1])
    reference = sentence.reference_spans()
    for flat in planted:
        chosen: list[tuple[int, int]] = []
        for index in rng.permutation(len(reference)):
            a, b = reference[index]
            if rng.random() < PLANTED_SPAN_SHARE and all(b < c or d < a for c, d in chosen):
                chosen.append((a, b))
        weight = float(rng.uniform(0.4, 0.9))
        matrices[flat // heads, flat % heads] = baluster_matrix(n, sorted(chosen), weight=weight)
    dump = AttentionDump(sentence_id, sentence.subwords, matrices)
    dump.validate(eos=EOS)
    return dump


def _attention_corpus(seed: int, tag: int, lengths: list[int], universe: tuple[int, int],
                      prefix: str):
    """Sentences and a lazily built dump stream, one record in memory at a time.

    The same seeded quarter of the heads carries planted spans in every
    sentence, as syntax-tracking heads would in a trained encoder.
    """
    layers, heads = universe
    count = max(1, round(layers * heads * PLANTED_HEAD_SHARE))
    rng = np.random.default_rng([seed, tag])
    planted = sorted(int(h) for h in rng.choice(layers * heads, size=count, replace=False))
    sentences = [draw_sentence(np.random.default_rng([seed, tag, i]), n)
                 for i, n in enumerate(lengths)]
    dumps = (planted_attention([seed, tag, i], s, universe, planted, f"{prefix}-{i:04d}")
             for i, s in enumerate(sentences))
    return sentences, dumps


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_extract(seed: int, directory: Path) -> int:
    # a seeded order of one fixed set of lengths: the chart and decode work
    # (which grow as n^3 and n^2) then differ little between seeds
    lo, hi = EXTRACT_LENGTHS
    lengths = np.linspace(lo, hi, EXTRACT_SENTENCES).round().astype(int)
    lengths = [int(v) for v in np.random.default_rng([seed, 0]).permutation(lengths)]
    _, dumps = _attention_corpus(seed, 1, lengths, EXTRACT_UNIVERSE, "x")
    write_dump(dumps, directory / "extract.dump.jsonl")
    return EXTRACT_SENTENCES


def _write_headsearch(seed: int, directory: Path) -> int:
    lengths = [HEADSEARCH_LENGTH] * HEADSEARCH_SENTENCES
    sentences, dumps = _attention_corpus(seed, 2, lengths, HEADSEARCH_UNIVERSE, "h")
    write_dump(dumps, directory / "headsearch.dump.jsonl")
    _write_lines(directory / "headsearch.gold.txt", (s.reference_line() for s in sentences))
    return HEADSEARCH_SENTENCES


def _write_eval(seed: int, directory: Path) -> int:
    extracted, gold = [], []
    for i in range(EVAL_PAIRS):
        rng = np.random.default_rng([seed, 3, i])
        sentence = draw_sentence(rng, EVAL_LENGTH)
        # half the trees follow the reference, half are drawn at random
        if rng.random() < 0.5:
            tree = sentence.subword_tree()
        else:
            tree = random_binary_tree(rng, EVAL_LENGTH)
        extracted.append(tree.to_bracketed(sentence.subwords))
        gold.append(sentence.reference_line())
    _write_lines(directory / "eval.extracted.txt", extracted)
    _write_lines(directory / "eval.gold.txt", gold)
    return EVAL_PAIRS


def _extract_argv(d: Path, out: Path) -> list[str]:
    return ["extract", "--dump", str(d / "extract.dump.jsonl"), "--heads", "all",
            "--jobs", "1", "--out", str(out)]


def _headsearch_argv(d: Path, out: Path) -> list[str]:
    return ["select-heads", "--dump", str(d / "headsearch.dump.jsonl"),
            "--gold", str(d / "headsearch.gold.txt"), "--strategy", "add",
            "--dev-size", str(HEADSEARCH_SENTENCES), "--jobs", "1", "--out", str(out)]


def _eval_argv(d: Path, out: Path) -> list[str]:
    return ["eval", "--extracted", str(d / "eval.extracted.txt"),
            "--gold", str(d / "eval.gold.txt"), "--per-sentence", "--jobs", "1",
            "--out", str(out)]


def headsearch_evaluations() -> int:
    """Dev evaluations of greedy addition: 1 + LH(LH+1)/2."""
    heads = HEADSEARCH_UNIVERSE[0] * HEADSEARCH_UNIVERSE[1]
    return 1 + heads * (heads + 1) // 2


# --- output checks -----------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_digests() -> dict[str, dict[str, str]]:
    """Recorded output digests: {seed: {workload: sha256}}."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _binary_leaves(line: str) -> list[str] | None:
    """Leaves of a strictly binary bracketing, or None if it is not one."""
    items = line.replace("(", " ( ").replace(")", " ) ").split()
    leaves: list[str] = []
    stack: list[int] = []  # children seen per open node
    for pos, item in enumerate(items):
        if item == "(":
            if stack:
                stack[-1] += 1
            elif pos:
                return None
            stack.append(0)
        elif item == ")":
            if not stack or stack.pop() != 2:
                return None
        else:
            if stack:
                stack[-1] += 1
            elif items[1:]:
                return None
            leaves.append(item.replace("-LRB-", "(").replace("-RRB-", ")"))
    return leaves if not stack else None


def _check_extract(directory: Path, text: str) -> str | None:
    subwords = []
    with open(directory / "extract.dump.jsonl", encoding="utf-8") as fh:
        for line in fh:
            # write_dump puts "attn" last: skip decoding the matrices if it still does
            cut = line.find(',"attn":')
            subwords.append(json.loads(line[:cut] + "}" if cut >= 0 else line)["subwords"])
    lines = text.splitlines()
    if len(lines) != len(subwords):
        return f"{len(lines)} trees for {len(subwords)} sentences"
    for i, (line, tokens) in enumerate(zip(lines, subwords), start=1):
        if _binary_leaves(line) != tokens:
            return f"tree {i} is not a binary tree over the sentence's subwords"
    return None


def _check_headsearch(directory: Path, text: str) -> str | None:
    heads = HEADSEARCH_UNIVERSE[0] * HEADSEARCH_UNIVERSE[1]
    found = re.search(r"^evaluations: (\d+)$", text, re.M)
    if found is None or int(found.group(1)) != headsearch_evaluations():
        return f"expected evaluations: {headsearch_evaluations()}"
    steps = re.findall(r"^step \d+: \+\d+:\d+ size=(\d+) ", text, re.M)
    if [int(s) for s in steps] != list(range(1, heads + 1)):
        return f"expected {heads} addition steps"
    if not re.search(r"^best-mask: \S+$", text, re.M):
        return "no best-mask line"
    return None


def _check_eval(directory: Path, text: str) -> str | None:
    rows = [tuple(map(int, m)) for m in re.findall(
        r"^sentence \d+: precision=(\d+)/(\d+) recall=(\d+)/(\d+) ", text, re.M)]
    totals = dict(re.findall(r"^(\w+): (\d+)$", text, re.M))
    if len(rows) != EVAL_PAIRS or totals.get("sentences") != str(EVAL_PAIRS):
        return f"expected {EVAL_PAIRS} sentences"
    # a binary tree over n leaves has n - 2 spans that are neither leaves nor the root
    if any(row[1] != EVAL_LENGTH - 2 for row in rows):
        return f"expected {EVAL_LENGTH - 2} extracted phrases per sentence"
    names = ("extracted_consistent", "extracted_phrases_total", "gold_consistent",
             "gold_phrases_total")
    for column, name in enumerate(names):
        if totals.get(name) != str(sum(row[column] for row in rows)):
            return f"{name} is not the sum over sentences"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple[str, ...]  # files the command reads, all written by ``write_inputs``
    write_inputs: Callable[[int, Path], int]  # (seed, directory) -> input sentences
    argv: Callable[[Path, Path], list[str]]  # (directory, output) -> CLI arguments
    check: Callable[[Path, str], str | None]  # (directory, output) -> problem or None
    passes_per_sentence: int = 1  # sentence passes a command makes per input sentence

    def check_output(self, seed: int, directory: Path, output: bytes) -> str | None:
        """None when the command's output is correct, else the reason it is not."""
        problem = self.check(directory, output.decode("utf-8"))
        if problem is not None:
            return problem
        want = expected_digests().get(str(seed), {}).get(self.name)
        if want is not None and digest(output) != want:
            return f"output digest differs from the one recorded for seed {seed}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extract",
            "the paper's main command on a 6x16-head dump of 60 sentences of 12-48 "
            "subwords; dominated by decoding the attention dump",
            ("extract.dump.jsonl",),
            _write_extract, _extract_argv, _check_extract,
        ),
        Workload(
            "headsearch",
            "greedy head selection on a 3x4-head dump of 12 sentences; re-hardening, "
            "CKY and scoring dominate and decoding is negligible",
            ("headsearch.dump.jsonl", "headsearch.gold.txt"),
            _write_headsearch, _headsearch_argv, _check_headsearch,
            passes_per_sentence=headsearch_evaluations(),
        ),
        Workload(
            "eval",
            "scoring 2000 tree pairs of 64 subwords; no attention at all, so it "
            "guards tree parsing, post-processing and scoring",
            ("eval.extracted.txt", "eval.gold.txt"),
            _write_eval, _eval_argv, _check_eval,
        ),
    )
}
