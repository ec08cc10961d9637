#!/usr/bin/env python3
"""Regenerate the bundled toy corpus (data/toy.dump.jsonl + data/toy.gold.txt).

Ten hand-written sentences with BPE-style segmentations and labeled
reference parses.  Attention matrices are synthesized deterministically:
one diagonal head, one attend-to-EOS head, three heads carrying balusters
for (most of) the reference spans, and one head with off-reference
balusters so the extracted trees are good but not perfect.

Run from the repository root:

    python scripts/make_toy_corpus.py [--out-dir data]
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from attnsyntax import (
    AttentionDump,
    gold_tree_for_dump,
    read_bracketed,
    write_dump,
)

LAYERS = 2
HEADS = 3
SEED = 7341

# (id, [(word, [subwords...])...], labeled reference parse over the words)
SENTENCES = [
    (
        "toy-01",
        [
            ("the", ["the"]),
            ("vinegrowers", ["vin@@", "e@@", "growers"]),
            ("suffered", ["suff@@", "ered"]),
            ("losses", ["losses"]),
        ],
        "(S (NP (DT the) (NN vinegrowers)) (VP (VBD suffered) (NP losses)))",
    ),
    (
        "toy-02",
        [
            ("their", ["their"]),
            ("plants", ["plants"]),
            ("have", ["have"]),
            ("been", ["been"]),
            ("damaged", ["dam@@", "aged"]),
        ],
        "(S (NP (PRP their) (NNS plants)) (VP (VBP have) (VP (VBN been) (VBN damaged))))",
    ),
    (
        "toy-03",
        [
            ("huge", ["huge"]),
            ("areas", ["areas"]),
            ("of", ["of"]),
            ("vineyards", ["vine@@", "yards"]),
            ("burned", ["bur@@", "ned"]),
        ],
        "(S (NP (NP (JJ huge) (NNS areas)) (PP (IN of) (NP vineyards))) (VP burned))",
    ),
    (
        "toy-04",
        [("hail", ["hail"]), ("fell", ["fell"])],
        "(S (NP hail) (VP fell))",
    ),
    (
        "toy-05",
        [
            ("the", ["the"]),
            ("old", ["old"]),
            ("walls", ["walls"]),
            ("collapsed", ["colla@@", "psed"]),
            ("quickly", ["quick@@", "ly"]),
        ],
        "(S (NP (DT the) (JJ old) (NNS walls)) (VP (VBD collapsed) (ADVP quickly)))",
    ),
    (
        "toy-06",
        [
            ("growers", ["growers"]),
            ("replanted", ["re@@", "plan@@", "ted"]),
            ("every", ["every"]),
            ("field", ["field"]),
        ],
        "(S (NP growers) (VP (VBD replanted) (NP (DT every) (NN field))))",
    ),
    (
        "toy-07",
        [
            ("this", ["this"]),
            ("means", ["means"]),
            ("that", ["that"]),
            ("help", ["help"]),
            ("arrives", ["arri@@", "ves"]),
        ],
        "(S (NP this) (VP (VBZ means) (SBAR (IN that) (S (NP help) (VP arrives)))))",
    ),
    (
        "toy-08",
        [
            ("thousands", ["thous@@", "ands"]),
            ("of", ["of"]),
            ("hectares", ["hect@@", "ares"]),
            ("were", ["were"]),
            ("lost", ["lost"]),
        ],
        "(S (NP (NP thousands) (PP (IN of) (NP hectares))) (VP (VBD were) (VP lost)))",
    ),
    (
        "toy-09",
        [
            ("insurers", ["insur@@", "ers"]),
            ("paid", ["paid"]),
            ("for", ["for"]),
            ("the", ["the"]),
            ("damage", ["dama@@", "ge"]),
        ],
        "(S (NP insurers) (VP (VBD paid) (PP (IN for) (NP (DT the) (NN damage)))))",
    ),
    (
        "toy-10",
        [
            ("no", ["no"]),
            ("frost", ["frost"]),
            ("came", ["came"]),
            ("this", ["this"]),
            ("year", ["year"]),
        ],
        "(S (NP (DT no) (NN frost)) (VP (VBD came) (NP (DT this) (NN year))))",
    ),
]


def soft_rows(n: int, targets: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Rows peaked on 0-based target columns, remainder spread uniformly."""
    matrix = ((1.0 - peaks) / (n - 1))[:, None] * np.ones((n, n))
    matrix[np.arange(n), targets] = peaks
    return matrix


def head_with_balusters(n, spans, rng, base_peak=0.85):
    """Peaked-soft matrix whose balusters are exactly `spans` (rest diagonal)."""
    targets = np.arange(n)
    for a, b in spans:
        targets[a - 1 : b] = a - 1
    peaks = rng.uniform(0.7, 0.95, size=n)
    return soft_rows(n, targets, peaks)


def fit_spans(spans, n_heads):
    """First-fit disjoint packing of spans into at most n_heads row sets."""
    packs: list[list[tuple[int, int]]] = [[] for _ in range(n_heads)]
    dropped = []
    for span in sorted(spans, key=lambda s: (s[1] - s[0], s)):
        for pack in packs:
            if all(span[1] < a or b < span[0] for a, b in pack):
                pack.append(span)
                break
        else:
            dropped.append(span)
    return packs, dropped


def build_sentence(sentence_id, words, gold_line, rng):
    subwords = [sw for _, sws in words for sw in sws] + ["EOS"]
    n = len(subwords)
    # reference spans in subword space, via the same post-processing the
    # evaluation uses
    gold = gold_tree_for_dump(read_bracketed(gold_line), subwords)
    ref_spans = sorted(s for s in gold.spans() if s[1] > s[0] and s != (1, n))

    packs, _ = fit_spans(ref_spans, 3)
    noise_spans = []
    if n >= 4:
        a = int(rng.integers(2, n - 1))
        noise_spans.append((a, min(n - 1, a + int(rng.integers(1, 3)))))

    heads = [
        soft_rows(n, np.arange(n), rng.uniform(0.75, 0.95, size=n)),  # diagonal
        head_with_balusters(n, packs[0], rng),
        soft_rows(n, np.full(n, n - 1), rng.uniform(0.7, 0.9, size=n)),  # EOS column
        head_with_balusters(n, packs[1], rng),
        head_with_balusters(n, packs[2], rng),
        head_with_balusters(n, noise_spans, rng),
    ]
    matrices = np.stack(heads).reshape(LAYERS, HEADS, n, n)
    return AttentionDump(sentence_id, tuple(subwords), matrices)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    args = parser.parse_args()

    rng = np.random.default_rng(SEED)
    dumps = [build_sentence(sid, words, gold, rng) for sid, words, gold in SENTENCES]
    os.makedirs(args.out_dir, exist_ok=True)
    write_dump(dumps, os.path.join(args.out_dir, "toy.dump.jsonl"))
    with open(os.path.join(args.out_dir, "toy.gold.txt"), "w", encoding="utf-8") as fh:
        for _, _, gold in SENTENCES:
            fh.write(gold + "\n")
    print(f"wrote {len(dumps)} sentences to {args.out_dir}/")


if __name__ == "__main__":
    main()
