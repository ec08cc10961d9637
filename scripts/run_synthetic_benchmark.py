#!/usr/bin/env python3
"""Synthetic benchmark: planted-tree extraction vs uninformed baselines.

For each seeded sentence, a random binary reference tree is drawn, a dump
with exactly that tree's spans planted as balusters is scored (upper
anchor), and the same reference is scored against rand.attn (extraction on
seeded random simplex rows), lbal and rbal.  Pooled precision/recall/F1
are printed as a table.  Everything is deterministic in --seed.

    python scripts/run_synthetic_benchmark.py [--sentences 1000] [--length 30]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from attnsyntax import (
    ConstituencyTree,
    EvalReport,
    extract_tree,
    lbal_tree,
    planted_dump,
    random_attention_baseline,
    random_binary_tree,
    rbal_tree,
    score,
)
from attnsyntax.attn_io import all_heads
from attnsyntax.cli import _int_at_least, _positive_int
from attnsyntax.scoring import CountingPolicy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sentences", type=_positive_int, default=1000)
    parser.add_argument("--length", type=_positive_int, default=30,
                        help="subwords per sentence (incl. EOS)")
    parser.add_argument("--min-length", type=_positive_int, default=None,
                        help="draw lengths uniformly from [min-length, length]")
    parser.add_argument("--layers", type=_positive_int, default=6)
    parser.add_argument("--heads", type=_positive_int, default=16)
    parser.add_argument("--seed", type=_int_at_least(0), default=0)
    parser.add_argument("--counting", choices=["all", "nontrivial"], default="nontrivial")
    args = parser.parse_args()
    if args.min_length is not None and args.min_length > args.length:
        parser.error(f"argument --min-length: {args.min_length} exceeds --length {args.length}")

    counting = CountingPolicy(args.counting)
    rng = np.random.default_rng(args.seed)
    lo = args.min_length if args.min_length is not None else args.length

    pooled: dict[str, list] = {"planted": [], "rand.attn": [], "lbal": [], "rbal": []}
    start = time.monotonic()
    for i in range(args.sentences):
        n = int(rng.integers(lo, args.length + 1))
        reference = random_binary_tree(rng, n)
        dump = planted_dump(reference, sentence_id=f"bench-{i}")
        # a laminar span set sorted by (end, -start) is in postorder
        phrases = sorted((s for s in reference.preorder if s[0] < s[1]),
                         key=lambda s: (s[1], -s[0]))
        gold = ConstituencyTree(tuple(phrases), dump.subwords)

        tree = extract_tree(dump, all_heads(dump.layers, dump.heads))
        pooled["planted"].append(score(tree, gold, counting))

        random_dump = random_attention_baseline([args.seed, i], n, args.layers, args.heads)
        tree = extract_tree(random_dump, all_heads(args.layers, args.heads))
        pooled["rand.attn"].append(score(tree, gold, counting))

        pooled["lbal"].append(score(lbal_tree(n), gold, counting))
        pooled["rbal"].append(score(rbal_tree(n), gold, counting))
    elapsed = time.monotonic() - start

    print(f"sentences={args.sentences} length={lo}..{args.length} "
          f"universe={args.layers}x{args.heads} seed={args.seed} counting={counting.value}")
    print(f"{'system':10s} {'precision':>9s} {'recall':>9s} {'F1':>9s}")
    for system in ("rbal", "lbal", "rand.attn", "planted"):
        total = EvalReport.aggregate(pooled[system])
        print(f"{system:10s} {100 * total.precision:8.1f}% {100 * total.recall:8.1f}% "
              f"{100 * total.f1:8.1f}%")
    rand_f1 = EvalReport.aggregate(pooled["rand.attn"]).f1
    planted_f1 = EvalReport.aggregate(pooled["planted"]).f1
    print(f"rand.attn strictly below planted: {rand_f1 < planted_f1}")
    print(f"elapsed: {elapsed:.1f}s")


if __name__ == "__main__":
    main()
