"""attnsyntax: constituency trees from Transformer encoder self-attention.

Pipeline: load attention dumps, harden each head's matrix to its per-row
maxima, read off balusters (runs of rows attending to one column) as
weighted phrase candidates, equalize weights per phrase length, and chart-
parse the best binary tree.  Reference treebank parses are post-processed
to the same subword index space and compared span-by-span with a
non-crossing consistency measure.
"""

from .attn_io import AttentionDump, load_dump, write_dump
from .errors import (
    AlignmentError,
    AttnSyntaxError,
    DumpParseError,
    DumpValidationError,
    SegmentationError,
    TreeParseError,
)
from .scoring import EvalReport, score
from .synth import planted_dump, random_attention_baseline, random_binary_tree
from .treebank import ConstituencyTree, gold_tree_for_dump, read_bracketed
from .trees import SpanTree, extract_tree, lbal_tree, rbal_tree

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AttentionDump",
    "AttnSyntaxError",
    "ConstituencyTree",
    "DumpParseError",
    "DumpValidationError",
    "EvalReport",
    "SegmentationError",
    "SpanTree",
    "TreeParseError",
    "extract_tree",
    "gold_tree_for_dump",
    "lbal_tree",
    "load_dump",
    "planted_dump",
    "random_attention_baseline",
    "random_binary_tree",
    "rbal_tree",
    "read_bracketed",
    "score",
    "write_dump",
]
