"""attnsyntax: constituency trees from Transformer encoder self-attention.

Pipeline: load attention dumps, harden each head's matrix to its per-row
maxima, read off balusters (runs of rows attending to one column) as
weighted phrase candidates, equalize weights per phrase length, and chart-
parse the best binary tree.  Reference treebank parses are post-processed
to the same subword index space and compared span-by-span with a
non-crossing consistency measure.
"""

from .attn_io import (
    AttentionDump,
    Span,
    dump_record,
    load_dump,
    word_groups,
    write_dump,
)
from .errors import (
    AlignmentError,
    AttnSyntaxError,
    DumpParseError,
    DumpValidationError,
    SegmentationError,
    TreeParseError,
)
from .masks import HeadMask
from .phrases import (
    HardenedMatrix,
    PhraseTable,
    build_phrase_table,
    equalize,
    find_balusters,
    harden,
)
from .render import image_name, pgm_bytes, render_head, sidecar_text
from .scoring import (
    CountingPolicy,
    EvalReport,
    crosses,
    is_consistent,
    score,
    score_spans,
)
from .selection import (
    greedy_ablation,
    greedy_addition,
    layer_distribution,
)
from .synth import (
    baluster_matrix,
    planted_dump,
    random_attention_baseline,
    random_binary_tree,
)
from .treebank import (
    ConstituencyTree,
    Phrase,
    RawTree,
    attach_eos,
    gold_tree_for_dump,
    postprocess,
    postprocess_steps,
    read_bracketed,
)
from .trees import (
    Chart,
    SpanTree,
    cky_chart,
    cky_parse,
    extract_tree,
    lbal_tree,
    parse_span_tree,
    rbal_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AttentionDump",
    "AttnSyntaxError",
    "Chart",
    "ConstituencyTree",
    "CountingPolicy",
    "DumpParseError",
    "DumpValidationError",
    "EvalReport",
    "HardenedMatrix",
    "HeadMask",
    "Phrase",
    "PhraseTable",
    "RawTree",
    "SegmentationError",
    "Span",
    "SpanTree",
    "TreeParseError",
    "attach_eos",
    "baluster_matrix",
    "build_phrase_table",
    "cky_chart",
    "cky_parse",
    "crosses",
    "dump_record",
    "equalize",
    "extract_tree",
    "find_balusters",
    "gold_tree_for_dump",
    "greedy_ablation",
    "greedy_addition",
    "harden",
    "image_name",
    "is_consistent",
    "layer_distribution",
    "lbal_tree",
    "load_dump",
    "parse_span_tree",
    "pgm_bytes",
    "planted_dump",
    "postprocess",
    "postprocess_steps",
    "random_attention_baseline",
    "random_binary_tree",
    "rbal_tree",
    "read_bracketed",
    "render_head",
    "score",
    "score_spans",
    "sidecar_text",
    "word_groups",
    "write_dump",
]
