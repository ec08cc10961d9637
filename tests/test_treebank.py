import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsyntax import (
    AlignmentError,
    ConstituencyTree,
    TreeParseError,
    gold_tree_for_dump,
    read_bracketed,
    score,
)
from attnsyntax.treebank import (
    MAX_TREE_DEPTH,
    _offset,
    bracket_tokens,
    postprocess,
    postprocess_steps,
)
from attnsyntax.trees import tree_from_splits

from oracles import (
    BRACKET_LINES,
    BRACKET_TOKEN,
    NestedConstituencyTree,
    Phrase,
    RawNode,
    attach_eos_nested,
    lex_by_chars,
    postprocess_steps_two_walks,
    postprocess_steps_walk,
    postprocess_walk,
    raw_leaves,
    raw_node_of,
    raw_tree_of,
    read_bracketed_nodes,
    read_bracketed_recursive,
)


class TestReadBracketed:
    def test_nested_labels(self):
        tree = read_bracketed("(S (VP vinegrowers suffer))")
        assert tree == ("vinegrowers", "suffer", ("VP", 2), ("S", 1))
        assert raw_node_of(tree) == RawNode("S", [RawNode("VP", ["vinegrowers", "suffer"])])

    def test_single_child(self):
        tree = read_bracketed("(X a)")
        assert tree == ("a", ("X", 1))

    def test_unbalanced_reports_eof_offset(self):
        text = "((a b)"
        with pytest.raises(TreeParseError, match=f"offset {len(text)}"):
            read_bracketed(text)

    def test_empty_input(self):
        with pytest.raises(TreeParseError, match="offset 0"):
            read_bracketed("   ")

    def test_trailing_content(self):
        with pytest.raises(TreeParseError, match="trailing"):
            read_bracketed("(X a) (Y b)")

    def test_empty_phrase_rejected(self):
        with pytest.raises(TreeParseError, match="empty phrase"):
            read_bracketed("(X ())")

    def test_unlabeled_node(self):
        tree = read_bracketed("( (vinegrowers suffer) )")
        # the first atom after '(' reads as a label
        assert tree == ("suffer", ("vinegrowers", 1), (None, 1))
        assert raw_leaves(tree) == ["suffer"]

    def test_too_deep_is_a_located_error(self):
        text = "(X " * 5000 + "a" + ")" * 5000
        with pytest.raises(
            TreeParseError,
            match=f"deeper than {MAX_TREE_DEPTH} levels at offset {3 * MAX_TREE_DEPTH}$",
        ):
            read_bracketed(text)

    def test_deepest_tree_survives_postprocessing(self):
        words = [f"w{i}" for i in range(MAX_TREE_DEPTH + 1)]
        text = "".join(f"(X {w} " for w in words[:-1]) + words[-1] + ")" * MAX_TREE_DEPTH
        tree = gold_tree_for_dump(read_bracketed(text), words + ["EOS"])
        assert tree.tokens == (*words, "EOS")
        assert len(tree.spans()) == MAX_TREE_DEPTH

    @settings(max_examples=200, deadline=None)
    @given(BRACKET_LINES)
    def test_matches_recursive_parser(self, text):
        try:
            expected = read_bracketed_recursive(text)
        except TreeParseError as exc:
            with pytest.raises(TreeParseError) as got:
                read_bracketed(text)
            assert str(got.value) == str(exc)
        else:
            assert read_bracketed(text) == expected


SEGMENTATION = [["vin-", "e-", "growers"], ["suffer"]]


class TestPostprocess:
    def test_worked_example_before_eos(self):
        raw = read_bracketed("(S (VP vinegrowers suffer))")
        tree = postprocess_steps(raw, SEGMENTATION)
        assert tree.to_bracketed() == "((vin- e- growers) suffer)"
        assert tree.tokens == ("vin-", "e-", "growers", "suffer")
        assert tree.spans() == frozenset({(1, 3), (1, 4)})

    def test_worked_example_with_eos(self):
        raw = read_bracketed("(S (VP vinegrowers suffer))")
        tree = postprocess(raw, SEGMENTATION)
        assert tree.to_bracketed() == "((vin- e- growers) suffer EOS)"
        assert tree.tokens == ("vin-", "e-", "growers", "suffer", "EOS")
        assert tree.spans() == frozenset({(1, 3), (1, 5)})

    def test_single_word_collapses_to_leaf(self):
        raw = read_bracketed("(X hello)")
        tree = postprocess(raw, [["hello"]])
        assert tree.to_bracketed() == "(hello EOS)"

    def test_one_subword_word_is_identity(self):
        raw = read_bracketed("(S (NP a) (VP b))")
        tree = postprocess_steps(raw, [["a"], ["b"]])
        assert tree.to_bracketed() == "(a b)"

    def test_segmentation_length_mismatch(self):
        raw = read_bracketed("(S (VP vinegrowers suffer))")
        with pytest.raises(
            AlignmentError, match="^reference tree has 2 words but the subwords form 1$"
        ):
            postprocess_steps(raw, [["vin-", "e-", "growers"]])

    def test_extra_segmentation_entries_rejected(self):
        raw = read_bracketed("(X hello)")
        with pytest.raises(AlignmentError, match="1 words but the subwords form 2"):
            postprocess_steps(raw, [["hello"], ["world"]])

    def test_empty_word_segmentation_rejected(self):
        raw = read_bracketed("(X hello)")
        with pytest.raises(AlignmentError, match="no subwords"):
            postprocess_steps(raw, [[]])

    def test_attach_eos_to_leaf_root(self):
        # a one-token tree has no phrase, so EOS makes the phrase (1, 2)
        tree = postprocess(read_bracketed("(X hello)"), [["hello"]], eos="</s>")
        assert tree == ConstituencyTree(((1, 2),), ("hello", "</s>"))


def _random_raw(rng, depth=0) -> RawNode:
    n_children = int(rng.integers(1, 4))
    children = []
    for _ in range(n_children):
        if depth >= 3 or rng.random() < 0.5:
            children.append(f"w{int(rng.integers(0, 100))}")
        else:
            children.append(_random_raw(rng, depth + 1))
    return RawNode(f"L{int(rng.integers(0, 5))}", children)


class TestPostprocessProperties:
    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=60, deadline=None)
    def test_no_unary_nodes_and_laminar(self, seed):
        rng = np.random.default_rng(seed)
        raw = raw_tree_of(_random_raw(rng))
        words = raw_leaves(raw)
        segmentation = [
            [w] if rng.random() < 0.5 else [f"{w}@@", f"{w}b"] for w in words
        ]
        tree = postprocess(raw, segmentation)

        # a phrase of one child would repeat that child's span or cover one token
        assert len(set(tree.postorder)) == len(tree.postorder)
        assert all(a < b for a, b in tree.postorder)

        spans = sorted(tree.spans())
        for i, e in enumerate(spans):
            for p in spans[i + 1 :]:
                overlap = e[0] <= p[1] and p[0] <= e[1]
                nested = (e[0] <= p[0] and p[1] <= e[1]) or (p[0] <= e[0] and e[1] <= p[1])
                assert not overlap or nested

        assert tree.n == sum(len(s) for s in segmentation) + 1

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=40, deadline=None)
    def test_steps_are_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        raw = raw_tree_of(_random_raw(rng))
        words = raw_leaves(raw)
        first = postprocess_steps(raw, [[w] for w in words])
        if first.n == 1:
            return  # a bare word is already in normal form
        # the same phrases, each labeled X, read back as a raw tree
        reparsed = read_bracketed(first.to_bracketed().replace("(", "(X "))
        second = postprocess_steps(reparsed, [[w] for w in first.tokens])
        assert second == first


# text mixing brackets and atoms with ASCII, Unicode and non-space
# separators (U+200B and U+FEFF are not whitespace)
_LEX_TEXT = st.text(
    alphabet=st.sampled_from(list("()ab-@ \t\n\r\x0b\x0c") + [
        "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680", "\u2003", "\u2028",
        "\u202f", "\u3000", "\u200b", "\ufeff", "é", "语",
    ]) | st.characters(),
    max_size=40,
)

# one word's subwords; one word in eight maps to none
_SUBWORDS = st.sampled_from(
    [["a"], ["b"], ["a@@", "b"], ["c@@", "d@@", "e"], ["a"], ["b"], ["a@@", "b"], []]
)
_COUNT_ERROR = st.sampled_from([0] * 8 + [-1, 1])


class TestOnePassMatchesReference:
    """The shared tokenizer and the one-walk post-processing against the
    token pattern, the character loop and the two-walk version in
    ``oracles``."""

    @settings(max_examples=300, deadline=None)
    @given(_LEX_TEXT)
    def test_tokens_and_offsets(self, text):
        tokens = bracket_tokens(text)
        offsets = [_offset(text, i) for i in range(len(tokens))]
        expected = [(value, offset) for _, value, offset in lex_by_chars(text)]
        assert list(zip(tokens, offsets)) == expected

    @settings(max_examples=500, deadline=None)
    @given(_LEX_TEXT)
    def test_tokens_equal_the_pattern(self, text):
        assert bracket_tokens(text) == BRACKET_TOKEN.findall(text)

    @settings(max_examples=300, deadline=None)
    @given(BRACKET_LINES, st.data())
    def test_postprocessing(self, text, data):
        try:
            raw = read_bracketed(text)
        except TreeParseError:
            return
        # mostly the right number of words, sometimes one too few or too many
        n_words = max(0, len(raw_leaves(raw)) + data.draw(_COUNT_ERROR))
        segmentation = data.draw(st.lists(_SUBWORDS, min_size=n_words, max_size=n_words))
        try:
            expected = postprocess_steps_two_walks(raw, segmentation)
        except AlignmentError:
            with pytest.raises(AlignmentError):
                postprocess_steps(raw, segmentation)
            return
        got = postprocess_steps(raw, segmentation)
        for ours, reference in ((got, expected),
                                (postprocess(raw, segmentation), attach_eos_nested(expected))):
            assert ours == reference.flat()
            assert ours.n == len(reference.leaves())
            assert ours.spans() == _spans_by_leaf_counts(reference.root)


def _spans_by_leaf_counts(root) -> frozenset:
    """Phrase spans of a tree, each measured by counting its own leaves."""
    out = set()

    def visit(node, start):
        if isinstance(node, Phrase):
            out.add((start + 1, start + len(NestedConstituencyTree(node).leaves())))
            for child in node.children:
                start = visit(child, start)
            return start
        return start + 1

    visit(root, 0)
    return frozenset(out)


class TestGoldTreeForDump:
    def test_uses_dump_segmentation(self):
        subwords = ("vin@@", "e-@@", "growers", "suffer", "EOS")
        raw = read_bracketed("(S (VP vinegrowers suffer))")
        tree = gold_tree_for_dump(raw, subwords)
        assert tree.tokens == subwords
        assert tree.spans() == frozenset({(1, 3), (1, 5)})

    def test_word_count_mismatch(self):
        raw = read_bracketed("(S (VP vinegrowers suffer))")
        with pytest.raises(AlignmentError, match="2 words but the subwords form 1"):
            gold_tree_for_dump(raw, ("one", "EOS"))


class TestConstituencyTreeCache:
    # ((a b) (c (d e)) EOS)
    POSTORDER = ((1, 2), (4, 5), (3, 5), (1, 6))
    TOKENS = ("a", "b", "c", "d", "e", "EOS")

    def test_walks_once_and_repeats_values(self):
        tree = ConstituencyTree(self.POSTORDER, self.TOKENS)
        spans = tree.spans()
        assert spans == frozenset({(1, 2), (3, 5), (4, 5), (1, 6)})
        assert tree.spans() is spans
        assert tree.boundaries is tree.boundaries
        assert tree.n == 6

    def test_equality_and_hash_ignore_the_cache(self):
        warm = ConstituencyTree(self.POSTORDER, self.TOKENS)
        cold = ConstituencyTree(self.POSTORDER, self.TOKENS)
        warm.spans(), warm.boundaries
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert warm != ConstituencyTree(((1, 6),), self.TOKENS)


def _outcome(fn, *args):
    """``(result, None)``, or ``(None, exception)`` when ``fn`` raises a
    parse or alignment error."""
    try:
        return fn(*args), None
    except (TreeParseError, AlignmentError) as exc:
        return None, exc


# how many subwords a word maps to: 0 (an error) in one word of ten
_SUBWORD_COUNT = st.sampled_from([0] + [1, 2, 3] * 3)


class TestPostorderMatchesNestedWalk:
    """The postorder reader and post-processing loop against the node-per-
    phrase reader and recursive walks kept in ``oracles``."""

    @settings(max_examples=400, deadline=None)
    @given(BRACKET_LINES, st.data())
    def test_same_trees_views_and_errors(self, text, data):
        expected, error = _outcome(read_bracketed_nodes, text)
        got, got_error = _outcome(read_bracketed, text)
        assert (type(got_error), str(got_error)) == (type(error), str(error))
        if error is not None:
            return
        assert got == raw_tree_of(expected)
        assert raw_node_of(got) == expected
        # mostly the right number of words, sometimes one too few or too many
        n_words = max(0, len(raw_leaves(expected)) + data.draw(_COUNT_ERROR))
        segmentation = [
            [f"w{i}.{j}" for j in range(data.draw(_SUBWORD_COUNT))] for i in range(n_words)
        ]
        for ours, nested in ((postprocess_steps, postprocess_steps_walk),
                             (postprocess, postprocess_walk)):
            reference, error = _outcome(nested, expected, segmentation)
            tree, got_error = _outcome(ours, got, segmentation)
            assert (type(got_error), str(got_error)) == (type(error), str(error))
            if error is not None:
                continue
            assert tree.n == reference.n
            assert tree.spans() == reference.spans()
            assert tree.boundaries == reference.boundaries
            assert tree.tokens == reference.leaves()
            assert tree.to_bracketed() == reference.to_bracketed()
            assert tree == reference.flat()


class TestDeepTrees:
    DEPTH = 5000

    def test_views_and_score_of_a_deep_phrase(self):
        n = self.DEPTH + 1
        tree = ConstituencyTree(tuple((1, d) for d in range(2, n + 1)),
                                tuple(f"w{i}" for i in range(n)))
        assert tree.n == n
        assert tree.tokens == tuple(f"w{i}" for i in range(n))
        assert tree.spans() == frozenset((1, d) for d in range(2, n + 1))
        assert tree.to_bracketed() == (
            "(" * self.DEPTH + "w0 " + " ".join(f"w{i})" for i in range(1, n))
        )
        first_end, last_start = tree.boundaries
        assert first_end[2:] == tuple(range(2, n + 1))
        assert last_start[1:n] == (1,) * (n - 1)
        report = score(tree_from_splits(n, lambda a, b: b - 1), tree)
        assert report.extracted_consistent == report.extracted_phrases_total == n - 2
        assert report.gold_consistent == report.gold_phrases_total == n - 2

    def test_postprocessing_a_deep_raw_tree(self):
        # (X (X ... (X (X w0) w1) ... ) w5000): the innermost phrase is unary
        postorder = ["w0", ("X", 1)]
        for i in range(1, self.DEPTH + 1):
            postorder += [f"w{i}", ("X", 2)]
        segmentation = [[f"w{i}"] for i in range(self.DEPTH + 1)]
        expected = ConstituencyTree(tuple((1, d) for d in range(2, self.DEPTH + 2)),
                                    tuple(f"w{i}" for i in range(self.DEPTH + 1)))
        assert postprocess_steps(tuple(postorder), segmentation) == expected
