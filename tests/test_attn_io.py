import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsyntax import (
    AlignmentError,
    AttentionDump,
    AttnSyntaxError,
    DumpParseError,
    DumpValidationError,
    SegmentationError,
    gold_tree_for_dump,
    load_dump,
    random_attention_baseline,
    write_dump,
)
from attnsyntax import attn_io
from attnsyntax.attn_io import dump_record
from attnsyntax.cli import main
from attnsyntax.treebank import read_bracketed

from conftest import ROOT
from oracles import dump_record_json, load_dump_json


def _write_record(path, subwords, attn, sentence_id="s1"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": sentence_id, "subwords": subwords, "attn": attn}))
        fh.write("\n")


IDENTITY_3 = [[[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]]


class TestLoadDump:
    def test_identity_sentence(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_record(path, ["a", "b", "EOS"], IDENTITY_3)
        (dump,) = load_dump(path)
        assert dump.sentence_id == "s1"
        assert dump.n == 3
        assert dump.layers == 1 and dump.heads == 1
        assert np.array_equal(dump.matrix(1, 1), np.eye(3))

    def test_row_sum_violation(self, tmp_path):
        path = tmp_path / "d.jsonl"
        attn = [[[[0.5, 0.6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]]
        _write_record(path, ["a", "b", "EOS"], attn)
        with pytest.raises(DumpValidationError) as err:
            load_dump(path)
        message = str(err.value)
        assert "layer 1" in message and "head 1" in message and "row 1" in message

    def test_toy_corpus_ids_preserved(self, toy_dump_path):
        dumps = load_dump(toy_dump_path)
        assert len(dumps) == 10
        assert [d.sentence_id for d in dumps] == [f"toy-{i:02d}" for i in range(1, 11)]

    def test_write_then_read_is_bit_exact(self, tmp_path, toy_dumps):
        path = tmp_path / "copy.jsonl"
        write_dump(toy_dumps, path)
        reloaded = load_dump(path)
        assert len(reloaded) == len(toy_dumps)
        for a, b in zip(toy_dumps, reloaded):
            assert a.sentence_id == b.sentence_id
            assert a.subwords == b.subwords
            assert np.array_equal(a.matrices, b.matrices)

    def test_rewrite_is_byte_stable(self, toy_dumps):
        lines = [dump_record(d) for d in toy_dumps]
        again = [dump_record(d) for d in toy_dumps]
        assert lines == again

    def test_random_floats_round_trip_bit_exactly(self, tmp_path):
        dumps = [random_attention_baseline(seed, 9, 2, 2) for seed in range(5)]
        path = tmp_path / "r.jsonl"
        write_dump(dumps, path)
        for original, reloaded in zip(dumps, load_dump(path)):
            assert np.array_equal(original.matrices, reloaded.matrices)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = json.dumps({"id": "s1", "subwords": ["a", "b", "EOS"], "attn": IDENTITY_3})
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(DumpParseError, match="line 2"):
            load_dump(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"id": "s1", "subwords": ["EOS"]}) + "\n")
        with pytest.raises(DumpParseError, match="attn"):
            load_dump(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_record(path, ["a", "b", "c", "EOS"], IDENTITY_3)
        with pytest.raises(DumpValidationError, match="4 subwords"):
            load_dump(path)

    def test_eos_required(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_record(path, ["a", "b", "c"], IDENTITY_3)
        with pytest.raises(DumpValidationError, match="EOS"):
            load_dump(path)

    def test_weights_out_of_range(self, tmp_path):
        path = tmp_path / "d.jsonl"
        attn = [[[[1.2, -0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]]
        _write_record(path, ["a", "b", "EOS"], attn)
        with pytest.raises(DumpValidationError, match=r"\[0, 1\]"):
            load_dump(path)

    def test_record_size_cap(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        _write_record(path, ["a", "b", "EOS"], IDENTITY_3)
        monkeypatch.setattr(attn_io, "MAX_RECORD_BYTES", 16)
        with pytest.raises(DumpParseError, match="exceeds"):
            load_dump(path)

    def test_record_size_cap_counts_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        record = {"id": "s1", "subwords": ["é" * 20, "ß€", "EOS"], "attn": IDENTITY_3}
        line = json.dumps(record, ensure_ascii=False) + "\n"
        path.write_text(line, encoding="utf-8")
        size = len(line.encode("utf-8"))
        assert len(line) < size
        monkeypatch.setattr(attn_io, "MAX_RECORD_BYTES", len(line))
        assert len(load_dump_json(path)) == 1
        with pytest.raises(DumpParseError, match=f"line 1: record exceeds {len(line)} bytes"):
            load_dump(path)
        monkeypatch.setattr(attn_io, "MAX_RECORD_BYTES", size)
        (dump,) = load_dump(path)
        assert dump.subwords[0] == "é" * 20

    def test_over_long_line_is_located(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        short = json.dumps({"id": "s1", "subwords": ["a", "b", "EOS"], "attn": IDENTITY_3})
        long = json.dumps({"id": "s2" * 5000, "subwords": ["a", "b", "EOS"], "attn": IDENTITY_3})
        path.write_text(short + "\n" + long + "\n" + short + "\n", encoding="utf-8")
        monkeypatch.setattr(attn_io, "MAX_RECORD_BYTES", len(short) + 1)
        with pytest.raises(DumpParseError, match="line 2: record exceeds"):
            load_dump(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = json.dumps({"id": "s1", "subwords": ["a", "b", "EOS"], "attn": IDENTITY_3})
        path.write_text("\n" + record + "\n\n", encoding="utf-8")
        assert len(load_dump(path)) == 1

    def test_row_sum_within_tolerance_accepted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        attn = [[[[0.5005, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]]
        _write_record(path, ["a", "b", "EOS"], attn)
        (dump,) = load_dump(path)
        assert dump.n == 3

    def test_loaded_matrices_are_read_only(self, toy_dumps):
        with pytest.raises(ValueError):
            toy_dumps[0].matrices[0, 0, 0, 0] = 0.5

    @pytest.mark.parametrize("attn", [[[[[1.0, 0.0], [1.0]]]], [[[[{}, 1.0], [0.0, 1.0]]]]],
                             ids=["ragged", "non-numeric"])
    def test_attn_that_is_no_array(self, tmp_path, attn):
        path = tmp_path / "d.jsonl"
        _write_record(path, ["a", "EOS"], attn)
        with pytest.raises((TypeError, ValueError)) as numpy_error:
            np.asarray(attn, dtype=np.float64)
        with pytest.raises(DumpParseError) as err:
            load_dump(path)
        assert str(err.value) == (
            f"line 1: 'attn' is not a rectangular numeric array: {numpy_error.value}"
        )


def _raw_record(attn: str, subwords: str = '["a","b","EOS"]') -> bytes:
    return f'{{"id":"s1","subwords":{subwords},"attn":{attn}}}\n'.encode("utf-8")


IDENTITY_3_TEXT = "[[[[1,0,0],[0,1,0],[0,0,1]]]]"


class TestMalformedNumbers:
    """Records json.loads let through to a crash, a late check or nowhere."""

    CASES = {
        "huge_integer": _raw_record("[[[[" + "9" * 400 + ",0,0],[0,1,0],[0,0,1]]]]"),
        "deep_nesting": _raw_record("[" * 3000 + "]" * 3000),
        "invalid_utf8": _raw_record(IDENTITY_3_TEXT).replace(b'"b"', b'"\xff"'),
        "nan": _raw_record("[[[[NaN,0,1],[0,1,0],[0,0,1]]]]"),
        "infinity": _raw_record("[[[[Infinity,0,0],[0,1,0],[0,0,1]]]]"),
        "minus_infinity": _raw_record("[[[[-Infinity,1,1],[0,1,0],[0,0,1]]]]"),
        "overflow_to_infinity": _raw_record("[[[[1e400,0,0],[0,1,0],[0,0,1]]]]"),
        "lone_surrogate": _raw_record(IDENTITY_3_TEXT, subwords='["a","\\ud800","EOS"]'),
    }

    @pytest.fixture(params=sorted(CASES))
    def bad_line(self, request) -> bytes:
        return self.CASES[request.param]

    def test_rejected_with_line_number(self, tmp_path, bad_line):
        path = tmp_path / "d.jsonl"
        path.write_bytes(_raw_record(IDENTITY_3_TEXT) + b"\n" + bad_line)
        with pytest.raises(DumpParseError, match=r"^line 3: "):
            load_dump(path)

    def test_wide_line_is_screened_and_kept(self, tmp_path, monkeypatch):
        # a line with more brackets than the screen's limit but shallow
        # nesting goes through json.loads and then loads as before
        path = tmp_path / "d.jsonl"
        path.write_bytes(_raw_record(IDENTITY_3_TEXT))
        monkeypatch.setattr(attn_io, "MAX_OPENERS", 1)
        (dump,) = load_dump(path)
        assert np.array_equal(dump.matrix(1, 1), np.eye(3))

    def test_screen_rejects_deep_line(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        path.write_bytes(_raw_record(IDENTITY_3_TEXT) + _raw_record("[" * 5000 + "]" * 5000))
        monkeypatch.setattr(attn_io, "MAX_OPENERS", 100)
        with pytest.raises(DumpParseError, match=r"^line 2: nested too deeply$"):
            load_dump(path)

    @pytest.mark.parametrize("nesting", [
        pytest.param(_raw_record("[" * 150_000 + "]" * 150_000), id="arrays"),
        pytest.param(_raw_record(IDENTITY_3_TEXT)[:-2]
                     + b',"extra":' + b'{"a":' * 200_000 + b"1" + b"}" * 200_001 + b"\n",
                     id="objects-in-an-extra-key"),
    ])
    def test_cli_survives_nesting_that_crashes_orjson(self, tmp_path, nesting):
        # orjson 3.8 has no depth limit and dies with SIGSEGV on these
        # lines, so the command runs in its own process
        path = tmp_path / "d.jsonl"
        path.write_bytes(nesting)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from attnsyntax.cli import main; sys.exit(main())",
             "extract", "--dump", str(path)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == b"error: line 1: nested too deeply\n"

    def test_cli_reports_line_without_traceback(self, tmp_path, bad_line, capsys):
        path = tmp_path / "d.jsonl"
        path.write_bytes(bad_line)
        code = main(["extract", "--dump", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: line 1: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestWeightsMustBeNumbers:
    """numpy's float conversion would parse strings, cast booleans and turn
    null into NaN; the dump refuses each by the dtype numpy infers."""

    REFUSED = {
        "strings": ('[[[["0.5","0.5"],["0.25","0.75"]]]]', "<U4"),
        "booleans": ("[[[[true,false],[false,true]]]]", "bool"),
        "null": ("[[[[null,1.0],[0.0,1.0]]]]", "object"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_load_dump_names_line_and_sentence(self, tmp_path, case):
        attn, dtype = self.REFUSED[case]
        path = tmp_path / "d.jsonl"
        path.write_bytes(_raw_record(IDENTITY_3_TEXT) + _raw_record(attn, '["a","EOS"]'))
        with pytest.raises(DumpValidationError) as err:
            load_dump(path)
        assert str(err.value) == (
            f"line 2: sentence 's1': attention weights must be numbers, got dtype {dtype}"
        )

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_constructor_refuses(self, case):
        attn, dtype = self.REFUSED[case]
        with pytest.raises(DumpValidationError,
                           match=f"^sentence 's': attention weights must be numbers, got dtype {dtype}$"):
            AttentionDump("s", ("a", "EOS"), json.loads(attn))

    def test_integer_weights_accepted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(_raw_record(IDENTITY_3_TEXT))
        (dump,) = load_dump(path)
        assert dump.matrices.dtype == np.float64
        assert np.array_equal(dump.matrix(1, 1), np.eye(3))
        direct = AttentionDump("s", ("a", "EOS"), np.eye(2, dtype=np.uint8)[None, None])
        assert direct.matrices.dtype == np.float64

    def test_other_line_errors_name_the_line_too(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(_raw_record(IDENTITY_3_TEXT) + _raw_record("[[[[0.5,0.6],[0,1]]]]", '["a","EOS"]'))
        with pytest.raises(DumpValidationError, match=r"^line 2: sentence 's1', layer 1, head 1, row 1: "):
            load_dump(path)


# Fractions of [0, 1] written the ways JSON allows: long digit strings,
# exponents (either case, padded), subnormals and values that underflow to 0.
_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_FRACTIONS = st.one_of(
    _DIGITS.map(lambda d: "0." + d),
    st.builds(
        lambda lead, digits, mark, exp, width: f"{lead}.{digits}{mark}-{exp:0{width}d}",
        st.integers(1, 9), _DIGITS, st.sampled_from("eE"), st.integers(1, 340),
        st.integers(1, 5),
    ),
    st.builds(lambda digits, exp: f"0.{digits}e+{exp}", _DIGITS, st.integers(0, 1)).filter(
        lambda text: float(text) <= 1.0
    ),
    st.sampled_from(["0", "1", "-0", "-0.0", "0e5", "1E0", "1.0e-0", "-0e-400",
                     "4.9e-324", "2.4703282292062328e-324", "2.2250738585072014e-308",
                     "2.2250738585072011e-308", "0.1", "0.30000000000000004"]),
)
_SUBWORD = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=6
).filter(lambda token: token.split() == [token])


def _assert_same_dumps(ours, reference) -> None:
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert a.sentence_id == b.sentence_id
        assert a.subwords == b.subwords
        assert a.matrices.shape == b.matrices.shape
        assert a.matrices.tobytes() == b.matrices.tobytes()


class TestDecoderMatchesJsonOracle:
    """load_dump (orjson over bytes) against the json.loads text loader."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 3),
                st.integers(1, 3), st.text(max_size=8), st.lists(_SUBWORD, max_size=8),
            ),
            max_size=4,
        )
    )
    def test_synth_dumps(self, specs):
        dumps = []
        for seed, n, layers, heads, sentence_id, words in specs:
            subwords = (list(words) + [f"w{i}" for i in range(n)])[: n - 1] + ["EOS"]
            dumps.append(random_attention_baseline(
                seed, n, layers, heads, sentence_id=sentence_id, subwords=subwords
            ))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            write_dump(dumps, path)
            ours, reference = load_dump(path), load_dump_json(path)
        _assert_same_dumps(ours, reference)
        for original, loaded in zip(dumps, ours):
            assert original.matrices.tobytes() == loaded.matrices.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FRACTIONS, min_size=1, max_size=8))
    def test_hand_written_numbers(self, fractions):
        heads = []
        for text in fractions:
            rest = repr(1.0 - float(text))
            heads.append(f"[[{text},{rest}],[{rest},{text}]]")
        line = _raw_record("[[" + ",".join(heads) + "]]", subwords='["a","EOS"]')
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            path.write_bytes(line)
            ours, reference = load_dump(path), load_dump_json(path)
        _assert_same_dumps(ours, reference)

    MALFORMED = {
        "not_json": (json.dumps({"id": "s1", "subwords": ["a", "b", "EOS"], "attn": IDENTITY_3})
                     + "\n{not json\n", {}),
        "missing_key": (json.dumps({"id": "s1", "subwords": ["EOS"]}) + "\n", {}),
        "dimension_mismatch": (_raw_record(IDENTITY_3_TEXT, '["a","b","c","EOS"]').decode(), {}),
        "no_eos": (_raw_record(IDENTITY_3_TEXT, '["a","b","c"]').decode(), {}),
        "out_of_range": (_raw_record("[[[[1.2,-0.2,0.0],[0,1,0],[0,0,1]]]]").decode(), {}),
        "row_sum": (_raw_record("[[[[0.5,0.6,0.0],[0,1,0],[0,0,1]]]]").decode(), {}),
        "size_cap": (_raw_record(IDENTITY_3_TEXT).decode(), {"MAX_RECORD_BYTES": 16}),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_records_raise_same_class(self, tmp_path, monkeypatch, case):
        text, constants = self.MALFORMED[case]
        path = tmp_path / "d.jsonl"
        path.write_text(text, encoding="utf-8")
        for name, value in constants.items():
            monkeypatch.setattr(attn_io, name, value)
        with pytest.raises(AttnSyntaxError) as ours:
            load_dump(path)
        with pytest.raises(AttnSyntaxError) as reference:
            load_dump_json(path)
        assert ours.type is reference.type
        assert str(ours.value).split(":")[0] == str(reference.value).split(":")[0]


def _read_all_lines(fh) -> list[tuple[int, bytes]]:
    return [(lineno, bytes(line)) for lineno, line in attn_io._lines(fh)]


class TestLineReader:
    """load_dump reads blocks into one reused buffer and decodes views of it."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("record"), st.integers(0, 2**32 - 1), st.integers(1, 6),
                          st.integers(1, 2), st.integers(1, 2), st.text(" \t", max_size=3)),
                st.tuples(st.just("blank"), st.text(" \t\x0b\x0c", max_size=4)),
            ),
            max_size=8,
        ),
        st.booleans(),
        st.integers(1, 64),
    )
    def test_matches_json_oracle_across_blocks(self, lines, final_newline, block):
        """Blank and whitespace-only lines, records padded with spaces, and
        a block size that puts most records across several blocks."""
        parts = []
        for kind, *spec in lines:
            if kind == "blank":
                parts.append(spec[0].encode())
                continue
            seed, n, layers, heads, padding = spec
            dump = random_attention_baseline(
                seed, n, layers, heads, sentence_id=f"s{seed}",
                subwords=[f"w{i}" for i in range(n - 1)] + ["EOS"])
            parts.append(padding.encode() + dump_record(dump) + padding[::-1].encode())
        data = b"\n".join(parts) + (b"\n" if final_newline and parts else b"")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            path.write_bytes(data)
            with mock.patch.object(attn_io, "READ_BLOCK_BYTES", block):
                ours = load_dump(path)
                with open(path, "rb", buffering=0) as fh:
                    read = _read_all_lines(fh)
            reference = load_dump_json(path)
        _assert_same_dumps(ours, reference)
        *ended, last = data.split(b"\n")
        expected = [line + b"\n" for line in ended] + ([last] if last else [])
        assert read == list(enumerate(expected, start=1))

    @pytest.mark.parametrize("block", [1, 7, 64, 4096])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_line_of_exactly_the_cap_loads(self, tmp_path, monkeypatch, block, final_newline):
        record = _raw_record(IDENTITY_3_TEXT).rstrip(b"\n") + b"   "
        line = record + (b"\n" if final_newline else b"")
        path = tmp_path / "d.jsonl"
        path.write_bytes(_raw_record(IDENTITY_3_TEXT) + line)
        monkeypatch.setattr(attn_io, "READ_BLOCK_BYTES", block)
        monkeypatch.setattr(attn_io, "MAX_RECORD_BYTES", len(line))
        assert len(load_dump(path)) == 2
        monkeypatch.setattr(attn_io, "MAX_RECORD_BYTES", len(line) - 1)
        with pytest.raises(DumpParseError, match=f"^line 2: record exceeds {len(line) - 1} bytes$"):
            load_dump(path)

    @pytest.mark.parametrize("block", [1, 7, 64, 4096])
    @pytest.mark.parametrize("excess", [1, 5000])
    def test_over_long_line_is_rejected_after_cap_plus_one_bytes(self, monkeypatch, block,
                                                                 excess):
        cap = 100
        first = b"{}\n"
        data = first + b"x" * (cap - 1 + excess) + b"\n" + b"{}\n" * 1000
        monkeypatch.setattr(attn_io, "READ_BLOCK_BYTES", block)
        monkeypatch.setattr(attn_io, "MAX_RECORD_BYTES", cap)
        fh = io.BytesIO(data)
        with pytest.raises(DumpParseError, match=f"^line 2: record exceeds {cap} bytes$"):
            _read_all_lines(fh)
        # no more than cap + 1 bytes of line 2 were read
        assert fh.tell() <= len(first) + cap + 1

    def test_fifo_dump_loads(self, tmp_path):
        dumps = [random_attention_baseline(seed, 5, 2, 2, sentence_id=f"s{seed}",
                                           subwords=["a", "b", "c", "d", "EOS"])
                 for seed in range(3)]
        data = b"".join(dump_record(dump) + b"\n" for dump in dumps)
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        loaded = load_dump(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        _assert_same_dumps(loaded, dumps)

    def test_buffer_holds_the_longest_line_plus_one_block(self, monkeypatch):
        block = 1024
        monkeypatch.setattr(attn_io, "READ_BLOCK_BYTES", block)
        lengths = [300, 40_000, 7, 120_000, 5_000, 119_999, 1]
        data = b"".join(b"x" * (length - 1) + b"\n" for length in lengths)
        fh = io.BytesIO(data)
        tracemalloc.start()
        try:
            held = 0
            for _, line in attn_io._lines(fh):
                held = max(held, tracemalloc.get_traced_memory()[0])
                assert len(line) in lengths
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a growing bytearray reserves up to 1/8 more; 4 KiB for the
        # reader's own objects
        assert held <= peak <= (max(lengths) + block) * 9 // 8 + 4096


def _square_dump(values, sentence_id="s1"):
    """Weights in [0, 1] as one 1x1-head dump: row i holds values[i] in its
    first column and the rest of its mass in its last, the final row 1."""
    values = np.asarray(values, dtype=np.float64).ravel()
    n = values.size + 1
    matrix = np.zeros((n, n))
    matrix[:-1, 0] = values
    matrix[:-1, -1] = 1.0 - values
    matrix[-1, -1] = 1.0
    subwords = tuple(f"w{i}" for i in range(n - 1)) + ("EOS",)
    return AttentionDump(sentence_id, subwords, matrix[None, None])


def _assert_writes_like_json(dump):
    line = dump_record(dump)
    assert line == dump_record_json(dump).encode("utf-8")
    assert b"null" not in line.rpartition(b',"attn":')[2]


def _masked(matrices) -> int:
    """How many weights orjson lays out differently from ``repr``."""
    return int(((matrices > 0) & (matrices < 1e-4)).sum())


def _nextafter_both_ways(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# every weight in [0, 1] by its bits: 0.0, the subnormals, ..., 1.0
_WEIGHT_BITS = st.integers(0, 0x3FF0000000000000).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
)
_WRITER_FLOATS = st.one_of(
    _WEIGHT_BITS,
    st.floats(0.0, 1.0),
    st.floats(1e-6, 1e-3),
    st.just(-0.0),
)
# quotes, backslashes, control characters, line separators, non-ASCII
_AWKWARD_TEXT = ['"', "\\", 'a"b\\c', "\x00\x01\x1f\x7f", "\n\t\r", "\u2028\u2029",
                 "é", "语言", "🙂", "\\u0041", "</script>"]


class TestWriterMatchesJsonOracle:
    """dump_record (orjson's numpy serializer plus the ``repr`` splice)
    against the json.dumps writer in ``oracles``, byte for byte."""

    def test_orjson_writes_nan_as_null(self):
        # the splice relies on this: a masked weight reaches orjson as NaN
        nan = np.array([1.0, np.nan])
        assert orjson.dumps(nan, option=orjson.OPT_SERIALIZE_NUMPY) == b"[1.0,null]"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_WRITER_FLOATS, min_size=1, max_size=40))
    def test_finite_floats(self, values):
        _assert_writes_like_json(_square_dump(values))

    def test_layout_boundaries(self):
        values = [
            *_nextafter_both_ways(1e-5), *_nextafter_both_ways(1e-4),
            1.234e-5, 9.99e-5, 1e-6, 1.5e-7, 1e-9,  # exponents of one digit
            1e-10, 2.5e-42, 1e-99,  # two digits
            1e-100, 2.2250738585072014e-308,  # three
            5e-324, 0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), 0.1, 1 / 3,
            0.00010000001, 0.10000009, 0.5000012,  # digits after 0.0000
        ]
        _assert_writes_like_json(_square_dump(values))
        assert b"1e-05" in dump_record(_square_dump([1e-5]))

    def test_every_weight_masked(self):
        # every weight but each row's one large weight
        values = [1e-5, 9.99e-5, np.nextafter(1e-4, 0), 1e-7, 2.5e-42,
                  5e-324, 1e-310, 2.2250738585072009e-308]  # the last three subnormal
        matrix = np.zeros((9, 9))
        matrix[:, :8] = values
        matrix[:, 8] = 1.0 - sum(values)
        dump = AttentionDump("s1", tuple(f"w{i}" for i in range(8)) + ("EOS",), matrix[None, None])
        assert _masked(dump.matrices) == dump.matrices.size - 9 == 72
        _assert_writes_like_json(dump)
        assert dump_record(dump).rpartition(b',"attn":')[2].count(b"e") == 72

    def test_no_weight_masked(self):
        values = [1e-4, 0.0, -0.0, 0.5, 1 / 3, 1.0, 0.00012345]
        dump = _square_dump(values)
        assert _masked(dump.matrices) == 0
        _assert_writes_like_json(dump)
        assert b"e" not in dump_record(dump).rpartition(b',"attn":')[2]

    def test_masked_at_both_ends(self):
        matrix = [[1e-7, 1.0 - 3e-7, 2e-7], [0.25, 0.5, 0.25], [0.5, 0.5 - 3e-5, 3e-5]]
        dump = AttentionDump("s1", ("a", "b", "EOS"), np.array(matrix)[None, None])
        _assert_writes_like_json(dump)
        matrices = np.full((2, 2, 3, 3), 1 / 3)
        matrices[0, 0, 0] = [1e-6, 0.5, 0.5 - 1e-6]
        matrices[-1, -1, -1] = [0.5, 0.5 - 1e-6, 1e-6]
        _assert_writes_like_json(AttentionDump("s1", ("a", "b", "EOS"), matrices))

    def test_thousands_masked(self):
        dump = random_attention_baseline(1, 48, 6, 16)
        matrices = dump.matrices * 0.01
        matrices[..., 0] += 0.99  # one large weight per row
        scaled = AttentionDump(dump.sentence_id, dump.subwords, matrices)
        assert 1000 < _masked(scaled.matrices) < scaled.matrices.size
        _assert_writes_like_json(scaled)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("layers,heads", [(1, 1), (2, 3)])
    def test_small_shapes(self, n, layers, heads):
        subwords = ("a",) * (n - 1) + ("EOS",)
        dump = AttentionDump("s1", subwords, np.full((layers, heads, n, n), 1.0 / n))
        _assert_writes_like_json(dump)

    def test_non_contiguous_input(self):
        matrices = random_attention_baseline(3, 7, 2, 3).matrices.transpose(1, 0, 2, 3)
        dump = AttentionDump("s1", ("a",) * 6 + ("EOS",), matrices)
        assert not dump.matrices.flags.c_contiguous
        _assert_writes_like_json(dump)

    def test_big_endian_input(self):
        native = random_attention_baseline(4, 5, 1, 2, sentence_id="s1")
        big = native.matrices.astype(">f8")
        assert dump_record(AttentionDump("s1", native.subwords, big)) == dump_record(native)
        # orjson writes a ">f8" array's raw bytes as if they were native
        # (1.0 comes out as 3.03865e-319), so the writer must convert it
        # even when the array reaches it past the constructor
        dump = AttentionDump("s1", native.subwords, native.matrices)
        object.__setattr__(dump, "matrices", big)
        _assert_writes_like_json(dump)
        assert dump_record(dump) == dump_record(native)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(st.sampled_from(_AWKWARD_TEXT), st.text(max_size=8)),
        st.lists(st.one_of(st.sampled_from(_AWKWARD_TEXT), st.text(max_size=6)).filter(
            lambda token: token.split() == [token]), max_size=4),  # valid subwords only
    )
    def test_ids_and_subwords(self, sentence_id, words):
        subwords = tuple(words) + ("EOS",)
        n = len(subwords)
        dump = AttentionDump(sentence_id, subwords, np.full((1, 2, n, n), 1.0 / n))
        _assert_writes_like_json(dump)

    def test_benchmark_shaped_record(self):
        dump = random_attention_baseline(1, 48, 6, 16)
        _assert_writes_like_json(dump)

    def test_written_file_is_the_json_lines(self, tmp_path):
        dumps = []
        for seed in range(3):
            dump = random_attention_baseline(seed, 6, 2, 2)
            matrices = dump.matrices * 1e-3
            matrices[..., seed] += 1 - 1e-3  # one large weight per row
            dumps.append(AttentionDump(f"é{seed}", dump.subwords, matrices))
            assert 0 < _masked(matrices) < matrices.size
        path = tmp_path / "d.jsonl"
        write_dump(dumps, path)
        expected = "".join(dump_record_json(d) + "\n" for d in dumps)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        # the constructor refuses such a dump, so it gets its weights past it
        matrices = random_attention_baseline(5, 4, 2, 2).matrices.copy()
        matrices[1, 0, 2, 3] = bad
        dump = AttentionDump("s7", ("a", "b", "c", "EOS"), np.full((2, 2, 4, 4), 0.25))
        object.__setattr__(dump, "matrices", matrices)
        with pytest.raises(DumpValidationError, match="sentence 's7': non-finite"):
            dump_record(dump)
        with pytest.raises(DumpValidationError, match="'s7'"):
            write_dump([dump], tmp_path / "d.jsonl")

    @pytest.mark.parametrize("sentence_id,subwords,named", [
        ("s\ud800", ("a", "EOS"), r"sentence 's\\ud800': lone surrogate '\\ud800'"),
        ("s2", ("a\udc80b", "EOS"), r"sentence 's2': lone surrogate '\\udc80'"),
    ])
    def test_lone_surrogate_rejected(self, tmp_path, sentence_id, subwords, named):
        dump = AttentionDump(sentence_id, subwords, np.full((1, 1, 2, 2), 0.5))
        with pytest.raises(DumpValidationError, match=named):
            dump_record(dump)
        with pytest.raises(DumpValidationError, match=named):
            write_dump([dump], tmp_path / "d.jsonl")


def _dump_bytes(dumps):
    return b"".join(dump_record(dump) + b"\n" for dump in dumps)


class TestWriteDumpIsAtomic:
    """A write that fails partway leaves the path as it was before."""

    @staticmethod
    def _good(count):
        return [random_attention_baseline(seed, 5, 1, 2) for seed in range(count)]

    @staticmethod
    def _rejected():
        dump = AttentionDump("bad", ("a", "EOS"), np.full((1, 1, 2, 2), 0.5))
        matrices = np.full((1, 1, 2, 2), 0.5)
        matrices[0, 0, 1, 1] = np.nan
        object.__setattr__(dump, "matrices", matrices)  # past the constructor
        return dump

    @staticmethod
    def _raising(dumps):
        yield from dumps
        raise RuntimeError("source failed")

    def test_rejected_last_record_leaves_no_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        with pytest.raises(DumpValidationError, match="'bad'"):
            write_dump(self._good(3) + [self._rejected()], path)
        assert list(tmp_path.iterdir()) == []

    def test_rejected_last_record_keeps_existing_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dump(self._good(2), path)
        before = path.read_bytes()
        with pytest.raises(DumpValidationError, match="'bad'"):
            write_dump(self._good(3) + [self._rejected()], path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_raising_generator_leaves_no_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        with pytest.raises(RuntimeError, match="source failed"):
            write_dump(self._raising(self._good(3)), path)
        assert list(tmp_path.iterdir()) == []

    def test_raising_generator_keeps_existing_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"kept\n")
        with pytest.raises(RuntimeError, match="source failed"):
            write_dump(self._raising(self._good(3)), path)
        assert path.read_bytes() == b"kept\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_file_gets_the_mode_open_gives(self, tmp_path):
        umask = os.umask(0)  # the mask it replaces; os.umask(os.umask(0)) is always 0
        os.umask(umask)
        path = tmp_path / "d.jsonl"
        write_dump(self._good(1), path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert len(load_dump(path)) == 1

    def test_mode_is_set_without_changing_the_umask(self, tmp_path, monkeypatch):
        # the umask belongs to the whole process: a file that another
        # thread creates while it is changed would get an unmasked mode
        def refuse(mask):
            raise AssertionError(f"umask changed to {mask:#o}")

        path = tmp_path / "d.jsonl"
        umask = os.umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", refuse)
            write_dump(self._good(1), path)
        finally:
            monkeypatch.undo()
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert list(tmp_path.iterdir()) == [path]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_bytes(b"old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        write_dump(self._good(2), link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == _dump_bytes(self._good(2))
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.jsonl"
        link.symlink_to("target.jsonl")
        write_dump(self._good(1), link)
        assert link.is_symlink()
        assert (tmp_path / "target.jsonl").read_bytes() == _dump_bytes(self._good(1))

    def test_fifo_receives_the_bytes_and_stays_a_fifo(self, tmp_path):
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)
        received = []
        # the reader's open blocks until a writer opens the FIFO; a writer
        # that replaced the FIFO instead would leave it blocked, so it is a
        # daemon thread and the join has a timeout
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        dumps = self._good(80)  # 86 KB, more than a pipe's 64 KiB buffer
        write_dump(dumps, fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [_dump_bytes(dumps)]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]


def _aligned(subwords, n_words):
    """A flat reference tree of ``n_words`` words aligned to ``subwords``."""
    raw = read_bracketed("(S " + " ".join(f"w{i}" for i in range(n_words)) + ")")
    return gold_tree_for_dump(raw, subwords)


class TestSubwordMap:
    """A dump's subwords form words by their trailing ``@@`` markers;
    ``gold_tree_for_dump`` groups them when it aligns a reference tree."""

    def test_bpe_continuation_example(self, tmp_path):
        subwords = ["vin@@", "e-@@", "growers", "suffer", "EOS"]
        tree = _aligned(subwords, 2)
        assert tree.postorder == ((1, 3), (1, 5))
        assert tree.tokens == tuple(subwords)

    def test_single_word(self):
        assert _aligned(["hello", "EOS"], 1).postorder == ((1, 2),)

    def test_marker_rule(self):
        assert _aligned(["a@@", "b@@", "c", "d", "EOS"], 2).postorder == ((1, 3), (1, 5))
        with pytest.raises(AlignmentError, match="3 words but the subwords form 2"):
            _aligned(["a@@", "b@@", "c", "d", "EOS"], 3)

    def test_marker_before_eos_rejected(self):
        with pytest.raises(SegmentationError, match="before 'EOS': 'b@@'"):
            _aligned(["a", "b@@", "EOS"], 2)

    def test_eos_only_sentence(self):
        with pytest.raises(AlignmentError, match="subwords form 0"):
            _aligned(["EOS"], 1)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=8))
    def test_word_spans_partition_prefix(self, lengths):
        subwords, words = [], []
        for w, k in enumerate(lengths):
            words.append((len(subwords) + 1, len(subwords) + k))
            subwords.extend(f"w{w}p{i}@@" for i in range(k - 1))
            subwords.append(f"w{w}end")
        subwords.append("EOS")
        if not lengths:
            with pytest.raises(AlignmentError, match="subwords form 0"):
                _aligned(subwords, 1)
            return
        # each word of two or more subwords is a phrase; with one word,
        # that phrase is the root, which EOS widens
        phrases = [(a, b) for a, b in words if a < b]
        if len(lengths) == 1:
            phrases = []
        tree = _aligned(subwords, len(lengths))
        assert tree.postorder == (*phrases, (1, len(subwords)))
        assert tree.tokens == tuple(subwords)


class TestAttentionDumpType:
    def test_owns_its_array(self):
        m = np.eye(2)[None, None].copy()
        dump = AttentionDump("s", ("a", "EOS"), m)
        assert m.flags.writeable and not dump.matrices.flags.writeable
        m[0, 0, 0] = [0.5, 0.5]
        assert np.array_equal(dump.matrices, np.eye(2)[None, None])

    def test_requires_four_dims(self):
        with pytest.raises(DumpValidationError, match="dimensions"):
            AttentionDump("s", ("a", "EOS"), np.eye(2))

    def test_matrix_bounds(self, identity_dump):
        with pytest.raises(ValueError, match="universe"):
            identity_dump.matrix(2, 1)

    def test_whitespace_subword_rejected(self):
        for token in ("a b", "", "\u2028", "a\x1f"):
            with pytest.raises(DumpValidationError, match="empty or contains whitespace"):
                AttentionDump("s", (token, "EOS"), np.eye(2)[None, None])

    @pytest.mark.parametrize("subwords, matrices, message", [
        pytest.param((), np.zeros((1, 1, 0, 0)), "no subwords", id="no-subwords"),
        pytest.param(("a", "b"), np.eye(2)[None, None], "final subword must be the EOS token 'EOS'",
                     id="no-eos"),
        # a record load_dump refuses, so no dump may hold it for write_dump
        pytest.param(("a", "b"), np.full((1, 1, 2, 2), 0.9), "final subword must be the EOS",
                     id="unloadable-record"),
        pytest.param(("a", "EOS"), [[[[np.nan, 1.0], [0.0, 1.0]]]], "non-finite", id="nan"),
        pytest.param(("a", "EOS"), [[[[np.inf, 0.0], [0.0, 1.0]]]], "non-finite", id="inf"),
        pytest.param(("a", "EOS"), [[[[1.2, -0.2], [0.0, 1.0]]]], r"must lie in \[0, 1\]",
                     id="out-of-range"),
        pytest.param(("a", "EOS"), [[[[1.0, 0.0], [0.0, 1.0]]], [[[0.5, 0.6], [0.0, 1.0]]]],
                     r"layer 2, head 1, row 1: row sums to 1.100000", id="row-sum"),
    ])
    def test_invalid_content_rejected_at_construction(self, subwords, matrices, message):
        with pytest.raises(DumpValidationError, match=message):
            AttentionDump("bad", subwords, np.asarray(matrices))

