"""Peak memory of the commands that read a dump grows with one record, not
with the number of records.

Each command runs in-process under ``tracemalloc``, which counts Python
objects and numpy's buffers alike.  ``ru_maxrss`` would not do: a child
process inherits the high-water mark of the test process that forks it.
"""

import gc
import tracemalloc

import pytest

from attnsyntax import attn_io, cli, write_dump
from attnsyntax.cli import main
from attnsyntax.synth import random_attention_baseline

# command: its arguments, the shape (n, layers, heads) of its dumps' records,
# and how many lengths n, n - 1, ... the records take in turn.
# ``select-heads`` keeps each dev sentence's subwords, slot arrays and
# reference tree, with the tree's packed masks, about 8 KB at n = 96, so its
# records must be larger than those of the others, which keep a line or an
# id.  The head search fills its charts
# in groups of one length drawn from every dev sentence, once the waiting
# tables hold ``selection._FILL_BYTES`` of chart buffers in all: 11 tables
# at n = 64, so with 12 candidates or fewer per step a group spans two or
# more sentences.  With 24 candidates over 20 lengths (n = 40 down to 21)
# the groups of many lengths wait at once; a budget per length instead of
# in all let them grow by about 630 KB here, against a bound of 300 KB.
# At n = 30 and 3 x 4 heads the kept dev sentences alone grow by more than
# that shape's one record from 4 to 40 records.
COMMANDS = {
    "extract": (["extract", "--heads", "all"], (64, 1, 3), 1),
    "baseline": (["baseline", "--kind", "rand.attn"], (64, 1, 3), 1),
    "render": (["render", "--sentence", "s00", "--all"], (64, 1, 3), 1),
    "select-heads": (["select-heads", "--strategy", "add"], (96, 2, 3), 1),
    "select-heads-grouped": (["select-heads", "--strategy", "add"], (64, 3, 4), 1),
    "select-heads-lengths": (["select-heads", "--strategy", "add"], (40, 4, 6), 20),
}


def _corpus(directory, shape, records, lengths=1):
    """A dump of ``records`` records and a flat reference tree per record.

    Record i has ``n - i % lengths`` subwords, and the records cycle
    through four seeded random ones under ids of one length, so every
    corpus has the same longest line.
    """
    directory.mkdir()
    n, layers, heads = shape
    dumps = [random_attention_baseline([11, i % 4], n - i % lengths, layers, heads,
                                       sentence_id=f"s{i:02d}")
             for i in range(records)]
    write_dump(dumps, directory / "d.jsonl")
    (directory / "g.txt").write_text(
        "".join(f"(S {' '.join(dump.subwords[:-1])})\n" for dump in dumps))
    return directory


def _argv(command, directory):
    argv = COMMANDS[command][0] + ["--dump", str(directory / "d.jsonl")]
    if argv[0] == "render":
        return argv + ["--out-dir", str(directory / "images")]
    if argv[0] == "select-heads":
        argv += ["--gold", str(directory / "g.txt")]
    return argv + ["--out", str(directory / "out.txt")]


def _peak_bytes(argv):
    """The most memory that ``main(argv)`` had allocated at once.

    A full collection first, so that what the collector and the free lists
    still hold of earlier runs does not move the peak from run to run."""
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_peak_grows_by_less_than_one_record_from_4_to_40_records(command, tmp_path,
                                                                monkeypatch):
    # The read buffer grows to the longest line plus up to one block, by
    # where lines fall relative to the blocks, which a longer file samples
    # more of; small blocks keep that apart from what grows with the count.
    monkeypatch.setattr(attn_io, "READ_BLOCK_BYTES", 4096)
    _, shape, lengths = COMMANDS[command]
    n, layers, heads = shape
    one, few, many = (_corpus(tmp_path / str(k), shape, k, lengths) for k in (1, 4, 40))
    main(_argv(command, one))  # module-level caches (the chart plan for n) fill here
    growth = _peak_bytes(_argv(command, many)) - _peak_bytes(_argv(command, few))
    record_bytes = layers * heads * n * n * 8
    assert growth < record_bytes, f"{growth} bytes more for 36 more records of {record_bytes}"


def test_extract_holds_only_its_tree_lines_without_emit_phrases(tmp_path, monkeypatch):
    # Once the dump is read, extract holds a tree line per record, about
    # 300 bytes at n = 32; a phrase record it has no use for adds about
    # 1 KB more.  The peak is too coarse for this: the free lists and when
    # the collector runs move it by up to 30 KB between runs of one code.
    held = []

    def load_dump(*args, **kwargs):
        kept = attn_io.load_dump(*args, **kwargs)
        gc.collect()  # a full collection also empties the free lists
        held.append(tracemalloc.get_traced_memory()[0])
        return kept

    monkeypatch.setattr(cli, "load_dump", load_dump)
    for records in (1, 4, 40):  # the first run fills the module-level caches
        _peak_bytes(_argv("extract", _corpus(tmp_path / str(records), (32, 1, 3), records)))
    growth = held[2] - held[1]
    assert growth < 16 * 1024, f"{growth} bytes more held for 36 more records"
