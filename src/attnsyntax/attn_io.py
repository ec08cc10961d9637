"""Load, validate and write per-sentence attention dumps.

A dump file is UTF-8 JSON lines: one record per sentence, lines split at
newline bytes, corpus order preserved.  Record schema (arrays are
0-based, row-major)::

    {"id": "s1",
     "subwords": ["vin@@", "e-@@", "growers", "suffer", "EOS"],
     "attn": [layer][head][row][col]}   # floats in [0, 1]

Rows of every matrix are softmax outputs over input states and must sum to
1 within ``ROW_SUM_TOLERANCE``.  The final subword must be the EOS symbol.

Everything this package reports back to callers (word spans, phrase spans,
layer/head ids) is 1-based inclusive; only the raw arrays stay 0-based.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

import numpy as np
import orjson

from .errors import DumpParseError, DumpValidationError

Span = tuple[int, int]
Head = tuple[int, int]  # 1-based (layer, head)

DEFAULT_EOS = "EOS"
ROW_SUM_TOLERANCE = 1e-3
MAX_RECORD_BYTES = 64 * 1024 * 1024
# orjson 3.8 has no nesting limit and crashes on a line nested about 120k
# deep.  A line nests at most as deep as its count of "[" plus "{", so only
# a line with more than this many is first decoded by json.loads, which
# stops at the recursion limit.  A record of L x H heads of N x N weights
# holds 1 + L + LH + LHN: 9373 for BERT-base at N = 64.
MAX_OPENERS = 50_000
# dump files are read in blocks of this many bytes
READ_BLOCK_BYTES = 256 * 1024
# the bytes that bytes.isspace() accepts
_WHITESPACE = b" \t\n\r\x0b\x0c"

T = TypeVar("T")


@dataclass(frozen=True)
class AttentionDump:
    """One sentence's subwords plus all layers x heads of NxN attention.

    Construction copies ``matrices`` into a read-only float64 array of the
    dump's own, refusing any whose inferred dtype is neither integer nor
    float (strings, booleans, ``None``), checks its shape and then
    ``validate``'s content invariants, so every dump that exists is valid.
    """

    sentence_id: str
    subwords: tuple[str, ...]
    matrices: np.ndarray  # float64, shape (layers, heads, N, N), read-only

    def __post_init__(self) -> None:
        object.__setattr__(self, "subwords", tuple(self.subwords))
        matrices = np.array(self.matrices)
        if matrices.dtype.kind not in "fiu":
            if matrices.dtype.kind == "O":
                matrices.astype(np.float64)  # numpy's own error for a dict or a list
            raise DumpValidationError(
                f"sentence {self.sentence_id!r}: attention weights must be numbers, "
                f"got dtype {matrices.dtype}"
            )
        matrices = matrices.astype(np.float64, copy=False)
        matrices.setflags(write=False)
        object.__setattr__(self, "matrices", matrices)
        if matrices.ndim != 4:
            raise DumpValidationError(
                f"sentence {self.sentence_id!r}: attn must be nested "
                f"[layer][head][row][col], got {matrices.ndim} dimensions"
            )
        layers, heads, rows, cols = matrices.shape
        if layers < 1 or heads < 1:
            raise DumpValidationError(
                f"sentence {self.sentence_id!r}: needs at least one layer and one head"
            )
        n = len(self.subwords)
        if rows != n or cols != n:
            raise DumpValidationError(
                f"sentence {self.sentence_id!r}: {n} subwords but "
                f"{rows}x{cols} attention matrices"
            )
        self.validate()

    @property
    def n(self) -> int:
        return len(self.subwords)

    @property
    def layers(self) -> int:
        return int(self.matrices.shape[0])

    @property
    def heads(self) -> int:
        return int(self.matrices.shape[1])

    def matrix(self, layer: int, head: int) -> np.ndarray:
        """Return the NxN matrix for a 1-based (layer, head) pair."""
        if not (1 <= layer <= self.layers and 1 <= head <= self.heads):
            raise ValueError(
                f"head ({layer},{head}) outside universe "
                f"1..{self.layers} x 1..{self.heads}"
            )
        return self.matrices[layer - 1, head - 1]

    def validate(self, eos: str = DEFAULT_EOS) -> None:
        """Check the content invariants; the constructor runs this with the
        default EOS token."""
        sid = self.sentence_id
        if self.n < 1:
            raise DumpValidationError(f"sentence {sid!r}: no subwords")
        for token in self.subwords:
            if not token or token.split() != [token]:
                raise DumpValidationError(
                    f"sentence {sid!r}: subword {token!r} is empty or contains whitespace"
                )
        if self.subwords[-1] != eos:
            raise DumpValidationError(
                f"sentence {sid!r}: final subword must be the EOS token {eos!r}, "
                f"got {self.subwords[-1]!r}"
            )
        m = self.matrices
        if not np.all(np.isfinite(m)):
            raise DumpValidationError(f"sentence {sid!r}: non-finite attention weight")
        if m.min() < 0.0 or m.max() > 1.0:
            raise DumpValidationError(
                f"sentence {sid!r}: attention weights must lie in [0, 1]"
            )
        sums = m.sum(axis=3)
        bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE)
        if bad.size:
            layer, head, row = (int(v) + 1 for v in bad[0])
            raise DumpValidationError(
                f"sentence {sid!r}, layer {layer}, head {head}, row {row}: "
                f"row sums to {sums[tuple(bad[0])]:.6f}, expected 1 "
                f"within {ROW_SUM_TOLERANCE}"
            )


def all_heads(layers: int, heads: int) -> tuple[Head, ...]:
    """Every (layer, head) pair of a layers x heads universe, sorted."""
    return tuple((layer, head) for layer in range(1, layers + 1) for head in range(1, heads + 1))


def _dump_from_record(record: object, lineno: int) -> AttentionDump:
    if not isinstance(record, dict):
        raise DumpParseError(f"line {lineno}: record is not an object")
    for key in ("id", "subwords", "attn"):
        if key not in record:
            raise DumpParseError(f"line {lineno}: missing key {key!r}")
    sentence_id = record["id"]
    subwords = record["subwords"]
    if not isinstance(sentence_id, str):
        raise DumpParseError(f"line {lineno}: 'id' must be a string")
    if not isinstance(subwords, list) or not all(isinstance(s, str) for s in subwords):
        raise DumpParseError(f"line {lineno}: 'subwords' must be a list of strings")
    try:
        return AttentionDump(sentence_id, tuple(subwords), record["attn"])
    except DumpValidationError as exc:
        raise DumpValidationError(f"line {lineno}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DumpParseError(f"line {lineno}: 'attn' is not a rectangular numeric array: {exc}") from exc


def _lines(fh: BinaryIO) -> Iterator[tuple[int, memoryview]]:
    """Each line of ``fh`` with its 1-based number, newline included.

    Lines end at newline bytes.  The file is read in blocks of
    ``READ_BLOCK_BYTES`` into one buffer kept for the whole file, and each
    line is a view of that buffer, released when the next line is asked
    for; the caller must drop any buffer made from it by then.  The buffer
    grows to the longest line plus one block (a growing ``bytearray`` may
    reserve up to 1/8 more).  A line longer than ``MAX_RECORD_BYTES``
    raises DumpParseError after only ``MAX_RECORD_BYTES + 1`` of its bytes
    are read.
    """
    buf = bytearray(READ_BLOCK_BYTES)
    start = end = 0  # buf[start:end] is read and not yet handed out
    scan = 0  # buf[start:scan] holds no newline
    lineno = 0
    while True:
        newline = buf.find(b"\n", scan, end)
        if newline < 0 and end - start <= MAX_RECORD_BYTES:
            want = min(READ_BLOCK_BYTES, MAX_RECORD_BYTES + 1 - (end - start))
            if end + want > len(buf) and start:
                with memoryview(buf) as view:
                    view[: end - start] = view[start:end]
                start, end = 0, end - start
            if end + want > len(buf):
                buf.extend(bytes(end + want - len(buf)))
            with memoryview(buf) as view:
                got = fh.readinto(view[end : end + want])
            if got:
                scan, end = end, end + got
                continue
            if start == end:
                return
        stop = end if newline < 0 else newline + 1  # the file's last line may have no LF
        if stop - start > MAX_RECORD_BYTES:
            raise DumpParseError(f"line {lineno + 1}: record exceeds {MAX_RECORD_BYTES} bytes")
        lineno += 1
        with memoryview(buf)[start:stop] as line:
            yield lineno, line
        start = scan = stop


def _openers(line: memoryview) -> int:
    """The count of "[" plus "{" in ``line``; the numpy view of it is
    gone on return, so the read buffer behind it may grow again."""
    # "[" | 0x20 is "{" and no other byte gives either.  Slices of 64 KiB
    # keep temporaries under the CLI's mmap threshold, unfaulted: 4x faster.
    view = np.frombuffer(line, np.uint8)
    return sum(np.count_nonzero((view[i : i + 65536] | 0x20) == 0x7B)
               for i in range(0, len(view), 65536))


def _the_dump(dump: AttentionDump) -> AttentionDump:
    return dump


def load_dump(path, limit: int | None = None,
              keep: Callable[[AttentionDump], T] = _the_dump) -> list[T]:
    """Read a dump file in file order and return ``keep``'s result for
    each record; by default ``keep`` returns the dump itself.  With
    ``limit``, only the first ``limit`` records are read, and no line
    after theirs is decoded or checked.

    ``keep`` is called on each dump right after that dump is decoded and
    validated, before the next line is read, and the dump is dropped once
    it returns.  So besides what the caller keeps, only one record's
    matrices are alive at a time.  An exception from ``keep`` stops the
    read and propagates, so errors come in file order.

    Each line is decoded by orjson from a view of the read buffer (see
    ``_lines``), so no more than one record's text and lists are alive
    at once.  orjson also rejects invalid UTF-8, lone surrogates,
    ``NaN``/``Infinity`` and numbers that overflow a double; those, any
    line longer than ``MAX_RECORD_BYTES`` bytes (newline included) and a
    line nested deeper than ``json.loads`` reaches (see ``MAX_OPENERS``)
    raise DumpParseError naming the line.  A record the dump's own checks
    refuse raises DumpValidationError, also prefixed with ``line k:``.
    Blank lines are skipped.
    """
    kept: list[T] = []
    if limit is not None and limit < 1:
        return kept
    with open(path, "rb", buffering=0) as fh:
        for lineno, line in _lines(fh):
            if line[0] in _WHITESPACE and bytes(line).isspace():
                continue
            if _openers(line) > MAX_OPENERS:
                try:
                    json.loads(bytes(line))
                except RecursionError:
                    raise DumpParseError(f"line {lineno}: nested too deeply") from None
                except ValueError:
                    pass  # orjson reports it below
            try:
                record = orjson.loads(line)
            except orjson.JSONDecodeError as exc:
                raise DumpParseError(f"line {lineno}: {exc}") from exc
            dump = _dump_from_record(record, lineno)
            del record  # the decoded lists go before keep runs
            kept.append(keep(dump))
            del dump  # and the matrices before the next line is decoded
            if len(kept) == limit:
                break
    return kept


def _create_temporary(directory: str) -> tuple[int, str]:
    """A new file in ``directory`` under an unused name, opened for
    writing; the kernel gives it the mode that ``open()`` gives under the
    current umask (or the directory's default ACL)."""
    while True:
        tmp = os.path.join(directory, f".attnsyntax-{os.urandom(8).hex()}")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


@contextmanager
def atomic_output(path) -> Iterator[BinaryIO]:
    """Yield a binary file that replaces ``path`` only when the block exits
    normally; on any exception ``path`` is left as it was.  The file gets
    the mode that ``open()`` gives under the current umask, which is never
    changed, not even for a moment.

    A symlink is followed, so its final target is replaced and the link
    stays.  An existing target that is not a regular file (a FIFO, a
    device) cannot be replaced and is written directly instead.  An error
    in creating the temporary file names ``path``, not the temporary.
    """
    target = os.path.realpath(path)
    try:
        regular = stat.S_ISREG(os.stat(target).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(target, "wb") as fh:
            yield fh
        return
    try:
        fd, tmp = _create_temporary(os.path.dirname(target))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def dump_record(dump: AttentionDump) -> bytes:
    """Serialize one dump as a single UTF-8 JSON line, without its newline.

    The bytes equal ``json.dumps(record, ensure_ascii=False,
    separators=(",", ":"))`` encoded as UTF-8: floats keep ``repr``'s
    layout and round-trip exactly.  A NaN or infinite weight (the
    constructor rejects one, but a caller can turn writes back on for the
    dump's own array), or a lone surrogate in the id or a subword,
    raises DumpValidationError, since ``load_dump`` would reject the line.
    """
    sid = dump.sentence_id
    matrices = np.ascontiguousarray(dump.matrices, dtype=np.float64)
    if not np.isfinite(matrices).all():
        raise DumpValidationError(f"sentence {sid!r}: non-finite attention weight")
    try:
        head = json.dumps({"id": sid, "subwords": list(dump.subwords)},
                          ensure_ascii=False, separators=(",", ":")).encode()
    except UnicodeEncodeError as exc:
        surrogate = exc.object[exc.start]
        raise DumpValidationError(
            f"sentence {sid!r}: lone surrogate {surrogate!r} in the id or a subword") from None
    # orjson writes repr's shortest digits but lays out 0 < x < 1e-4
    # differently (0.00001234, 1e-7); weights lie in [0, 1], so no others
    # differ.  Those go to orjson as NaN (an input NaN, refused above, can
    # never pose as one) and come out as null, its only "n" here; their
    # repr goes in at each null in C order.
    odd = (matrices > 0.0) & (matrices < 1e-4)
    masked = np.where(odd, np.nan, matrices) if odd.any() else matrices
    attn = orjson.dumps(masked, option=orjson.OPT_SERIALIZE_NUMPY)
    # the head's closing brace moves after "attn", the last key
    parts = [head[:-1], b',"attn":']
    view, start = memoryview(attn), 0
    for value in matrices[odd].tolist():
        end = attn.index(b"n", start)
        parts += (view[start:end], repr(value).encode())
        start = end + 4
    parts += (view[start:], b"}")
    return b"".join(parts)


def write_dump(dumps: Iterable[AttentionDump], path) -> None:
    """Write dumps as JSON lines, replacing ``path`` only once all are written."""
    with atomic_output(path) as fh:
        for dump in dumps:
            fh.write(dump_record(dump))
            fh.write(b"\n")
