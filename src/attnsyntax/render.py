"""Grayscale heatmap rendering of attention matrices as binary PGM (P5).

Pixel (row o, col i) = round(255 * weight), rounding halves up, so weight 0
is black and weight 1 is white.  Rows are output states top to bottom,
columns are input states left to right.  Subword labels go to a sidecar
text file next to each image.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from .attn_io import AttentionDump
from .phrases import harden

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")


def pgm_bytes(matrix: np.ndarray) -> bytes:
    """Encode a matrix of weights in [0, 1] as a binary P5 graymap."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got {m.ndim} dims")
    pixels = np.floor(m * 255.0 + 0.5).clip(0, 255).astype(np.uint8)
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def hardened_matrix(matrix: np.ndarray) -> np.ndarray:
    """Dense copy of a square matrix with only each row's ``harden``
    maximum kept (ties go leftmost) and every other weight zeroed."""
    cols, weight = harden(matrix)
    out = np.zeros((cols.size, cols.size))
    out[np.arange(cols.size), cols - 1] = weight
    return out


def sidecar_text(subwords: Sequence[str]) -> str:
    """Row/column labels, one subword per line."""
    return "\n".join(subwords) + "\n"


def image_name(sentence_id: str, layer: int, head: int, hardened: bool = False) -> str:
    """Stem `s<id>_l<layer>_h<head>`; unsafe id characters become '_'."""
    sid = _UNSAFE.sub("_", sentence_id)
    stem = f"s{sid}_l{layer}_h{head}"
    if hardened:
        stem += "_hardened"
    return stem


def render_head(
    dump: AttentionDump, layer: int, head: int, hardened: bool = False
) -> bytes:
    """P5 bytes for one 1-based (layer, head) of a dump."""
    matrix = dump.matrix(layer, head)
    if hardened:
        matrix = hardened_matrix(matrix)
    return pgm_bytes(matrix)
