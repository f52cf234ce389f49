"""CMX text format: a line-oriented exchange format for connection matrices.

Layout (UTF-8, `#` starts a comment, blank lines ignored):

    CMX 1
    m <int>
    b <int>             0 <= b <= max(m, 2)
    index <col> <k>     one line per column, every column exactly once
    entry <i> <j> <num>[/<den>]   optional, strictly above the diagonal

Fractions are accepted unreduced on input; output is canonical: entries
sorted by (i, j), reduced, and zero entries omitted.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import CmxError, ConnectionMatrix, max_chain_index, require_valid

_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[+-]?[0-9]+\Z")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(mt.group(), mt.start() + 1) for mt in _TOKEN.finditer(body)]
        if tokens:
            yield lineno, tokens


def _parse_int(token, lineno, col, what):
    if not _INT.match(token):
        raise CmxError(f"expected integer for {what}, got {token!r}", lineno, col)
    return int(token)


def _parse_rational(token, lineno, col):
    mt = _RATIONAL.match(token)
    if not mt:
        raise CmxError(f"expected rational number, got {token!r}", lineno, col)
    num = int(mt.group(1))
    den = int(mt.group(2)) if mt.group(2) else 1
    if den == 0:
        raise CmxError("zero denominator", lineno, col)
    return Fraction(num, den)


def parse_cmx(source):
    """Parse CMX text (a string or readable stream) into a ConnectionMatrix.

    Rejects anything that would violate the type invariants: indices out of
    range, duplicate entries, entries on or below the diagonal, nonzero
    entries outside the allowable pattern, partitions not covering 1..m.
    """
    if hasattr(source, "read"):
        source = source.read()
    lines = _logical_lines(source)

    def next_line(expect):
        for lineno, tokens in lines:
            return lineno, tokens
        raise CmxError(f"unexpected end of input, expected {expect}")

    lineno, tokens = next_line("CMX header")
    if len(tokens) != 2 or tokens[0][0] != "CMX":
        raise CmxError("expected header 'CMX 1'", lineno, tokens[0][1])
    if tokens[1][0] != "1":
        raise CmxError(f"unsupported CMX version {tokens[1][0]!r}", lineno, tokens[1][1])

    lineno, tokens = next_line("'m <int>'")
    if tokens[0][0] != "m" or len(tokens) != 2:
        raise CmxError("expected 'm <int>'", lineno, tokens[0][1])
    m = _parse_int(tokens[1][0], lineno, tokens[1][1], "m")
    if m < 1:
        raise CmxError("m must be positive", lineno, tokens[1][1])

    lineno, tokens = next_line("'b <int>'")
    if tokens[0][0] != "b" or len(tokens) != 2:
        raise CmxError("expected 'b <int>'", lineno, tokens[0][1])
    b = _parse_int(tokens[1][0], lineno, tokens[1][1], "b")
    if b < 0:
        raise CmxError("b must be nonnegative", lineno, tokens[1][1])
    if b > max_chain_index(m):
        raise CmxError(f"b {b} exceeds max(m, 2) = {max_chain_index(m)}",
                       lineno, tokens[1][1])

    chain_of = {}
    for _ in range(m):
        lineno, tokens = next_line("'index <col> <k>'")
        if tokens[0][0] != "index" or len(tokens) != 3:
            raise CmxError("expected 'index <col> <k>'", lineno, tokens[0][1])
        col = _parse_int(tokens[1][0], lineno, tokens[1][1], "column")
        k = _parse_int(tokens[2][0], lineno, tokens[2][1], "chain index")
        if not 1 <= col <= m:
            raise CmxError(f"column {col} outside 1..{m}", lineno, tokens[1][1])
        if col in chain_of:
            raise CmxError(f"column {col} indexed twice", lineno, tokens[1][1])
        if not 0 <= k <= b:
            raise CmxError(f"chain index {k} outside 0..{b}", lineno, tokens[2][1])
        chain_of[col] = k
    if len(chain_of) != m:
        raise CmxError(f"partition does not cover 1..{m}")
    # Only now, after m index lines: b + 1 sets then cost no more than the input.
    partition = [set() for _ in range(b + 1)]
    for col, k in chain_of.items():
        partition[k].add(col)

    entries = {}
    for lineno, tokens in lines:
        if tokens[0][0] != "entry" or len(tokens) != 4:
            raise CmxError("expected 'entry <i> <j> <num>[/<den>]'",
                           lineno, tokens[0][1])
        i = _parse_int(tokens[1][0], lineno, tokens[1][1], "row")
        j = _parse_int(tokens[2][0], lineno, tokens[2][1], "column")
        v = _parse_rational(tokens[3][0], lineno, tokens[3][1])
        if not (1 <= i <= m and 1 <= j <= m):
            raise CmxError(f"entry position ({i}, {j}) outside 1..{m}",
                           lineno, tokens[1][1])
        if i >= j:
            raise CmxError(f"entry ({i}, {j}) on or below the diagonal",
                           lineno, tokens[1][1])
        if (i, j) in entries:
            raise CmxError(f"duplicate entry ({i}, {j})", lineno, tokens[1][1])
        if v and chain_of[j] != chain_of[i] + 1:
            raise CmxError(
                f"entry ({i}, {j}) outside the allowable sparsity pattern",
                lineno, tokens[1][1])
        entries[(i, j)] = v

    return ConnectionMatrix(m, partition, entries)


def serialize_cmx(matrix):
    """Canonical CMX text for a valid matrix; parse(serialize(x)) == x."""
    require_valid(matrix)
    out = [f"CMX 1", f"m {matrix.m}", f"b {matrix.b}"]
    for col in range(1, matrix.m + 1):
        out.append(f"index {col} {matrix.chain_index(col)}")
    for (i, j), v in sorted(matrix.entries.items()):
        out.append(f"entry {i} {j} {v}")
    return "\n".join(out) + "\n"
