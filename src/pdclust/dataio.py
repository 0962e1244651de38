"""File formats shared by the CLI and the scenario generators.

Schema files are line-oriented: blank lines and ``#`` comments are skipped,
every other line reads ``<column> <kind> [key=value ...]`` with kinds
``continuous | ordinal | nominal | weight | skip``. ``levels=`` takes either
a count or a comma-separated label list; continuous columns accept
``transform=identity|log-shift`` and ``shift_quantile=`` (a number in
(0, 1)). A key the line's kind does not take is an error. Data files are
plain CSV with a header row; categorical cells hold 0-based level codes,
and blank lines are ignored.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import struct
from pathlib import Path

import numpy as np

from .schema import (CONTINUOUS, IDENTITY, LOG_SHIFT, NOMINAL, ORDINAL, Dataset, SchemaError,
                     TransformSpec, VariableSpec)

#: The similarity file layout, and the version of the matrix it holds: the CLI
#: reuses a stored matrix whose digest matches, so any change to the bits
#: ``postproc.similarity`` returns must bump this tag as well.
_SIMILARITY_MAGIC = b"PDCSIM2\x00"
_DIGEST_SIZE = 32


class DataFormatError(ValueError):
    """Malformed schema or data file."""


#: The option keys each kind of schema line takes.
_SCHEMA_KEYS = {CONTINUOUS: ("transform", "shift_quantile"), ORDINAL: ("levels",),
                NOMINAL: ("levels",), "weight": (), "skip": ()}


def _parse_options(tokens, where, kind):
    opts = {}
    for tok in tokens:
        if "=" not in tok:
            raise DataFormatError(f"{where}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in _SCHEMA_KEYS[kind]:
            raise DataFormatError(f"{where}: {kind} lines take no {key}= option")
        if key in opts:
            raise DataFormatError(f"{where}: {key}= given more than once")
        opts[key] = val
    return opts


def _levels_from(value, where):
    parts = value.split(",")
    if len(parts) == 1 and parts[0].isdigit():
        return tuple(str(i) for i in range(int(parts[0])))
    if len(parts) < 2:
        raise DataFormatError(f"{where}: levels need a count or >= 2 labels")
    return tuple(parts)


def read_schema_file(path) -> tuple[list[VariableSpec], str | None, list[str]]:
    """Parse a schema file.

    Returns (variable specs in file order, weight column name or None,
    skipped column names).
    """
    specs: list[VariableSpec] = []
    weight_column = None
    skipped: list[str] = []
    declared: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise DataFormatError(f"{path}:{lineno}: expected '<column> <kind> ...'")
        name, kind, *rest = tokens
        where = f"{path}:{lineno}"
        if kind not in _SCHEMA_KEYS:
            raise DataFormatError(f"{where}: unknown kind {kind!r}")
        if name in declared:
            raise DataFormatError(f"{where}: column {name!r} is already declared "
                                  f"on line {declared[name]}")
        declared[name] = lineno
        opts = _parse_options(rest, where, kind)
        if kind == "weight":
            if weight_column is not None:
                raise DataFormatError(f"{where}: duplicate weight column")
            weight_column = name
        elif kind == "skip":
            skipped.append(name)
        elif kind == CONTINUOUS:
            try:  # TransformSpec checks the transform's name and shift quantile
                transform = TransformSpec(opts.get("transform", IDENTITY),
                                          float(opts.get("shift_quantile", 0.01)))
            except ValueError as err:
                raise DataFormatError(f"{where}: {err}") from None
            specs.append(VariableSpec(name, CONTINUOUS, (), transform))
        else:
            if "levels" not in opts:
                raise DataFormatError(f"{where}: {kind} variables need levels=")
            try:  # VariableSpec checks the level count and that labels are distinct
                specs.append(VariableSpec(name, kind, _levels_from(opts["levels"], where)))
            except SchemaError as err:
                raise DataFormatError(f"{where}: {err}") from None
    if not specs:
        raise DataFormatError(f"{path}: no variables declared")
    return specs, weight_column, skipped


def write_schema_file(path, specs, weight_column: str | None = None):
    lines = ["# column kind [options]"]
    for v in specs:
        if v.kind == CONTINUOUS:
            opts = ""
            if v.transform.kind == LOG_SHIFT:
                opts = f" transform=log-shift shift_quantile={v.transform.shift_quantile}"
            lines.append(f"{v.name} continuous{opts}")
        else:
            lines.append(f"{v.name} {v.kind} levels={','.join(v.levels)}")
    if weight_column is not None:
        lines.append(f"{weight_column} weight")
    Path(path).write_text("\n".join(lines) + "\n")


def read_data_csv(path, specs, weight_column: str | None = None,
                  skipped=()) -> Dataset:
    """Load a CSV into a dataset whose columns follow the spec order.

    The header is read with ``csv``; the columns the schema uses are
    parsed in one ``np.loadtxt`` call, which reads floats exactly as
    ``float()`` does. Blank lines are skipped.
    """
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]))
        body = fh.read()
    if not header:
        raise DataFormatError(f"{path}: empty file")
    if not body.strip():
        raise DataFormatError(f"{path}: no data rows")

    pos = {name: i for i, name in enumerate(header)}
    if len(pos) < len(header):
        twice = next(name for i, name in enumerate(header) if pos[name] != i)
        raise DataFormatError(f"{path}: column {twice!r} appears more than once in the header")
    known = {v.name for v in specs} | set(skipped)
    if weight_column is not None:
        known.add(weight_column)
    unknown = [name for name in header if name not in known]
    if unknown:
        raise DataFormatError(f"{path}: columns not in schema: {', '.join(unknown)}")
    for v in specs:
        if v.name not in pos:
            raise DataFormatError(f"{path}: missing column {v.name!r}")
    if weight_column is not None and weight_column not in pos:
        raise DataFormatError(f"{path}: missing weight column {weight_column!r}")

    names = [v.name for v in specs]
    if weight_column is not None:
        names.append(weight_column)
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", quotechar='"',
                           comments=None, usecols=[pos[name] for name in names],
                           ndmin=2)
    except ValueError as err:
        raise DataFormatError(f"{path}: bad value: {err}") from None
    values = table[:, :len(specs)]
    weights = table[:, -1] if weight_column is not None else np.ones(table.shape[0])
    return Dataset(values=values, weights=weights)


def write_data_csv(path, dataset: Dataset, specs, weight_column: str | None = None):
    header = [v.name for v in specs]
    if weight_column is not None:
        header.append(weight_column)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(x)) for x in dataset.values[i]]
            if weight_column is not None:
                row.append(repr(float(dataset.weights[i])))
            writer.writerow(row)


def _open_output(path):
    """Open ``path`` for a binary rewrite without truncating it first.

    Truncating a non-empty file on open makes ext4 (``auto_da_alloc``)
    start writing it back on close, about 0.1 ms per rewritten output.
    Callers write the new contents and then call ``truncate()`` to cut
    off whatever the old file held beyond them. Neither way makes an
    output durable (nothing here calls ``fsync``): a crash mid-write
    leaves a damaged file either way, and rerunning the verb rewrites it.
    """
    return os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb")


def write_text_output(path, text: str) -> None:
    """Write ``text`` (UTF-8) to ``path``, replacing what it held."""
    with _open_output(path) as fh:
        fh.write(text.encode())
        fh.truncate()


def partitions_digest(partitions) -> bytes:
    """SHA-256 of stored partitions: their shape as two ``<Q``, then their
    labels as C-order ``<i4`` bytes."""
    parts = np.ascontiguousarray(partitions, dtype="<i4")
    digest = hashlib.sha256(struct.pack("<QQ", *parts.shape))
    digest.update(parts)
    return digest.digest()


def write_similarity_binary(path, sim: np.ndarray, digest: bytes):
    """Dense row-major float64 dump preceded by a magic tag, n and the
    :func:`partitions_digest` of the partitions the matrix was computed from.

    The digest is written last, over a zeroed field, so a rewrite that stops
    part way leaves a file that matches no partitions.
    """
    sim = np.ascontiguousarray(sim, dtype="<f8")
    with _open_output(path) as fh:
        fh.write(_SIMILARITY_MAGIC)
        fh.write(struct.pack("<Q", sim.shape[0]))
        fh.write(bytes(_DIGEST_SIZE))
        sim.tofile(fh)
        fh.truncate()
        fh.seek(len(_SIMILARITY_MAGIC) + 8)
        fh.write(digest)


def read_similarity_binary(path, digest: bytes | None = None) -> np.ndarray:
    """Read a file written by :func:`write_similarity_binary`.

    The body must hold exactly the n x n entries its header declares; the
    size is checked against the file before anything is allocated. Given a
    ``digest``, a file written for other partitions is rejected before its
    body is read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_SIMILARITY_MAGIC))
        if magic != _SIMILARITY_MAGIC:
            raise DataFormatError(f"{path}: not a similarity matrix file")
        header = fh.read(8 + _DIGEST_SIZE)
        if len(header) != 8 + _DIGEST_SIZE:
            raise DataFormatError(f"{path}: truncated similarity matrix")
        (n,) = struct.unpack("<Q", header[:8])
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body < 8 * n * n:
            raise DataFormatError(f"{path}: truncated similarity matrix")
        if body > 8 * n * n:
            raise DataFormatError(f"{path}: trailing data after the {n} x {n} "
                                  "similarity matrix")
        if digest is not None and header[8:] != digest:
            raise DataFormatError(f"{path}: similarity matrix of other partitions")
        data = np.fromfile(fh, dtype="<f8", count=n * n)
    if data.size != n * n:  # the file shrank while it was read
        raise DataFormatError(f"{path}: truncated similarity matrix")
    return data.reshape(n, n)
