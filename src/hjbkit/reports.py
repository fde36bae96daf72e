"""What the CLI artifacts hold: one ``as_dict`` for every report dataclass,
and the one writer and reader of CSV text, ``write_csv`` and ``read_csv``.
A field kept out of them (a wall-clock time) is named in the class's ``_omit``."""

from dataclasses import fields

import numpy as np

from .errors import ParameterError


def _plain(value):
    """``value`` with the numpy scalars and arrays in it as Python ones."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


class Report:
    """Base of the reports: ``float``, ``int`` and ``bool`` fields are cast."""

    _omit = ()

    def as_dict(self):
        out = {}
        for f in fields(self):
            if f.name not in self._omit:
                value = getattr(self, f.name)
                cast = f.type in (float, int, bool) and value is not None
                out[f.name] = f.type(value) if cast else _plain(value)
        return out


def write_csv(path, comments, columns, rows):
    """``# comment`` lines, the header and rows of Python numbers, each
    written as its ``repr``, which ``float`` reads back bit for bit."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def read_csv(path):
    """The header and ``(rows, columns)`` float array of a ``write_csv`` file,
    ``#`` and blank lines skipped.  No header, a row of another length or a
    cell that is not a number raises ``ParameterError`` naming ``path``."""
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and ln[0] != "#"]
    if not lines:
        raise ParameterError(f"malformed CSV {path}: no header line")
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        return lines[0].split(","), rows.reshape(len(rows), lines[0].count(",") + 1)
    except ValueError as err:
        raise ParameterError(f"malformed CSV {path}: {err}") from None
