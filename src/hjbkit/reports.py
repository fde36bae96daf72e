"""What the CLI artifacts hold: one ``as_dict`` for every report dataclass,
and the one writer and reader of CSV text, ``write_csv`` and ``read_csv``
(``np.loadtxt`` parses the cells).
A field kept out of them (a wall-clock time) is named in the class's ``_omit``."""

import contextlib
import warnings
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


def write_csv(path, comments, columns, lines):
    """``# comment`` lines, the header and ``lines``, the rows as text: each
    item one or more whole ``\n``-ended rows.  A cell holds its number's
    ``repr``, which ``float`` reads back bit for bit, and the writer renders
    it: a field's rows come one layer at a time (``pde._csv_rows``), so no
    whole table is held as text."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


def _path(source):
    """The path a CSV source names: itself, or an open file's ``name``."""
    return getattr(source, "name", source) if hasattr(source, "read") else source


def read_csv(source):
    """The header and ``(rows, columns)`` float array of a ``write_csv`` file:
    ``source`` is its path or the file open as text.

    The header is the first line that is neither blank nor ``#``.  The rest
    goes to ``np.loadtxt``, which skips empty lines, drops text after a
    ``#`` and, being correctly rounded, reads every ``repr`` back bit for
    bit.  No header, a row of another length or a cell that is not a number
    raises ``ParameterError`` naming the path (an open file's ``name``); no
    rows give a ``(0, columns)`` array."""
    with (contextlib.nullcontext(source) if hasattr(source, "read")
          else open(source)) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            header = next(ln for ln in map(str.strip, fh) if ln and ln[0] != "#")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            return header.split(","), rows.reshape(len(rows), header.count(",") + 1)
        except (StopIteration, ValueError) as err:
            why = str(err) or "no header line"
            raise ParameterError(f"malformed CSV {_path(source)}: {why}") from None
