"""One ``as_dict`` for every report dataclass: what the CLI artifacts hold.
A field kept out of them (a wall-clock time) is named in the class's ``_omit``."""

from dataclasses import fields

import numpy as np


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
