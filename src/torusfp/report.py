"""How a report or a table becomes an artifact.

A report is a dataclass that inherits :class:`Report`.  Its JSON form holds
its fields in declaration order (arrays as lists, nested dataclasses
expanded), followed by every property the class defines: its verdicts.  A
field whose metadata sets ``artifact`` false (run health) is left out.
Every CSV artifact is written by :func:`csv_text`, except the sample
batch, whose faster writer yields the same bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import numpy as np


class Report:
    """Mixin for report dataclasses: serialized as fields, then verdicts."""

    def as_dict(self) -> dict:
        doc = {}
        for f in dataclasses.fields(self):
            if not f.metadata.get("artifact", True):
                continue
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            doc[f.name] = value
        for name, attr in vars(type(self)).items():
            if isinstance(attr, property):
                doc[name] = getattr(self, name)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def csv_text(header, rows) -> str:
    """A header row and data rows as CSV text with ``\\n`` line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
