"""One serializer for the reports that reach ``summary.json``.

A report's summary holds every dataclass field not marked ``HIDDEN`` and
every property, so a field added to a report reaches the summary with no
second list to keep in step.  Fields holding solutions are ``HIDDEN``; the
CLI writes those as CSV files.
"""

from __future__ import annotations

import dataclasses

HIDDEN = {"summary": False}  # field metadata: ``field(metadata=HIDDEN)``


def _plain(value):
    if isinstance(value, Report):
        return value.summary()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Report:
    def summary(self) -> dict:
        # not dataclasses.asdict: it deep-copies every field, meshes
        # included, before a hidden one could be dropped
        out = {
            f.name: _plain(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.metadata.get("summary", True)
        }
        for name in dir(type(self)):
            if isinstance(getattr(type(self), name), property):
                out[name] = _plain(getattr(self, name))
        return out
