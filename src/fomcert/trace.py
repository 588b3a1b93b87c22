"""Per-iteration run traces, serializable to CSV and a JSON summary."""

import csv
import json
from dataclasses import dataclass, fields
from typing import Optional


@dataclass
class TraceRow:
    """One row of trace.csv: its fields, in order, are the file's columns,
    and a None (bound or cggap only) is a blank cell."""

    k: int
    t: float
    theta: float
    primal: float
    dual_surrogate: float
    gap: float
    delta: float
    thm1_residual: float
    thm2_residual: float
    bound: Optional[float] = None
    cggap: Optional[float] = None


CSV_HEADER = [f.name for f in fields(TraceRow)]


class Trace:
    def __init__(self, instance_name, method_name, reference_value=None):
        self.instance_name = instance_name
        self.method_name = method_name
        self.reference_value = reference_value
        self.rows = []
        self.violations = []
        self.wall_time_ms = 0.0

    def append(self, row):
        self.rows.append(row)

    def violation(self, message):
        self.violations.append(message)

    @property
    def final(self):
        return self.rows[-1]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            for r in self.rows:
                w.writerow(["" if v is None else repr(v)
                            for v in vars(r).values()])

    def summary(self):
        """The summary.json object.  A trace with no rows (a run that was
        aborted) has the instance, method and violations keys only."""
        out = {"instance": self.instance_name, "method": self.method_name}
        if self.rows:
            out.update(iterations=len(self.rows), final_primal=self.final.primal,
                       final_gap=self.final.gap, wall_time_ms=self.wall_time_ms)
        out["violations"] = list(self.violations)
        if self.reference_value is not None:
            out["reference_value"] = self.reference_value
        return out

    def write_summary(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")


def _cell(name, text):
    # Only bound and cggap may be blank; k is an int, the rest floats.
    if not text:
        if name in ("bound", "cggap"):
            return None
        raise ValueError("blank %s cell in a trace row" % name)
    return int(text) if name == "k" else float(text)


def read_csv(path):
    """Read a trace CSV back into TraceRow objects.  Raises ValueError for a
    header other than CSV_HEADER, or for a cell that is not a number, blank
    cells in bound and cggap aside."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames != CSV_HEADER:
            raise ValueError("unexpected trace header: %s" % (reader.fieldnames,))
        return [TraceRow(**{name: _cell(name, rec[name]) for name in CSV_HEADER})
                for rec in reader]
