"""Trace ingestion and emission.

Two text formats are supported:

* backfill poll traces: CSV with header `timestamp_s,nodes,walltime_s`,
  one row per slot observation;
* batch-job traces in Standard Workload Format (SWF): whitespace-separated
  fields, `;` comments; only (submit, nodes, runtime, walltime) are used.
  Requested processor counts are taken as node counts for this machine
  model.

Both directions round-trip: ingest(emit(ingest(path))) returns the same
records.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

from .metrics import PollRecord


class TraceFormatError(Exception):
    pass


@dataclass(frozen=True)
class TraceJob:
    submit: int
    nodes: int
    runtime: int
    walltime: int


def ingest_poll_trace(path) -> list[PollRecord]:
    """Parse a poll trace; records come back sorted by timestamp."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty file, expected header") from None
        if [h.strip() for h in header] != ["timestamp_s", "nodes", "walltime_s"]:
            raise TraceFormatError(
                f"{path}: line 1: expected header 'timestamp_s,nodes,walltime_s', "
                f"got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise TraceFormatError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            try:
                ts, nodes, walltime = (int(field) for field in row)
            except ValueError:
                raise TraceFormatError(
                    f"{path}: line {lineno}: non-integer field in {row}") from None
            if ts < 0 or nodes < 0 or walltime < 0:
                raise TraceFormatError(f"{path}: line {lineno}: negative value in {row}")
            records.append(PollRecord(ts, nodes, walltime))
    if any(records[i].observed_at > records[i + 1].observed_at
           for i in range(len(records) - 1)):
        warnings.warn(f"{path}: timestamps not monotone; records sorted")
        records.sort(key=lambda r: r.observed_at)
    return records


def emit_poll_trace(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp_s", "nodes", "walltime_s"])
        writer.writerows(records)


def trace_summary(records) -> dict:
    n = len(records)
    if n == 0:
        return {"count": 0, "mean_nodes": 0.0, "mean_walltime_s": 0.0}
    return {
        "count": n,
        "mean_nodes": sum(r.nodes for r in records) / n,
        "mean_walltime_s": sum(r.walltime for r in records) / n,
    }


# -- SWF ---------------------------------------------------------------------

# 1-based SWF field positions used here
_F_SUBMIT = 2
_F_RUNTIME = 4
_F_USED_PROCS = 5
_F_REQ_PROCS = 8
_F_REQ_TIME = 9


def ingest_swf(path) -> list[TraceJob]:
    jobs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(";"):
                continue
            fields = line.split()
            if len(fields) < _F_REQ_TIME:
                raise TraceFormatError(
                    f"{path}: line {lineno}: expected at least {_F_REQ_TIME} fields, "
                    f"got {len(fields)}")
            try:
                values = [int(float(f)) for f in fields]
            except ValueError:
                raise TraceFormatError(
                    f"{path}: line {lineno}: non-numeric field") from None
            submit = values[_F_SUBMIT - 1]
            runtime = values[_F_RUNTIME - 1]
            nodes = values[_F_REQ_PROCS - 1]
            if nodes <= 0:
                nodes = values[_F_USED_PROCS - 1]
            walltime = values[_F_REQ_TIME - 1]
            if walltime <= 0:
                walltime = runtime
            if submit < 0 or nodes <= 0 or runtime < 0 or walltime <= 0:
                raise TraceFormatError(
                    f"{path}: line {lineno}: unusable job fields "
                    f"(submit={submit}, nodes={nodes}, runtime={runtime}, "
                    f"walltime={walltime})")
            if runtime > walltime:
                warnings.warn(
                    f"{path}: line {lineno}: runtime {runtime} exceeds walltime "
                    f"{walltime}; clipped")
                runtime = walltime
            jobs.append(TraceJob(submit, nodes, max(1, runtime), walltime))
    return jobs


def emit_swf(path, jobs) -> None:
    """Write jobs as minimal 18-field SWF lines (unused fields are -1)."""
    with open(path, "w") as fh:
        fh.write("; generated by backfillsim\n")
        for i, j in enumerate(jobs, start=1):
            fields = [-1] * 18
            fields[0] = i
            fields[_F_SUBMIT - 1] = j.submit
            fields[3 - 1] = -1  # wait time unknown
            fields[_F_RUNTIME - 1] = j.runtime
            fields[_F_USED_PROCS - 1] = j.nodes
            fields[_F_REQ_PROCS - 1] = j.nodes
            fields[_F_REQ_TIME - 1] = j.walltime
            fh.write(" ".join(str(f) for f in fields) + "\n")
