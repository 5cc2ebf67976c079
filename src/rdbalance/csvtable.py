"""The CSV table format of diag.csv and snapshots.  At import this module
needs no numpy (``read_table`` imports it when called) and nothing of its
own package, so ``write_table``'s file also runs as a writer process,

    python -I -S csvtable.py

which writes each table that ``TableWriter.send`` pickles to its stdin, in
order, and exits at the end of its input.  An OSError ends it early with
the error's message on stderr (status 1); ``TableWriter.close`` raises that
message again in the sending process.
"""

from __future__ import annotations

import csv
import itertools
import os
import pickle
import sys

_ROWS_PER_WRITE = 1024  # bounds the transient strings of a table write
# one 2^16-value job: 512 KiB of doubles and its pickle framing, in a pipe
# sized in powers of two pages
_PIPE_BYTES = 2 ** 20
_PIPE_CAP = "/proc/sys/fs/pipe-max-size"


def write_table(path, header, columns, axes=(), comment=None, start=0) -> None:
    """CSV table: an optional "# comment" line, then csv.writer's bytes
    ("%.17g" numbers, CRLF line ends) for the header and one row per record,
    formatted a block of rows at a time.  ``columns`` hold the values, one
    float sequence per column with slicing and ``tolist()`` (1-D numpy
    arrays, memoryviews of doubles).  The row-major product of the ``axes``
    coordinates (sequences with ``tolist()``, each formatted once) starts the
    rows: a snapshot's cell centres.  A ``start`` above 0 writes only the
    rows from ``start`` on, without the comment and header, so the table of
    ``columns`` cut to their first k rows and the rows from k on join into
    the whole table's bytes."""
    coords = [["%.17g," % x for x in axis.tolist()] for axis in axes]
    prefixes = ([map("".join, itertools.islice(itertools.product(*coords), start, None))]
                if coords else [])
    row = "%s" * len(prefixes) + ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        if start == 0:
            if comment is not None:
                fh.write(f"# {comment}\n")
            csv.writer(fh).writerow(header)
        for lo in range(start, len(columns[0]), _ROWS_PER_WRITE):
            block = [column[lo:lo + _ROWS_PER_WRITE].tolist() for column in columns]
            n = len(block[0])
            lead = [itertools.islice(p, n) for p in prefixes]
            fh.write(row * n % tuple(itertools.chain.from_iterable(zip(*lead, *block))))


def read_table(path, kind: str):
    """Header and (rows, columns) float64 values of a table; blank and "#"
    lines are skipped.  ``kind`` names the file in errors."""
    import numpy as np  # deferred: the writer process starts without numpy

    with open(path) as fh:
        lines = [line for line in fh
                 if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"empty {kind} file {path}")
    header, data = next(csv.reader(lines[:1])), lines[1:]
    if not data:  # np.loadtxt warns on empty input
        return header, np.zeros((0, len(header)))
    try:
        values = np.loadtxt(data, delimiter=",", ndmin=2)
    except ValueError as exc:  # rows of unequal length, or a non-number
        raise ValueError(f"ragged or malformed {kind} rows in {path}: {exc}") from None
    if values.shape[1] != len(header):
        raise ValueError(f"ragged {kind} rows in {path}")
    return header, values


class TableWriter:
    """A writer process started from this file: ``send`` hands it one table
    and returns while the process formats it; ``close`` waits until every
    table sent is written and raises a failure as an OSError that names its
    file.  As a context manager it always reaps the process; an exception
    in the block wins over the writer's own."""

    def __init__(self):
        import subprocess  # deferred: only runs that hand tables off need it

        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _enlarge_pipe(self._proc.stdin.fileno())

    def send(self, path, header, columns, axes=(), comment=None) -> None:
        """``write_table``'s arguments, with float64 ``columns`` and ``axes``."""
        job = (os.fspath(path), list(header), [memoryview(c).tobytes() for c in columns],
               [memoryview(a).tobytes() for a in axes], comment)
        try:
            pickle.dump(job, self._proc.stdin, pickle.HIGHEST_PROTOCOL)
            self._proc.stdin.flush()
        except BrokenPipeError:  # the process ended early: raise its own error
            self.close()
            raise

    def close(self) -> None:
        _, err = self._proc.communicate()  # EOF on its stdin ends it; a repeat is a no-op
        if self._proc.returncode:
            lines = err.decode(errors="replace").strip().splitlines()
            raise OSError(lines[-1] if lines else
                          f"table writer exited with status {self._proc.returncode}")

    def __enter__(self) -> "TableWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._proc.communicate()


def _enlarge_pipe(fd) -> None:
    """Best effort: grow the pipe on ``fd`` to hold ``_PIPE_BYTES``, so the
    first send returns while the writer process is still starting; within
    Linux's cap for unprivileged pipes, ``_PIPE_CAP``, which this never
    raises.  Where the call or the cap is missing, or the call is refused,
    the pipe keeps its size and the first send waits for the process."""
    try:
        import fcntl

        with open(_PIPE_CAP) as fh:
            size = min(_PIPE_BYTES, int(fh.read()))
        if size > fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ):
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, size)
    except (ImportError, AttributeError, OSError):
        pass


def _serve(jobs) -> None:
    """Write each table pickled on ``jobs`` until the end of its input."""
    while True:
        try:
            path, header, columns, axes, comment = pickle.load(jobs)
        except EOFError:
            return
        write_table(path, header, [memoryview(c).cast("d") for c in columns],
                    [memoryview(a).cast("d") for a in axes], comment)


if __name__ == "__main__":
    try:
        _serve(sys.stdin.buffer)
    except OSError as exc:
        sys.exit(str(exc))
    os._exit(0)  # every file is closed: skip the interpreter's teardown
