"""The one place pursuitlab writes files (each whole or not at all) and formats traces."""

from __future__ import annotations

import contextlib
import csv
import os

# Every trace's first columns: the state, waypoint index and lateral error
# after the step, and the command applied during it.
TRACE_CORE = ("step", "time", "index", "x", "y", "v", "delta", "v_cmd",
              "lateral_error", "mode")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``path + ".tmp"`` for writing and publish it as ``path`` on success.

    A clean exit replaces ``path`` with the temporary file; an exception
    deletes the temporary file and propagates, leaving ``path`` as it was.
    Text modes are UTF-8 with ``newline=""``, as the csv module expects.
    """
    tmp = str(path) + ".tmp"
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def trace_csv(path, columns):
    """Write a per-step trace to ``path`` through :func:`atomic_open`.

    The header is :data:`TRACE_CORE`, then ``columns``, the owner's own.
    Yields ``row(step, time, index, state, command, lateral_error, mode,
    **owned)``, which writes one row: ``state`` is a ``VehicleState``,
    ``command`` a ``Command``, and ``owned`` the owner's values by column
    name; a column left out, or None, is blank. Floats are written in
    Python's shortest round-trip form, so a value read back is the value
    computed, and bools as 0/1.
    """
    with atomic_open(path) as f:
        writer = csv.DictWriter(f, TRACE_CORE + tuple(columns))
        writer.writeheader()

        def row(step, time, index, state, command, lateral_error, mode, **owned):
            core = (step, time, index, state.x, state.y, state.v, command.delta,
                    command.v_cmd, lateral_error, mode)
            writer.writerow(dict(zip(TRACE_CORE, core), **{
                name: int(value) if isinstance(value, bool) else value
                for name, value in owned.items()}))

        yield row
