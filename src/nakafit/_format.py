"""The one formatter of the values `nakafit` prints and writes.

`cli` and `montecarlo` both import this small module, so `nakafit estimate`
formats its estimates without loading the Monte Carlo harness.
"""

from enum import Enum


def _cell(value):
    """`value` as `nakafit` prints it: text as it is, an Enum member as its
    value, a number in %.12g. Every float that `estimate`, `bench`, `bounds`
    and `segment` print or write goes through this one module attribute, so
    a test can swap it for `float.hex` to see every bit (tools/cli_outputs.py
    does so to write each case's `exact/` tree)."""
    if isinstance(value, str):
        return value
    return value.value if isinstance(value, Enum) else format(value, ".12g")


def _write_table(sink, header, rows):
    """Write the CSV line `header`, then one line per row of `rows`: text
    as it is, an Enum member as its value, a number in %.12g."""
    sink.write(header + "\n")
    for row in rows:
        sink.write(",".join(map(_cell, row)) + "\n")
