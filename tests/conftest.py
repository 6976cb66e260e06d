"""Helpers shared by the test modules."""

from fockcheck.modeops import COLUMNS


def reset_columns() -> None:
    """Empty the column store and its registry of tables.

    ``COLUMNS.clear()`` alone keeps each registered table with the operator
    that first asked for it, so an operator built while a constructor was
    patched (an L^1 operator holding the ``h`` tables of a shifted
    ``h_mode``) would still compute every column of its key afterwards."""
    COLUMNS.clear()
    COLUMNS.tables.clear()
