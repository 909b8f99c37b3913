"""Exact-arithmetic library for the classical Kerala-school results:
pi series with end corrections, sine/cosine power series and the
24-entry sine table, cyclic-quadrilateral circumradius, and kali-day
chronology.

Each name has one home: import it from its module, e.g.
``from madhava.pi_series import evaluate``."""

__version__ = "0.1.0"
