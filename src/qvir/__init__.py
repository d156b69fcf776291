"""Exact verification engine for the q-deformed Virasoro algebra obtained by
Hamiltonian (Dirac) reduction of the quantum affine sl(2) current algebra.

Everything is computed in exact arithmetic over Q(i)(s)[t] with
s^2 = q and t^2 = 2; no floating point appears anywhere.
"""

__version__ = "0.1.0"
