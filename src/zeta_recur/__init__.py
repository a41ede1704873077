"""Exact even-integer zeta values from a contour recursion, with numerical
verification of every integral identity the derivation rests on.

Import each name from the module that owns it (``zeta_recur.exact``,
``zeta_recur.identities``, ...): the package itself imports none of them, so
``zeta_recur.cli`` loads only the exact core until a check runs.

See docs/derivation.md for the identity chain and README.md for usage.
"""

__version__ = "0.1.0"
