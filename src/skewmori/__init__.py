"""Exact-arithmetic birational geometry of the moduli spaces A(n) of
complete skew-forms: divisor/curve cones, Cox generator degrees, chamber
and stable-base-locus decompositions, and the Pfaffian calculus behind them.
"""

__version__ = "0.1.0"
