"""The paper's five-region table for theta, kept as the tests' independent oracle.

The paper states theta branch by branch.  Each row of REGIONS is one branch:
its name, the closed region of Q = [0, 1]^4 where it holds, and its value
there.  The regions must cover Q, and every region that holds at a point
must give theta there.  Predicates and values take floats or numpy arrays
alike.
"""

REGIONS = (
    ("half", lambda a, b, g, d: (a <= 0.5) & (b <= 0.5) & (g >= 0.5) & (d >= 0.5),
     lambda a, b, g, d: 0.5),
    ("alpha", lambda a, b, g, d: (a >= 0.5) & (a >= b) & (a + g >= 1.0) & (a + d >= 1.0),
     lambda a, b, g, d: a),
    ("beta", lambda a, b, g, d: (b >= 0.5) & (b >= a) & (b + g >= 1.0) & (b + d >= 1.0),
     lambda a, b, g, d: b),
    ("one_minus_gamma", lambda a, b, g, d: (g <= 0.5) & (g <= d) & (a + g <= 1.0) & (b + g <= 1.0),
     lambda a, b, g, d: 1.0 - g),
    ("one_minus_delta", lambda a, b, g, d: (d <= 0.5) & (d <= g) & (a + d <= 1.0) & (b + d <= 1.0),
     lambda a, b, g, d: 1.0 - d),
)


def matching(a, b, g, d) -> list[str]:
    """The names of the regions that hold at one point, in table order."""
    return [name for name, holds, _ in REGIONS if holds(a, b, g, d)]
