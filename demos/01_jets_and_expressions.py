"""Taylor jets and the expression grammar.

A jet carries the Taylor coefficients f^(k)(z0)/k! of an analytic
function at a point.  An expression compiles to a tape of jet
recurrences, which propagate derivatives exactly (to rounding): that is
how every operator in the package differentiates without symbolic
algebra or finite differences.
"""

import numpy as np

from harmschwarz import ExprFunction, eval_jet, parse, to_text

# -- jets from text -----------------------------------------------------------

# eval_jet runs through order 4 unless told otherwise
print("geometric series 1/(1-z):", eval_jet(parse("1/(1-z)"), 0.0).coeffs.real)
print("Koebe map z/(1-z)^2:     ", eval_jet(parse("z/(1-z)^2"), 0.0).coeffs.real)
print("log(1-z) (Mercator):     ", eval_jet(parse("log(1-z)"), 0.0).coeffs.real)

# derivatives come out by coefficient shift: (k+1) c_{k+1}
k = ExprFunction("z/(1-z)^2")
k_jet = k.jet(0.0, 4)
print("k'(0), k''(0), k'''(0):  ",
      [complex(k_jet.derivative_value(i)) for i in (1, 2, 3)])

# -- the expression grammar ---------------------------------------------------

# the grammar knows +,-,*,/,^, log, exp, sqrt, d (the derivative), the
# variable z and the imaginary literal i
print("\nparsed and printed back: ", to_text(parse("z/(1-z)^2")))
print("jet of k at 0.25:        ", np.round(k.jet(0.25, 3).coeffs, 6))

# jets evaluate at arrays of points at once; this is what the norm
# searches use to sweep thousands of grid points in a handful of calls
pts = np.array([0.1, 0.2 + 0.3j, -0.4j])
print("k at three points:       ", np.round(k.jet(pts, 0).value, 6))

# strict branch handling: sqrt/log at a zero constant term is an error,
# not a silent branch choice
try:
    ExprFunction("log(z)").jet(0.0, 2)
except Exception as exc:
    print("\nlog(z) at 0 raises:      ", type(exc).__name__, "-", exc)
