"""Differential spectra of power functions over binary extension fields.

Three routes to the same numbers, kept deliberately independent so they
can check each other:

* :mod:`diffspec.powerfn` sweeps (x+1)^d + x^d over the whole field and
  histograms the hit counts (the brute-force oracle, for any exponent);
* :mod:`diffspec.theorem` counts solutions per output value b with a few
  field operations, for the exponent family d = 2^(3n) + 2^(2n) + 2^n - 1
  over GF(2^(4n)) (``case_trace`` for one b, ``structured_counts`` for
  every b), and also emits the spectrum in closed form;
* :func:`diffspec.theorem.verify_conjecture` runs all of the above and
  reports any disagreement.

:mod:`diffspec.gf2m` supplies the field arithmetic, and
:mod:`diffspec.cli` exposes everything as the ``diffspec`` command.
"""

from .errors import GuardExceededError, TheoremViolationError
from .gf2m import GF2m, smallest_irreducible
from .powerfn import (
    PowerFunction,
    Spectrum,
    delta,
    derivative_table,
    solution_set,
    spectrum_brute,
)
from .theorem import (
    CaseTrace,
    CirclePairState,
    CircleWitness,
    TheoremParams,
    VerificationReport,
    case_trace,
    solutions_for_one,
    solutions_off_subfield,
    solutions_on_circle,
    spectrum_closed_form,
    structured_counts,
    unit_circle,
    verify_conjecture,
)

__version__ = "0.1.0"

__all__ = [
    "GF2m",
    "smallest_irreducible",
    "PowerFunction",
    "Spectrum",
    "delta",
    "derivative_table",
    "solution_set",
    "spectrum_brute",
    "TheoremParams",
    "CaseTrace",
    "CirclePairState",
    "CircleWitness",
    "VerificationReport",
    "case_trace",
    "solutions_for_one",
    "solutions_off_subfield",
    "solutions_on_circle",
    "spectrum_closed_form",
    "structured_counts",
    "unit_circle",
    "verify_conjecture",
    "GuardExceededError",
    "TheoremViolationError",
]
