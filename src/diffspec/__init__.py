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
