"""Frequency-domain simulator of microwave photon generation from vacuum by a
voltage-driven piezoelectric film resonator terminating a superconducting cavity.

Modules
-------
piezo     film resonator: material, geometry and drive types, motional amplitude, capacitance modulation
scatter   single-mirror scattering: time-varying capacitance, source spectrum, bare coefficients
cavity    cavity dressing: reflection, mode response, resonances
brent     numpy-only ports of SciPy's Brent root finder and bounded minimizer
flux      output photon spectral density and its decompositions
squeeze   parametric (squeezing-Hamiltonian) picture with a truncated number-basis evolution
scenario  parameter presets, JSON scenario loading and validation
cli       command-line front end producing deterministic CSV tables
"""

import os

# One OpenBLAS thread, set before anything imports numpy; a value the user set
# is kept. The only BLAS call, the squeeze matvec (120 x 240 at --dim 240),
# saves little wall time on a second thread, which spins and doubles the CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
