"""Fixed reference work, timed as a whole process to gauge machine speed.

A fresh interpreter does a fixed amount of complex arithmetic in pure
Python, the kind of work the library spends its time in, and imports
nothing from the program or its dependencies, so no change to the program
can change its duration. The benchmark runs it between its measured
processes; see run.py.
"""

import cmath

acc = 0j
for k in range(250_000):
    w = complex(k % 97, k % 89) * 1e-2
    acc += cmath.exp(1j * w) / (w + 1j)
