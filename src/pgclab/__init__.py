"""Desk-scale lab for cloning printed binary codes.

Generate random module grids, push their renders through a simulated
print-scan channel, train dense networks to recover the original bits
from the scans, and measure how well a correlation/Hamming defender
still tells re-printed fakes from authentic prints.
"""

__version__ = "0.1.0"
