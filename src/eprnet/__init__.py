"""Single-source entanglement distribution over fiber: routing,
fair spectrum allocation, and source-placement experiments.

A public name is declared once, in its own module's ``__all__``; the
package exports the union of those lists.
"""

from . import allocation, harness, metrics, netgraph, routing, spectrum
from .allocation import *
from .harness import *
from .metrics import *
from .netgraph import *
from .routing import *
from .spectrum import *

__version__ = "0.1.0"

__all__ = [name for module in (allocation, harness, metrics, netgraph, routing, spectrum)
           for name in module.__all__]
