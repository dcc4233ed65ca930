"""sfkit: exact combinatorics of marked Heegaard diagrams and suture algebras.

``import sfkit`` loads no submodule.  The layers that need no diagram
(``sfkit.algebra``, ``sfkit.linprog``, ``sfkit.snf``) import on their own,
and the names below resolve from ``sfkit.diagram`` on first use.
"""

__all__ = [
    "HeegaardDiagram",
    "Generator",
    "ComplementComponent",
    "ALPHA",
    "BETA",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        from . import diagram

        return getattr(diagram, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
