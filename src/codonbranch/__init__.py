"""Branching schemes for 64-dimensional typical representations of basic
classical Lie superalgebras, and the search for breaking patterns matching
the degeneracy of the standard genetic code.

The package re-exports nothing, so that importing it loads no layer and
importing a layer loads only the layers that its import needs: import from
the layer modules (``lie_core``, ``super_branch``, ``embed_chains``,
``phase2``, ``search``, ``tables``, ``young_forms``).  ``embed_chains``
loads ``lie_core`` alone and imports ``super_branch`` when a chain starts."""

__version__ = "0.1.0"


class InputError(Exception):
    """Bad input from a caller: a name, label, chain, plan, target or shape
    that the library rejects.  Each layer's input errors subclass it beside
    their builtin base (``ValueError``, or ``KeyError`` for unknown names);
    a failure of the program itself, such as
    ``lie_core.NotACharacterError``, does not."""
