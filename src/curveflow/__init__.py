"""Numerical laboratory for curve shortening flow and the binormal flow.

Planar curves move by their curvature vector, space curves by the
binormal velocity; the package generates every self-similar solution
family of both flows and checks the evolutions against them.

Each name is imported from the module that defines it: the package
re-exports nothing, so importing a module loads only what it imports.
"""

# every module imports scipy inside the functions that call it, so importing
# the package or its CLI loads no scipy subpackage and a command loads only
# what it calls (tests/test_cli.py checks this in a fresh interpreter)

__version__ = "0.1.0"
