"""symlab: exact classification of differential operator symbols.

The package decides, with machine-checkable certificates, whether the
symbol of a constant-coefficient homogeneous differential operator is
elliptic, whether the images A(xi)[V] have trivial common intersection,
and whether the kernels of a constraint symbol have trivial common
intersection.  It also constructs annihilating symbols and runs
floating-point experiments that probe the limiting Sobolev-type
inequalities those properties govern.
"""

__version__ = "0.1.0"
