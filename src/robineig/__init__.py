"""Principal eigenvalue of the 1-D Laplacian with a two-level indefinite
weight under inhomogeneous Robin boundary conditions: three-piece
shooting solver, closed-form characteristic cross-checks, minimiser
classification, and a batch-verification harness.

The package re-exports nothing: import the submodules, for example
``robineig.eigensolver`` and ``robineig.characteristic``."""

__version__ = "0.1.0"
