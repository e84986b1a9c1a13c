"""Exact computational algebra for framed Hecke algebras (Yokonuma-Hecke
type), their Temperley-Lieb-style quotients, explicit irreducible
representations, and constructive matrix-algebra isomorphisms.

Modules:
    scalars       exact cyclotomic numbers and rational functions in q, one
                  type that holds the Laurent polynomials too
    permutations  symmetric group, compositions, coset representatives
    tableaux      partitions, standard d-tableaux, dimension formulas
    yokonuma      the algebra Y_{d,n}(q) in the standard basis
    linalg        dense matrix product over any ring
    reps          seminormal irreducible representations, ideal membership
    isomaps       block isomorphisms, Jones-basis reduction, quotient bases
    exprparse     expression evaluator for the CLI
    verify        machine-verification suites
    cli           command-line interface

The slow reference oracles the tests check these against live in
tests/oracles.py, outside the package.
"""

__version__ = "1.1.0"
