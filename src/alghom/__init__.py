"""Simplicial, cyclic and bar homology of finite-dimensional
associative algebras over the rationals, with excision diagnostics for
algebra extensions."""

from .algebra import (
    Algebra, AlgebraHom, Extension, preset, quotient_extension,
    unit_witness, validate_algebra, validate_extension,
)
from .complexes import (
    ChainComplex, ChainMap, cohomology_dims, homology_at, homology_dims,
)
from .excision import (
    amenable_scenario_check, check_bar_invariance,
    check_hlgy_cohlgy_equivalence, excision_report,
)
from .hochschild import (
    bar_complex, cyclic_complex, hochschild_complex, trace_space,
)
from .linalg import Matrix, Q

__version__ = "0.1.0"
