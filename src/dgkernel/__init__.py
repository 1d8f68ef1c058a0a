"""Exact-arithmetic kernel for local graded dg-algebra models: acyclic
closures, minimal models with arbitrary switching degree, deviations,
Betti numbers, Poincare series, and mechanical verification of the
structural statements relating them."""

from .fields import QQ, GF, parse_field
from .graded_base import BaseVariable, BasePresentation, TruncatedBase
from .dg_core import (DgAlgebra, DgElement, DgVariable, Monomial,
                      EXTERIOR, POLYNOMIAL, DIVIDED_POWER)
from .model_builder import (Model, build_model, residue_field_model,
                            acyclic_closure, minimal_model, model_over_cover,
                            koszul_complex, koszul_on_maximal_ideal, INFINITY)
from .errors import (BoundExceededError, HomogeneityError, ParityError,
                     NotCycleError, AdmissibilityError, CertificationError)

__version__ = "0.1.0"
