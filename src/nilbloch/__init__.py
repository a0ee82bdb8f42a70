"""Exact computer algebra for truncated nilpotent algebras over Q.

The package computes relative de Rham cohomology of rings
S[t_1..t_m]/J with J nilpotent, evaluates the Bloch map from Milnor
K-symbols to form classes, and verifies the identities tying the two
together: the Euler homotopy, cohomology vanishing, the key filtration
identity, Steinberg well-definedness, the Milnor/Tyurina gap, the
substitution isomorphism, and class-level dimension additivity.
"""

from .algebra import Algebra, AlgElem, ParamSpec, RingMap, power_algebra
from .forms import (Form, d, d_elem, dlog, euler_homotopy, form_str,
                    graded_component, push_form, wedge)
from .derham import (EXPLICIT, FULL, POWER, check_certificate, cohomology,
                     is_exact, quotient_class, relative, relative_basis,
                     sigma_report, verify_forms_sequence)
from .ksymbols import (BlochClass, SymbolSum, bloch, dlog_symbol, lambda_map,
                       map_symbol, phi_p, steinberg_element,
                       surjectivity_witnesses, symbol, theta_maps,
                       verify_filtration_vanishing, verify_key_identity,
                       verify_skew)
from .singularities import (SingularityReport, jacobian, milnor_number,
                            singularity_report, tyurina_number)
from .parser import (algebra_from_json, algebra_to_json, parse_element,
                     parse_expr, parse_form, parse_symbol_sum,
                     polynomial_terms)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
