"""Milnor and Tyurina numbers of isolated hypersurface singularities.

A polynomial f in the nilpotent variables with a critical point at the
origin is analysed through the truncations Q[t_1..t_m]/(J_f + m^N) of its
Jacobian ideal J_f. The truncation bound N is raised until some degree
d < N has every degree-d monomial inside the ideal's row space; that
certifies m^d <= J_f, so this truncation M is the local Milnor algebra and
mu = dim M. The Tyurina algebra is M/fM, so tau = mu - rank(f*M): the
rank of the products f*b over the basis b of M, in that same M.

The cross-check mu - tau = dim H^{m-1}(R', I') with R' = Q[t]/(f, m^N) ties
the two counts to the de Rham machinery. singularity_report reports h_dim
beside mu and tau and leaves the verdict to its caller: `nilbloch singular`
passes iff h_dim == mu - tau, and exits 1 (a verification failure) otherwise.
"""

from .algebra import Algebra, AlgElem, Record, monomials_of_degree, poly_terms
from .linalg import independent
from . import derham as dr


def _check_critical(terms):
    if not terms:
        raise ValueError("origin not critical")
    widths = {len(k) for k in terms}
    if len(widths) != 1:
        raise ValueError("inconsistent exponent tuples")
    for texp in terms:
        if sum(texp) <= 1:
            raise ValueError("origin not critical")
    return widths.pop()


def jacobian(f):
    """The nonzero partial derivatives of f, in variable order, as {texp: Fraction}."""
    terms = poly_terms(f)
    m = len(next(iter(terms), ()))
    # texp -> texp - e_i is injective on the texp with texp[i] > 0: no merging
    outs = ({texp[:i] + (texp[i] - 1,) + texp[i + 1:]: c * texp[i]
             for texp, c in terms.items() if texp[i]} for i in range(m))
    return [g for g in outs if g]


def _milnor_algebra(terms, m, n_max):
    """(M, d): M = Q[t]/(J_f + m^N) at the first N (from max(deg f + 2, 4)) where some
    d < N has every degree-d monomial in J_f + m^N. Then m^d <= J_f + m * m^d, so m^d
    <= J_f by Nakayama, and M is the local Milnor algebra Q[[t]]/J_f."""
    deg = max(sum(k) for k in terms)
    gens = jacobian(terms)
    for N in range(max(deg + 2, 4), n_max + 1):
        M = Algebra(m, N, ideal=gens)
        for d in range(1, N):
            if not any(M.normal_form({((), e): 1}) for e in monomials_of_degree(m, d)):
                return M, d
    raise ValueError("isolated singularity not detected up to N_max")


def milnor_number(f, n_max=24):
    """Dimension of Q[[t]]/(Jacobian ideal), with the certifying truncation N and degree d."""
    terms = poly_terms(f)
    M, d = _milnor_algebra(terms, _check_critical(terms), n_max)
    return len(M.nil_basis), M.N, d


def _tau(M, terms):
    """dim M/fM = mu - rank{f * b : b in the basis of the Milnor algebra M}."""
    f = M.element({((), e): c for e, c in terms.items()}).terms
    return len(M.nil_basis) - len(independent(M.mul_terms(f, {((), b): 1}) for b in M.nil_basis))


def tyurina_number(f, n_max=24):
    """dim Q[[t]]/(f + Jacobian ideal) = dim M/fM, with the Milnor truncation N of M."""
    terms = poly_terms(f)
    M, _ = _milnor_algebra(terms, _check_critical(terms), n_max)
    return _tau(M, terms), M.N


class SingularityReport(Record):
    _fields = ("f", "m", "mu", "tau", "h_dim", "N_used", "stabilization_degree")

    def to_json(self):
        return dict(super().to_json(), gap=self.mu - self.tau)


def hypersurface_h_dim(f, N):
    """dim H^{m-1}(R', I') for R' = Q[t]/(f, m^N), from solved ranks: counted ones
    would give 0 for a quasi-homogeneous f, where mu = tau is the theorem checked."""
    terms = poly_terms(f)
    m = _check_critical(terms)
    pres = dr.relative(Algebra(m, N, ideal=[terms]), dr.FULL)
    return pres.dim(m - 1) - pres.solved_rank(m) - pres.solved_rank(m - 1)


def singularity_report(f, n_max=24):
    """mu, tau and h from one Milnor algebra M, which also prints f; then R' for h."""
    terms = poly_terms(f)
    m = _check_critical(terms)
    M, d_stab = _milnor_algebra(terms, m, n_max)
    text = M.elem_str(AlgElem(M, {((), e): c for e, c in terms.items()}))
    return SingularityReport(text, m, len(M.nil_basis), _tau(M, terms),
                             hypersurface_h_dim(terms, M.N), M.N, d_stab)
