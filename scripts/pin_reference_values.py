"""Run the dense whole-space solver on every quantity that the test suite
freezes as a regression constant, and print them.

This script is the source of those constants: it is run before the blocked
sparse engine exists, and its outputs are copied into the tests verbatim.
Re-running it later must reproduce the same numbers.
"""

import sys
import time
from fractions import Fraction

sys.path.insert(0, "src")

from nilbloch.dense import (
    DenseModel,
    milnor_number,
    poly_diff,
    quotient_dimension,
    tyurina_number,
)

ONE = Fraction(1)

CURVE = {(4, 0): ONE, (2, 3): ONE, (0, 5): ONE}          # t1^4 + t1^2 t2^3 + t2^5
REIFFEN = {(4, 0): ONE, (1, 4): ONE}                  # t1^4 + t1 t2^4
CUSP_SUM = {(3, 0): ONE, (0, 3): ONE}                 # t1^3 + t2^3
NODE = {(2, 0): ONE, (0, 2): ONE}                     # t1^2 + t2^2


def banner(title):
    print()
    print("##", title)


def singularity(name, f, m):
    mu, n_mu, stab = milnor_number(f, m)
    tau, n_tau = tyurina_number(f, m)
    print(f"{name}: mu={mu} (N_used={n_mu}, stab_degree={stab}), "
          f"tau={tau} (N_used={n_tau})")
    # h_dim from the quotient by (f, m^N) at several truncations
    for N in (n_mu, n_mu + 1):
        model = DenseModel(m, N, [f])
        h = model.cohomology(None, n_max=m)
        hm1 = h[m - 1][4]
        forms_mu = model.classes_dim(m - 1, None)
        forms_tau = model.quotient_dims(m, None)[0]
        print(f"  N={N}: dim H^{m-1}(R',I')={hm1}, "
              f"dim Om^{m-1}/d={forms_mu}, dim Om^{m}={forms_tau}")
    return mu, tau


banner("single-variable Milnor numbers, f = t^(k+1)")
for k in range(1, 7):
    f = {(k + 1,): ONE}
    mu, n_used, stab = milnor_number(f, 1)
    tau, _ = tyurina_number(f, 1)
    print(f"k={k}: mu={mu}, tau={tau} (N_used={n_used}, stab={stab})")

banner("two-variable corpus")
singularity("node t1^2+t2^2", NODE, 2)
singularity("sum of cubes t1^3+t2^3", CUSP_SUM, 2)
mu_r, tau_r = singularity("reiffen t1^4+t1*t2^4", REIFFEN, 2)
mu_curve, tau_curve = singularity("gap example t1^4+t1^2*t2^3+t2^5", CURVE, 2)

banner("gap example quotient ring Q[t]/(df, m^6)")
partials = [poly_diff(CURVE, i) for i in range(2)]
print("basis size:", quotient_dimension(2, 6, partials))

banner("vanishing of H^n(R_{N,m}, I) for N in 2..5, m in 1..3")
t0 = time.time()
for m in (1, 2, 3):
    for N in (2, 3, 4, 5):
        model = DenseModel(m, N, [])
        rep = model.cohomology(None, n_max=m)
        flat = [row[4] for row in rep]
        status = "ZERO" if all(x == 0 for x in flat) else f"NONZERO {flat}"
        print(f"N={N} m={m}: H = {flat} -> {status}")
print(f"(total {time.time() - t0:.1f}s)", file=sys.stderr)

banner("six-term sequence, power case J=(t^(N-1)) in R_N (m=1)")
for N in (3, 4, 5):
    rn = DenseModel(1, N, [])
    rq = DenseModel(1, N - 1, [])
    J = [{(N - 1,): ONE}]
    for n in (0, 1, 2):
        corr = rq.cohomology(None, n_max=1)[n - 1][4] if n >= 1 else 0
        a = rn.classes_dim(n, J)
        b = rn.classes_dim(n, None)
        c = rq.classes_dim(n, None)
        ok = a == corr + b - c
        print(f"N={N} n={n}: corr={corr} A={a} B={b} C={c} additivity={ok}")

banner("six-term sequence, nested Jacobian case at N=6, n=1")
r = DenseModel(2, 6, [])
rj = DenseModel(2, 6, partials)
h0_ri = r.cohomology(None, n_max=1)[0][4]
h_r = [row[4] for row in r.cohomology(None, n_max=2)]
corr = rj.cohomology(None, n_max=1)[0][4]
a = r.classes_dim(1, partials)
b = r.classes_dim(1, None)
c = rj.classes_dim(1, None)
print(f"H^*(R_[6,2], I) = {h_r}");
print(f"H^0(R', I') correction = {corr} (mu - tau = {mu_curve - tau_curve})")
print(f"A = dim Om^1_(R,J)/d = {a}")
print(f"B = dim Om^1_(R,I)/d = {b}")
print(f"C = dim Om^1_(R',I')/d = {c}")
print(f"alpha injective iff H^0(R,I)=0: H^0(R,I) = {h0_ri}")
print(f"additivity with injective alpha: {a == corr + b - c}")

banner("spanning target dims, dim Om^n_(R,I)/d Om^(n-1)")
for (N, m) in ((3, 1), (3, 2), (4, 1)):
    model = DenseModel(m, N, [])
    dims = [model.classes_dim(n, None) for n in (0, 1)]
    print(f"(N,m)=({N},{m}): n=0 -> {dims[0]}, n=1 -> {dims[1]}")

banner("R_{3,2} degree-1 form facts")
m32 = DenseModel(2, 3, [])
rels = m32.relation_rows(1)
from nilbloch.dense import _rank, _in_span
ncols = len(m32.coords(1))
print("free coords:", ncols, "relation rank:", _rank(rels, ncols),
      "-> dim Om^1 =", ncols - _rank(rels, ncols))
vec = m32._vec(1, {((2, 0), (1,)): ONE})   # t1^2 dt2
print("t1^2*dt2 in relation span:", _in_span(vec, rels, ncols))

banner("H^0 witness: class of f-bar in the Jacobian quotient at N=6")
fbar_vec = {(e, ()): c for e, c in CURVE.items() if sum(e) < 6}
print("f-bar is zero in R':", rj.is_exact(0, fbar_vec, None))
print("f-bar nonzero class in H^0(R',I') iff above is False and d(f-bar)=0 there")
