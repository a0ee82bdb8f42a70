"""Expression grammar for elements, symbols, forms, and algebra spec files.

Grammar (whitespace-insensitive):

    expr   := ['-'|'+'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' ['-'] INT)?
    atom   := rational | IDENT | 'exp(' expr ')' | 'log(' expr ')' | '(' expr ')'
    rational := INT ('/' INT)?

Parentheses and exp/log calls nest at most MAX_DEPTH deep, and a literal
denominator must be nonzero. A sum or product parses to one flat node
(sum of terms, prod of factors with divisors wrapped in inv), so only that
nesting deepens the tree, however many terms an input has.

Symbol sums add '{ expr, expr, ... }' tuples with integer multiplicities;
forms add differentials 'd<name>' joined by '∧'. Identifiers t (or t1..tm)
are the nilpotent variables; every other identifier must be a declared
parameter of the target algebra. Negative exponents are only valid on
invertible factors. Errors carry the 1-based line:column of the offending
token, computed from the offset in the text that every token carries.
"""

from fractions import Fraction
from functools import lru_cache

from .algebra import MAX_FORM_COORDS, MAX_RINGS, Algebra, AlgElem, _q, form_coords
from .linalg import vec_iadd
from .forms import Form
from .ksymbols import SymbolSum


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


_OPS = set("+-*^(){},/∧")

MAX_DEPTH = 100

# base ** e multiplies the bit length of the base's constant coefficients by |e|;
# a power past this many bits is refused before it is formed (printing refuses
# integers past 4,300 digits, about 14,300 bits, anyway)
MAX_POWER_BITS = 100_000


def _where(text, pos):
    """The 1-based line:col of offset pos in text."""
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return f"{line}:{col}"


def tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch.isspace():
            i = j
            continue
        if ch.isdigit():
            while j < n and text[j].isdigit():
                j += 1
            kind = "NUM"
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "IDENT"
        elif ch in _OPS:
            kind = ch
        else:
            raise ValueError(f"syntax error at {_where(text, i)}")
        toks.append(Token(kind, text[i:j], i))
        i = j
    toks.append(Token("EOF", "", n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok=None):
        tok = tok or self.peek()
        raise ValueError(f"syntax error at {_where(self.text, tok.pos)}")

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            self.fail(tok)
        return tok

    # -- expressions -----------------------------------------------------------

    def expr(self):
        if self.depth >= MAX_DEPTH:
            where = _where(self.text, self.peek().pos)
            raise ValueError(f"expression nested too deeply at {where}")
        self.depth += 1
        node = self._expr()
        self.depth -= 1
        return node

    def signed_list(self, item):
        """[(sign, item()), ...]: an optional leading sign, then '+'/'-' separated."""
        out = []
        while True:
            sign = 1
            if self.peek().kind in ("+", "-"):
                sign = -1 if self.next().kind == "-" else 1
            elif out:
                return out
            out.append((sign, item()))

    def _expr(self):
        terms = [t if s > 0 else ("neg", t) for s, t in self.signed_list(self.term)]
        return terms[0] if len(terms) == 1 else ("sum", terms)

    def factors(self):
        out = [self.factor()]
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.factor()
            out.append(rhs if op == "*" else ("inv", rhs))
        return out

    def term(self):
        fs = self.factors()
        return fs[0] if len(fs) == 1 else ("prod", fs)

    def factor(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            neg = False
            if self.peek().kind == "-":
                self.next()
                neg = True
            tok = self.expect("NUM")
            e = int(tok.text)
            node = ("pow", node, -e if neg else e)
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "NUM":
            num = int(tok.text)
            # fold NUM/NUM into one literal so form coefficients stay atomic
            if self.peek().kind == "/" and self.toks[self.pos + 1].kind == "NUM":
                self.next()
                den = self.next()
                if not int(den.text):
                    raise ValueError(f"division by zero at {_where(self.text, den.pos)}")
                return ("num", _q(Fraction(num, int(den.text))))
            return ("num", num)
        if tok.kind == "IDENT":
            if tok.text in ("exp", "log") and self.peek().kind == "(":
                self.next()
                arg = self.expr()
                self.expect(")")
                return ("call", tok.text, arg)
            return ("var", tok.text)
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        self.fail(tok)

    # -- symbol sums -----------------------------------------------------------

    def symbol_tuple(self):
        self.expect("{")
        entries = [self.expr()]
        while self.peek().kind == ",":
            self.next()
            entries.append(self.expr())
        self.expect("}")
        return entries

    def symbol_term(self):
        coeff = 1
        if self.peek().kind == "NUM":
            coeff = int(self.next().text)
            self.expect("*")
        return coeff, self.symbol_tuple()

    def symbol_sum(self):
        return [(s * c, tup) for s, (c, tup) in self.signed_list(self.symbol_term)]

    # -- forms -------------------------------------------------------------------

    def form_sum(self):
        return self.signed_list(self.form_term)

    def form_term(self):
        factors = self.factors()
        word = []
        while self.peek().kind == "∧":
            self.next()
            word.append(self.factor())
        return factors, word


def _parse(text, rule):
    """Run a _Parser rule (an unbound method) over the whole text; leftover tokens fail."""
    p = _Parser(text)
    out = rule(p)
    if p.peek().kind != "EOF":
        p.fail()
    return out


def parse_expr(text):
    """Text to AST; the whole input must be one expression."""
    return _parse(text, _Parser.expr)


def to_elem(ast, algebra):
    """Evaluate an expression AST in the given algebra."""
    kind = ast[0]
    if kind == "num":
        return algebra.const(ast[1])
    if kind == "var":
        return algebra.var(ast[1])
    if kind == "neg":
        return -to_elem(ast[1], algebra)
    if kind == "sum":
        terms = {}
        for node in ast[1]:
            vec_iadd(terms, to_elem(node, algebra).terms)
        return AlgElem(algebra, terms)     # a sum of normal forms is one
    if kind == "prod":
        mono = _monomial(ast[1], algebra)
        if mono is not None:
            return algebra.element(dict([mono]))
        out = to_elem(ast[1][0], algebra)
        for node in ast[1][1:]:
            out = out * to_elem(node, algebra)
        return out
    if kind == "inv":
        den = to_elem(ast[1], algebra)
        if not den.is_unit():
            raise ValueError("division by non-unit")
        return algebra.invert(den)
    if kind == "pow":
        base = to_elem(ast[1], algebra)
        e = ast[2]
        if e < 0 and not base.is_unit():
            raise ValueError("negative exponent on non-invertible variable")
        bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    for c in base.augmentation().terms.values() if abs(c) != 1), default=0)
        if abs(e) * bits > MAX_POWER_BITS:
            raise ValueError(f"power {e} of a {bits}-bit coefficient would take "
                             f"{abs(e) * bits} bits, above the limit {MAX_POWER_BITS}")
        return base ** e
    if kind == "call":
        arg = to_elem(ast[2], algebra)
        if ast[1] == "exp":
            if not arg.is_nilpotent():
                raise ValueError("exp needs a nilpotent argument")
            return algebra.exp_nil(arg)
        x = arg - algebra.one()
        if not x.is_nilpotent():
            raise ValueError("log needs an argument 1 + x with x nilpotent")
        return algebra.log1p(x)
    raise ValueError(f"unknown AST node {kind!r}")


def _monomial(factors, algebra):
    """A product's factors as one term ((pexp, texp), c) when each is a literal, a
    variable or a nonnegative power of one, so to_elem forms it in one step; else
    None, and the factors take the generic path with its checks and messages."""
    c = 1
    pexp, texp = [0] * algebra.n_params, [0] * algebra.m
    for node in factors:
        if node[0] == "num":
            c *= node[1]
            continue
        node, e = (node[1], node[2]) if node[0] == "pow" and node[2] >= 0 else (node, 1)
        if node[0] != "var":
            return None
        if node[1] in algebra.nil_index:
            texp[algebra.nil_index[node[1]]] += e
        elif node[1] in algebra.param_index:
            pexp[algebra.param_index[node[1]]] += e
        else:
            return None
    return (tuple(pexp), tuple(texp)), c


def parse_element(text, algebra):
    return to_elem(parse_expr(text), algebra)


def parse_symbol_sum(text, algebra):
    terms = [(c, tuple(to_elem(node, algebra) for node in tup))
             for c, tup in _parse(text, _Parser.symbol_sum)]
    return SymbolSum(algebra, len(terms[0][1]), terms)


def _differential_index(algebra, name):
    if not name.startswith("d"):
        return None
    tail = name[1:]
    if tail in algebra.nil_index:
        return algebra.nil_index[tail]
    if tail in algebra.param_index:
        return algebra.m + algebra.param_index[tail]
    return None


def parse_form(text, algebra):
    """Parse 'c * mono * dW' sums back into a Form."""
    degree = None
    terms = {}
    for sign, (factors, wedge_tail) in _parse(text, _Parser.form_sum):
        coeff = ("prod", [("num", sign)])      # one product node, so _monomial sees it whole
        idxs = []
        # differentials may arrive '*'-joined before the '∧' tail
        for node in factors + wedge_tail:
            idx = _differential_index(algebra, node[1]) if node[0] == "var" else None
            if idx is not None:
                idxs.append(idx)
            elif idxs:      # the coefficient so far first, so its own error comes first
                to_elem(coeff, algebra)
                raise ValueError("coefficient after differential")
            else:
                coeff[1].append(node)
        # a monomial goes in raw, as Form normalizes each word once
        term = _monomial(coeff[1], algebra)
        part = dict([term]) if term is not None else to_elem(coeff, algebra).terms
        if len(set(idxs)) != len(idxs):
            raise ValueError("repeated differential")
        inversions = sum(1 for i in range(len(idxs))
                         for j in range(i + 1, len(idxs)) if idxs[i] > idxs[j])
        word = tuple(sorted(idxs))
        if degree is None:
            degree = len(word)
        elif degree != len(word):
            raise ValueError("mixed form degrees")
        vec_iadd(terms, {(mono, word): c for mono, c in part.items()}, (-1) ** inversions)
    return Form(algebra, degree or 0, terms)


def _walk(ast, checks):
    """Refuse exp/log calls in a polynomial AST, list in evaluation order
    what to_elem alone would not refuse there: ("var", name) for each variable,
    ("pow", e) for a negative power, before its base, and ("inv", argument)
    for a division, after its argument; and return a bound on the degree of
    every polynomial the AST forms: a sum takes the max, a product the sum, a
    power e times its base (the base alone for e < 1, which is still expanded),
    a negation or quotient its argument's."""
    kind = ast[0]
    if kind == "var":
        checks.append(("var", ast[1]))
    elif kind == "call":
        raise ValueError("exp/log not allowed in polynomials")
    elif kind == "pow" and ast[2] < 0:
        checks.append(("pow", ast[2]))
    degs = [_walk(child, checks) for child in _children(ast)]
    if kind == "inv":
        checks.append(("inv", ast[1]))
    if kind == "sum":
        return max(degs)
    if kind == "pow":
        return max(ast[2], 1) * degs[0]
    return sum(degs) if degs else int(kind == "var")


def _children(ast):
    return [child for sub in ast[1:] for child in (sub if isinstance(sub, list) else [sub])
            if isinstance(child, tuple)]


def _degree(ast, algebra):
    """A bound on the degree of the polynomial of ast, -1 exactly when it is 0: a node
    whose _walk bound is below algebra.N is evaluated there, any other combines its
    children's by the rules of _walk, but a zero factor gives 0 and a 0th power 1."""
    if _walk(ast, []) < algebra.N:
        return max((sum(texp) for _, texp in to_elem(ast, algebra).terms), default=-1)
    kind, degs = ast[0], [_degree(child, algebra) for child in _children(ast)]
    if kind == "pow":
        return 0 if ast[2] == 0 else max(ast[2], 1) * degs[0] if degs[0] >= 0 else -1
    if kind == "prod":
        return sum(degs) if min(degs) >= 0 else -1
    return max(degs)


def _exact_bound(ast, checks, m, bound):
    """B past the degree of ast and of each divisor, so Algebra(m, B) evaluates them
    exactly: bound (_walk's + 1) when Algebra(m, bound) passes the forms budget, else
    1 + their _degree in the largest Algebra(m, bound // 2^k) that does."""
    fits = lambda b: (form_coords(m, b) or MAX_FORM_COORDS + 1) <= MAX_FORM_COORDS
    b = bound
    while b > 2 and not fits(b):
        b //= 2
    if b == bound or not fits(b):
        return bound
    probe = type.__call__(Algebra, m, b)     # past the metaclass: no slot in the ring table
    return 1 + max(0, *(_degree(x, probe) for x in [ast] + [x for kind, x in checks
                                                               if kind == "inv"]))


def _nilpotent_count(checks):
    """m from the names of _walk, in input order: 1 for t alone, else the largest i of the t_i."""
    names = list(dict.fromkeys(x for kind, x in checks if kind == "var"))
    if names == ["t"]:
        return 1
    idx = []
    for name in names:
        if not (name.startswith("t") and name[1:].isdigit()):
            raise ValueError(f"unknown variable {name!r}")
        idx.append(int(name[1:]))
    if not idx or min(idx) < 1:
        raise ValueError("no nilpotent variables found")
    return max(idx)


def nilpotent_count(text):
    """The number m of nilpotent variables that a polynomial's names call for."""
    checks = []
    _walk(parse_expr(text), checks)
    return _nilpotent_count(checks)


def degree_bound(text):
    """A bound, read from the AST (see _walk), on the degree of every polynomial
    parsing text forms."""
    return _walk(parse_expr(text), [])


def polynomial_terms(text, m=None, bound=None):
    """Parse a polynomial in the nilpotent variables into {texp: int or Fraction}.

    The text is evaluated by to_elem in Algebra(m, bound), which drops the
    terms of total degree >= bound inside every product and power as it is
    formed: they lie in (t_1..t_m)^bound, which an algebra truncated at that
    bound kills anyway, and keeping them would let a power like (1+t)^200000
    expand in full. Without a bound, degree_bound + 1 drops nothing. A divisor
    must evaluate in that algebra to a nonzero constant.

    A process evaluates each (text, m, bound) once: the MAX_RINGS = 32 most
    recently used results are kept, and every call returns a fresh copy.
    """
    if isinstance(text, str) and {type(m), type(bound)} <= {int, type(None)}:
        return dict(_polynomial_terms(text, m, bound))
    return _polynomial_terms.__wrapped__(text, m, bound)


@lru_cache(maxsize=MAX_RINGS)
def _polynomial_terms(text, m, bound):
    """The evaluation of polynomial_terms; a cached result is shared, never handed out."""
    ast = parse_expr(text)
    checks = []
    degree = _walk(ast, checks)
    if m is None:
        m = _nilpotent_count(checks)
    algebra = Algebra(m, _exact_bound(ast, checks, m, degree + 1) if bound is None else bound)
    one = ((), (0,) * m)
    for kind, x in checks:
        if kind == "var" and x not in algebra.nil_index:
            raise ValueError(f"unknown variable {x!r}")
        if kind == "pow":
            raise ValueError("negative exponent on non-invertible variable")
        if kind == "inv" and set(to_elem(x, algebra).terms) != {one}:
            raise ValueError("division by non-unit")
    return {texp: c for (_, texp), c in to_elem(ast, algebra).terms.items()}


def algebra_to_json(algebra):
    return algebra.describe()


def _known_keys(data, keys, what):
    unknown = [k for k in data if k not in keys]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {what} (known: {', '.join(keys)})")


def algebra_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("algebra spec must be a JSON object")
    _known_keys(data, ("nilpotents", "bound", "ideal", "params"), "algebra spec")
    m, bound = data.get("nilpotents"), data.get("bound")
    if type(m) is not int or type(bound) is not int:       # a JSON true is no integer
        raise ValueError("algebra spec needs integer 'nilpotents' and 'bound'")
    ideal, params = data.get("ideal", []), data.get("params", [])
    if not (isinstance(ideal, list) and all(isinstance(g, str) for g in ideal)):
        raise ValueError("'ideal' must be a list of polynomial strings")
    if not (isinstance(params, list)
            and all(isinstance(p, dict) and isinstance(p.get("name"), str) for p in params)):
        raise ValueError("every 'params' entry needs a string 'name'")
    for p in params:
        _known_keys(p, ("name", "invertible"), "'params' entry")
    if not all(isinstance(p.get("invertible", False), bool) for p in params):
        raise ValueError("a 'params' entry's 'invertible' must be true or false")
    return Algebra(m, bound, ideal=[polynomial_terms(g, m, bound) for g in ideal],
                   params=[(p["name"], p.get("invertible", False)) for p in params])
