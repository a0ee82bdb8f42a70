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
token.
"""

from fractions import Fraction

from .algebra import Algebra, AlgElem, _q
from .linalg import vec_iadd
from .forms import Form
from .ksymbols import SymbolSum


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r},{self.line}:{self.col})"


_OPS = set("+-*^(){},/∧")

MAX_DEPTH = 100

# base ** e multiplies the bit length of the base's constant coefficients by |e|;
# a power past this many bits is refused before it is formed (printing refuses
# integers past 4,300 digits, about 14,300 bits, anyway)
MAX_POWER_BITS = 100_000


def tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            toks.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ValueError(f"syntax error at {line}:{col}")
    toks.append(Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text):
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
        raise ValueError(f"syntax error at {tok.line}:{tok.col}")

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            self.fail(tok)
        return tok

    def at_end(self):
        return self.peek().kind == "EOF"

    # -- expressions -----------------------------------------------------------

    def expr(self):
        if self.depth >= MAX_DEPTH:
            tok = self.peek()
            raise ValueError(f"expression nested too deeply at {tok.line}:{tok.col}")
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
                    raise ValueError(f"division by zero at {den.line}:{den.col}")
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


def parse_expr(text):
    """Text to AST; the whole input must be one expression."""
    p = _Parser(text)
    node = p.expr()
    if not p.at_end():
        p.fail()
    return node


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
            return algebra.exp_nil(arg)
        return algebra.log1p(arg - algebra.one())
    raise ValueError(f"unknown AST node {kind!r}")


def parse_element(text, algebra):
    return to_elem(parse_expr(text), algebra)


def parse_symbol_sum(text, algebra):
    p = _Parser(text)
    terms = p.symbol_sum()
    if not p.at_end():
        p.fail()
    terms = [(c, tuple(to_elem(node, algebra) for node in tup)) for c, tup in terms]
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
    p = _Parser(text)
    groups = p.form_sum()
    degree = None
    terms = {}
    for sign, (factors, wedge_tail) in groups:
        coeff = sign
        elem = algebra.one()
        idxs = []
        # differentials may arrive '*'-joined before the '∧' tail
        nodes = factors + wedge_tail
        for node in nodes:
            base = node
            if base[0] == "var":
                idx = _differential_index(algebra, base[1])
                if idx is not None:
                    idxs.append(idx)
                    continue
            if idxs:
                raise ValueError("coefficient after differential")
            elem = elem * to_elem(node, algebra)
        if len(set(idxs)) != len(idxs):
            raise ValueError("repeated differential")
        inversions = sum(1 for i in range(len(idxs))
                         for j in range(i + 1, len(idxs)) if idxs[i] > idxs[j])
        coeff *= (-1) ** inversions
        word = tuple(sorted(idxs))
        if degree is None:
            degree = len(word)
        elif degree != len(word):
            raise ValueError("mixed form degrees")
        part = coeff * elem
        vec_iadd(terms, {(mono, word): c for mono, c in part.terms.items()})
    return Form(algebra, degree or 0, terms)


def _walk(ast, checks):
    """Refuse exp/log calls in a polynomial AST, and list in evaluation order
    what to_elem alone would not refuse there: ("var", name) for each variable,
    ("pow", e) for a negative power, before its base, and ("inv", argument)
    for a division, after its argument."""
    kind = ast[0]
    if kind == "var":
        checks.append(("var", ast[1]))
    elif kind == "call":
        raise ValueError("exp/log not allowed in polynomials")
    elif kind == "pow" and ast[2] < 0:
        checks.append(("pow", ast[2]))
    for sub in ast[1:]:
        for child in sub if isinstance(sub, list) else [sub]:
            if isinstance(child, tuple):
                _walk(child, checks)
    if kind == "inv":
        checks.append(("inv", ast[1]))


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


def _degree(node):
    kind = node[0]
    if kind == "sum":
        return max(map(_degree, node[1]))
    if kind == "prod":
        return sum(map(_degree, node[1]))
    if kind == "pow":
        return max(node[2], 1) * _degree(node[1])
    if kind in ("neg", "inv", "call"):
        return _degree(node[-1])
    return int(kind == "var")


def degree_bound(text):
    """A bound, read from the AST, on the degree of every polynomial parsing text forms:
    a sum takes the max, a product the sum, a power e times its base (the base alone
    for e < 1, which is still expanded), a negation or quotient its argument's."""
    return _degree(parse_expr(text))


def polynomial_terms(text, m=None, bound=None):
    """Parse a polynomial in the nilpotent variables into {texp: int or Fraction}.

    The text is evaluated by to_elem in Algebra(m, bound), which drops the
    terms of total degree >= bound inside every product and power as it is
    formed: they lie in (t_1..t_m)^bound, which an algebra truncated at that
    bound kills anyway, and keeping them would let a power like (1+t)^200000
    expand in full. Without a bound, degree_bound + 1 drops nothing. A divisor
    must evaluate in that algebra to a nonzero constant.
    """
    ast = parse_expr(text)
    checks = []
    _walk(ast, checks)
    if m is None:
        m = _nilpotent_count(checks)
    algebra = Algebra(m, _degree(ast) + 1 if bound is None else bound)
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


def algebra_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("algebra spec must be a JSON object")
    try:
        m, bound = int(data["nilpotents"]), int(data["bound"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("algebra spec needs integer 'nilpotents' and 'bound'") from None
    ideal, params = data.get("ideal", []), data.get("params", [])
    if not (isinstance(ideal, list) and all(isinstance(g, str) for g in ideal)):
        raise ValueError("'ideal' must be a list of polynomial strings")
    if not (isinstance(params, list)
            and all(isinstance(p, dict) and isinstance(p.get("name"), str) for p in params)):
        raise ValueError("every 'params' entry needs a string 'name'")
    return Algebra(m, bound, ideal=[polynomial_terms(g, m, bound) for g in ideal],
                   params=[(p["name"], bool(p.get("invertible", False))) for p in params])
