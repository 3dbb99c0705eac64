"""Self-contained SMT-LIB2 solver for quantifier-free linear integer
arithmetic, used when no external solver (z3, cvc5, ...) is installed.

Reads a script from a file argument or stdin; prints "sat" (plus a model on
get-model), "unsat", or "unknown".  Decides by Cooper quantifier elimination
over the DNF of the assertion after term-level ite lifting.  Before Cooper's
branches for a variable, its real shadow (Pugh's Omega test: every lower
bound at most every upper bound) is projected on, without branching, where
that adds no atoms; when a projection is refuted, so is the conjunction.  The
prune skips only branches that would all fail and makes no call of its own,
so a query makes no more elimination calls than Cooper alone, and every
answer Cooper gives within the branch budget, and its model, is unchanged.
Anything outside the fragment (non-zero-arity functions, quantifiers, reals)
is answered "unknown", never incorrectly.  A comparison with a non-linear
product is kept opaque: a linear branch of the DNF can still show "sat" (the
model is checked against the whole assertion), but without one the answer is
"unknown".
"""

from __future__ import annotations

import sys
from math import gcd, prod

MAX_DISJUNCTS = 20_000
# solve_conj calls per check-sat, over all disjuncts; past it: "unknown"
MAX_BRANCHES = 50_000


class Unsupported(Exception):
    pass


class NonLinear(Unsupported):
    pass


# ---------------------------------------------------------------------------
# S-expression parsing
# ---------------------------------------------------------------------------


def tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "()":
            out.append(ch)
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isspace():
            i += 1
        elif ch == "|":
            j = text.index("|", i + 1)
            out.append(text[i + 1 : j])
            i = j + 1
        elif ch == '"':
            j = text.index('"', i + 1)
            out.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def parse_sexprs(tokens):
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while tokens[pos] != ")":
                items.append(parse())
            pos += 1
            return items
        return tok

    out = []
    while pos < len(tokens):
        out.append(parse())
    return out


# ---------------------------------------------------------------------------
# Terms as linear forms {var: coef}; None keys the constant
# ---------------------------------------------------------------------------


def lin_const(c: int) -> dict:
    return {None: c} if c else {}


def lin_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def lin_scale(a: dict, c: int) -> dict:
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def lin_eval(a: dict, model: dict) -> int:
    total = 0
    for k, v in a.items():
        total += v if k is None else v * model.get(k, 0)
    return total


class Builder:
    """Turns parsed asserts into a boolean tree whose atoms are linear forms.

    Comparisons stay opaque until negations have been pushed down (NNF), and
    only then are term-level ites lifted; lifting before negating makes the
    later DNF blow up exponentially."""

    def __init__(self, variables):
        self.variables = variables

    def lower(self, s, neg: bool = False):
        """Raw s-expression -> NNF tree with ite-free linear atoms."""
        if s == "true":
            return ("false",) if neg else ("true",)
        if s == "false":
            return ("true",) if neg else ("false",)
        if isinstance(s, str):
            raise Unsupported(f"boolean symbol {s}")
        head = s[0]
        if head == "and":
            return ("or" if neg else "and", [self.lower(x, neg) for x in s[1:]])
        if head == "or":
            return ("and" if neg else "or", [self.lower(x, neg) for x in s[1:]])
        if head == "not":
            return self.lower(s[1], not neg)
        if head == "=>":
            # normalize (=> a b ... z) to nested (or (not a) ...)
            out = s[-1]
            for x in reversed(s[1:-1]):
                out = ["or", ["not", x], out]
            return self.lower(out, neg)
        if head == "ite":  # boolean ite
            c, a, b = s[1], s[2], s[3]
            return self.lower(["or", ["and", c, a], ["and", ["not", c], b]], neg)
        if head in ("=", "<=", "<", ">=", ">"):
            if len(s) != 3:
                raise Unsupported("chained comparison")
            ite = self._find_ite(s)
            if ite is not None:
                cond, then_s, else_s = ite
                # not P(ite(c,a,b)) == (c and not P(a)) or (not c and not P(b))
                return (
                    "or",
                    [
                        ("and", [self.lower(cond, False),
                                 self.lower(self._subst_ite(s, then_s), neg)]),
                        ("and", [self.lower(cond, True),
                                 self.lower(self._subst_ite(s, else_s), neg)]),
                    ],
                )
            return self._linear_atom(head, s[1], s[2], neg)
        if head in ("forall", "exists"):
            raise Unsupported("quantifier")
        raise Unsupported(f"operator {head}")

    def _linear_atom(self, op, lhs, rhs, neg: bool):
        try:
            a, b = self.term(lhs), self.term(rhs)
        except NonLinear:
            return ("nl", [op, lhs, rhs], neg)
        diff = lin_add(a, lin_scale(b, -1))
        if neg:
            op = {"=": "!=", "<=": ">", "<": ">=", ">=": "<", ">": "<="}[op]
        if op == "=":
            return ("and", [("le", diff), ("le", lin_scale(diff, -1))])
        if op == "!=":
            return (
                "or",
                [
                    ("le", lin_add(diff, lin_const(1))),
                    ("le", lin_add(lin_scale(diff, -1), lin_const(1))),
                ],
            )
        if op == "<=":
            return ("le", diff)
        if op == "<":
            return ("le", lin_add(diff, lin_const(1)))
        if op == ">=":
            return ("le", lin_scale(diff, -1))
        return ("le", lin_add(lin_scale(diff, -1), lin_const(1)))

    def _find_ite(self, s):
        """First term-level ite below a comparison, if any."""
        for child in s[1:]:
            found = self._find_ite_term(child)
            if found is not None:
                return found
        return None

    def _find_ite_term(self, s):
        if isinstance(s, str):
            return None
        if s[0] == "ite":
            return (s[1], s[2], s[3])
        for child in s[1:]:
            found = self._find_ite_term(child)
            if found is not None:
                return found
        return None

    def _subst_ite(self, s, repl):
        """Replace the first term-level ite with repl."""
        done = [False]

        def go(t):
            if done[0] or isinstance(t, str):
                return t
            if t[0] == "ite":
                done[0] = True
                return repl
            return [t[0]] + [go(c) for c in t[1:]]

        return [s[0]] + [go(c) for c in s[1:]]

    def term(self, s) -> dict:
        if isinstance(s, str):
            if s.lstrip("-").isdigit():
                return lin_const(int(s))
            if s in self.variables:
                return {s: 1}
            raise Unsupported(f"symbol {s}")
        head = s[0]
        if head == "+":
            out = {}
            for x in s[1:]:
                out = lin_add(out, self.term(x))
            return out
        if head == "-":
            if len(s) == 2:
                return lin_scale(self.term(s[1]), -1)
            out = self.term(s[1])
            for x in s[2:]:
                out = lin_add(out, lin_scale(self.term(x), -1))
            return out
        if head == "*":
            const = 1
            lin = None
            for x in s[1:]:
                t = self.term(x)
                if set(t) <= {None}:
                    const *= t.get(None, 0)
                elif lin is None:
                    lin = t
                else:
                    raise NonLinear("non-linear multiplication")
            if lin is None:
                return lin_const(const)
            return lin_scale(lin, const)
        if head == "ite":
            # handled at the atom level; reaching here means an ite outside
            # a comparison, e.g. (* 2 (ite ...)) -- lift it there too
            raise Unsupported("nested ite outside comparison")
        raise Unsupported(f"function {head}")


# ---------------------------------------------------------------------------
# DNF over lowered trees
# ---------------------------------------------------------------------------


def dnf(t) -> list[list]:
    """List of conjunctions; each conjunction is a list of ('le', lin) /
    ('div', d, lin) atoms.  Ground atoms are evaluated eagerly."""
    head = t[0]
    if head == "true":
        return [[]]
    if head == "false":
        return []
    if head == "le":
        if set(t[1]) <= {None}:
            return [[]] if t[1].get(None, 0) <= 0 else []
        return [[t]]
    if head == "nl":
        return [[t]]
    if head == "and":
        out = [[]]
        for child in t[1]:
            branches = dnf(child)
            new = []
            for conj in out:
                for b in branches:
                    if len(new) > MAX_DISJUNCTS:
                        raise Unsupported("DNF blowup")
                    new.append(conj + b)
            out = new
            if not out:
                return []
        return out
    if head == "or":
        out = []
        for child in t[1]:
            out.extend(dnf(child))
            if len(out) > MAX_DISJUNCTS:
                raise Unsupported("DNF blowup")
        return out
    raise Unsupported(f"dnf {head}")


# ---------------------------------------------------------------------------
# Cooper elimination with witness reconstruction
# ---------------------------------------------------------------------------


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _prune(conj):
    """Drop satisfied ground atoms; None signals a contradiction."""
    out = []
    for atom in conj:
        if atom[0] == "le":
            if set(atom[1]) <= {None}:
                if atom[1].get(None, 0) > 0:
                    return None
            else:
                out.append(atom)
        else:
            _, d, lin = atom
            if set(lin) <= {None}:
                if lin.get(None, 0) % d != 0:
                    return None
            else:
                out.append(atom)
    return out


class Budget:
    """solve_conj calls left to one check-sat; spending the last raises."""

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left <= 0:
            raise Unsupported("branch budget exhausted")


def _tighten(conj):
    """Divide atoms by the gcd of their variable coefficients (rounding the
    le constant soundly over the integers) and deduplicate; None on a
    contradiction detected along the way."""
    seen = set()
    out = []
    for atom in conj:
        if atom[0] == "le":
            lin = atom[1]
            coefs = [v for k, v in lin.items() if k is not None]
            if coefs:
                g = 0
                for c in coefs:
                    g = gcd(g, abs(c))
                if g > 1:
                    k = lin.get(None, 0)
                    lin = {kk: vv // g for kk, vv in lin.items() if kk is not None}
                    newc = -((-k) // g)  # ceil(k/g)
                    if newc:
                        lin[None] = newc
                    atom = ("le", lin)
            key = ("le", tuple(sorted(lin.items(), key=str)))
        else:
            _, d, lin = atom
            coefs = [v for k, v in lin.items() if k is not None]
            if coefs:
                g = d
                for c in coefs:
                    g = gcd(g, abs(c))
                k = lin.get(None, 0)
                if g > 1:
                    if k % g != 0:
                        return None  # d | g*t + k with g | d and g not| k
                    lin = {kk: vv // g for kk, vv in lin.items()}
                    d //= g
                if d == 1:
                    continue
                atom = ("div", d, lin)
            key = ("div", d, tuple(sorted(lin.items(), key=str)))
        if key not in seen:
            seen.add(key)
            out.append(atom)
    return out


def _pick_var(conj):
    """Variable with the cheapest elimination (smallest lcm of coefficients,
    then fewest lower bounds)."""
    stats: dict[str, list] = {}
    for atom in conj:
        lin = atom[1] if atom[0] == "le" else atom[2]
        for k, v in lin.items():
            if k is None:
                continue
            st = stats.setdefault(k, [1, 0])
            st[0] = lcm(st[0], abs(v))
            if atom[0] == "le" and v < 0:
                st[1] += 1
    return min(stats, key=lambda k: (stats[k][0], stats[k][1], k))


def _shadow_refuted(conj) -> bool:
    """Whether a conjunction has no integer point by its real shadows
    (Pugh's Omega test): variables are projected out in _pick_var order,
    each lower bound a*x >= p meeting each upper bound b*x <= q as
    b*p <= a*q, with divisibility atoms on x dropped and _tighten rounding
    what is left.  Every step relaxes the conjunction, so a refutation is
    sound; the projection gives up, refuting nothing, at a variable whose
    bound pairs outnumber its bounds, so no step adds atoms.  It solves
    nothing, so it makes no solve_conj call and spends no budget."""
    while True:
        conj = _prune(conj)
        if conj is None:
            return True
        conj = _tighten(conj)
        if conj is None:
            return True
        if not conj:
            return False
        x = _pick_var(conj)
        rest, lows, ups = [], [], []
        for a in conj:
            lin = a[1] if a[0] == "le" else a[2]
            if x not in lin:
                rest.append(a)
            elif a[0] == "le":
                # -a*x + p <= 0 is a lower bound, b*x + q <= 0 an upper one
                r = {k: v for k, v in lin.items() if k != x}
                (lows if lin[x] < 0 else ups).append((abs(lin[x]), r))
        if len(lows) * len(ups) > len(lows) + len(ups):
            return False
        rest += [("le", lin_add(lin_scale(p, b), lin_scale(q, a))) for a, p in lows for b, q in ups]
        conj = rest


def solve_conj(conj, budget: Budget):
    """Decide one conjunction; returns a model dict or None.  Each call,
    also one refuted at once, spends one unit of the budget."""
    budget.spend()
    conj = _prune(conj)
    if conj is None:
        return None
    conj = _tighten(conj)
    if conj is None:
        return None
    if not conj:
        return {}
    x = _pick_var(conj)

    with_x = [a for a in conj if x in (a[1] if a[0] == "le" else a[2])]
    without_x = [a for a in conj if x not in (a[1] if a[0] == "le" else a[2])]

    # Scale each atom so x's coefficient is +-lam, then reason about y = lam*x:
    # ('le', sign, r) means sign*y + r <= 0; ('div', d, sign, r) means
    # d | sign*y + r.  The divisibility lam | y keeps y a multiple of lam.
    lam = 1
    for a in with_x:
        lin = a[1] if a[0] == "le" else a[2]
        lam = lcm(lam, abs(lin[x]))
    les = []  # (sign, r)
    divs = [(lam, 1, {})]  # (d, sign, r)
    for a in with_x:
        if a[0] == "le":
            lin = a[1]
            m = lam // abs(lin[x])
            scaled = lin_scale(lin, m)
            sign = 1 if scaled[x] > 0 else -1
            les.append((sign, {k: v for k, v in scaled.items() if k != x}))
        else:
            _, d, lin = a
            m = lam // abs(lin[x])
            scaled = lin_scale(lin, m)
            sign = 1 if scaled[x] > 0 else -1
            divs.append((d * m, sign, {k: v for k, v in scaled.items() if k != x}))

    lowers = [r for sign, r in les if sign < 0]  # y >= r
    uppers = [lin_scale(r, -1) for sign, r in les if sign > 0]  # y <= -r
    delta = 1
    for d, _, _ in divs:
        delta = lcm(delta, d)

    # real shadow: an integer y lies between every lower and every upper
    # bound, so where those pairs have no integer point no branch below
    # succeeds.  Built only where it has no more atoms than the conjunction.
    if lowers and len(lowers) * len(uppers) <= len(lowers) + len(uppers):
        shadow = without_x + [("le", lin_add(lo, lin_scale(up, -1))) for lo in lowers for up in uppers]
        if _shadow_refuted(shadow):
            return None

    def substituted(term):
        """Residual conjunction with y := term (a linear form over the
        remaining variables)."""
        out = list(without_x)
        for sign, r in les:
            out.append(("le", lin_add(r, lin_scale(term, sign))))
        for d, sign, r in divs:
            out.append(("div", d, lin_add(r, lin_scale(term, sign))))
        return out

    # branches with y pinned just above a lower bound
    for r in lowers:
        for j in range(1, delta + 1):
            term = lin_add(r, lin_const(j - 1))
            sub = solve_conj(substituted(term), budget)
            if sub is not None:
                yval = lin_eval(term, sub)
                sub[x] = yval // lam
                return sub
    # y arbitrarily small: only possible with no lower bounds
    if not lowers:
        for j in range(1, delta + 1):
            out = list(without_x)
            for d, sign, r in divs:
                out.append(("div", d, lin_add(r, lin_const(sign * j))))
            sub = solve_conj(out, budget)
            if sub is not None:
                bound = None
                for s in uppers:
                    v = lin_eval(s, sub)
                    bound = v if bound is None else min(bound, v)
                if bound is None:
                    yval = j
                else:
                    k = max(-((bound - j) // delta), 0)  # ceil((j-bound)/delta)
                    yval = j - k * delta
                sub[x] = yval // lam
                return sub
    return None


# ---------------------------------------------------------------------------
# Script interpretation
# ---------------------------------------------------------------------------


def _check_model(tree, model) -> bool:
    head = tree[0]
    if head == "true":
        return True
    if head == "false":
        return False
    if head == "and":
        return all(_check_model(x, model) for x in tree[1])
    if head == "or":
        return any(_check_model(x, model) for x in tree[1])
    if head == "le":
        return lin_eval(tree[1], model) <= 0
    if head == "nl":
        (op, lhs, rhs), neg = tree[1], tree[2]
        a, b = _eval_term(lhs, model), _eval_term(rhs, model)
        holds = {"=": a == b, "<=": a <= b, "<": a < b, ">=": a >= b, ">": a > b}[op]
        return holds != neg
    raise Unsupported(head)


def _eval_term(s, model) -> int:
    if isinstance(s, str):
        if s.lstrip("-").isdigit():
            return int(s)
        if s in model:
            return model[s]
        raise Unsupported(f"symbol {s}")
    args = [_eval_term(x, model) for x in s[1:]]
    if s[0] == "+":
        return sum(args)
    if s[0] == "-":
        return -args[0] if len(args) == 1 else args[0] - sum(args[1:])
    if s[0] == "*":
        return prod(args)
    raise Unsupported(f"function {s[0]}")


def run_script(text: str) -> str:
    out_lines: list[str] = []
    try:
        forms = parse_sexprs(tokenize(text))
    except Exception:
        return "unknown"
    variables: list[str] = []
    asserts = []
    status: str | None = None
    model: dict | None = None
    try:
        for form in forms:
            if not isinstance(form, list) or not form:
                continue
            head = form[0]
            if head in ("set-logic", "set-option", "set-info", "exit"):
                continue
            if head == "declare-fun":
                name, args, sort = form[1], form[2], form[3]
                if args:
                    raise Unsupported("uninterpreted function")
                if sort != "Int":
                    raise Unsupported(f"sort {sort}")
                variables.append(name)
            elif head == "declare-const":
                if form[2] != "Int":
                    raise Unsupported(f"sort {form[2]}")
                variables.append(form[1])
            elif head == "assert":
                asserts.append(form[1])
            elif head == "check-sat":
                builder = Builder(set(variables))
                trees = [builder.lower(a) for a in asserts]
                whole = ("and", trees) if trees else ("true",)
                disjuncts = dnf(whole)
                budget = Budget(MAX_BRANCHES)
                model = None
                opaque = False
                for conj in disjuncts:
                    if any(atom[0] == "nl" for atom in conj):
                        opaque = True
                        continue
                    m = solve_conj(conj, budget)
                    if m is not None:
                        full = {v: m.get(v, 0) for v in variables}
                        if _check_model(whole, full):
                            model = full
                            break
                        raise Unsupported("witness check failed")
                if model is None and opaque:
                    raise Unsupported("non-linear branches left undecided")
                status = "sat" if model is not None else "unsat"
                out_lines.append(status)
            elif head == "get-model":
                if status == "sat" and model is not None:
                    out_lines.append("(model")
                    for v in variables:
                        val = model[v]
                        lit = str(val) if val >= 0 else f"(- {-val})"
                        out_lines.append(f"  (define-fun {v} () Int {lit})")
                    out_lines.append(")")
                else:
                    out_lines.append('(error "model is not available")')
            elif head == "get-info":
                continue
            else:
                raise Unsupported(f"command {head}")
    except (Unsupported, RecursionError, OverflowError):
        return "unknown"
    return "\n".join(out_lines) if out_lines else "unknown"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        with open(argv[0]) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    print(run_script(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
