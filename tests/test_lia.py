"""The bundled linear-integer-arithmetic solver, checked against brute-force
enumeration (decision and model) on randomly generated bounded formulas."""

import itertools
import random

from recsolve_lia import parse_sexprs, run_script, tokenize


def _eval_sexpr(tree, env):
    if isinstance(tree, str):
        if tree.lstrip("-").isdigit():
            return int(tree)
        if tree == "true":
            return True
        if tree == "false":
            return False
        return env[tree]
    h = tree[0]
    args = tree[1:]
    if h == "+":
        return sum(_eval_sexpr(a, env) for a in args)
    if h == "*":
        r = 1
        for a in args:
            r *= _eval_sexpr(a, env)
        return r
    if h == "-":
        if len(args) == 1:
            return -_eval_sexpr(args[0], env)
        return _eval_sexpr(args[0], env) - sum(_eval_sexpr(a, env) for a in args[1:])
    if h == "ite":
        return _eval_sexpr(args[1] if _eval_sexpr(args[0], env) else args[2], env)
    if h == "=":
        return _eval_sexpr(args[0], env) == _eval_sexpr(args[1], env)
    if h == "<=":
        return _eval_sexpr(args[0], env) <= _eval_sexpr(args[1], env)
    if h == "<":
        return _eval_sexpr(args[0], env) < _eval_sexpr(args[1], env)
    if h == ">=":
        return _eval_sexpr(args[0], env) >= _eval_sexpr(args[1], env)
    if h == ">":
        return _eval_sexpr(args[0], env) > _eval_sexpr(args[1], env)
    if h == "and":
        return all(_eval_sexpr(a, env) for a in args)
    if h == "or":
        return any(_eval_sexpr(a, env) for a in args)
    if h == "not":
        return not _eval_sexpr(args[0], env)
    if h == "=>":
        return (not _eval_sexpr(args[0], env)) or _eval_sexpr(args[1], env)
    raise ValueError(h)


def _parse_model_lines(out):
    model = {}
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("(define-fun"):
            parts = line.replace("(", " ").replace(")", " ").split()
            model[parts[1]] = -int(parts[4]) if parts[3] == "-" else int(parts[3])
    return model


def test_simple_sat_unsat():
    assert run_script("(declare-fun x () Int)(assert (> x 3))(check-sat)") == "sat"
    assert (
        run_script("(declare-fun x () Int)(assert (and (> x 3) (< x 2)))(check-sat)")
        == "unsat"
    )


def test_parity_reasoning():
    assert run_script("(declare-fun x () Int)(assert (= (* 2 x) 5))(check-sat)") == "unsat"
    out = run_script("(declare-fun x () Int)(assert (= (* 2 x) 6))(check-sat)(get-model)")
    assert out.splitlines()[0] == "sat"
    assert _parse_model_lines(out) == {"x": 3}


def test_unbounded_below():
    assert run_script("(declare-fun x () Int)(assert (< x (- 100)))(check-sat)") == "sat"


def test_three_variable_parity_conflict():
    s = (
        "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
        "(assert (and (>= x 0) (>= y 0) (>= z 0) (= (+ x y) (* 2 z)) (= (- x y) 1)))"
        "(check-sat)"
    )
    assert run_script(s) == "unsat"


def test_ite_terms():
    s = (
        "(declare-fun x () Int)"
        "(assert (and (>= x 0) (> x 0)"
        " (not (= (* 2 x) (ite (>= (- (* 2 x) 1) (* 2 x)) (- (* 2 x) 1) (* 2 x))))))"
        "(check-sat)"
    )
    assert run_script(s) == "unsat"


def test_unsupported_features_answer_unknown():
    assert (
        run_script("(declare-fun f (Int) Int)(assert (= (f 0) 1))(check-sat)")
        == "unknown"
    )
    assert (
        run_script(
            "(declare-fun x () Int)(declare-fun y () Int)"
            "(assert (= (* x y) 6))(check-sat)"
        )
        == "unknown"
    )
    assert (
        run_script("(declare-fun x () Real)(assert (= x 0.5))(check-sat)") == "unknown"
    )
    assert (
        run_script(
            "(declare-fun x () Int)"
            "(assert (forall ((n Int)) (= n n)))(check-sat)"
        )
        == "unknown"
    )


def test_assertion_stack_commands_answer_unknown():
    """The solver keeps one assertion set, so a script that pops or resets
    assertions, satisfiable here, is not answered unsat."""
    popped = (
        "(declare-fun x () Int)(push 1)(assert (< x 0))(assert (> x 0))(pop 1)(check-sat)"
    )
    reset = (
        "(declare-fun x () Int)(assert (< x 0))(reset)"
        "(declare-fun x () Int)(assert (> x 0))(check-sat)"
    )
    assert run_script(popped) == "unknown"
    assert run_script(reset) == "unknown"


def test_nonlinear_atoms_leave_linear_branches_decidable():
    head = "(declare-fun x () Int)(declare-fun y () Int)"
    # the linear branch x = 3 is a model of the whole assertion
    out = run_script(head + "(assert (or (= (* x y) 7) (= x 3)))(check-sat)(get-model)")
    assert out.splitlines()[0] == "sat"
    assert "(define-fun x () Int 3)" in out
    # a conjunction that needs the product is not decided
    assert run_script(head + "(assert (and (= x 3) (= (* x y) 6)))(check-sat)") == "unknown"
    # unsat linear branches beside an undecided non-linear one: unknown
    assert run_script(head + "(assert (or (= (* x y) 7) (< x x)))(check-sat)") == "unknown"


def test_get_model_after_unsat_is_error_line():
    out = run_script("(declare-fun x () Int)(assert (< x x))(check-sat)(get-model)")
    lines = out.splitlines()
    assert lines[0] == "unsat"
    assert "error" in lines[1]


def _random_body(rng, vs, cmax):
    """A random and/or/not formula of depth up to 2 over linear atoms in
    `vs`, coefficients in [-cmax, cmax]."""

    def term():
        parts = [f"(* {rng.randint(-cmax, cmax)} {rng.choice(vs)})" for _ in range(rng.randint(1, 2))]
        parts.append(str(rng.randint(-6, 6)))
        return "(+ " + " ".join(parts) + ")"

    def atom():
        op = rng.choice(["=", "<=", "<", ">=", ">"])
        return f"({op} {term()} {term()})"

    def bexpr(d):
        if d == 0 or rng.random() < 0.4:
            return atom()
        k = rng.choice(["and", "or", "not"])
        if k == "not":
            return f"(not {bexpr(d - 1)})"
        return f"({k} {bexpr(d - 1)} {bexpr(d - 1)})"

    return bexpr(2)


def _random_formula(rng, nv, cmax):
    vs = [f"v{i}" for i in range(nv)]
    body = _random_body(rng, vs, cmax)
    box = " ".join(f"(and (>= {v} 0) (<= {v} 6))" for v in vs)
    return vs, f"(and {box} {body})"


def test_fuzz_against_brute_force():
    rng = random.Random(17)
    for trial in range(250):
        nv = rng.randint(1, 3)
        vs, full = _random_formula(rng, nv, 4)
        script = "".join(f"(declare-fun {v} () Int)" for v in vs)
        script += f"(assert {full})(check-sat)(get-model)"
        out = run_script(script)
        got = out.splitlines()[0]
        tree = parse_sexprs(tokenize(full))[0]
        sat = any(
            _eval_sexpr(tree, dict(zip(vs, pt)))
            for pt in itertools.product(range(7), repeat=nv)
        )
        want = "sat" if sat else "unsat"
        assert got == want, (trial, script)
        if got == "sat":
            model = _parse_model_lines(out)
            assert _eval_sexpr(tree, model), (trial, model, script)


def _compiled(tree):
    """A Python function of the variables' values that evaluates a parsed
    formula of the shapes _random_box_formula makes, much faster than
    _eval_sexpr over a whole search box."""

    def src(t):
        if isinstance(t, str):
            return t if t.lstrip("-").isdigit() else f"env[{t!r}]"
        h, args = t[0], [src(a) for a in t[1:]]
        if h in ("+", "*"):
            return "(" + f" {h} ".join(args) + ")"
        if h == "-":
            return f"(-{args[0]})" if len(args) == 1 else "(" + " - ".join(args) + ")"
        if h in ("and", "or"):
            return "(" + f" {h} ".join(args) + ")"
        if h == "not":
            return f"(not {args[0]})"
        return f"({args[0]} {'==' if h == '=' else h} {args[1]})"

    return eval(f"lambda env: {src(tree)}")


def _random_box_formula(rng):
    """Up to 4 variables, each in a box with possibly negative ends, bounded
    on one side only, or free; coefficients up to 5 in absolute value."""
    vs = [f"v{i}" for i in range(rng.randint(1, 4))]
    bounds = []
    for v in vs:
        lo = rng.randint(-5, 2)
        hi = lo + rng.randint(0, 5)
        kind = rng.choice(["box", "box", "above", "below", "free"])
        if kind in ("box", "above"):
            bounds.append(f"(>= {v} {lo})")
        if kind in ("box", "below"):
            bounds.append(f"(<= {v} {hi})")
    body = _random_body(rng, vs, 5)
    return vs, "(and " + " ".join(bounds + [body]) + ")"


def test_fuzz_boxes_with_negative_and_open_ends():
    """An unsat answer leaves no point in the search box [-8, 8]^n; a sat
    model satisfies the formula; unknown is never wrong."""
    rng = random.Random(29)
    answers = {"sat": 0, "unsat": 0, "unknown": 0}
    for trial in range(400):
        vs, full = _random_box_formula(rng)
        script = "".join(f"(declare-fun {v} () Int)" for v in vs)
        out = run_script(script + f"(assert {full})(check-sat)(get-model)")
        got = out.splitlines()[0]
        answers[got] += 1
        holds = _compiled(parse_sexprs(tokenize(full))[0])
        if got == "sat":
            model = _parse_model_lines(out)
            assert holds(model), (trial, model, script)
        elif got == "unsat":
            point = next((pt for pt in itertools.product(range(-8, 9), repeat=len(vs))
                          if holds(dict(zip(vs, pt)))), None)
            assert point is None, (trial, point, script)
    assert answers["sat"] > 200 and answers["unsat"] > 50, answers
