"""Final rewrites before the chase: defunctionalization replaces function
terms and constants in rule bodies with variables constrained by graph
predicates, desingularization folds the remaining body equalities away.
After both, rule bodies contain nothing but variables."""

from __future__ import annotations

import itertools
import re
from typing import Iterable

from .kernel import (
    Atom,
    Constant,
    Functional,
    Predicate,
    Program,
    Rule,
    Term,
    Variable,
    fresh_name,
    rule_atoms,
    substitute,
    vars_of,
)


class NonVariableEqualityBody(ValueError):
    pass


# ---------------------------------------------------------------------------
# Defunctionalization
# ---------------------------------------------------------------------------


_NOT_BARE = re.compile(r"[^A-Za-z0-9_]")


def graph_predicate(t: "Constant | Functional") -> Predicate:
    """The graph predicate `con_<text>#` of a constant, unary, or
    `fun_<symbol>#` of a function symbol, with one argument more than the
    term.  Each character of the text outside a bare constant's
    (`Constant._bare`) is its code point in hex between apostrophes (`'a b'`
    gets `con_a'20'b#`): an injective code the program grammar reads."""
    if isinstance(t, Constant):
        return Predicate("con_%s#" % _NOT_BARE.sub(lambda m: "'%x'" % ord(m.group()), t.name), 1)
    return Predicate("fun_%s#" % t.symbol, len(t.args) + 1)


def _head_functionals(atom: Atom):
    """Functional subterms of a head atom, innermost first, deduplicated."""
    seen = []

    def walk(t: Term):
        if isinstance(t, Functional):
            for a in t.args:
                walk(a)
            if t not in seen:
                seen.append(t)

    for t in atom.args:
        walk(t)
    return seen


def defunctionalize(program: Program) -> Program:
    """Replace body occurrences of constants and function terms by fresh
    variables bound through graph atoms (con_c#(z), fun_f#(args,z)) placed
    right before the atom that contained the occurrence, innermost term
    first.  For every function symbol that occurred in some body, each rule
    with that symbol in its head additionally yields a companion rule
    deriving the graph fact fun_f#(args, f(args)).  One fact rule con_c#(c)
    per constant closes the construction."""
    body_symbols: set[str] = set()
    fact_rules: dict[str, Rule] = {}
    rewritten: list[Rule] = []

    for rule in program.rules:
        taken = {v.name for v in vars_of(rule_atoms(rule))}
        names = ("z#%d" % n for n in itertools.count(1))

        mapping: dict[Term, Variable] = {}
        new_body: list[Atom] = []
        for atom in rule.body:
            graph_atoms: list[Atom] = []

            def rewrite(t: Term) -> Term:
                if isinstance(t, Variable):
                    return t
                constant = isinstance(t, Constant)
                args = () if constant else tuple(rewrite(a) for a in t.args)
                key = t if constant else Functional(t.symbol, args)
                z = mapping.get(key)
                if z is None:
                    z = mapping[key] = Variable(fresh_name(names, taken))
                    graph = graph_predicate(key)
                    if constant:
                        fact_rules.setdefault(t.name, Rule(Atom(graph, (t,)), ()))
                    else:
                        body_symbols.add(t.symbol)
                    graph_atoms.append(Atom(graph, args + (z,)))
                return z

            new_args = tuple(rewrite(t) for t in atom.args)
            new_body.extend(graph_atoms)
            new_body.append(Atom(atom.predicate, new_args))
        rewritten.append(Rule(rule.head, tuple(new_body)))

    out: list[Rule] = []
    seen: set[Rule] = set()
    for rule in rewritten:
        out.append(rule)
        for t in _head_functionals(rule.head):
            if t.symbol not in body_symbols:
                continue
            companion = Rule(
                Atom(graph_predicate(t), t.args + (t,)),
                rule.body,
            )
            if companion not in seen:
                seen.add(companion)
                out.append(companion)
    for name in sorted(fact_rules):
        out.append(fact_rules[name])
    return Program(tuple(out), program.query)


# ---------------------------------------------------------------------------
# Desingularization
# ---------------------------------------------------------------------------


def inline_equalities(rule: Rule, positions: "Iterable[int]") -> Rule:
    """Fold the body equalities ?x = t at `positions` away, left to right,
    each by substituting t for ?x in the whole rule.  An equality whose left
    side is not a variable (after the earlier substitutions) cannot be
    folded."""
    positions = set(positions)
    head, body = rule.head, list(rule.body)
    for j in sorted(positions):
        lhs, rhs = body[j].args
        if not isinstance(lhs, Variable):
            raise NonVariableEqualityBody(
                "left side of %r is not a variable in %r" % (body[j], rule)
            )
        sub = {lhs: rhs}
        head = substitute(sub, head)
        body = [substitute(sub, a) for a in body]
    return Rule(head, tuple(a for j, a in enumerate(body) if j not in positions))


def desingularize(program: Program) -> Program:
    """Inline every body equality, then drop duplicate body atoms."""
    out = []
    for rule in program.rules:
        r = inline_equalities(rule, [j for j, a in enumerate(rule.body) if a.is_equality])
        out.append(Rule(r.head, tuple(dict.fromkeys(r.body))))
    return Program(tuple(out), program.query)
