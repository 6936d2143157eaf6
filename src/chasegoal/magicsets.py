"""Equality-aware magic sets.

Adornments mark each argument position of a derived predicate as bound (b)
or free (f).  The equality predicate only ever gets the collapsed one-sided
form "eqb": bf and fb are the same demand up to symmetry, a fully bound
equality demands each side separately, and ff is not allowed.  Bodies are
reordered so that every equality atom has a variable bound by the magic
seed or by an earlier relational atom; programs where no such ordering
exists are rejected.

Demand is emitted only for body atoms some rule can derive, equalities
included: a body equality is demanded only when some rule has an equality
head.  A demand rule that a freer demand rule on the same predicate always
outruns is left out of the output (subsumptive demand, Tekle and Liu,
SIGMOD 2011), so demand on a predicate stays as free as the freest demand
that reaches it.  A predicate that the seed demands in full gets no bound
demand at all, and no rule copy makes a demand that its own guard makes.
Subsumption is decided one demand predicate at a time, before that demand
is explored, and only demand that a kept rule derives is explored, so
every demand the output reads is derived.
"""

from __future__ import annotations

from typing import Iterable

from .kernel import (
    EQUALITY,
    Atom,
    Instance,
    JoinPlan,
    MagicPredicate,
    PredicateId,
    Program,
    Rule,
    Term,
    Variable,
    rule_atoms,
    vars_of,
)


class NoAdmissibleOrdering(ValueError):
    pass


def adorn(atom: Atom, bound: "set") -> str:
    """Raw adornment of an atom given the bound variables: a position is
    bound iff all its variables are."""
    return "".join("b" if vars_of(t) <= bound else "f" for t in atom.args)


def reorder(body: Iterable[Atom], bound_terms: Iterable[Term]) -> "tuple[Atom, ...]":
    """Admissible body ordering: relational atoms keep their relative order
    and each equality atom is emitted as soon as one of its variables is
    bound (by `bound_terms` or by an emitted relational atom): before the
    first relational atom, after each, and the rest once the last is out."""
    body = tuple(body)
    binders = vars_of(bound_terms)
    result: list[Atom] = []
    pending = [a for a in body if a.is_equality]
    for atom in (*(a for a in body if not a.is_equality), None):
        keep = []
        for e in pending:
            (result if vars_of(e) & binders else keep).append(e)
        pending = keep
        if atom is not None:
            result.append(atom)
            binders |= vars_of(atom)
    if pending:
        raise NoAdmissibleOrdering(
            "no admissible ordering: %r has no bound variable" % (pending[0],)
        )
    return tuple(result)


def magic(program: Program) -> Program:
    """Magic-set transformation seeded by an all-free demand on the query
    predicate.  Magic rules are emitted for body atoms whose predicate
    occurs in some head of the program, the equality predicate included; an
    equality demand bound on one side is processed under both orientations.

    Before any demand is explored, `magic` finds the predicates the seed
    demands in full: the query, and each derived predicate that, with no
    ground argument, is the first relational body atom of a rule for one of
    them.  Their all-free demand holds in every run, and the copies under it
    answer any bound call, as magic sets allow (Beeri and Ramakrishnan, "On
    the power of magic", JLP 1991): no demand binding one is generated.
    Nor does the copy under m_P#β, β not eqb, demand a body atom on P with
    the head's terms wherever β binds, as its guard covers that call: nine
    rules A(?xi), P(x̄) -> P(x̄) under B(?z), P(x̄) -> Q(?x1) make 12, not 9219.

    Each demand predicate's turn makes the rule copies and demand rules it
    guards.  `_subsumed_demand` drops from that batch the demand rules that
    freer ones of it outrun: a demand rule's only magic atom is its guard,
    and a subsumer's body maps into the subsumee's, so both share a turn.
    The rest are emitted in order, and a demand predicate is queued once a
    kept rule derives it."""
    if program.query is None:
        raise ValueError("magic needs a program with a query predicate")

    by_head: dict[PredicateId, list[Rule]] = {}
    for r in program.rules:
        by_head.setdefault(r.head.predicate, []).append(r)

    # Under all-free demand `reorder` binds nothing and puts the first
    # relational atom first: its demand rule's body is the nullary guard.
    full, todo = {program.query}, [program.query]
    while todo:
        for rule in by_head.get(todo.pop(), ()):
            first = next((a for a in rule.body if not a.is_equality), None)
            if first is not None and first.predicate in by_head and first.predicate not in full:
                if "b" not in adorn(first, set()):
                    full.add(first.predicate)
                    todo.append(first.predicate)

    seed = MagicPredicate(program.query, "f" * program.query.arity)
    out = [Rule(Atom(seed, ()), ())]
    queued = {seed}
    work = [seed]  # the loop below appends to it while it reads it

    def process(rule: Rule, m: MagicPredicate, beta: str):
        """The copy of `rule` guarded by demand `m` under head adornment
        `beta`, then the demand rules of its body in body order."""
        bound_terms = tuple(t for t, a in zip(rule.head.args, beta) if a == "b")
        magic_atom = Atom(m, bound_terms)
        ordered = reorder(rule.body, bound_terms)
        yield Rule(rule.head, (magic_atom,) + ordered)
        bound = vars_of(bound_terms)
        for i, b in enumerate(ordered):
            raw = adorn(b, bound)
            covered = (b.predicate in full and "b" in raw) or (m.adornment != "eqb" and b.predicate == m.base
                and all(b.args[j] == rule.head.args[j] for j in _bound_positions(beta)))
            if b.predicate in by_head and not covered:
                if b.is_equality:
                    # Body equality sides are variables or constants, and
                    # `reorder` placed the equality after a binder of one of
                    # its variables, so a side is bound.  One demand per
                    # bound side. A fully bound equality is a check;
                    # demanding each side's class separately lets every
                    # equality step that touches either class fire, and merge
                    # rewriting of the demand facts carries the interest along
                    # a proof chain. A two-sided demand predicate would need
                    # symmetry and transitivity rules as demand sources, which
                    # no admissible ordering can accommodate.
                    sub = MagicPredicate(EQUALITY, "eqb")
                    demands = [
                        (t,) for t, a in zip(b.args, raw) if a == "b"
                    ]
                else:
                    sub = MagicPredicate(b.predicate, raw)
                    demands = [tuple(t for t, a in zip(b.args, raw) if a == "b")]
                for args in demands:
                    yield Rule(Atom(sub, args), (magic_atom,) + ordered[:i])
            bound |= vars_of(b)

    for m in work:
        betas = ("bf", "fb") if m.adornment == "eqb" else (m.adornment,)
        batch = dict.fromkeys(
            r for rule in by_head.get(m.base, ()) for beta in betas for r in process(rule, m, beta)
        )
        subsumed = _subsumed_demand(batch)
        for r in batch:
            if r not in subsumed:
                out.append(r)
                p = r.head.predicate
                if isinstance(p, MagicPredicate) and p not in queued:
                    queued.add(p)
                    work.append(p)
    return Program(tuple(out), program.query)


def _subsumed_demand(rules: "Iterable[Rule]") -> "set[Rule]":
    """Rules that freer demand always outruns.

    A rule deriving m_R#α(t̄), α other than the equality's eqb, is subsumed
    by a rule deriving m_R#β(ȳ) when β binds a strict subset of α's
    positions, ȳ are distinct variables, and the second body maps into the
    first with ȳ sent to the arguments of t̄ at β's positions; the test runs
    the second body's join plan, entered at its head, on the first body
    frozen into an instance (`_freeze`).
    Whenever the first rule fires, the second fires on the same facts and
    demands R with fewer positions fixed.  A subsumer dropped in turn has a
    kept subsumer of its own, since the test composes and each step frees a
    position, and `magic` copies every rule of R under each demand it keeps:
    each rule the demand m_R#α would feed has a copy that fires on a freer
    demand.  `magic` runs the test on one demand predicate's batch."""
    by_base: dict = {}
    for r in rules:
        p = r.head.predicate
        if isinstance(p, MagicPredicate) and p.adornment != "eqb" and _freezable(r):
            by_base.setdefault(p.base, []).append(r)
    out = set()
    for group in by_base.values():
        for r in group:
            alpha = r.head.predicate.adornment
            frozen = None
            for s in group:
                beta, ys = s.head.predicate.adornment, s.head.args
                if not (
                    len(ys) < len(r.head.args)
                    and all(a == "b" for a, b in zip(alpha, beta) if b == "b")
                    and all(isinstance(y, Variable) for y in ys)
                    and len(set(ys)) == len(ys)
                ):
                    continue
                if frozen is None:
                    frozen, ids = _freeze(r)
                args = dict(zip(_bound_positions(alpha), r.head.args))
                demand = tuple(ids[args[i]] for i in _bound_positions(beta))
                if JoinPlan(s.body, entry=s.head).holds(demand, frozen):
                    out.add(r)
                    break
    return out


def _freezable(rule: Rule) -> bool:
    """Whether every argument in the rule is a variable or a ground term: a
    rule with a function term over a variable takes no part in the test."""
    return all(t.id is not None or isinstance(t, Variable) for a in rule_atoms(rule) for t in a.args)


def _freeze(rule: Rule) -> "tuple[Instance, dict[Term, int]]":
    """A rule's body frozen into an instance, and the id of each of the
    rule's terms there: a ground term keeps its own, and each variable gets
    a negative id, which no term has."""
    terms = dict.fromkeys(t for a in rule_atoms(rule) for t in a.args)
    ids = {t: -1 - i if t.id is None else t.id for i, t in enumerate(terms)}
    frozen = Instance()
    for a in rule.body:
        frozen.extend(a[0], [tuple([ids[t] for t in a[1]])])
    return frozen, ids


def _bound_positions(adornment: str) -> "list[int]":
    return [i for i, c in enumerate(adornment) if c == "b"]
