"""Core domain types: constants, facts, instances, rule ASTs, selections, error reports.

Everything here is immutable after construction and safe to share across threads;
an `Instance` only memoizes values derived from its facts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union


class ValidationError(ValueError):
    """A domain object violates its invariants (unsafe rule, bad schema, unknown name)."""


class EvaluationError(ValueError):
    """A rule references a relation the premise instance does not provide."""


class CapacityError(RuntimeError):
    """An exhaustive solver was asked to enumerate more rules than its configured cap."""


class InfeasibleError(RuntimeError):
    """FP-mode requires the full rule set to cover the truth instance; it does not."""

    def __init__(self, missing: frozenset):
        self.missing = missing
        super().__init__(f"{len(missing)} truth fact(s) not derivable by any rule")


class CoverageError(RuntimeError):
    """A blue element of a red-blue instance is not contained in any set."""


#: Builtin predicate names reserved by the rule language.  Semantics live in
#: the evaluation module; the model and parser only need the registry keys.
BUILTIN_NAMES = frozenset({"neq", "eq", "jaccard_geq", "geq", "leq"})

#: Number of terms each builtin takes (jaccard_geq additionally takes a
#: decimal threshold literal, which is not a term).
BUILTIN_TERM_COUNTS = {"neq": 2, "eq": 2, "jaccard_geq": 2, "geq": 2, "leq": 2}

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check_constant(v) -> None:
    """Accept a constant: UTF-8 text, a 64-bit integer or a finite decimal.

    Constants are the plain Python values, so equality is Python's own: text
    "1" never equals number 1, and numbers compare by numeric value
    (1 == Decimal("1.0"), with equal hashes).
    """
    if isinstance(v, str):
        return
    if isinstance(v, bool) or not isinstance(v, (int, Decimal)):
        raise ValidationError(f"unsupported constant {v!r}")
    if isinstance(v, int):
        if not INT64_MIN <= v <= INT64_MAX:
            raise ValidationError(f"integer {v} outside the 64-bit range")
    elif not v.is_finite():
        raise ValidationError(f"decimal {v} is not finite")


def literal(v) -> str:
    """The canonical literal of a constant: quoted, escaped text or a plain number."""
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, Decimal):
        return format(v, "f")
    return str(v)


class Fact:
    """One tuple of a named relation; facts have set semantics inside an Instance.

    Immutable, and its hash is computed once, at construction: facts are
    hashed on every set operation of evaluation, error counting and packing.
    """

    __slots__ = ("relation", "args", "_hash")

    def __init__(self, relation: str, args: tuple):
        if not relation:
            raise ValidationError("fact needs a relation name")
        if not isinstance(args, tuple):
            raise ValidationError(f"fact arguments must be a tuple, not {type(args).__name__}")
        for a in args:
            check_constant(a)
        _set_relation(self, relation)
        _set_args(self, args)
        _set_hash(self, hash((relation, args)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: facts are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: facts are immutable")

    def __eq__(self, other):
        if other.__class__ is not Fact:
            return NotImplemented
        return (self._hash == other._hash and self.relation == other.relation
                and self.args == other.args)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Fact, (self.relation, self.args)

    def __repr__(self):
        return f"Fact(relation={self.relation!r}, args={self.args!r})"

    def sort_key(self):
        # Numbers before texts; numbers numerically, texts by code point.
        return (self.relation, tuple((isinstance(a, str), a) for a in self.args))

    def __str__(self):
        """The canonical text, as one line of a fact file."""
        return f"{self.relation}({', '.join(map(literal, self.args))})"


# The slots' own setters, which `Fact.__setattr__` does not guard.
_set_relation = Fact.relation.__set__
_set_args = Fact.args.__set__
_set_hash = Fact._hash.__set__
_new_object = object.__new__


def checked_fact(relation: str, args: tuple) -> Fact:
    """A `Fact` from a relation name and a tuple of constants that were
    already checked (parsed literals, premise values, rule constants): it
    skips the checks of `Fact(...)`."""
    f = _new_object(Fact)
    _set_relation(f, relation)
    _set_args(f, args)
    _set_hash(f, hash((relation, args)))
    return f


def fact(relation: str, *args) -> Fact:
    """Convenience constructor: `fact("R", "a", 1)` is `Fact("R", ("a", 1))`."""
    return Fact(relation, args)


def _grouped(facts, key: Callable) -> dict:
    # key(f.args) -> the facts f that have it
    groups: dict = {}
    for f in facts:
        groups.setdefault(key(f.args), []).append(f)
    return {k: tuple(fs) for k, fs in groups.items()}


class Instance:
    """A set of facts together with the schema (relation name -> arity) they obey.

    Values derived from the facts alone (the lookup index, rule evaluations)
    are memoized on the instance by `derived`: built on first use, published
    with `dict.setdefault` so concurrent builders agree on one object, and
    shared by every reader afterwards.  They take no part in equality or
    hashing.
    """

    __slots__ = ("schema", "facts", "_derived")

    def __init__(self, schema: Mapping[str, int], facts: Iterable[Fact]):
        self.schema = dict(schema)
        for name, arity in self.schema.items():
            if arity < 1:
                raise ValidationError(f"relation {name} has arity {arity} < 1")
        self.facts = frozenset(facts)
        # One pass over the facts checks each arity and fills the buckets.
        buckets: dict = {}
        for f in self.facts:
            rel = f.relation
            bucket = buckets.get(rel)
            if bucket is None:
                if rel not in self.schema:
                    raise ValidationError(f"fact over undeclared relation {rel}")
                bucket = buckets[rel] = []
            if len(f.args) != self.schema[rel]:
                raise ValidationError(
                    f"fact {rel}/{len(f.args)} does not match declared arity {self.schema[rel]}"
                )
            bucket.append(f)
        # None -> {relation: facts}; (relation, positions) -> {values there: facts};
        # a rule list's canonical text -> its per-rule outputs (`evaluation.evaluated`)
        self._derived: dict = {None: {rel: tuple(fs) for rel, fs in buckets.items()}}

    @classmethod
    def empty(cls, schema: Optional[Mapping[str, int]] = None):
        return cls(schema or {}, ())

    def derived(self, key, build: Callable[[], object]):
        """The value memoized under `key`, made by `build()` on first use."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived.setdefault(key, build())
        return value

    def bucket(self, name: str) -> tuple:
        """The facts of one relation, in a fixed order; empty when it has none."""
        return self._derived[None].get(name, ())

    def lookup(self, name: str, positions: tuple) -> dict:
        """Hash index of one relation on one or more argument positions:
        `itemgetter(*positions)` of a fact's arguments (the value there for
        one position, the tuple of values for several) -> facts carrying it."""
        return self.derived((name, positions), lambda: _grouped(
            self.bucket(name), itemgetter(*positions)))

    def __len__(self):
        return len(self.facts)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.schema == other.schema and self.facts == other.facts

    def __hash__(self):
        return hash((frozenset(self.schema.items()), self.facts))

    def __repr__(self):
        return f"Instance({len(self.schema)} relations, {len(self.facts)} facts)"


@dataclass(frozen=True)
class Term:
    """A variable or a constant in an atom.  Exactly one of var/const is set."""

    var: Optional[str] = None
    const: Union[str, int, Decimal, None] = None

    def __post_init__(self):
        if (self.var is None) == (self.const is None):
            raise ValidationError("term must be exactly one of variable or constant")
        if self.const is not None:
            check_constant(self.const)

    @property
    def is_var(self) -> bool:
        return self.var is not None


def var(name: str) -> Term:
    return Term(var=name)


def const(v) -> Term:
    return Term(const=v)


@dataclass(frozen=True)
class RelationalAtom:
    relation: str
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValidationError(f"atom {self.relation}() needs at least one term")

    def variables(self) -> Iterator[str]:
        for t in self.terms:
            if t.is_var:
                yield t.var


@dataclass(frozen=True)
class BuiltinAtom:
    name: str
    terms: tuple
    threshold: Optional[Decimal] = None

    def __post_init__(self):
        if self.name not in BUILTIN_NAMES:
            raise ValidationError(f"unknown builtin {self.name!r}")
        want = BUILTIN_TERM_COUNTS[self.name]
        if len(self.terms) != want:
            raise ValidationError(f"builtin {self.name} takes {want} terms")
        if (self.name == "jaccard_geq") != (self.threshold is not None):
            raise ValidationError(f"builtin {self.name}: bad threshold usage")

    def variables(self) -> Iterator[str]:
        for t in self.terms:
            if t.is_var:
                yield t.var


Atom = Union[RelationalAtom, BuiltinAtom]


@dataclass(frozen=True)
class Rule:
    """A Horn rule: conjunctive premise over the premise schema, single conclusion atom.

    Safety (every conclusion/builtin variable bound by a relational premise
    atom) is checked by `validate` and at parse time, not at construction, so
    that invalid rules can be represented and reported on.
    """

    name: str
    premise: tuple
    head: RelationalAtom

    def __post_init__(self):
        if not self.name:
            raise ValidationError("rule needs a name")
        if not self.premise:
            raise ValidationError(f"rule {self.name}: premise must be non-empty")

    def relational_atoms(self) -> list:
        return [a for a in self.premise if isinstance(a, RelationalAtom)]

    def builtin_atoms(self) -> list:
        return [a for a in self.premise if isinstance(a, BuiltinAtom)]

    def unsafe_variables(self) -> list:
        """Conclusion/builtin variables not bound by any relational premise atom."""
        bound = {v for a in self.relational_atoms() for v in a.variables()}
        unsafe = []
        for v in self.head.variables():
            if v not in bound and v not in unsafe:
                unsafe.append(v)
        for a in self.builtin_atoms():
            for v in a.variables():
                if v not in bound and v not in unsafe:
                    unsafe.append(v)
        return unsafe


class RuleSet:
    """An ordered collection of uniquely named rules over disjoint schemas S and T."""

    __slots__ = ("rules", "premise_schema", "conclusion_schema", "_by_name")

    def __init__(self, rules: Iterable[Rule], premise_schema: Mapping[str, int],
                 conclusion_schema: Mapping[str, int]):
        self.rules = tuple(rules)
        self.premise_schema = dict(premise_schema)
        self.conclusion_schema = dict(conclusion_schema)
        self._by_name = {}
        for r in self.rules:
            if r.name in self._by_name:
                raise ValidationError(f"duplicate rule name {r.name!r}")
            self._by_name[r.name] = r
        overlap = set(self.premise_schema) & set(self.conclusion_schema)
        if overlap:
            raise ValidationError(
                f"premise and conclusion schemas overlap on {sorted(overlap)}"
            )

    @classmethod
    def infer(cls, rules: Iterable[Rule]) -> "RuleSet":
        """Infer schemas from atom usage: premise relations -> S, conclusions -> T."""
        rules = tuple(rules)
        prem: dict[str, int] = {}
        conc: dict[str, int] = {}
        for r in rules:
            for a in r.relational_atoms():
                known = prem.setdefault(a.relation, len(a.terms))
                if known != len(a.terms):
                    raise ValidationError(
                        f"relation {a.relation} used with arities {known} and {len(a.terms)}"
                    )
            known = conc.setdefault(r.head.relation, len(r.head.terms))
            if known != len(r.head.terms):
                raise ValidationError(
                    f"relation {r.head.relation} used with arities "
                    f"{known} and {len(r.head.terms)}"
                )
        return cls(rules, prem, conc)

    def names(self) -> tuple:
        return tuple(r.name for r in self.rules)

    def rule(self, name: str) -> Rule:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown rule name {name!r}") from None

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __eq__(self, other):
        if not isinstance(other, RuleSet):
            return NotImplemented
        return (self.rules == other.rules
                and self.premise_schema == other.premise_schema
                and self.conclusion_schema == other.conclusion_schema)

    def __repr__(self):
        return f"RuleSet({len(self.rules)} rules)"


@dataclass(frozen=True)
class DataExample:
    """A premise instance paired with a ground-truth conclusion instance."""

    premise: Instance
    truth: Instance


#: A selection is the set of chosen rule names.
Selection = frozenset


def check_selection(rules: RuleSet, selection: Iterable[str]) -> Selection:
    """Normalize to a frozenset and reject names that are not in the rule set."""
    sel = frozenset(selection)
    unknown = sel - set(rules.names())
    if unknown:
        raise ValidationError(f"selection references unknown rules {sorted(unknown)}")
    return sel


@dataclass(frozen=True)
class ErrorReport:
    """False positives and false negatives of a selection against a data example."""

    fp: frozenset
    fn: frozenset

    @property
    def fp_count(self) -> int:
        return len(self.fp)

    @property
    def fn_count(self) -> int:
        return len(self.fn)

    @property
    def total(self) -> int:
        return len(self.fp) + len(self.fn)


@dataclass(frozen=True)
class EvalLimits:
    """Bounds that keep evaluation polynomial: atoms per premise, conclusion arity."""

    max_premise_atoms: int
    max_conclusion_arity: int

    def __post_init__(self):
        if self.max_premise_atoms < 1 or self.max_conclusion_arity < 1:
            raise ValidationError("evaluation limits must be positive")


@dataclass(frozen=True)
class ParetoPoint:
    """An (error, size) pair, optionally with a selection realizing it."""

    error: int
    size: int
    witness: Optional[Selection] = None


def display_var(name: str) -> str:
    """Render a variable for messages; parser-generated anonymous vars show as `_`."""
    return "_" if name.startswith("_#") else name


@dataclass(frozen=True)
class Violation:
    rule: Optional[str]
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def rule_size(rule: Rule) -> int:
    """Number of premise atoms, relational and builtin alike."""
    return len(rule.premise)


def ruleset_size(selection: Iterable[str], rules: RuleSet) -> int:
    """Sum of rule sizes over the chosen rules; 0 for the empty selection."""
    sel = check_selection(rules, selection)
    return sum(rule_size(rules.rule(name)) for name in sel)


def validate(rules: RuleSet, limits: Optional[EvalLimits] = None) -> ValidationReport:
    """Check safety, schema disjointness, and (when given) evaluation limits.

    Returns a report rather than raising, so that every violation can be
    listed with the offending rule's name.
    """
    violations = []
    overlap = set(rules.premise_schema) & set(rules.conclusion_schema)
    if overlap:
        violations.append(Violation(None, f"schemas overlap on {sorted(overlap)}"))
    for r in rules.rules:
        for a in r.relational_atoms():
            arity = rules.premise_schema.get(a.relation)
            if arity is None:
                violations.append(Violation(r.name, f"undeclared premise relation {a.relation}"))
            elif arity != len(a.terms):
                violations.append(Violation(
                    r.name, f"{a.relation} used with arity {len(a.terms)}, declared {arity}"))
        arity = rules.conclusion_schema.get(r.head.relation)
        if arity is None:
            violations.append(Violation(r.name, f"undeclared conclusion relation {r.head.relation}"))
        elif arity != len(r.head.terms):
            violations.append(Violation(
                r.name, f"{r.head.relation} used with arity {len(r.head.terms)}, declared {arity}"))
        unsafe = r.unsafe_variables()
        if unsafe:
            shown = ", ".join(display_var(v) for v in unsafe)
            violations.append(Violation(r.name, f"unsafe: {shown} unbound"))
        if limits is not None:
            if rule_size(r) > limits.max_premise_atoms:
                violations.append(Violation(
                    r.name,
                    f"premise has {rule_size(r)} atoms, limit {limits.max_premise_atoms}"))
            if len(r.head.terms) > limits.max_conclusion_arity:
                violations.append(Violation(
                    r.name,
                    f"conclusion arity {len(r.head.terms)} exceeds limit "
                    f"{limits.max_conclusion_arity}"))
    return ValidationReport(tuple(violations))
