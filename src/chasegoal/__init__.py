"""Goal-driven query answering for terminating existential rules with
equality: singularize, Skolemize, prune by relevance, focus with equality-
aware magic sets, defunctionalize, and chase with representatives."""

from .driver import (
    PipelineConfig,
    PipelineError,
    RunReport,
    dump_stage,
    emit_report,
    run_pipeline,
)
from .engine import (
    BodyContractViolation,
    ChaseResult,
    ChaseStats,
    DepthLimitExceeded,
    FactLimitExceeded,
    Limits,
    chase,
    constant_answers,
    extract_answers,
    naive_fixpoint,
)
from .eqprep import (
    check_eq_safety,
    congruence_axioms,
    reflexivity_axioms,
    singularize,
    skolemize,
    sym_trans,
)
from .finalize import NonVariableEqualityBody, defunctionalize, desingularize
from .frontend import (
    ArityMismatch,
    FrontendError,
    MalformedRule,
    Scenario,
    SortMismatch,
    UnboundFrontierVariable,
    UnknownPredicate,
    load_scenario,
    parse_instance,
    parse_program,
    parse_rules,
    parse_schema,
    serialize_program,
)
from .kernel import (
    Atom,
    Constant,
    Functional,
    Instance,
    MagicPredicate,
    Predicate,
    Program,
    Rule,
    TGD,
    Variable,
    eq,
)
from .magicsets import NoAdmissibleOrdering, adorn, magic, reorder
from .pruning import (
    AbstractionFixpointDiverged,
    abstract_functions_to_constants,
    critical_instance,
    relevance,
)

__all__ = [
    "PipelineConfig", "PipelineError", "RunReport", "dump_stage", "emit_report", "run_pipeline",
    "BodyContractViolation", "ChaseResult", "ChaseStats", "DepthLimitExceeded",
    "FactLimitExceeded", "Limits", "chase", "constant_answers", "extract_answers",
    "naive_fixpoint", "check_eq_safety", "congruence_axioms", "reflexivity_axioms",
    "singularize", "skolemize", "sym_trans", "NonVariableEqualityBody", "defunctionalize",
    "desingularize", "ArityMismatch", "FrontendError", "MalformedRule", "Scenario",
    "SortMismatch", "UnboundFrontierVariable", "UnknownPredicate", "load_scenario",
    "parse_instance", "parse_program", "parse_rules", "parse_schema", "serialize_program",
    "Atom", "Constant", "Functional", "Instance", "MagicPredicate", "Predicate", "Program",
    "Rule", "TGD", "Variable", "eq", "NoAdmissibleOrdering", "adorn", "magic", "reorder",
    "AbstractionFixpointDiverged", "abstract_functions_to_constants", "critical_instance",
    "relevance",
]
