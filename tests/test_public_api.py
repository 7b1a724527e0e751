"""The package's public names, so that removing one is a visible change,
and their budgets, each a number that defaults to the CLI's."""
from __future__ import annotations

import inspect

import qeqlog
from qeqlog.deduce import BUDGET_INSTANCES
from qeqlog.gmet import BUDGET_INTERPS

PUBLIC_NAMES = [
    "App", "BudgetExceeded", "DerivationDB", "EMCandidate", "EMLawViolation", "EpsGrid",
    "FREL", "FreeAlgebra", "FuzzySpace", "GMetSpec", "GridMismatch", "HornClause",
    "Judgment", "MET", "MonadInstance", "NotAModel", "NotNonexpansive", "OVERFLOW",
    "OutOfUniverse", "PMET", "PreconditionViolation", "QeqlogError", "QuantAlgebra",
    "Signature", "SpecViolation", "Term", "Theory", "TrivialPair", "UnknownFact",
    "UnknownVariable", "UnsupportedPreset", "Var", "apply_subst", "build_free",
    "canonical_cmp", "check_em_laws", "check_free_is_model", "check_hom_image_model",
    "check_monad_laws", "check_nontrivial", "check_space", "check_ump", "deduce",
    "derives", "discrete_lift", "distance", "em_from_model", "entails_catalog",
    "enumerate_nonexpansive", "enumerate_universe", "errors", "eval_term", "extend_hom",
    "free", "free_eval", "gen_nonexpansive_axioms", "gmet", "is_homomorphism", "is_model",
    "is_nonexpansive", "m_map", "m_mult", "m_object", "m_unit", "model_from_em", "monad",
    "parse_term", "qalg", "satisfies", "saturate", "term_to_str", "terms", "trace",
]


def test_public_names_unchanged():
    assert sorted(qeqlog.__all__) == PUBLIC_NAMES


INSTANCE_BUDGETS = ["DerivationDB", "MonadInstance", "build_free", "saturate"]
INTERP_BUDGETS = ["check_free_is_model", "check_hom_image_model", "check_ump", "em_from_model",
                  "entails_catalog", "enumerate_nonexpansive", "extend_hom", "is_model",
                  "satisfies"]


def test_every_budget_defaults_to_a_number():
    defaults = {}
    for name in qeqlog.__all__:
        obj = getattr(qeqlog, name)
        # an exception class has no signature to read
        if inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, Exception):
            budget = inspect.signature(obj).parameters.get("budget")
            if budget is not None:
                defaults[name] = budget.default
    assert defaults == {**dict.fromkeys(INSTANCE_BUDGETS, BUDGET_INSTANCES),
                        **dict.fromkeys(INTERP_BUDGETS, BUDGET_INTERPS)}
