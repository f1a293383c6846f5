"""Racks and quandles with both of their operations: finite operation
tables, congruence classification and quotients, homomorphisms, and the
exact infinite structures where an equivalence relation can respect one
rack operation but not the other."""

import sys

__version__ = "0.1.0"

# Each exported name, by its home module.  A name is imported from there
# the first time it is read (PEP 562), so a command that needs only the
# finite tables never loads the modules of the infinite structures.
_EXPORTS = {
    "tables": (
        "PRIMARY", "INVERSE", "Table", "AxiomReport", "RackParseError", "validate",
        "inverse_table", "exponent", "enumerate_racks", "canonical_form", "relabel",
        "trivial", "constant_action", "dihedral", "parse_rack", "format_rack",
    ),
    "congruence": (
        "CongruenceClass", "NotACongruenceError", "Partition", "QuotientRack",
        "FiniteMap", "partitions", "parse_partition", "format_partition",
        "classify_relation", "quotient", "try_induced_table", "enumerate_congruences",
        "congruences_report", "is_subrack",
        "is_homomorphism", "find_homomorphisms", "kernel_partition",
        "first_isomorphism_check",
    ),
    "shifts": (
        "LEFT", "RIGHT", "BiSeq", "Witnesses", "NormalForm", "shift", "shift_by",
        "agree_nonneg", "shift_equivalent", "seq_rack_op", "seq_quandle_op",
        "half_congruence_witnesses", "normal_form_op", "embed_normal_form",
        "parse_biseq", "format_biseq", "random_biseq", "random_agree_partner",
    ),
    "weighted": (
        "Weight", "SubgroupDescriptor", "WitnessStatus", "WeightClassification",
        "parse_descriptor", "random_rational", "weighted_op", "coset_congruence_status",
        "find_half_witness", "sampled_congruence_check", "classify_weight",
    ),
    "laurent": (
        "POLY_RING", "LAURENT_RING", "LaurentPoly", "PrincipalSubmodule", "eval_at_one",
        "in_poly_ring", "alexander_op", "parity_shift_relation", "parity_shift_half_witness",
        "in_common_difference_set", "in_difference_set", "submodule_relation",
        "submodule_half_witness", "parse_laurent", "format_laurent", "random_laurent",
        "random_relation_partner",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# from rackq import * binds the exported names and the five modules
__all__ = [*_HOME, *_EXPORTS]


def _module(name):
    # __import__ is the import statement's machinery, which python -X
    # importtime reports; importlib.import_module goes around it
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name):
    if name in _EXPORTS:
        return _module(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_module(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
