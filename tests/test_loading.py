"""What importing rackq loads: the package imports a module the first
time one of its names is read, and the command line imports the modules
of the infinite structures only for the commands that use them."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import rackq

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every exported name, by its home module; "from rackq import *" binds
# these and the five modules.
EXPORTED = {
    "tables": [
        "PRIMARY", "INVERSE", "Table", "AxiomReport", "RackParseError", "validate",
        "inverse_table", "exponent", "enumerate_racks", "canonical_form", "relabel",
        "trivial", "constant_action", "dihedral", "parse_rack", "format_rack",
    ],
    "congruence": [
        "CongruenceClass", "NotACongruenceError", "Partition", "QuotientRack",
        "FiniteMap", "partitions", "parse_partition", "format_partition",
        "classify_relation", "quotient", "try_induced_table", "enumerate_congruences",
        "congruences_report", "is_subrack",
        "is_homomorphism", "find_homomorphisms", "kernel_partition",
        "first_isomorphism_check",
    ],
    "shifts": [
        "LEFT", "RIGHT", "BiSeq", "Witnesses", "NormalForm", "shift", "shift_by",
        "agree_nonneg", "shift_equivalent", "seq_rack_op", "seq_quandle_op",
        "half_congruence_witnesses", "normal_form_op", "embed_normal_form",
        "parse_biseq", "format_biseq", "random_biseq", "random_agree_partner",
    ],
    "weighted": [
        "Weight", "SubgroupDescriptor", "WitnessStatus", "WeightClassification",
        "parse_descriptor", "random_rational", "weighted_op", "coset_congruence_status",
        "find_half_witness", "sampled_congruence_check", "classify_weight",
    ],
    "laurent": [
        "POLY_RING", "LAURENT_RING", "LaurentPoly", "PrincipalSubmodule", "eval_at_one",
        "in_poly_ring", "alexander_op", "parity_shift_relation",
        "in_common_difference_set", "in_difference_set", "submodule_relation",
        "parse_laurent", "format_laurent", "random_laurent", "random_relation_partner",
        "submodule_half_witness", "parity_shift_half_witness",
    ],
}

# Modules that no table command needs
NOT_LOADED = (
    "rackq.demos", "rackq.laurent", "rackq.shifts", "rackq.weighted", "fractions", "dataclasses",
)

# Every module of the package
RACKQ_MODULES = (
    "rackq", "rackq.cli", "rackq.tables", "rackq._search", "rackq.congruence", "rackq.demos",
    "rackq.laurent", "rackq.shifts", "rackq.weighted",
)


def _loaded_after(code, among=NOT_LOADED):
    """Names among `among` in sys.modules after running code in a fresh
    interpreter with rackq on the path."""
    probe = code + (
        f"\nimport json, sys\nprint(json.dumps(sorted(set({among!r}) & set(sys.modules))))"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def d4_file(tmp_path):
    path = tmp_path / "d4.rack"
    path.write_text(rackq.format_rack(rackq.dihedral(4)))
    return str(path)


# Loaded by every command
ALWAYS = ["rackq", "rackq.cli", "rackq.tables"]


def _loaded_by_command(argv):
    """The modules among NOT_LOADED and RACKQ_MODULES that the command
    line loads for argv, in a fresh interpreter; the command must exit 0."""
    code = (
        "import contextlib, io\n"
        "import rackq.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    return _loaded_after(code, NOT_LOADED + RACKQ_MODULES)


@pytest.mark.parametrize("argv", [
    ["validate", "{path}"],
    ["congruences", "{path}", "--partition", "0,2|1,3"],
    ["quotient", "{path}", "--partition", "0,2|1,3"],
    ["enumerate", "3"],
    ["inverse", "{path}"],
    ["congruences", "{path}"],
    ["subrack", "{path}", "--subset", "0,2"],
    ["hom-check", "{path}", "{path}", "--map", "0,1,2,3"],
    ["iso-check", "{path}", "{path}", "--map", "0,1,2,3"],
    ["enumerate", "3", "--up-to-iso"],
])
def test_table_commands_load_only_the_finite_modules(argv, d4_file):
    # validate and inverse load tables alone, only enumerate loads the
    # search, and the other table commands add congruence
    argv = [a.format(path=d4_file) for a in argv]
    extra = {"validate": [], "inverse": [], "enumerate": ["rackq._search"]}.get(
        argv[0], ["rackq.congruence"])
    assert _loaded_by_command(argv) == sorted(ALWAYS + extra)


def test_tables_loads_the_search_module_when_one_of_its_names_is_read():
    assert _loaded_after("import rackq.tables", RACKQ_MODULES) == ["rackq", "rackq.tables"]
    assert _loaded_after("import rackq\nrackq.dihedral(3)\nrackq.validate", RACKQ_MODULES) == [
        "rackq", "rackq.tables",
    ]
    assert _loaded_after("import rackq.tables\nrackq.tables.canonical_form", RACKQ_MODULES) == [
        "rackq", "rackq._search", "rackq.tables",
    ]
    assert _loaded_after("from rackq.tables import enumerate_racks", RACKQ_MODULES) == [
        "rackq", "rackq._search", "rackq.tables",
    ]
    # the weighted module takes the congruence classes from tables
    assert _loaded_after("import rackq.weighted", RACKQ_MODULES) == [
        "rackq", "rackq.tables", "rackq.weighted",
    ]


def test_tables_forwards_the_search_names_to_one_object_each():
    from rackq import _search, congruence, tables

    assert tables.canonical_form is _search.canonical_form
    assert rackq.canonical_form is _search.canonical_form
    assert rackq.enumerate_racks is tables.enumerate_racks is _search.enumerate_racks
    for name in sorted(tables._SEARCH):
        value = getattr(tables, name)
        assert value is getattr(_search, name)
        assert vars(tables)[name] is value
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        tables.not_a_name
    assert congruence.CongruenceClass is tables.CongruenceClass
    assert congruence._CLASS_OF is tables._CLASS_OF
    assert rackq.CongruenceClass is tables.CongruenceClass


def test_tables_forwards_only_the_public_search_names():
    from rackq import _search, tables

    assert tables._SEARCH == {"canonical_form", "enumerate_racks"}
    for name in ("_canonical_rows", "_composition_table", "_rack_columns", "_roots",
                 "_twins", "_take_least_label", "_place_cell", "_same_orbit"):
        assert callable(getattr(_search, name))
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(tables, name)


def test_package_loads_a_module_when_one_of_its_names_is_read():
    assert _loaded_after("import rackq") == []
    assert _loaded_after("import rackq\nrackq.dihedral(3)") == []
    assert _loaded_after("import rackq\nrackq.laurent.ONE") == ["rackq.laurent"]
    assert _loaded_after("from rackq import BiSeq") == ["rackq.shifts"]


def test_weight_command_loads_the_weighted_module():
    # and not congruence, whose classes weighted takes from tables
    loaded = _loaded_by_command(["classify-tau", "2/3", "--samples", "0"])
    assert loaded == sorted(ALWAYS + ["fractions", "rackq.weighted"])


@pytest.mark.parametrize("name, loaded", [
    ("b_ell", ["rackq.demos", "rackq.shifts"]),
    ("b_quandle", ["rackq.demos", "rackq.shifts"]),
    ("b0", ["rackq.demos", "rackq.shifts"]),
    ("alexander", ["rackq.demos", "rackq.laurent"]),
])
def test_each_demo_loads_only_the_module_of_its_structure(name, loaded):
    # and no congruence or search code
    assert _loaded_by_command(["demo", name, "--samples", "2"]) == sorted(ALWAYS + loaded)


def test_star_import_binds_the_exported_names():
    namespace = {}
    exec("from rackq import *", namespace)
    del namespace["__builtins__"]
    expected = {name for names in EXPORTED.values() for name in names} | set(EXPORTED)
    assert set(namespace) == expected
    for module, names in EXPORTED.items():
        home = namespace[module]
        assert home is sys.modules[f"rackq.{module}"]
        for name in names:
            assert namespace[name] is getattr(home, name)


def test_submodules_and_names_resolve_on_first_access():
    assert rackq.laurent is sys.modules["rackq.laurent"]
    assert rackq.LaurentPoly is rackq.laurent.LaurentPoly
    assert rackq.PRIMARY == "primary"
    assert set(rackq.__all__) <= set(dir(rackq))
    assert rackq.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        rackq.not_a_name
    assert not hasattr(rackq, "Record")
    # the brute-force map list is a test reference now, not an export
    with pytest.raises(AttributeError, match="no attribute 'all_maps'"):
        rackq.all_maps
    with pytest.raises(ImportError):
        exec("from rackq import not_a_name", {})


# ---------------------------------------------------------------------------
# the README "Library quick tour"

def _tour():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_tour_runs_and_its_comments_hold():
    code = _tour()
    lines = code.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(code).body:
        source = "\n".join(lines[stmt.lineno - 1:stmt.end_lineno])
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        if comment in ("True", "False") or comment.isdigit():
            assert repr(value) == comment, source
        elif comment.isupper():
            assert value.name == comment, source
        elif comment.startswith("CongruenceClass."):
            assert f"{type(value).__name__}.{value.name}" == comment, source
        elif comment == "the trivial quandle of order 2":
            assert value == namespace["trivial"](2)
        elif comment == "right shift of spike":
            ns = namespace
            assert value == ns["shift"](ns["w"].spike, ns["RIGHT"])
        else:
            raise AssertionError(f"unchecked tour comment: {comment!r}")
        checked += 1
    assert checked == 8
