import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from rackq import cli
from rackq import tables as tb


@pytest.fixture
def rack_file(tmp_path):
    def write(name, table):
        path = tmp_path / name
        path.write_text(tb.format_rack(table))
        return str(path)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_dihedral(rack_file, capsys):
    path = rack_file("d3.rack", tb.dihedral(3))
    code, doc = run(capsys, "validate", path)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"] == {
        "order": 3,
        "idempotent": True,
        "right_invertible": True,
        "right_self_distributive": True,
        "is_rack": True,
        "is_quandle": True,
        "exponent": 2,
    }


def test_validate_trivial2(rack_file, capsys):
    code, doc = run(capsys, "validate", rack_file("t2.rack", tb.trivial(2)))
    assert code == 0
    assert doc["payload"]["is_quandle"] and doc["payload"]["exponent"] == 1


def test_validate_axiom_failure_is_still_ok_status(rack_file, capsys):
    not_rack = tb.Table(((0, 1), (1, 0)))
    code, doc = run(capsys, "validate", rack_file("x.rack", not_rack))
    assert code == 0
    assert doc["payload"]["right_invertible"] is True
    assert doc["payload"]["right_self_distributive"] is False
    assert "exponent" not in doc["payload"]


def test_validate_out_of_range_entry(tmp_path, capsys):
    path = tmp_path / "bad.rack"
    path.write_text("3\n0 2 1\n2 7 0\n1 0 2\n")
    code, doc = run(capsys, "validate", str(path))
    assert code == 2
    assert doc["status"] == "error"
    assert doc["payload"] == {}
    assert any("entry out of range" in d for d in doc["diagnostics"])


def test_validate_missing_file(capsys):
    code, doc = run(capsys, "validate", "/no/such/file.rack")
    assert code == 2 and doc["status"] == "error"


def test_inverse(rack_file, capsys):
    table = tb.constant_action((1, 2, 0))
    code, doc = run(capsys, "inverse", rack_file("c3.rack", table))
    assert code == 0
    assert doc["payload"]["table"] == [[2, 2, 2], [0, 0, 0], [1, 1, 1]]


def test_enumerate(capsys):
    code, doc = run(capsys, "enumerate", "3", "--quandles", "--up-to-iso")
    assert code == 0
    assert doc["payload"]["count"] == 3
    assert len(doc["payload"]["tables"]) == 3


def test_enumerate_order_too_big(capsys):
    code, doc = run(capsys, "enumerate", "7")
    assert code == 2 and doc["status"] == "error"


def test_congruences_census(rack_file, capsys):
    code, doc = run(capsys, "congruences", rack_file("d3.rack", tb.dihedral(3)))
    assert code == 0
    classes = [entry["class"] for entry in doc["payload"]["congruences"]]
    assert sorted(classes) == ["Both", "Both", "Neither", "Neither", "Neither"]
    assert doc["payload"]["count"] == 5


def test_congruences_single_partition(rack_file, capsys):
    path = rack_file("d4.rack", tb.dihedral(4))
    code, doc = run(capsys, "congruences", path, "--partition", "0,2|1,3")
    assert code == 0
    assert doc["payload"]["class"] == "Both"
    assert doc["payload"]["partition"] == [[0, 2], [1, 3]]


def test_congruences_never_report_half_tags_on_finite_racks(rack_file, capsys):
    for t in tb.enumerate_racks(3, up_to_iso=True):
        code, doc = run(capsys, "congruences", rack_file("r.rack", t))
        assert code == 0
        assert all(
            entry["class"] in ("Both", "Neither")
            for entry in doc["payload"]["congruences"]
        )


def test_congruences_bad_partition_literal(rack_file, capsys):
    path = rack_file("d4.rack", tb.dihedral(4))
    code, doc = run(capsys, "congruences", path, "--partition", "0;1")
    assert code == 2 and doc["status"] == "error"


def test_quotient(rack_file, capsys):
    path = rack_file("d4.rack", tb.dihedral(4))
    code, doc = run(capsys, "quotient", path, "--partition", "0,2|1,3")
    assert code == 0
    assert doc["payload"]["table"] == [[0, 0], [1, 1]]
    assert doc["payload"]["is_quandle"] is True


def test_quotient_of_non_congruence_names_the_class(rack_file, capsys):
    path = rack_file("d3.rack", tb.dihedral(3))
    code, doc = run(capsys, "quotient", path, "--partition", "0,1|2")
    assert code == 2
    assert any("Neither" in d for d in doc["diagnostics"])


def test_subrack(rack_file, capsys):
    path = rack_file("d3.rack", tb.dihedral(3))
    assert run(capsys, "subrack", path, "--subset", "0")[1]["payload"]["is_subrack"] is True
    assert run(capsys, "subrack", path, "--subset", "0,1")[1]["payload"]["is_subrack"] is False


def test_hom_and_iso_check(rack_file, capsys):
    d4 = rack_file("d4.rack", tb.dihedral(4))
    t2 = rack_file("t2.rack", tb.trivial(2))
    code, doc = run(capsys, "hom-check", d4, t2, "--map", "0,1,0,1")
    assert code == 0 and doc["payload"]["is_homomorphism"] is True

    code, doc = run(capsys, "iso-check", d4, t2, "--map", "0,1,0,1")
    assert code == 0
    assert doc["payload"]["first_isomorphism"] is True
    assert doc["payload"]["kernel_blocks"] == [[0, 2], [1, 3]]
    assert doc["payload"]["kernel_class"] == "Both"

    code, doc = run(capsys, "iso-check", d4, d4, "--map", "0,0,1,0")
    assert code == 2 and doc["status"] == "error"


def test_hom_and_iso_check_refuse_a_table_that_is_not_right_invertible(rack_file, capsys):
    # z2 = 2 / 0 0 / 0 0: once `false` for a map breaking *, and an error
    # for a map respecting it
    z2 = rack_file("z2.rack", tb.Table(((0, 0), (0, 0))))
    for command in ("hom-check", "iso-check"):
        for image in ("0,0", "0,1", "1,0", "1,1"):
            code, doc = run(capsys, command, z2, z2, "--map", image)
            assert code == 2 and doc["status"] == "error"
            assert doc["diagnostics"] == ["column 0 is not a permutation; not right invertible"]


def test_classify_tau_cases(capsys):
    for tau, case in (("-1", 1), ("1/2", 2), ("2", 3), ("2/3", 4)):
        code, doc = run(capsys, "classify-tau", tau, "--samples", "50")
        assert code == 0
        assert doc["payload"]["case"] == case


def test_classify_tau_accepts_negative_fractions(capsys):
    code, doc = run(capsys, "classify-tau", "-1/2", "--samples", "20")
    assert code == 0
    assert doc["payload"]["case"] == 2 and doc["payload"]["tau"] == "-1/2"


def test_classify_tau_accepts_negative_decimals_with_exponents(capsys):
    _, expected = run(capsys, "classify-tau", "-1/4", "--samples", "0")
    for literal in ("-2.5e-1", "-25E-2", "-.025e1"):
        code, doc = run(capsys, "classify-tau", literal, "--samples", "0")
        assert code == 0 and doc == expected


def test_classify_tau_witness_details(capsys):
    code, doc = run(capsys, "classify-tau", "2/3", "--samples", "100")
    assert code == 0
    by_role = {w["role"]: w for w in doc["payload"]["witnesses"]}
    assert by_role["denominator"]["status"] == "RightOnly"
    assert by_role["denominator"]["descriptor"] == "1:3"
    assert by_role["denominator"]["half_witness"] == {"inverse": ["0", "0", "1", "0"]}
    assert by_role["denominator"]["sampled_checks"] == {"primary": True}
    assert by_role["numerator"]["status"] == "LeftOnly"
    assert by_role["combined"]["status"] == "Both"


def test_classify_tau_single_subgroup(capsys):
    code, doc = run(capsys, "classify-tau", "2/3", "--subgroup", "1:3", "--samples", "100")
    assert code == 0
    assert doc["payload"]["status"] == "RightOnly"
    assert doc["payload"]["half_witness"] == {"inverse": ["0", "0", "1", "0"]}
    assert doc["payload"]["sampled_checks"] == {"primary": True}


def test_classify_tau_rejects_trivial_and_zero(capsys):
    code, doc = run(capsys, "classify-tau", "1")
    assert code == 2
    assert any("trivial weighted average quandle" in d for d in doc["diagnostics"])
    code, doc = run(capsys, "classify-tau", "0")
    assert code == 2


def test_classify_tau_rejects_zero_denominator(capsys):
    code, doc = run(capsys, "classify-tau", "1/0")
    assert code == 2
    assert doc["status"] == "error" and doc["payload"] == {}
    assert any("zero denominator" in d for d in doc["diagnostics"])


@pytest.mark.parametrize("argv", [
    ["classify-tau", "1000000007/1000000009", "--samples", "0"],
    ["classify-tau", "2/3", "--subgroup", "1:1000000000000000003"],
])
def test_oversized_descriptor_base_is_rejected_in_bounded_time(argv, capsys):
    import time

    start = time.perf_counter()
    code, doc = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert doc["status"] == "error" and doc["payload"] == {}
    assert any("exceeds" in d for d in doc["diagnostics"])


@pytest.mark.parametrize("argv", [
    ["classify-tau", "1e10000000"],
    ["classify-tau", "-1e-10000000", "--samples", "0"],
    ["classify-tau", "2/3", "--subgroup", "1e10000000:3"],
    ["classify-tau", "2/3", "--subgroup", "1E+10000000:3", "--samples", "0"],
])
def test_huge_decimal_exponent_is_rejected_in_bounded_time(argv, capsys):
    import time

    start = time.perf_counter()
    code, doc = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert doc["status"] == "error" and doc["payload"] == {}


@pytest.mark.parametrize("argv", [
    ["classify-tau", "2/3", "--samples", "-5"],
    ["classify-tau", "2/3", "--subgroup", "1:3", "--samples", "-1"],
    ["demo", "b_ell", "--samples", "-5"],
])
def test_negative_samples_are_rejected(argv, capsys):
    code, doc = run(capsys, *argv)
    assert code == 2
    assert doc["status"] == "error" and doc["payload"] == {}
    assert any("--samples must be non-negative" in d for d in doc["diagnostics"])


def _answer(argv):
    """(exit code, raw stdout, seconds) of one command, usage errors included."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), time.perf_counter() - start


@pytest.mark.parametrize("argv", [
    ["demo", "b_ell", "--samples", "100000000"],
    ["demo", "alexander", "--samples", "100001"],
    ["classify-tau", "2/3", "--samples", "100000000"],
    ["classify-tau", "2/3", "--subgroup", "1:3", "--samples", "100001"],
    ["demo", "b0", "--samples", "9" * 4300],
])
def test_samples_above_the_bound_are_rejected_in_bounded_time(argv):
    code, out, seconds = _answer(argv)
    assert code == 2 and seconds < 2.0 and len(out) < 1000
    doc = json.loads(out)
    assert doc["status"] == "error" and doc["payload"] == {}
    assert doc["diagnostics"] == [f"--samples must be at most {cli.MAX_SAMPLES}, got "
                                  + "".join(tb.excerpt(argv[-1]))]


def test_samples_bound_is_inclusive():
    assert cli.MAX_SAMPLES == 100_000
    cli._check_samples(0)
    cli._check_samples(cli.MAX_SAMPLES)
    for bad in (-1, cli.MAX_SAMPLES + 1):
        with pytest.raises(ValueError):
            cli._check_samples(bad)


@pytest.mark.parametrize("argv", [
    ["enumerate", "9" * 4300],
    ["enumerate", "-" + "9" * 4299],
    ["enumerate", "9" * 5000],
    ["enumerate", "x" * 100_000],
    ["demo", "b0", "--seed", "9" * 5000],
    ["classify-tau", "2/3", "--samples", "-" + "9" * 4299],
])
def test_long_integer_arguments_get_a_short_answer(argv):
    code, out, seconds = _answer(argv)
    assert code == 2 and seconds < 2.0 and len(out) < 1000
    doc = json.loads(out)
    assert doc["status"] == "error" and "characters)" in doc["diagnostics"][0]


@pytest.mark.parametrize("name", ["b_ell", "b_quandle", "b0", "alexander"])
def test_demos_pass(name, capsys):
    code, doc = run(capsys, "demo", name, "--samples", "200")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["checks"]
    assert all(check["passed"] for check in doc["payload"]["checks"])


def test_validate_checks_distributivity_once(rack_file, capsys, monkeypatch):
    calls = []
    kernel = tb._homomorphic
    monkeypatch.setattr(tb, "_homomorphic", lambda *a: calls.append(1) or kernel(*a))
    code, doc = run(capsys, "validate", rack_file("d8.rack", tb.dihedral(8)))
    assert code == 0 and doc["payload"]["exponent"] == 2
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["classify-tau", "x" * 100_000],
    ["classify-tau", " " * 100_000 + "1/0"],
    ["congruences", "{d3}", "--partition", "x," * 50_000],
    ["congruences", "{d3}", "--partition", ",".join(map(str, range(30_000)))],
    ["quotient", "{d3}", "--partition", ",".join(map(str, range(30_000)))],
])
def test_long_malformed_literals_get_a_short_answer(argv, rack_file, capsys):
    d3 = rack_file("d3.rack", tb.dihedral(3))
    code = cli.main([a.replace("{d3}", d3) for a in argv])
    out = capsys.readouterr().out
    assert code == 2 and len(out) < 1000
    doc = json.loads(out)
    assert doc["status"] == "error" and "characters)" in doc["diagnostics"][0]


@pytest.mark.parametrize(
    "text",
    ["x" * 100_000 + "\n", "1\n" + "7" * 100_000 + "\n", "9" * 4000 + "\n0\n"],
    ids=["order-line", "entry-token", "unmet-order"],
)
def test_long_malformed_rack_file_gets_a_short_answer(text, tmp_path, capsys):
    path = tmp_path / "long.rack"
    path.write_text(text)
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 2 and len(out) < 1000
    doc = json.loads(out)
    assert doc["status"] == "error" and "characters)" in doc["diagnostics"][0]


@pytest.mark.parametrize("text, message", [
    ("0\n", "line 1: order must be positive"),
    ("# two rows\n2\n0 0\n1 1\n0 1\n", "line 5: more than 2 rows"),
], ids=["order-zero", "extra-row"])
def test_rack_file_structure_errors_name_the_line(text, message, tmp_path, capsys):
    path = tmp_path / "bad.rack"
    path.write_text(text)
    code, doc = run(capsys, "validate", str(path))
    assert code == 2
    assert doc["status"] == "error" and doc["diagnostics"] == [message]


def _run_cli(argv, **kwargs):
    """rackq in a fresh interpreter with this tree's src on the path."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "rackq.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60, **kwargs)


def _names_the_cap(proc):
    doc = json.loads(proc.stdout)
    assert proc.returncode == 2 and proc.stderr == ""
    assert doc["status"] == "error"
    (message,) = doc["diagnostics"]
    assert f"longer than {cli.MAX_TABLE_BYTES} bytes" in message


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_endless_table_input_stops_at_the_cap():
    writer = subprocess.Popen(
        [sys.executable, "-c", "import sys\nwhile True: sys.stdout.buffer.write(b'0 ' * 65536)"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        start = time.perf_counter()
        proc = _run_cli(["validate", "/dev/stdin"], stdin=writer.stdout)
        assert time.perf_counter() - start < 30
    finally:
        writer.kill()
        writer.wait()
        writer.stdout.close()
    _names_the_cap(proc)


def test_table_file_one_byte_over_the_cap_is_rejected(tmp_path):
    path = tmp_path / "sparse.rack"
    with open(path, "wb") as fh:
        fh.truncate(cli.MAX_TABLE_BYTES + 1)
    _names_the_cap(_run_cli(["validate", str(path)]))


def test_table_file_at_the_cap_is_read(rack_file, capsys, monkeypatch):
    path = rack_file("d3.rack", tb.dihedral(3))
    size = pathlib.Path(path).stat().st_size
    monkeypatch.setattr(cli, "MAX_TABLE_BYTES", size)
    code, doc = run(capsys, "validate", path)
    assert code == 0 and doc["payload"]["is_quandle"]
    monkeypatch.setattr(cli, "MAX_TABLE_BYTES", size - 1)
    code, doc = run(capsys, "validate", path)
    assert code == 2 and doc["diagnostics"] == [
        f"table file {tb._quoted(path)} is longer than {size - 1} bytes"
    ]


def test_oversized_weight_names_the_weight_bound(capsys):
    import time

    start = time.perf_counter()
    code, doc = run(capsys, "classify-tau", "1000003/1000033")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and doc["status"] == "error"
    (message,) = doc["diagnostics"]
    assert "exceeds" in message and "numerator" in message
    assert "denominator base" not in message


def test_sampled_work_is_bounded_by_digits_times_samples(capsys):
    # 100,000 samples of a 4,300-digit weight took 32 s; the product of
    # --samples and the digits is bounded, inclusively, and a larger one
    # is refused before any sample is drawn
    bound = cli.MAX_SAMPLED_DIGITS
    largest = bound // 4300
    for weight, subgroup in (("1e-4299", "all"), ("3", "1e-4299:1"), ("1e-4299", "1:6")):
        start = time.perf_counter()
        code, doc = run(capsys, "classify-tau", weight, "--subgroup", subgroup,
                        "--samples", str(cli.MAX_SAMPLES))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and doc["diagnostics"] == [
            f"--samples times the digits of the weight and subgroup scale must be at most "
            f"{bound}, got {cli.MAX_SAMPLES} x 4300"
        ]
        assert run(capsys, "classify-tau", weight, "--subgroup", subgroup,
                   "--samples", str(largest + 1))[0] == 2
    start = time.perf_counter()
    code, doc = run(capsys, "classify-tau", "1e-4299", "--subgroup", "all",
                    "--samples", str(largest))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and doc["payload"]["sampled_checks"] == {"inverse": True, "primary": True}
    # a 20-digit weight gets every sample, a 21-digit one does not; a side
    # with a half witness draws no sample, so it is not bounded
    assert bound == 20 * cli.MAX_SAMPLES
    samples = str(cli.MAX_SAMPLES)
    for digits, subgroup, code in ((20, "all", 0), (21, "all", 2), (21, "1:3", 0)):
        weight = "9" * digits + "/7"
        assert run(capsys, "classify-tau", weight, "--subgroup", subgroup, "--samples", samples)[0] == code


def _count_calls(monkeypatch, *targets):
    """{name: 0} for each (module, name), counting the calls made to each
    function from then on."""
    calls = {}
    for module, name in targets:
        inner = getattr(module, name)
        calls[name] = 0

        def counted(*args, inner=inner, name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_iso_check_runs_each_check_once(rack_file, capsys, monkeypatch):
    from rackq import congruence as cg

    calls = _count_calls(
        monkeypatch, (cg, "is_homomorphism"), (tb, "_inverse_rows"), (tb, "_homomorphic")
    )
    d6, d3 = rack_file("d6.rack", tb.dihedral(6)), rack_file("d3.rack", tb.dihedral(3))
    code = cli.main(["iso-check", d6, d3, "--map", "0,1,2,0,1,2"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"diagnostics": [], "payload": {"first_isomorphism": true, "image": [0, 1, 2], '
        '"is_homomorphism": true, "kernel_blocks": [[0, 3], [1, 4], [2, 5]], '
        '"kernel_class": "Both"}, "status": "ok"}\n'
    )
    # one map check, which builds no inverse table, and one rack check of
    # the domain
    assert calls == {"is_homomorphism": 1, "_inverse_rows": 0, "_homomorphic": 1}


def test_classify_tau_subgroup_reads_the_record_of_the_classification(capsys, monkeypatch):
    # --subgroup D reports the record classify_weight builds for D, with
    # one coset_congruence_status call, as each role of the full
    # classification does
    from rackq import weighted as wa

    calls = _count_calls(monkeypatch, (wa, "coset_congruence_status"))
    for weight in ("-1", "1/2", "2", "2/3"):
        calls["coset_congruence_status"] = 0
        code, doc = run(capsys, "classify-tau", weight, "--samples", "50")
        assert code == 0 and calls == {"coset_congruence_status": 4}
        for entry in doc["payload"]["witnesses"]:
            calls["coset_congruence_status"] = 0
            code, single = run(capsys, "classify-tau", weight, "--subgroup", entry["descriptor"],
                               "--samples", "50")
            assert code == 0 and calls == {"coset_congruence_status": 1}
            del single["payload"]["tau"], entry["role"]
            assert single["payload"] == entry, (weight, entry["descriptor"])


@pytest.mark.parametrize("argv", [
    ["congruences", "{d6}"],
    ["congruences", "{d6}", "--partition", "0,3|1,4|2,5"],
    ["congruences", "{d6}", "--partition", "0,1|2,3|4,5"],
    ["quotient", "{d6}", "--partition", "0,2,4|1,3,5"],
    ["quotient", "{d6}", "--partition", "0,1|2,3|4,5"],
])
def test_congruence_commands_build_no_inverse_table(argv, rack_file, capsys, monkeypatch):
    # * alone classifies a partition of a finite rack, so the inverse
    # operation is never tabulated
    calls = _count_calls(monkeypatch, (tb, "_inverse_rows"))
    d6 = rack_file("d6.rack", tb.dihedral(6))
    code = cli.main([arg.format(d6=d6) for arg in argv])
    doc = json.loads(capsys.readouterr().out)
    assert (code == 0) == (doc["status"] == "ok")
    assert calls == {"_inverse_rows": 0}


@pytest.mark.parametrize("command, option", [
    ("subrack", "--subset"), ("hom-check", "--map"), ("iso-check", "--map"),
])
def test_malformed_int_list_names_its_option(command, option, rack_file, capsys):
    d3 = rack_file("d3.rack", tb.dihedral(3))
    tables = [d3] if command == "subrack" else [d3, d3]
    code = cli.main([command, *tables, option, "x" * 5000])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["diagnostics"] == [
        f"{option} must be comma-separated integers: {'x' * 40!r}... (5000 characters)"
    ]


@pytest.mark.parametrize("argv, message", [
    (["classify-tau", "x" * 40], "Invalid literal for Fraction: '" + "x" * 40 + "'"),
    (["classify-tau", "1" * 38 + "/0"], "weight '" + "1" * 38 + "/0' has a zero denominator"),
    (["congruences", "{d3}", "--partition", "0,1|x"], "malformed partition literal: '0,1|x'"),
    (["quotient", "{d3}", "--partition", "0,1"], "blocks do not partition 0..2: [[0, 1]]"),
    (["subrack", "{d3}", "--subset", "0,,1"], "--subset must be comma-separated integers: '0,,1'"),
    (["hom-check", "{d3}", "{d3}", "--map", "0,1,y"],
     "--map must be comma-separated integers: '0,1,y'"),
])
def test_short_malformed_literals_are_echoed_whole(argv, message, rack_file, capsys):
    d3 = rack_file("d3.rack", tb.dihedral(3))
    code = cli.main([a.replace("{d3}", d3) for a in argv])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["diagnostics"] == [message]


def _golden():
    path = pathlib.Path(__file__).parent / "data" / "cli_golden.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_demo_and_weight_output_matches_the_recorded_output(capsys):
    # The JSON of every demo at --samples 0, 1 and 50, and of classify-tau
    # for six weights with and without each of six subgroups, as recorded
    # before the demos moved into rackq.demos.
    for rec in _golden():
        code = cli.main(rec["argv"])
        assert (code, capsys.readouterr().out) == (rec["code"], rec["stdout"]), rec["argv"]


def test_demo_unknown_name():
    with pytest.raises(SystemExit) as info:
        cli.main(["demo", "nope"])
    assert info.value.code == 2


def test_output_is_stable_across_runs(capsys):
    cli.main(["classify-tau", "2/3", "--samples", "20"])
    first = capsys.readouterr().out
    cli.main(["classify-tau", "2/3", "--samples", "20"])
    second = capsys.readouterr().out
    assert first == second


def test_pretty_output(rack_file, capsys):
    path = rack_file("d3.rack", tb.dihedral(3))
    code = cli.main(["validate", path, "--pretty"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("{\n")


@pytest.mark.parametrize("argv, reason", [
    (["hom-check", "a.rack", "b.rack", "--map", "-1,0,1"], "argument --map: expected one argument"),
    (["congruences", "d3.rack", "--partition", "-1,0|1,2"],
     "argument --partition: expected one argument"),
    (["bogus"], "invalid choice: 'bogus'"),
])
def test_usage_errors_are_json(argv, reason, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["status"] == "error" and doc["payload"] == {}
    assert len(doc["diagnostics"]) == 1 and reason in doc["diagnostics"][0]


def test_help_is_still_usage_text(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["hom-check", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rackq hom-check")


# Hypothesis fuzz of the free-text arguments: every command answers with
# one JSON document and exit 0, 1 or 2, never a traceback, in bounded time.

_FUZZ_VALUES = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="0123456789/-+.eE:,| x\n", max_size=30),
    st.integers().map(str),
    st.fractions().map(str),
    st.lists(st.integers(-2, 5), max_size=6).map(lambda v: ",".join(map(str, v))),
    st.lists(st.lists(st.integers(-1, 3), min_size=1, max_size=3), max_size=4).map(
        lambda blocks: "|".join(",".join(map(str, b)) for b in blocks)
    ),
    st.tuples(st.fractions(), st.integers(-3, 10**13)).map(lambda gm: f"{gm[0]}:{gm[1]}"),
)


@pytest.fixture(scope="module")
def fuzz_racks(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, table in (("d3", tb.dihedral(3)), ("c2", tb.constant_action((1, 0)))):
        paths[name] = str(root / f"{name}.rack")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(tb.format_rack(table))
    return paths


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=_FUZZ_VALUES)
def test_fuzzed_arguments_get_one_json_answer(fuzz_racks, value):
    # argparse answers a help flag, or a prefix of --help, with usage text
    assume(not value.startswith(("-h", "--h")))
    d3, c2 = fuzz_racks["d3"], fuzz_racks["c2"]
    for argv in (
        ["classify-tau", value, "--samples", "3"],
        ["classify-tau", "2/3", "--samples", "3", "--subgroup", value],
        ["congruences", d3, "--partition", value],
        ["quotient", d3, "--partition", value],
        ["hom-check", d3, c2, "--map", value],
        ["iso-check", d3, d3, "--map", value],
    ):
        _assert_one_json_answer(argv)


def _assert_one_json_answer(argv):
    """cli.main(argv) prints one JSON document and nothing on stderr, and
    exits 0, 1 or 2 (2 exactly for an error document) within 2 s."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out, seconds = _answer(argv)
    assert seconds < 2.0, argv
    assert code in (0, 1, 2), argv
    assert err.getvalue() == "", argv
    doc = json.loads(out)
    assert (doc["status"] == "error") == (code == 2), argv


# Hypothesis fuzz of .rack file contents: small tables with junk spliced
# in (invalid UTF-8, NUL, vertical tab, long and odd integer literals,
# non-ASCII digits), declared orders far above the rows that follow, and
# raw bytes.

_RACK_JUNK = st.sampled_from([
    b"\xff", b"\xc3", b"\x00", b"\x0b", b"9" * 30, b"1_0", "\u0663".encode(), b"-1",
    b"#", b"\n", b"\r", b" ",
])


@st.composite
def _rack_bytes(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    data = tb.format_rack(tb.Table(tuple(map(tuple, rows)))).encode()
    if draw(st.booleans()):
        order = draw(st.one_of(st.integers(n + 1, 10**6), st.integers(10**6, 10**40)))
        data = str(order).encode() + data[data.index(b"\n"):]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_RACK_JUNK) + data[at:]
    return data


@pytest.fixture(scope="module")
def fuzz_table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_tables") / "fuzzed.rack"


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.one_of(_rack_bytes(), st.binary(max_size=60)))
def test_fuzzed_table_files_get_one_json_answer(fuzz_table_path, data):
    fuzz_table_path.write_bytes(data)
    path = str(fuzz_table_path)
    for argv in (["validate", path], ["inverse", path], ["congruences", path],
                 ["subrack", path, "--subset", "0"]):
        _assert_one_json_answer(argv)


def test_malformed_subgroup_answer_names_the_bound_and_stays_short(capsys):
    code, doc = run(capsys, "classify-tau", "2/3", "--subgroup", "1e5000:3")
    assert code == 2
    assert "more than 4300 digits" in doc["diagnostics"][0]
    cli.main(["classify-tau", "2/3", "--subgroup", "1" * 100_000 + ":3"])
    out = capsys.readouterr().out
    assert len(out) < 300
    assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize("argv", [
    ["classify-tau", "1e-4300", "--subgroup", "all", "--samples", "100000"],
    ["classify-tau", "1e4300", "--subgroup", "1:3", "--samples", "100000"],
    ["classify-tau", "2/3", "--subgroup", "1e4300:1"],
])
def test_unprintable_weight_or_scale_is_rejected_when_parsed(argv):
    code, out, seconds = _answer(argv)
    assert code == 2 and seconds < 2.0 and len(out) < 300
    doc = json.loads(out)
    assert doc["status"] == "error" and doc["payload"] == {}
    assert "more than 4300 digits" in doc["diagnostics"][0]
    assert "set_int_max_str_digits" not in out


def test_weight_of_4300_digits_still_answers(capsys):
    code, doc = run(capsys, "classify-tau", "1e4299", "--subgroup", "1:3", "--samples", "10")
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["tau"] == "1" + "0" * 4299
