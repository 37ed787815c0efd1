import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from ksat import cli
from ksat.cli import dispatch

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "ksat" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.v1.json").read_text())


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dimacs_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_gen_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "--n", "20", "--m", "30", "--k", "4", "--seed", "7")
    code2, out2, _ = run(capsys, "gen", "--n", "20", "--m", "30", "--k", "4", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("p cnf 20 30\n")


def test_gen_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--n", "2", "--m", "1", "--k", "4", "--seed", "0")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_gen_negative_clause_count(capsys):
    code, out, err = run(capsys, "gen", "--n", "5", "--m", "-3", "--k", "3", "--seed", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_verify_exit_codes(capsys, dimacs_file, tmp_path):
    f = dimacs_file("f.cnf", "p cnf 2 1\n1 2 0\n")
    good = dimacs_file("good.txt", "10")
    bad = dimacs_file("bad.txt", "00")
    code, out, _ = run(capsys, "verify", "--dimacs", f, "--assignment", good)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("verify"))
    assert payload["satisfying"]

    code, out, err = run(capsys, "verify", "--dimacs", f, "--assignment", bad)
    assert code == 1
    assert not json.loads(out)["satisfying"]
    assert "error" in json.loads(err)


def test_classify_schema(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 4 3\n1 2 0\n1 3 0\n1 4 0\n")
    code, out, _ = run(
        capsys, "classify", "--dimacs", f, "--k", "2", "--delta", "3", "--zeta", "0.4"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("classify"))
    assert payload["n_bad_vars"] == 4


def test_mark_schema(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run(
        capsys, "mark", "--dimacs", f, "--km", "2", "--ku", "1", "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("mark"))
    assert payload["certified"]


def test_sample_lines_schema(capsys, dimacs_file, tmp_path):
    f = dimacs_file("f.cnf", "p cnf 5 2\n1 2 3 0\n-2 4 5 0\n")
    out_path = tmp_path / "samples.jsonl"
    code, _, _ = run(
        capsys,
        "sample", "--dimacs", f, "--theta", "0.5", "--tmax", "3",
        "--seed", "9", "--runs", "4", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 4
    schema = load_schema("sample")
    for line in lines:
        payload = json.loads(line)
        jsonschema.validate(payload, schema)
        assert len(payload["assignment"]) == 5


def test_path_schema_and_validity(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 4 2\n1 2 0\n3 4 0\n")
    a = dimacs_file("a.txt", "1010")
    b = dimacs_file("b.txt", "0101")
    code, out, _ = run(
        capsys, "path", "--dimacs", f, "--sigma", a, "--sigma2", b, "--k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("path"))
    assert payload["valid"]
    assert payload["entries"][0] == "1010"
    assert payload["entries"][-1] == "0101"

    code, out, _ = run(
        capsys, "path", "--dimacs", f, "--mode", "random",
        "--sigma", a, "--sigma2", b, "--k", "2",
    )
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("path"))


def test_loose_schema(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 3 1\n1 2 3 0\n")
    s = dimacs_file("s.txt", "100")
    code, out, _ = run(capsys, "loose", "--dimacs", f, "--sigma", s)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("loose"))
    assert payload["n_failures"] == 0


def test_solgraph_schema_and_d0(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 2 1\n1 2 0\n")
    code, out, _ = run(capsys, "solgraph", "--dimacs", f, "--D", "0")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("solgraph"))
    assert payload["component_sizes"] == [1, 1, 1]


def test_influence_schema(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 2 1\n1 2 0\n")
    code, out, _ = run(
        capsys,
        "influence", "--dimacs", f, "--k", "2", "--v0", "1", "--trials", "50",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("influence"))
    assert payload["coupling"]["trials"] == 50


def test_flippable_schema(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 2 1\n1 2 0\n")
    code, out, _ = run(capsys, "flippable", "--dimacs", f)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("flippable"))
    assert payload["all_flippable"]


def test_pipeline_records(capsys, tmp_path):
    spec = {
        "instances": [
            {"n": 12, "m": 6, "k": 3, "seed": 1},
            {"n": 10, "m": 5, "k": 3, "seed": 2},
        ],
        "seeds": [4, 5, 6],
        "zeta": 0.3,
        "sample": {"theta": 0.5, "tmax": 5, "runs": 2},
        "path": {"mode": "bounded"},
        "loose": {},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "pipeline", "--spec", str(spec_path))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("pipeline"))
    assert len(payload["records"]) == 6
    for record in payload["records"]:
        assert "classify" in record or "error" in record


def test_one_parser_serves_every_dispatch(capsys, tmp_path):
    """dispatch builds its parser once per process. A bad flag, gen,
    --version, --help and a pipeline spec, run in turn on that one parser,
    each give the exit code, stdout and stderr a freshly built parser gives."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "instances": [{"n": 12, "m": 6, "k": 3, "seed": 1}],
        "seeds": [4, 5],
        "sample": {"theta": 0.5, "tmax": 5, "runs": 2},
        "loose": {},
    }))
    argvs = [
        ["gen", "--bogus"],
        ["gen", "--n", "20", "--m", "30", "--k", "4", "--seed", "7"],
        ["--version"],
        ["--help"],
        ["pipeline", "--spec", str(spec_path)],
    ]
    shared = [run(capsys, *argv) for argv in argvs]
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0]
    for argv, want in zip(argvs, shared):
        cli._build_parser.cache_clear()
        assert run(capsys, *argv) == want


def test_pipeline_empty_sweep(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"instances": [], "seeds": [1]}))
    code, out, _ = run(capsys, "pipeline", "--spec", str(spec_path))
    assert code == 0
    assert json.loads(out)["records"] == []


def test_summary_format(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 2 1\n1 2 0\n")
    code, out, _ = run(
        capsys, "solgraph", "--dimacs", f, "--D", "1", "--format", "summary"
    )
    # solgraph has no --format flag parameterization issue: it was added
    assert code == 0
    assert "giant_fraction" in out


def test_inputs_never_modified(capsys, dimacs_file):
    text = "p cnf 2 1\n1 2 0\n"
    f = dimacs_file("f.cnf", text)
    run(capsys, "flippable", "--dimacs", f)
    assert Path(f).read_text() == text


def test_pipeline_parallel_jobs(capsys, tmp_path):
    spec = {
        "instances": [{"n": 10, "m": 5, "k": 3, "seed": s} for s in (1, 2)],
        "seeds": [4, 5],
        "sample": {"theta": 0.5, "tmax": 3, "runs": 1},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out_serial, _ = run(capsys, "pipeline", "--spec", str(spec_path))
    assert code == 0
    code, out_parallel, _ = run(
        capsys, "pipeline", "--spec", str(spec_path), "--jobs", "2"
    )
    assert code == 0
    assert json.loads(out_serial) == json.loads(out_parallel)


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("n_instances, n_seeds, jobs, cpus, workers", [
    (2, 2, "5000", 3, 3),
    (2, 2, "5000", 64, 4),
    (1, 1, "5000", 8, None),
    (2, 2, "2", 1, None),
])
def test_pipeline_jobs_clamped_to_cells_and_cpus(
    capsys, tmp_path, monkeypatch, n_instances, n_seeds, jobs, cpus, workers
):
    from ksat import cli

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingExecutor, "made", [])
    spec = {
        "instances": [{"n": 10, "m": 5, "k": 3, "seed": s} for s in range(1, n_instances + 1)],
        "seeds": list(range(4, 4 + n_seeds)),
        "sample": {"theta": 0.5, "tmax": 3, "runs": 1},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out_serial, _ = run(capsys, "pipeline", "--spec", str(spec_path))
    assert code == 0
    code, out_jobs, _ = run(capsys, "pipeline", "--spec", str(spec_path), "--jobs", jobs)
    assert code == 0
    assert RecordingExecutor.made == ([] if workers is None else [workers])
    assert json.loads(out_jobs) == json.loads(out_serial)


def test_non_ascii_input_is_a_usage_error(capsys, dimacs_file, tmp_path):
    f = dimacs_file("f.cnf", "c caf\u00e9\np cnf 2 1\n1 2 0\n")
    code, _, err = run(capsys, "classify", "--dimacs", f)
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    good = dimacs_file("g.cnf", "p cnf 2 1\n1 2 0\n")
    assignment = tmp_path / "a.txt"
    assignment.write_bytes(b"1\xff")
    code, _, err = run(capsys, "verify", "--dimacs", good, "--assignment", str(assignment))
    assert code == 2
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, where):
    out = tmp_path / "no" / "such" / "x" if where == "missing-dir" else tmp_path
    code, stdout, err = run(
        capsys, "gen", "--n", "20", "--m", "30", "--k", "4", "--seed", "7", "--out", str(out)
    )
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sample_seed_out_of_range(capsys, dimacs_file, seed):
    f = dimacs_file("f.cnf", "p cnf 4 2\n1 2 -3 0\n-1 3 4 0\n")
    code, out, err = run(capsys, "sample", "--dimacs", f, "--seed", seed)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("module", ["ksat", "ksat.cli"])
def test_python_dash_m_runs_the_cli(dimacs_file, module):
    f = dimacs_file("f.cnf", "p cnf 4 2\n1 2 -3 0\n-1 3 4 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", module, "sample", "--dimacs", f, "--seed", "-1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "usage"


@pytest.mark.parametrize("stage", ["mark", "sample", "path", "loose"])
def test_pipeline_stage_not_an_object(capsys, tmp_path, stage):
    spec = {"instances": [{"n": 10, "m": 5, "k": 3, "seed": 1}], "seeds": [4], stage: 5}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "pipeline", "--spec", str(spec_path))
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert f"'{stage}'" in error["message"]


def test_pipeline_spec_not_an_object(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("[1, 2]")
    code, _, err = run(capsys, "pipeline", "--spec", str(spec_path))
    assert code == 2
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("value", ["1.7", "2", "true", "\"1\""])
def test_influence_pin_values_must_be_0_or_1(capsys, dimacs_file, value):
    f = dimacs_file("f.cnf", "p cnf 3 1\n1 2 3 0\n")
    pin = dimacs_file("pin.json", '{"3": %s}' % value)
    code, out, err = run(
        capsys,
        "influence", "--dimacs", f, "--k", "3", "--v0", "1", "--pin", pin, "--trials", "20",
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "must be 0 or 1" in error["message"]


def run_spec(capsys, tmp_path, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return run(capsys, "pipeline", "--spec", str(spec_path))


@pytest.mark.parametrize(
    "instance",
    [
        {"n": 3, "m": 2, "k": 5, "seed": 0},
        {"n": 10, "m": 5, "k": 3, "seed": -1},
        {"n": 0, "m": 0, "k": 0, "seed": 0},
        {"n": 10, "m": 5, "k": 3},
        {"n": 10, "m": -3, "k": 3, "seed": 1},
        {"n": 10.5, "m": 5, "k": 3, "seed": 1},
        {"n": 1e3, "m": 5, "k": 3, "seed": 1},
        {"n": 10, "m": 5, "k": True, "seed": 1},
        {"n": 10, "m": 5, "k": 3, "seed": 1.5},
    ],
)
def test_pipeline_cell_records_a_refused_instance(capsys, tmp_path, instance):
    good = {"n": 10, "m": 5, "k": 3, "seed": 1}
    code, out, err = run_spec(capsys, tmp_path, {"instances": [instance, good], "seeds": [4]})
    assert code == 0, err
    bad_record, good_record = json.loads(out)["records"]
    assert set(bad_record) == {"instance", "seed", "error"}
    assert "classify" in good_record


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"mark": {"km": None}}, "mark.km"),
        ({"sample": {"runs": "2"}}, "sample.runs"),
        ({"sample": {"theta": True}}, "sample.theta"),
        ({"seeds": ["a"]}, "seeds"),
        ({"zeta": "x"}, "zeta"),
        ({"delta": 2.5}, "delta"),
        ({"path": {"mode": "zigzag"}}, "path.mode"),
    ],
)
def test_pipeline_spec_field_types(capsys, tmp_path, fields, name):
    spec = {"instances": [{"n": 10, "m": 5, "k": 3, "seed": 1}], "seeds": [4], **fields}
    code, out, err = run_spec(capsys, tmp_path, spec)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert f"'{name}'" in error["message"]


@pytest.mark.parametrize("theta", ["0", "-0.5", "1.5", "nan"])
def test_sample_theta_out_of_range(capsys, dimacs_file, tmp_path, theta):
    f = dimacs_file("f.cnf", "p cnf 4 2\n1 2 -3 0\n-1 3 4 0\n")
    code, out, err = run(capsys, "sample", "--dimacs", f, "--seed", "1", "--theta", theta)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "usage"
    spec = {"instances": [{"n": 10, "m": 5, "k": 3, "seed": 1}], "seeds": [4],
            "sample": {"theta": float(theta)}}
    code, out, err = run_spec(capsys, tmp_path, spec)
    assert code == 0, err
    assert "theta must lie in (0, 1]" in json.loads(out)["records"][0]["sample"]["error"]


def dispatch_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    """Exit 0, 1 or 2; a failure's stderr is one JSON error object."""
    assert code in (0, 1, 2)
    if code:
        assert json.loads(err)["error"]


JUNK = st.sampled_from([None, "x", [], {}, 1.5, True])
ABSENT = object()


def field(values):
    """An optional spec field: absent, one of values, or junk."""
    return st.just(ABSENT) | st.sampled_from(values) | JUNK


@st.composite
def pipeline_specs(draw):
    """Small pipeline specs, well-formed or not, whose cells stay cheap."""
    instance = st.fixed_dictionaries(
        {
            "n": st.integers(-1, 8),
            "m": st.integers(-1, 6),
            "k": st.integers(-1, 4),
            "seed": st.sampled_from([-1, 0, 1, 2**64]),
        }
    ) | JUNK
    spec = {"instances": draw(st.lists(instance, max_size=2))}
    optional = {
        "seeds": field([[0], [3, -1], [2**64]]),
        "zeta": field([0.1, 0.3, 0.6]),
        "delta": field([0, 1, 3]),
        "mark": field([{}, {"km": 1}, {"ku": 0}, {"km": None}, {"km": -1}]),
        "sample": field([{}, {"theta": 0.5, "tmax": 4}, {"runs": 2, "tmax": 3}, {"theta": 0},
                         {"tmax": -1}, {"runs": "2"}]),
        "path": field([{}, {"mode": "random"}, {"mode": "zigzag"}]),
        "loose": field([{}]),
    }
    for key, strategy in optional.items():
        value = draw(strategy)
        if value is not ABSENT:
            spec[key] = value
    return spec


@settings(max_examples=400, deadline=None)
@given(pipeline_specs())
def test_pipeline_spec_fuzz_ends_in_an_exit_code(spec):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = dispatch_captured(["pipeline", "--spec", str(spec_path)])
    assert_contract(code, err)
    if not code:
        cells = len(spec["instances"]) * len(spec.get("seeds", [0]))
        assert len(json.loads(out)["records"]) == cells


@st.composite
def dimacs_texts(draw):
    """Small DIMACS documents, well-formed or not."""
    header = draw(st.sampled_from(
        ["p cnf 3 2", "p cnf 4 1", "p cnf 3 0", "p cnf 0 0", "p cnf 2 x", "p cnf -1 1",
         "p cnf 3", "p dnf 3 2", "c a comment", ""]
    ))
    token = st.sampled_from(["1", "-1", "2", "-2", "3", "-3", "4", "0", "0", "x", "9"])
    return header + "\n" + " ".join(draw(st.lists(token, max_size=12))) + "\n"


COMMANDS = [
    ["classify"], ["mark"], ["mark", "--good"], ["flippable"], ["solgraph", "--D", "1"],
    ["verify", "--assignment", "A"], ["loose", "--sigma", "A"],
    ["sample", "--seed", "1", "--tmax", "3", "--runs", "2"],
    ["path", "--sigma", "A", "--sigma2", "B"],
    ["influence", "--v0", "1", "--trials", "5"],
]
FLAGS = ["--k", "--zeta", "--delta", "--seed", "--theta", "--tmax", "--runs", "--cap",
         "--km", "--ku", "--pmark", "--D", "--v0", "--kc", "--trials", "--mode", "--bogus"]
VALUES = ["0", "1", "-1", "2", "3", "0.5", "nan", "x", "random"]


@settings(max_examples=300, deadline=None)
@given(dimacs_texts(), st.sampled_from(COMMANDS), st.sampled_from(["000", "101", "1111", "2"]))
def test_cli_dimacs_fuzz_ends_in_an_exit_code(text, command, assignment):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in (("F", text), ("A", assignment), ("B", assignment[::-1])):
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_text(content)
        argv = [paths.get(arg, arg) for arg in command] + ["--dimacs", paths["F"]]
        assert_contract(*dispatch_captured(argv)[::2])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(COMMANDS + [["gen", "--n", "4", "--m", "3"], [], ["frobnicate"]]),
    st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)), max_size=4),
)
def test_cli_argv_fuzz_ends_in_an_exit_code(command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"F": str(Path(tmp) / "f.cnf"), "A": str(Path(tmp) / "a"), "B": str(Path(tmp) / "b")}
        Path(paths["F"]).write_text("p cnf 4 2\n1 2 -3 0\n-1 3 4 0\n")
        Path(paths["A"]).write_text("1100")
        Path(paths["B"]).write_text("0011")
        argv = [paths.get(arg, arg) for arg in command]
        if command and command[0] not in ("gen", "frobnicate"):
            argv += ["--dimacs", paths["F"]]
        argv += [token for pair in flags for token in pair]
        assert_contract(*dispatch_captured(argv)[::2])


def test_sample_runs_below_one(capsys, dimacs_file, tmp_path):
    f = dimacs_file("f.cnf", "p cnf 5 2\n1 2 3 0\n-2 4 5 0\n")
    code, out, err = run(capsys, "sample", "--dimacs", f, "--runs", "0", "--seed", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"
    spec = {"instances": [{"n": 10, "m": 5, "k": 3, "seed": 1}], "seeds": [4],
            "sample": {"runs": 0}, "path": {}, "loose": {}}
    code, out, err = run_spec(capsys, tmp_path, spec)
    assert code == 0, err
    (record,) = json.loads(out)["records"]
    assert "runs must be >= 1" in record["sample"]["error"]
    assert "path" not in record and "loose" not in record


CAP_COMMANDS = [
    ["sample", "--seed", "1", "--tmax", "3"],
    ["path", "--sigma", "A", "--sigma2", "B"],
    ["loose", "--sigma", "A"],
    ["solgraph", "--D", "1"],
    ["influence", "--v0", "1", "--trials", "5"],
    ["flippable"],
]


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", CAP_COMMANDS, ids=lambda command: command[0])
def test_cap_below_one_is_a_usage_error(capsys, dimacs_file, command, cap):
    """No enumeration fits a budget below one evaluation, so --cap < 1 is a
    bad flag on every command that takes it, not a CapExceededError."""
    paths = {
        "F": dimacs_file("f.cnf", "p cnf 4 2\n1 2 -3 0\n-1 3 4 0\n"),
        "A": dimacs_file("a", "1110"),
        "B": dimacs_file("b", "0101"),
    }
    argv = [paths.get(arg, arg) for arg in command] + ["--dimacs", paths["F"], "--cap", cap]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "--cap" in error["message"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_pipeline_jobs_below_one_is_a_usage_error(capsys, tmp_path, jobs):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"instances": [{"n": 10, "m": 5, "k": 3, "seed": 1}]}))
    code, out, err = run(capsys, "pipeline", "--spec", str(spec_path), "--jobs", jobs)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "--jobs" in error["message"]


def test_mark_negative_max_resamples_is_a_usage_error(capsys, dimacs_file):
    f = dimacs_file("f.cnf", "p cnf 4 2\n1 2 -3 0\n-1 3 4 0\n")
    code, out, err = run(capsys, "mark", "--dimacs", f, "--max-resamples", "-5")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "max_resamples must be >= 0" in error["message"]


def test_influence_with_a_pin_file_matches_the_exact_matrix(capsys, dimacs_file):
    """--pin conditions the influence matrix: the payload's pinning, order
    and matrix are exact_influence_matrix's under the pin file's pinning."""
    import argparse

    from ksat import cli
    from ksat.coupling import exact_influence_matrix
    from ksat.formula import emit_dimacs, enumerate_solutions, generate_random_kcnf

    f = generate_random_kcnf(8, 6, 3, seed=5)
    args = argparse.Namespace(k=3, zeta=0.3, delta=None)
    _, m = cli._marking_for_sampling(f, args, seed=0)
    v0, *rest = sorted(m.marked)
    assert rest
    pinned = rest[-1]
    pin = {pinned: enumerate_solutions(f)[0][pinned - 1]}
    path = dimacs_file("f.cnf", emit_dimacs(f))
    pin_path = dimacs_file("pin.json", json.dumps({str(pinned): pin[pinned]}))
    code, out, err = run(
        capsys,
        "influence", "--dimacs", path, "--k", "3", "--v0", str(v0), "--pin", pin_path,
        "--trials", "20",
    )
    assert code == 0, err
    payload = json.loads(out)
    want = exact_influence_matrix(f, m, pin).to_json()
    assert payload["pinning"] == want["pinning"] == {str(pinned): pin[pinned]}
    assert payload["order"] == want["order"]
    assert pinned not in payload["order"]
    assert payload["matrix"] == want["matrix"]


@pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"x": 1}'])
def test_influence_malformed_pin_file_is_a_usage_error(capsys, dimacs_file, text):
    f = dimacs_file("f.cnf", "p cnf 3 1\n1 2 3 0\n")
    pin = dimacs_file("pin.json", text)
    code, out, err = run(
        capsys,
        "influence", "--dimacs", f, "--k", "3", "--v0", "1", "--pin", pin, "--trials", "20",
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "bad pin file" in error["message"]
