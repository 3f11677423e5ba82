import hashlib
import json
import pathlib
import re
import subprocess
import sys


from fanopencils.cli import main

CHECK_LINE = re.compile(r"^CHECK [a-z_]+\.[a-z_0-9]+: (PASS|FAIL) \(\d+ms\)$")


def test_verify_digraph_text(capsys):
    assert main(["verify", "digraph"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1] == "OVERALL: PASS"
    body = [ln for ln in lines[:-1] if ln.startswith("CHECK")]
    assert len(body) == 7
    for ln in body:
        assert CHECK_LINE.match(ln), ln


def test_verify_cycles_json(capsys):
    assert main(["verify", "cycles", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selector"] == "cycles"
    assert payload["pass"] is True
    assert len(payload["checks"]) == 5
    assert all(c["pass"] for c in payload["checks"])


def test_verify_uh_json_schema(capsys):
    assert main(["verify", "uh", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"pass", "aut_order", "failures"}
    assert payload["pass"] is True
    assert payload["aut_order"] == 1008
    assert payload["failures"] == []


def test_verify_uh_exhaustive_known_answer(capsys):
    assert main(["verify", "uh", "--sample", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"pass": True, "aut_order": 1008, "failures": []}


def test_verify_bad_selector_usage_error(capsys):
    assert main(["verify", "bogus"]) == 2
    capsys.readouterr()


def _verify_json(argv, capsys) -> dict:
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    for check in payload.get("checks", ()):
        del check["ms"]
    return payload


def test_benchmark_argv_still_accepted(capsys):
    # the argvs bench/workloads.cli_argv builds: --seed and --sample still
    # parse, change nothing in the report, and stay out of --help
    uh = _verify_json(["verify", "uh", "--sample", "0", "--format", "json"], capsys)
    assert uh == {"pass": True, "aut_order": 1008, "failures": []}
    seeded = [
        _verify_json(["verify", "all", "--format", "json", "--seed", seed], capsys)
        for seed in ("1", "0", "7")
    ]
    assert seeded[0]["pass"] is True
    assert seeded[1] == seeded[2]
    assert main(["verify", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--sample" not in help_text and "--seed" not in help_text


def test_verify_output_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    assert main(["verify", "voltage", "--output", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    assert "OVERALL: PASS" in text
    assert "CHECK voltage.round_trip: PASS" in text


def test_verify_unwritable_output(capsys):
    code = main(["verify", "digraph", "--output", "/nonexistent-dir/report.txt"])
    assert code == 1
    capsys.readouterr()


def test_table_rows_and_empty_diff(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "124_0 : 165_3, 325_6, 364_5" in out
    assert "651_0 : 643_2, 253_4, 241_3" in out
    assert "diff against golden table: empty" in out


def test_export_digraph_json(capsys):
    assert main(["export", "digraph", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["vertices"]) == 168
    assert len(payload["arcs"]) == 504
    assert len(payload["cycles"]) == 126


def test_export_quotient_json(capsys):
    assert main(["export", "quotient", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["reps"]) == 24
    assert len(payload["arcs"]) == 72


def test_export_coxeter_dot(capsys):
    assert main(["export", "coxeter", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph coxeter {")
    assert out.count(" -- ") == 42


# sha256 of each export and of `table`, as written by --output; pins
# every exported byte against refactors
EXPORT_SHA256 = {
    ("export", "digraph", "--format", "json"):
        "9f02297101dc81d197bca14fc7908a59c92a37d450e295c5d67a32ed31ab142f",
    ("export", "digraph", "--format", "dot"):
        "107525f3a432c511054454a4ea5c29c63fa9e6eefb87c6b470eefe5bb7879d00",
    ("export", "coxeter", "--format", "json"):
        "e599c241cdf2d2cfd28c274dfbe96a4fcf52f718ae04ace0e7bbb7138b560e7e",
    ("export", "coxeter", "--format", "dot"):
        "a90f0a69fceb7ac6ecbf505573bc32f1a8fc1f91da164e607c6e32f6aebc9ab4",
    ("export", "quotient", "--format", "json"):
        "06c6d9c4db93330fe53ef10595d1079ee0d836bfcc15b0ac2ba7f3faa254c08b",
    ("export", "quotient", "--format", "dot"):
        "48b255371973e3643944180d8b6ded92643dd3abcba236f8981d0637ea074ff1",
    ("table",):
        "8bbef1be886ed915a3fd4098166cf11364a0584d978bec7d029bd2c58cc10e51",
}


def test_export_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["export", "digraph", "--output", str(a)]) == 0
    assert main(["export", "digraph", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    for argv, digest in EXPORT_SHA256.items():
        assert main([*argv, "--output", str(a)]) == 0
        assert hashlib.sha256(a.read_bytes()).hexdigest() == digest, argv


def test_export_unwritable_path(capsys):
    assert main(["export", "digraph", "--output", "/nonexistent-dir/x.json"]) == 1
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fanopencils", "table"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "124_0 : 165_3, 325_6, 364_5" in proc.stdout


# sha256 of the `verify all --format json --seed 0` payload with every
# check's "ms" dropped, serialized by json.dumps(..., sort_keys=True);
# pins the report's content against refactors (--seed is ignored); last
# re-pinned when uh.aut_order began to show the certified order next to
# the searched one, uh.known_subgroups to check generator lifts, and
# uh.extensions to report the root arc's stabilizer
VERIFY_ALL_SEED0_SHA256 = (
    "e5948dfec0c81e02ceda6d72f9bc83bfd3476f109f9d3ac3d43df3935d8cb059"
)


def test_verify_report_deterministic_apart_from_timings():
    def payload():
        proc = subprocess.run(
            [sys.executable, "-m", "fanopencils", "verify", "all"]
            + ["--format", "json", "--seed", "0"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        for check in report["checks"]:
            del check["ms"]
        return report

    first = payload()
    assert first == payload()
    digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_ALL_SEED0_SHA256


def test_commands_run_without_numpy():
    # the package needs only the standard library: with numpy made
    # unimportable, verify, table and export still run and pass
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from fanopencils.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    outputs = []
    for argv in (
        ["verify", "all", "--format", "json"],
        ["table"],
        ["export", "quotient"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["pass"] is True


def test_import_leaves_out_dataclasses_inspect_and_typing():
    # without cached bytecode every fresh process pays for these imports
    # (about 10 ms together, and json about 3.5 ms more, which only the
    # JSON outputs need); -S leaves out site .pth files, which may import
    # typing before the package does
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    script = (
        f"import sys; sys.path[:0] = [{src!r}]; import fanopencils.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
