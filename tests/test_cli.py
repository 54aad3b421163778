"""Exit codes, output formats, and environment handling of the CLI."""

import subprocess
import sys
from pathlib import Path

import pytest

from multipoint import herbert
from multipoint.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, main

FIG8 = """\
surface T
squares 1
glue s0.E s0.W same
glue s0.N s0.S same

curve c on T
pt s0 1/8 1/8
pt s0 7/8 7/8
pt s0 7/8 1/8
pt s0 1/8 7/8

verify c
"""

TANGENT = """\
surface T
squares 1
glue s0.E s0.W same
glue s0.N s0.S same

curve c on T
pt s0 1/8 1/4
pt s0 9/8 1/4

curve c on T
pt s0 1/2 1/4
pt s0 3/4 5/8
pt s0 1/4 5/8

verify c
"""

TORI3 = """\
immersion3 f
tri 0 0 1/4 1 0 1/4 0 1 1/4
tri 1 0 1/4 1 1 1/4 0 1 1/4
tri -1/8 1/4 -1/8 7/8 1/4 -1/8 -1/8 1/4 7/8
tri 7/8 1/4 -1/8 7/8 1/4 7/8 -1/8 1/4 7/8
tri 1/4 -3/16 -3/16 1/4 13/16 -3/16 1/4 -3/16 13/16
tri 1/4 13/16 -3/16 1/4 13/16 13/16 1/4 -3/16 13/16

verify f
"""


@pytest.fixture
def fig8_file(tmp_path):
    p = tmp_path / "fig8.scene"
    p.write_text(FIG8)
    return str(p)


def test_verify_pass_exit_zero(fig8_file, capsys):
    assert main(["verify", fig8_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "ALL PASS" in out


def test_verify_machine_tsv(fig8_file, capsys):
    assert main(["verify", fig8_file, "--machine"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "scene\tr\ttarget\tlhs\tmu\teuler\tverdict"
    assert lines[1] == "c\t1\tcomponent[0]\t0\t0\t0\tPASS"


def test_verify_machine_is_deterministic(fig8_file, capsys):
    main(["verify", fig8_file, "--machine"])
    first = capsys.readouterr().out
    main(["verify", fig8_file, "--machine"])
    assert capsys.readouterr().out == first


def test_verify_missing_file_exit_two(capsys):
    assert main(["verify", "/nonexistent/path.scene"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_verify_parse_error_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.scene"
    p.write_text("surface T\nsquares nope\n")
    assert main(["verify", str(p)]) == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err


def test_verify_degenerate_scene_exit_two(tmp_path, capsys):
    p = tmp_path / "tangent.scene"
    p.write_text(TANGENT)
    assert main(["verify", str(p)]) == EXIT_INPUT
    assert "tangency" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        b"surface S\ncurve c on S\nverify c\n",
        b"\xff\xfe not a scene",
        "surface S\nsquares \u00b2\n".encode(),
    ],
    ids=["no-squares", "not-utf8", "non-ascii-digit"],
)
def test_verify_malformed_file_exit_two(tmp_path, capsys, data):
    p = tmp_path / "bad.scene"
    p.write_bytes(data)
    assert main(["verify", str(p)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_verify_internal_error_propagates(fig8_file, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(herbert, "verify", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["verify", fig8_file])


def test_verify_mesh_scene(tmp_path, capsys):
    p = tmp_path / "tori3.scene"
    p.write_text(TORI3)
    assert main(["verify", str(p), "--machine"]) == EXIT_OK
    assert "f\t2\t[M]\t1\t1\t0\tPASS" in capsys.readouterr().out


def test_explain_output(fig8_file, capsys):
    assert main(["explain", fig8_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "double point" in out
    assert "ALL PASS" in out


def test_gen_is_deterministic_and_verifiable(tmp_path, capsys):
    assert main(["gen", "--seed", "5", "--ambient", "klein"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "5", "--ambient", "klein"]) == EXIT_OK
    assert capsys.readouterr().out == first
    p = tmp_path / "gen.scene"
    p.write_text(first)
    assert main(["verify", str(p)]) == EXIT_OK
    capsys.readouterr()


def test_gen_seed_env_override(monkeypatch, capsys):
    main(["gen", "--seed", "9"])
    by_flag = capsys.readouterr().out
    monkeypatch.setenv("MULTIPOINT_SEED", "9")
    main(["gen", "--seed", "3"])
    assert capsys.readouterr().out == by_flag


def test_gen_bad_env_seed_exit_two(monkeypatch, capsys):
    monkeypatch.setenv("MULTIPOINT_SEED", "not-a-number")
    assert main(["gen"]) == EXIT_INPUT


def test_gen_budget_exhaustion_exit_one(capsys):
    code = main(["gen", "--segments", "2", "2", "--retry-budget", "2"])
    assert code == EXIT_FAIL
    assert "budget exhausted" in capsys.readouterr().err


def test_gen_bad_config_exit_two(capsys):
    assert main(["gen", "--components", "3", "1"]) == EXIT_INPUT


def test_fuzz_curves(capsys):
    assert main(["fuzz", "--universe", "curves", "--count", "6", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "6/6 scenes passed" in out
    assert "genus2" in out  # ambient rotation


def test_fuzz_tori(capsys):
    assert main(["fuzz", "--universe", "tori", "--count", "4", "--seed", "1"]) == EXIT_OK
    assert "4/4 scenes passed" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["-1", "0"])
def test_fuzz_nonpositive_count_exit_two(count, capsys):
    assert main(["fuzz", "--count", count]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "--count" in captured.err
    assert "scenes passed" not in captured.out


def test_module_entry_point(fig8_file):
    proc = subprocess.run(
        [sys.executable, "-m", "multipoint", "verify", fig8_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ALL PASS" in proc.stdout


# ---------------------------------------------------------------------------
# golden output of the anchor scenes

DOCS = Path(__file__).resolve().parent.parent / "docs"
TSV_HEADER = "scene\tr\ttarget\tlhs\tmu\teuler\tverdict\n"
GOLDEN = {
    "figure-eight": "c\t1\tcomponent[0]\t0\t0\t0\tPASS\n",
    "genus2-loop": (
        "c\t1\tcomponent[0]\t0\t0\t0\tPASS\n"
        "c\t1\tcomponent[1]\t0\t0\t0\tPASS\n"
    ),
    "klein-core": "c\t1\tcomponent[0]\t1\t0\t1\tPASS\n",
    "three-tori": "f\t2\t[M]\t1\t1\t0\tPASS\n",
    "two-loops": (
        "c\t1\tcomponent[0]\t1\t1\t0\tPASS\n"
        "c\t1\tcomponent[1]\t1\t1\t0\tPASS\n"
    ),
    "two-tori-cycle": (
        "f\t2\t[M]\t0\t0\t0\tPASS\n"
        "f\t1\tg\t1\t1\t0\tPASS\n"
    ),
}


def test_golden_output_covers_every_docs_scene():
    assert sorted(GOLDEN) == sorted(p.stem for p in DOCS.glob("*.scene"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_machine_golden_output(name, capsys):
    code = main(["verify", str(DOCS / f"{name}.scene"), "--machine"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_OK, TSV_HEADER + GOLDEN[name], "")
