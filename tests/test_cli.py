from pathlib import Path

import pytest

from flowsat.cli import main, parse_weights_config
from flowsat.program import parse_program
from flowsat.terms import count_op

TWO_WAY = "(sink out (delta (cross (persist add_member) (persist messages))))\n"
PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.flow"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_optimize_two_way_example(tmp_path, capsys):
    prog = write(tmp_path, "two_way.flow", TWO_WAY)
    out_file = str(tmp_path / "optimized.flow")
    code, out, err = run_cli(
        capsys, "optimize", prog, "--rules", "core", "-o", out_file, "--check", "5", "--seed", "3"
    )
    assert code == 0
    optimized = parse_program(open(out_file, encoding="utf-8").read())
    tree = optimized.sinks["out"]
    assert count_op(tree, "delta") == 0
    assert count_op(tree, "persist") == 0
    # delta 100 + cross 1 + two persists 200 + two sources 2
    assert "cost 303 -> 11" in err
    assert "5/5 traces equivalent" in err


def test_optimize_already_optimal_unchanged(tmp_path, capsys):
    prog = write(tmp_path, "id.flow", "(sink out (chain a b))\n")
    code, out, err = run_cli(capsys, "optimize", prog, "--rules", "core")
    assert code == 0
    assert "(sink out (chain a b))" in out
    assert "cost 3 -> 3" in err


def test_optimize_parse_error_exit_2(tmp_path, capsys):
    prog = write(tmp_path, "bad.flow", "(sink out (cross a))\n")
    code, _, err = run_cli(capsys, "optimize", prog)
    assert code == 2
    assert "error" in err


def test_optimize_strict_flags_limit_stop(tmp_path, capsys):
    prog = write(tmp_path, "two_way.flow", TWO_WAY)
    code, _, err = run_cli(
        capsys, "optimize", prog, "--rules", "core", "--strict", "--max-iters", "2"
    )
    assert code == 1
    assert "warning" in err


@pytest.mark.parametrize("prog", PROGRAMS, ids=lambda p: p.stem)
def test_optimize_strict_saturates_shipped_programs(prog, capsys):
    code, _, err = run_cli(capsys, "optimize", str(prog), "--strict", "--format", "lines")
    assert code == 0
    assert "stop=saturated" in err.splitlines()


def test_optimize_lines_format(tmp_path, capsys):
    prog = write(tmp_path, "id.flow", "(sink out (chain a b))\n")
    code, _, err = run_cli(capsys, "optimize", prog, "--rules", "core", "--format", "lines")
    assert code == 0
    assert "sink.out.cost_before=3" in err
    assert "sink.out.cost_after=3" in err
    assert any(line.startswith("stop=") for line in err.splitlines())


def test_optimize_weight_flag_changes_model(tmp_path, capsys):
    prog = write(tmp_path, "id.flow", "(sink out (persist a))\n")
    code, out, err = run_cli(capsys, "optimize", prog, "--rules", "core", "--weight", "persist=1")
    assert code == 0
    assert "cost 2 -> 2" in err
    assert "(sink out (persist a))" in out


def test_optimize_weights_file(tmp_path, capsys):
    prog = write(tmp_path, "id.flow", "(sink out (persist a))\n")
    weights = write(tmp_path, "weights.cfg", "; comment\npersist = 1\n")
    code, _, err = run_cli(capsys, "optimize", prog, "--rules", "core", "--weights-file", weights)
    assert code == 0
    assert "cost 2 -> 2" in err


def test_parse_weights_config():
    assert parse_weights_config("cross = 2.5\n; note\nold= 3") == {"cross": 2.5, "old": 3.0}
    with pytest.raises(ValueError):
        parse_weights_config("garbage")


def test_check_program_against_itself(tmp_path, capsys):
    prog = write(tmp_path, "p.flow", "(sink out (cross (persist a) b))\n")
    code, out, _ = run_cli(capsys, "check", prog, prog, "--traces", "3")
    assert code == 0
    assert "3/3 traces equivalent" in out


def test_check_detects_divergence_at_tick_two(tmp_path, capsys):
    p1 = write(tmp_path, "p1.flow", "(sink out (persist a))\n")
    p2 = write(tmp_path, "p2.flow", "(sink out a)\n")
    code, out, _ = run_cli(capsys, "check", p1, p2, "--traces", "1", "--seed", "0")
    assert code == 3
    assert "DIVERGED at tick 2" in out


def test_check_sink_mismatch_exit_2(tmp_path, capsys):
    p1 = write(tmp_path, "p1.flow", "(sink x a)\n")
    p2 = write(tmp_path, "p2.flow", "(sink y a)\n")
    code, _, err = run_cli(capsys, "check", p1, p2)
    assert code == 2
    assert "sink" in err


def test_check_keyed_traces_for_join_programs(tmp_path, capsys):
    p = write(tmp_path, "j.flow", "(sink out (join a b))\n")
    code, out, _ = run_cli(capsys, "check", p, p, "--traces", "2")
    assert code == 0


def test_dump_shows_collapsed_root(tmp_path, capsys):
    prog = write(tmp_path, "p.flow", "(sink out (delta (persist a)))\n")
    code, out, _ = run_cli(capsys, "dump", prog, "--rules", "core", "--max-iters", "4")
    assert code == 0
    root_line = next(l for l in out.splitlines() if l.startswith("; sink out -> class "))
    cid = root_line.rsplit(" ", 1)[1]
    class_line = next(l for l in out.splitlines() if l.startswith(f"(class {cid} "))
    assert "(node a)" in class_line
    assert "iterations=" in out


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    p1 = write(tmp_path, "p1.flow", "(sink out (persist a))\n")
    p2 = write(tmp_path, "p2.flow", "(sink out a)\n")
    monkeypatch.setenv("FLOWSAT_SEED", "7")
    code, out, _ = run_cli(capsys, "check", p1, p2, "--traces", "1")
    assert code == 3


def test_optimize_three_way_checks_clean(tmp_path, capsys):
    text = (
        "(sink out (delta (cross (persist add_member)"
        " (cross (persist messages) (persist platforms)))))\n"
    )
    prog = write(tmp_path, "three.flow", text)
    code, out, err = run_cli(capsys, "optimize", prog, "--rules", "core", "--check", "10")
    assert code == 0
    tree = parse_program(out).sinks["out"]
    assert count_op(tree, "delta") == 0
    assert "10/10 traces equivalent" in err


def test_optimize_idempotent_on_own_output(tmp_path, capsys):
    prog = write(tmp_path, "two.flow", TWO_WAY)
    first = str(tmp_path / "first.flow")
    code, _, err1 = run_cli(capsys, "optimize", prog, "--rules", "core", "-o", first)
    assert code == 0
    code, _, err2 = run_cli(capsys, "optimize", first, "--rules", "core")
    assert code == 0
    assert "cost 11 -> 11" in err2


def test_dump_two_way_reports_fold_applications(tmp_path, capsys):
    prog = write(tmp_path, "two.flow", TWO_WAY)
    code, out, _ = run_cli(capsys, "dump", prog, "--rules", "core", "--max-nodes", "20000")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("applied.chain-prev-fold="))
    assert int(line.split("=")[1]) >= 1


def test_optimize_reforms_shared_subtrees(tmp_path, capsys):
    text = "(def m (persist add_member))\n(sink s1 (map f m))\n(sink s2 (filter g m))\n"
    prog = write(tmp_path, "t.flow", text)
    code, out, err = run_cli(capsys, "optimize", prog, "--rules", "core", "--weight", "persist=1")
    assert code == 0
    optimized = parse_program(out)
    assert optimized.defs  # the shared persist pipeline is re-formed as a def


def test_optimize_keeps_source_declarations(tmp_path, capsys):
    text = "(source a)\n(source b)\n(source d0)\n" + (
        "(sink s1 (delta (cross (persist a) (persist b))))\n"
        "(sink s2 (map f (delta (cross (persist a) (persist b)))))\n"
    )
    prog = write(tmp_path, "declared.flow", text)
    code, out, _ = run_cli(capsys, "optimize", prog, "--rules", "core")
    assert code == 0
    assert out.startswith("(source a)\n(source b)\n(source d0)\n")
    optimized = parse_program(out)
    assert optimized.sources == ("a", "b", "d0")
    # the shared optimized pipeline becomes a def, named apart from every
    # declared source, even one no sink reads
    assert optimized.defs and "d0" not in optimized.defs
