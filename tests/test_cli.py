from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import combterp
from combterp import bench, cli
from combterp.cli import main
from combterp.elim import ElimAlgo
from combterp.refsem import RApp, RFunConst, int_const


@pytest.fixture
def source(tmp_path):
    def write(text):
        p = tmp_path / "prog.ct"
        p.write_text(text)
        return str(p)

    return write


class TestRun:
    def test_value(self, source, capsys):
        assert main(["run", source("1 + 2 * 3")]) == 0
        assert capsys.readouterr().out.strip() == "7"

    @pytest.mark.parametrize("algo", ["classical", "fab", "c1", "c2"])
    def test_algos_agree(self, source, capsys, algo):
        f = source("((\\x. x * x) 6)")
        assert main(["run", f, "--algo", algo]) == 0
        assert capsys.readouterr().out.strip() == "36"

    def test_function_results_print_opaquely(self, source, capsys):
        for algo in ("classical", "c2"):
            assert main(["run", source("\\x. x"), "--algo", algo]) == 0
            assert capsys.readouterr().out.strip() == "<fun>"

    @pytest.mark.parametrize("algo", ["classical", "fab", "c1", "c2"])
    def test_values_holding_functions_print_alike(self, source, capsys, algo):
        assert main(["run", source("cons (\\x. x) nil"), "--algo", algo]) == 0
        assert capsys.readouterr().out.splitlines() == ["[<fun>]"]
        f = source("(\\d. (\\e. !u) (u := \\x. x)) (t := cons (\\x. x) nil)")
        assert main(["run", f, "--algo", algo, "--emit", "trace"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "<fun>", "SET t [<fun>]", "SET u <fun>", "GET u <fun>"]

    def test_trace_emission(self, source, capsys):
        assert main(["run", source("(t := 4) + !t"), "--emit", "trace"]) == 0
        assert capsys.readouterr().out.splitlines() == ["8", "SET t 4",
                                                        "GET t 4"]

    def test_runtime_error_exits_nonzero(self, source, capsys):
        assert main(["run", source("1 2")]) == 1
        assert capsys.readouterr().err.startswith("error: type_error: cannot apply")

    def test_budget_exhaustion_exits_nonzero(self, source, capsys):
        f = source("(\\w. w w) (\\w. w w)")
        assert main(["run", f, "--budget", "10000"]) == 1
        assert "limit" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["run", "compare", "bench", "theorem"])
    def test_a_negative_budget_is_rejected(self, source, capsys, command):
        args = [command] + ([source("1")] if command in ("run", "compare")
                            else [])
        with pytest.raises(SystemExit) as info:
            main(args + ["--budget", "-1"])
        assert info.value.code == 2
        assert ("argument --budget: must be non-negative, got -1"
                in capsys.readouterr().err)

    def test_runs_as_a_module_without_an_install(self, source, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(combterp.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "combterp", "run", source("1 + 2 * 3")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "7\n", "")


class TestTransform:
    def test_term_and_size(self, source, capsys):
        f = source("\\x. \\y. (x y)")
        assert main(["transform", f, "--algo", "fab", "--emit", "size"]) == 0
        assert capsys.readouterr().out.strip() == "applications: 9"
        assert main(["transform", f, "--algo", "c2", "--no-pre-eval"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "applications: 3"
        assert "S" in out[0]

    def test_pre_eval_default_folds_to_a_constant(self, source, capsys):
        f = source("\\x. \\y. (x y)")
        assert main(["transform", f, "--algo", "c2", "--emit", "size"]) == 0
        assert capsys.readouterr().out.strip() == "applications: 0"

    @pytest.mark.parametrize("text,algo,term", [
        ("\\x. x", "c2", "I"),
        ("plus 1", "c2", "<plus+1>"),
        ("(\\x.\\y. x) 1", "c1", "(<B+2> 1)"),
        ("\\x. (x x)", "fab", "((S I) I)"),
    ])
    def test_function_constants_print_by_their_meta(self, source, capsys,
                                                    text, algo, term):
        assert main(["transform", source(text), "--algo", algo]) == 0
        assert capsys.readouterr().out.splitlines()[0] == term


# far past the caller's recursion limit: an application chain and a list
CHAIN = "(\\x. x) " * 1500 + "1"
LIST = "[" + ", ".join(map(str, range(3000))) + "]"


class TestDeepPrograms:
    """Parsing and the closedness check run on the deep stack too."""

    @pytest.mark.parametrize("algo", ["classical", "fab", "c1", "c2"])
    def test_run(self, source, capsys, algo):
        assert main(["run", source(CHAIN), "--algo", algo]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["run", source(LIST), "--algo", algo]) == 0
        assert capsys.readouterr().out.startswith("[0, 1, 2, ")

    @pytest.mark.parametrize("algo", ["fab", "c1", "c2"])
    def test_transform(self, source, capsys, algo):
        assert main(["transform", source(CHAIN), "--algo", algo]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("(" * 1500 + "I I)")
        assert out[1] == "applications: 1500"


class TestErrors:
    def test_parse_error(self, source, capsys):
        assert main(["run", source("1 +")]) == 1
        assert "error" in capsys.readouterr().err

    def test_open_program_rejected(self, source, capsys):
        assert main(["run", source("x + 1")]) == 1
        assert "error" in capsys.readouterr().err


class TestHarnessCommands:
    def test_compare_seeds(self, capsys):
        assert main(["compare", "--samples", "5", "--budget", "50000"]) == 0
        out = capsys.readouterr().out
        assert "compared 15:" in out and "0 disagree" in out

    def test_compare_single_file(self, source, capsys):
        assert main(["compare", source("(t := 2) * !t")]) == 0
        assert "0 disagree" in capsys.readouterr().out

    def test_theorem(self, capsys):
        assert main(["theorem", "--samples", "5", "--budget", "20000"]) == 0
        out = capsys.readouterr().out
        assert "theorem:" in out and "0 disagree" in out

    def test_theorem_names_the_rule_set_that_disagrees(self, monkeypatch,
                                                       capsys):
        real = cli.elim_rterm

        def wrong_for_c1(m, algo):
            if algo is ElimAlgo.C1:  # runs an effect the source never runs
                return RApp(RFunConst("set:zz"), int_const(5))
            return real(m, algo)

        monkeypatch.setattr(cli, "elim_rterm", wrong_for_c1)
        assert main(["theorem", "--samples", "3", "--budget", "20000"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line[:len("DISAGREE seed 0 [c1]: ")] for line in out[0:6:2]] == [
            f"DISAGREE seed {n} [c1]: " for n in range(3)]
        assert all(line.startswith("  term: ") for line in out[1:6:2])
        assert out[6:] == ["theorem: 6 agree, 0 inconclusive, 3 disagree"]

    def test_bench_closes_with_resource_usage(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "corpus", lambda full=False: bench.scaled_corpus(
            fib_n=5, ack=(1, 2), sort_k=5, queens=4))
        assert main(["bench"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("BENCH ") for line in out) == 28
        assert re.fullmatch(r"RUSAGE user_s=\d+\.\d{3} system_s=\d+\.\d{3} "
                            r"minor_faults=\d+", out[-1])
