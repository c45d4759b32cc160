"""Command-line surface: exit codes, formats, round trips."""

import json
import os

import pytest

from leechlab.cli import (
    EXIT_ALMOST,
    EXIT_DATA,
    EXIT_EXHAUSTED,
    EXIT_IO,
    EXIT_LEECH,
    EXIT_NEITHER,
    EXIT_NOT_APPLICABLE,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    main,
    parse_family,
)
from leechlab.graphio import parse_labeling


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamilySpecs:
    def test_specs(self):
        assert parse_family("cycle:10")[0].vertex_count == 10
        assert parse_family("knn:5")[0].edge_count == 25
        assert parse_family("kmn:3x4")[0].edge_count == 12
        assert parse_family("wheel:6")[0].vertex_count == 6
        assert parse_family("complete:4")[0].edge_count == 6
        assert parse_family("prism")[0].degrees() == (3,) * 6
        assert parse_family("path:5")[0].edge_count == 4

    def test_bad_specs(self):
        for spec in (
            "triangle:3", "cycle:x", "kmn:3", "prism:1",
            # parameters are ASCII digits: no sign, space, underscore or
            # other script's digits, which int() accepts, and no '²'
            "wheel:+\u0666", "cycle:5_0", "cycle: 5", "cycle:5 ", "cycle:\u0665",
            "kmn:3x+4", "cycle:5\u00b2",
        ):
            with pytest.raises(Exception):
                parse_family(spec)

    @pytest.mark.parametrize("spec", ["wheel:+\u0666", "cycle:5_0", "cycle: 5", "triangle:3"])
    def test_bad_spec_is_one_usage_error_line_from_every_command(self, capsys, tmp_path, spec):
        labels = tmp_path / "labels.txt"
        labels.write_text("1 2 3 4 5 6 7 8 9 10\n")
        errors = set()
        for command in ("tgp", "search", "verify", "feasible"):
            extra = [str(labels)] if command == "verify" else []
            code, out, err = run(capsys, command, "--family", spec, *extra)
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            errors.add(err)
        assert len(errors) == 1


class TestTgp:
    def test_family_cycle_10(self, capsys):
        code, out, _ = run(capsys, "tgp", "--family", "cycle:10")
        assert code == 0
        assert "geodesic paths: 50" in out

    def test_wheel_6_closed_form(self, capsys):
        code, out, _ = run(capsys, "tgp", "--family", "wheel:6", "--closed-form")
        assert code == 0
        assert "closed form: 20" in out

    def test_single_edge_file(self, capsys, tmp_path):
        f = tmp_path / "g.el"
        f.write_text("2 1\n0 1\n")
        code, out, _ = run(capsys, "tgp", str(f))
        assert code == 0
        assert "geodesic paths: 1" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "tgp", "--family", "cycle:4", "--json")
        payload = json.loads(out)
        assert payload["schema"] == "leechlab/1"
        assert payload["t_gp"] == 8

    def test_closed_form_needs_family_with_formula(self, capsys):
        code, _, err = run(capsys, "tgp", "--family", "prism", "--closed-form")
        assert code == EXIT_USAGE
        assert "closed form" in err

    def test_wheel_domain_error_surfaced(self, capsys):
        code, _, err = run(capsys, "tgp", "--family", "wheel:4", "--closed-form")
        assert code == EXIT_USAGE
        assert "n >= 5" in err

    def test_parse_error_has_line_number(self, capsys, tmp_path):
        f = tmp_path / "bad.el"
        f.write_text("2 1\nzero one\n")
        code, _, err = run(capsys, "tgp", str(f))
        assert code == EXIT_DATA
        assert "line 2" in err

    def test_closed_form_mismatch_fails_loudly(self, capsys, monkeypatch):
        from dataclasses import replace

        from leechlab.families import FAMILIES

        monkeypatch.setitem(FAMILIES, "cycle", replace(FAMILIES["cycle"], tgp=lambda n: 999))
        code, out, err = run(capsys, "tgp", "--family", "cycle:4", "--closed-form")
        assert code == 70
        assert "mismatch" in err


class TestVerify:
    def write(self, tmp_path, text):
        f = tmp_path / "labels.txt"
        f.write_text(text)
        return str(f)

    def test_leech_exit_0(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", "--family", "cycle:3", self.write(tmp_path, "1 2 3\n")
        )
        assert code == EXIT_LEECH
        assert "verdict: leech" in out

    def test_almost_exit_10(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", "--family", "cycle:3", self.write(tmp_path, "1 2 2\n")
        )
        assert code == EXIT_ALMOST

    def test_neither_exit_20(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "verify", "--family", "cycle:3", self.write(tmp_path, "1 2 4\n")
        )
        assert code == EXIT_NEITHER

    def test_count_mismatch_exit_65(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--family", "cycle:3", self.write(tmp_path, "1 2\n")
        )
        assert code == EXIT_DATA
        assert "2 labels" in err and "3 edges" in err

    def test_graph_file_form(self, capsys, tmp_path):
        g = tmp_path / "g.el"
        g.write_text("3 3\n0 1\n1 2\n2 0\n")
        code, _, _ = run(capsys, "verify", str(g), self.write(tmp_path, "1 2 3\n"))
        assert code == EXIT_LEECH


class TestSearch:
    def test_c3_exit_0_and_permutation_witness(self, capsys):
        code, out, _ = run(capsys, "search", "--family", "cycle:3")
        assert code == EXIT_LEECH
        assert sorted(parse_labeling(out).labels) == [1, 2, 3]

    def test_c5_exit_30_certificate(self, capsys):
        code, out, _ = run(capsys, "search", "--family", "cycle:5")
        assert code == EXIT_EXHAUSTED
        assert "exhausted-none" in out
        assert "max_label=" in out

    def test_c10_with_paper_bounds_times_out_quickly(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "--family", "cycle:10",
            "--max-label", "31", "--sum", "85", "--time-limit", "0.1",
        )
        assert code == EXIT_TIMEOUT

    def test_round_trip_search_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "search", "--family", "wheel:5")
        assert code == EXIT_LEECH
        f = tmp_path / "witness.txt"
        f.write_text(out)  # stdout doubles as a labeling file
        code2, out2, _ = run(capsys, "verify", "--family", "wheel:5", str(f))
        assert code2 == EXIT_LEECH

    def test_almost_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "search", "--family", "wheel:7", "--almost")
        assert code == EXIT_LEECH
        f = tmp_path / "witness.txt"
        f.write_text(out)
        code2, _, _ = run(capsys, "verify", "--family", "wheel:7", str(f))
        assert code2 == EXIT_ALMOST

    def test_almost_sum_below_the_leech_floor(self, capsys, tmp_path):
        # 1 1 2 sums to 4, below the 6 that three distinct labels need
        code, out, _ = run(capsys, "search", "--family", "cycle:3", "--almost", "--sum", "4")
        assert code == EXIT_LEECH
        assert parse_labeling(out).labels == (1, 1, 2)
        f = tmp_path / "witness.txt"
        f.write_text(out)
        code2, _, _ = run(capsys, "verify", "--family", "cycle:3", str(f))
        assert code2 == EXIT_ALMOST
        code3, _, err = run(capsys, "search", "--family", "cycle:3", "--sum", "4")
        assert code3 == EXIT_USAGE and "below the minimum 6" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "search", "--family", "cycle:4", "--json")
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert payload["max_label"] == 6
        assert payload["forced_label_sum"] == 12
        assert len(payload["witnesses"]) == 1

    def test_seedless(self, capsys):
        code, out, _ = run(capsys, "search", "--family", "cycle:4", "--seedless", "--json")
        payload = json.loads(out)
        assert payload["max_label"] == 8
        assert payload["forced_label_sum"] is None
        assert code == EXIT_LEECH

    def test_all_flag_counts_witnesses(self, capsys):
        code, out, _ = run(capsys, "search", "--family", "cycle:4", "--all", "--json")
        assert len(json.loads(out)["witnesses"]) == 8

    def test_config_error_exit_64(self, capsys):
        code, _, err = run(capsys, "search", "--family", "cycle:4", "--max-label", "0")
        assert code == EXIT_USAGE

    def test_workers_flag(self, capsys):
        code, out, _ = run(capsys, "search", "--family", "cycle:4", "--workers", "2", "--json")
        assert json.loads(out)["status"] == "found"

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--time-limit", "nan"),
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--time-limit", "abc"),
            ("--time-limit", "\u0661"),
        ],
    )
    def test_nan_limit_and_workers_below_one_are_usage_errors(self, capsys, flag, value):
        code, out, err = run(capsys, "search", "--family", "cycle:5", flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_pruning_key_order_is_the_same_at_two_workers(self):
        # the merged stats must not take their order from the string hash
        # seed of the process: at two workers the key lists under two seeds
        # agree, and each is in ALL_RULES order. W5 finds a witness, and its
        # counts, like those of every unlimited search, are the same in
        # every run
        import os
        import subprocess
        import sys
        from pathlib import Path

        import leechlab
        from leechlab.search import ALL_RULES

        def pruning_keys(seed):
            env = {
                **os.environ,
                "PYTHONHASHSEED": str(seed),
                "PYTHONPATH": str(Path(leechlab.__file__).parents[1]),
            }
            argv = ["search", "--family", "wheel:5", "--workers", "2", "--json"]
            proc = subprocess.run(
                [sys.executable, "-m", "leechlab.cli", *argv],
                env=env, capture_output=True, text=True, check=False,
            )
            assert proc.returncode == EXIT_LEECH, proc.stderr
            return list(json.loads(proc.stdout)["pruning"])

        keys = pruning_keys(1)
        assert len(keys) > 1
        assert pruning_keys(2) == keys
        assert keys == [rule for rule in ALL_RULES if rule in keys]

    def test_file_source(self, capsys, tmp_path):
        f = tmp_path / "triangle.el"
        f.write_text("3 3\n0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "search", str(f))
        assert code == EXIT_LEECH
        assert sorted(parse_labeling(out).labels) == [1, 2, 3]


class TestFeasible:
    def test_knn3_infeasible(self, capsys):
        code, out, _ = run(capsys, "feasible", "--family", "knn:3")
        assert code == EXIT_NEITHER
        assert "378 not divisible by 5" in out

    def test_cycle10_feasible(self, capsys):
        code, out, _ = run(capsys, "feasible", "--family", "cycle:10")
        assert code == EXIT_LEECH
        assert "feasible" in out

    def test_range_survey(self, capsys):
        code, out, _ = run(capsys, "feasible", "--family", "cycle:n", "--range", "3..200")
        assert code == 0
        assert out.strip().splitlines()[-1] == "feasible at: 3 4 10"

    def test_range_json(self, capsys):
        code, out, _ = run(capsys, "feasible", "--family", "knn:n", "--range", "1..200", "--json")
        assert json.loads(out)["feasible_at"] == [1, 2, 5]

    def test_graph_without_equal_counts(self, capsys):
        code, out, _ = run(capsys, "feasible", "--family", "wheel:5")
        assert code == EXIT_NOT_APPLICABLE
        assert "not applicable" in out

    def test_prism_family_goes_through_census(self, capsys):
        # prism is edge-intransitive in counts? it has two distinct per-edge
        # counts, so the single divisibility test does not apply
        code, out, _ = run(capsys, "feasible", "--family", "prism")
        assert code == EXIT_NOT_APPLICABLE

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "feasible", "--family", "cycle:n", "--range", "3-5")
        assert code == EXIT_USAGE


class TestCensus:
    def test_beineke_corpus(self, capsys):
        from importlib import resources

        path = str(resources.files("leechlab") / "data" / "beineke.g6")
        code, out, err = run(capsys, "census", path)
        assert code == 0
        lines = out.strip().splitlines()
        rows = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])
        assert len(rows) == 9
        assert [r["index"] for r in rows] == list(range(9))
        assert summary["summary"] == {
            "leech": 8, "almost": 1, "neither": 0, "timeout": 0, "error": 0
        }
        assert "leech=8 almost=1" in err

    def test_bad_line_becomes_error_row(self, capsys, tmp_path):
        f = tmp_path / "corpus.g6"
        f.write_text("A_\n~~~bogus\nCs\n")
        code, out, _ = run(capsys, "census", str(f))
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r.get("verdict") for r in rows[:-1]] == ["leech", "error", "leech"]
        assert rows[-1]["summary"]["error"] == 1

    def test_closed_stdout_pipe_is_a_write_error(self, tmp_path):
        # a reader that has closed the pipe is a failed write (74), not bad
        # input (65), and ends with one error line: no traceback, and no
        # "Exception ignored" from the flush at shutdown
        import os
        import subprocess
        import sys
        from pathlib import Path

        import leechlab

        f = tmp_path / "two.g6"
        f.write_text("A_\nBw\n")
        env = {**os.environ, "PYTHONPATH": str(Path(leechlab.__file__).parents[1])}
        code = f"import sys; from leechlab.cli import main; sys.exit(main(['census', {str(f)!r}]))"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, check=False,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_IO
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk_is_a_write_error(self):
        # every write to /dev/full fails with ENOSPC: a failed write (74), not
        # bad input (65), in one error line
        import subprocess
        import sys
        from pathlib import Path

        import leechlab

        env = {**os.environ, "PYTHONPATH": str(Path(leechlab.__file__).parents[1])}
        code = "import sys; from leechlab.cli import main; sys.exit(main(['tgp', '--family', 'cycle:5', '--json']))"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                stdout=full, stderr=subprocess.PIPE, env=env, text=True, check=False,
            )
        assert proc.returncode == EXIT_IO
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_workers_preserve_order(self, capsys, tmp_path):
        nx = pytest.importorskip("networkx")
        f = tmp_path / "cycles.g6"
        f.write_bytes(b"".join(nx.to_graph6_bytes(nx.cycle_graph(n), header=False) for n in (3, 5, 4, 6)))
        code, out, _ = run(capsys, "census", str(f), "--workers", "2")
        rows = [json.loads(line) for line in out.strip().splitlines()][:-1]
        assert [r["index"] for r in rows] == [0, 1, 2, 3]
        assert [r["n"] for r in rows] == [3, 5, 4, 6]
        assert [r["verdict"] for r in rows] == ["leech", "almost", "leech", "almost"]

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--time-limit", "0"),
            ("--node-limit", "-3"),
            ("--time-limit", "nan"),
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--time-limit", "abc"),
            ("--time-limit", "\u0661"),
            ("--node-limit", "1.5"),
            ("--node-limit", "+\u0666"),
        ],
    )
    def test_bad_limit_is_usage_error(self, capsys, tmp_path, flag, value):
        f = tmp_path / "two.g6"
        f.write_text("A_\nBw\n")
        code, out, err = run(capsys, "census", str(f), flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_ascii_stdin_is_data_error(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"A_\nC\xc3\xa9\n"), encoding="utf-8"))
        code, out, err = run(capsys, "census", "-")
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestWorkersEnv:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("LEECHLAB_WORKERS", "3")
        from leechlab.cli import build_parser

        args = build_parser().parse_args(["search", "--family", "cycle:3"])
        assert args.workers == 3

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("LEECHLAB_WORKERS", "3")
        from leechlab.cli import build_parser

        args = build_parser().parse_args(
            ["search", "--family", "cycle:3", "--workers", "1"]
        )
        assert args.workers == 1

    @pytest.mark.parametrize("command", ["search", "census"])
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "\u0661"])
    def test_malformed_env_is_usage_error(self, capsys, monkeypatch, tmp_path, command, value):
        monkeypatch.setenv("LEECHLAB_WORKERS", value)
        f = tmp_path / "two.g6"
        f.write_text("A_\nBw\n")
        source = ["--family", "cycle:4"] if command == "search" else [str(f)]
        code, out, err = run(capsys, command, *source)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "LEECHLAB_WORKERS" in err

    def test_malformed_env_leaves_help_and_other_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("LEECHLAB_WORKERS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out
        code, out, _ = run(capsys, "tgp", "--family", "cycle:4", "--json")
        assert code == 0 and json.loads(out)["t_gp"] == 8
        # a valid flag still overrides a malformed default
        code, out, _ = run(capsys, "search", "--family", "cycle:4", "--workers", "1", "--json")
        assert code == 0 and json.loads(out)["status"] == "found"


class TestOutsideText:
    """Every integer read is ASCII digits, and every file is read by one line
    reader: '#' comments and blank lines count alike in every format."""

    @pytest.mark.parametrize("text,line", [("1_0 2 3\n", 1), ("# labels\n3 -3 1\n", 2)])
    def test_malformed_label_is_data_error(self, capsys, tmp_path, text, line):
        f = tmp_path / "labels.txt"
        f.write_text(text)
        code, out, err = run(capsys, "verify", "--family", "cycle:3", str(f))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1

    def test_signed_edge_list_header_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "g.el"
        f.write_text("3 +3\n0 1\n1 2\n2 0\n")
        code, out, err = run(capsys, "tgp", str(f))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error: line 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-label", "+\u0666"),
            ("--max-label", "abc"),
            ("--max-label", "1_0"),
            ("--sum", "x"),
            ("--sum", " 30"),
            ("--node-limit", "1.5"),
            ("--node-limit", "1e3"),
            ("--workers", "abc"),
        ],
    )
    def test_malformed_number_flag_is_one_usage_line(self, capsys, flag, value):
        code, out, err = run(capsys, "search", "--family", "cycle:4", flag, value)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    @pytest.mark.parametrize("bounds", ["\u0663..+5", "3..+5", " 3..5", "3..5_0", "5..3"])
    def test_malformed_range_is_one_usage_line(self, capsys, bounds):
        code, out, err = run(capsys, "feasible", "--family", "cycle:n", "--range", bounds)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: --range ") and err.count("\n") == 1

    def test_commented_g6_file_reads_its_first_graph(self, capsys, tmp_path):
        g6 = tmp_path / "k2.g6"
        g6.write_text("# K2 and then the claw\n\nA_ # K2\nCs\n")
        labels = tmp_path / "k2.labels"
        labels.write_text("1\n")
        code, out, _ = run(capsys, "tgp", str(g6), "--json")
        assert code == EXIT_LEECH and json.loads(out)["m"] == 1
        code, out, _ = run(capsys, "verify", str(g6), str(labels))
        assert code == EXIT_LEECH
        code, out, _ = run(capsys, "search", str(g6), "--json")
        assert code == EXIT_LEECH and json.loads(out)["witnesses"] == [[1]]

    def test_census_cuts_trailing_comments(self, capsys, tmp_path):
        f = tmp_path / "corpus.g6"
        f.write_text("# two graphs\nBw # triangle\n\n  A_\n")
        code, out, _ = run(capsys, "census", str(f))
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0
        assert [(r["n"], r["verdict"]) for r in rows[:-1]] == [(3, "leech"), (2, "leech")]

    def test_feasible_closed_form_builds_no_graph(self, capsys, monkeypatch):
        from dataclasses import replace

        from leechlab.families import FAMILIES

        expected = run(capsys, "feasible", "--family", "knn:3", "--json")

        def refuse(*params):
            raise AssertionError(f"feasible built knn{params}")

        monkeypatch.setitem(FAMILIES, "knn", replace(FAMILIES["knn"], make=refuse))
        assert run(capsys, "feasible", "--family", "knn:3", "--json") == expected
        code, _, err = run(capsys, "feasible", "--family", "knn:3", "g.el")
        assert code == EXIT_USAGE and "either" in err


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "tgp")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--family", "cycle:4", "--sum", "-x"],
        ["search", "--family", "cycle:4", "--bogus"],
        [],
        ["tgp", "--family"],
        ["bogus"],
    ],
)
def test_argparse_error_is_one_usage_line(capsys, argv):
    # argparse's own errors: a value that looks like a flag, an unknown flag,
    # a missing subcommand or value, an unknown subcommand
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_file_is_data_error(capsys):
    code, _, err = run(capsys, "tgp", "/nonexistent/graph.el")
    assert code == EXIT_DATA


@pytest.mark.parametrize(
    "argv",
    [
        ["tgp", "{dir}"],
        ["verify", "{dir}", "{dir}"],
        ["verify", "{graph}", "{dir}"],
        ["search", "{dir}"],
        ["census", "{dir}"],
    ],
)
def test_directory_is_data_error(capsys, tmp_path, argv):
    # any OSError on an input path, not only a missing file
    graph = tmp_path / "g.el"
    graph.write_text("2 1\n0 1\n")
    argv = [a.format(dir=tmp_path, graph=graph) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_ascii_edge_list_is_data_error(capsys, tmp_path):
    f = tmp_path / "g.el"
    f.write_bytes(b"2 1\n0 1 # caf\xe9\n")
    code, _, err = run(capsys, "tgp", str(f))
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_ascii_census_file_is_data_error(capsys, tmp_path):
    f = tmp_path / "corpus.g6"
    f.write_bytes(b"A_\nC\xe9\n")
    code, out, err = run(capsys, "census", str(f))
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
