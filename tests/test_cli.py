import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import permavoid
from permavoid.cli import main

PAPER_WITNESS = "010210210210033001133001133001133000"
ALL_PARAMS = ",".join(map(str, range(1, 15)))
README = Path(__file__).resolve().parents[1] / "README.md"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAlphasCommand:
    def test_infinite_value_serialized(self, capsys):
        code, report = run_json(capsys, ["alphas", "--i", "1", "--j", "2", "--k", "3"])
        assert code == 0
        result = report["result"]
        assert result["alphas"]["alpha1"] == 4
        assert result["alphas"]["alpha2"] == "inf"
        assert result["representations"]["alpha3"] == "0102"

    def test_report_envelope(self, capsys):
        _, report = run_json(capsys, ["alphas", "--i", "3", "--j", "7", "--k", "6"])
        assert report["tool"] == "permavoid"
        assert report["command"] == "alphas"
        assert report["config"]["i"] == 3
        assert "elapsed_seconds" in report


class TestSigmaAndClassify:
    def test_sigma(self, capsys):
        code, report = run_json(capsys, ["sigma", "--i", "3", "--j", "7", "--k", "6"])
        assert code == 0
        assert report["result"]["sigma"] == 7
        assert report["result"]["witness_set"] == [1, 3, 7, 12, 13]

    def test_sigma_degenerate_is_domain_error(self, capsys):
        code = main(["sigma", "--i", "2", "--j", "2", "--k", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    def test_classify_finite(self, capsys):
        code, report = run_json(capsys, ["classify", "--i", "3", "--j", "7", "--k", "6"])
        assert code == 0
        assert report["result"]["sigma"] == 7
        assert report["result"]["avoidable_interval"] == [2, 6]
        assert report["result"]["unavoidable_from"] == 8

    def test_classify_infinite_sigma(self, capsys):
        code, report = run_json(capsys, ["classify", "--i", "1", "--j", "2", "--k", "3"])
        assert code == 0
        assert report["result"]["sigma"] == "inf"

    def test_classify_degenerate(self, capsys):
        code, report = run_json(capsys, ["classify", "--i", "2", "--j", "2", "--k", "5"])
        assert code == 0
        assert report["result"]["degenerate_case"] == "i=j or j=k"


class TestHugeExponents:
    def test_alpha_commands_answer_fast(self, capsys):
        for command in ("alphas", "sigma", "classify"):
            started = time.perf_counter()
            code, report = run_json(
                capsys, [command, "--i", "100000000", "--j", "2", "--k", "3"]
            )
            assert time.perf_counter() - started < 1.0, command
            assert code == 0
            assert report["result"]["exponents"] == {"i": 100000000, "j": 2, "k": 3}


class TestFamiliesCommand:
    def test_single_family(self, capsys):
        code, report = run_json(capsys, ["families", "--family", "1"])
        assert code == 0
        sets = [entry["indices"] for entry in report["result"]["families"]["1"]]
        assert [1, 2, 4, 6, 7] in sets

    def test_with_exponents_adds_max(self, capsys):
        _, report = run_json(
            capsys, ["families", "--family", "5", "--i", "3", "--j", "7", "--k", "6"]
        )
        for entry in report["result"]["families"]["5"]:
            assert "max" in entry

    def test_all_families_total(self, capsys):
        _, report = run_json(capsys, ["families"])
        assert report["result"]["total_sets"] == 47


class TestSearchCommand:
    def test_small_exhaustive_search(self, capsys):
        code, report = run_json(
            capsys,
            ["search", "--m", "2", "--forbidden", ",".join(map(str, range(1, 15))),
             "--model", "all", "--cap", "50"],
        )
        assert code == 0
        assert report["result"]["max_length_found"] == 3
        assert report["result"]["exhausted"] is True

    def test_cap_hit_exits_inconclusive(self, capsys):
        code, report = run_json(
            capsys,
            ["search", "--m", "3", "--forbidden", "9", "--model", "all", "--cap", "20"],
        )
        assert code == 2
        assert report["result"]["exhausted"] is False

    def test_fixed_exponents(self, capsys):
        # giving --i, --j and --k fixes the exponents: (1, 7, 4) is unavoidable at m = 7
        code, report = run_json(
            capsys,
            ["search", "--m", "7", "--forbidden", ALL_PARAMS, "--model", "all",
             "--i", "1", "--j", "7", "--k", "4", "--cap", "300", "--budget", "300000"],
        )
        assert code == 0
        result = report["result"]
        assert (result["max_length_found"], result["exhausted"], result["nodes_visited"]) == (
            10,
            True,
            235,
        )
        assert result["witness_word"] == "0001010100"
        assert (report["config"]["i"], report["config"]["j"], report["config"]["k"]) == (1, 7, 4)

    def test_bad_forbidden_list(self, capsys):
        code = main(["search", "--m", "3", "--forbidden", "1,99"])
        assert code == 1


class TestVerifyWordCommand:
    def test_known_witness_word_avoids(self, capsys):
        code, report = run_json(
            capsys,
            ["verify-word", "--word", PAPER_WITNESS, "--m", "4",
             "--forbidden", "1,2,4,6,7", "--model", "cycle"],
        )
        assert code == 0
        assert report["result"]["status"] == "avoids"

    def test_instance_reported(self, capsys):
        code, report = run_json(
            capsys,
            ["verify-word", "--word", "0000", "--m", "2", "--forbidden", "9"],
        )
        assert code == 0
        assert report["result"]["status"] == "instance"
        assert report["result"]["witness"]["pattern"] == "0000"

    def test_fixed_exponents_reported(self, capsys):
        # fixed exponents are reported as given, not reduced modulo the order
        for exponents in ([1, 2, 3], [5, 6, 7]):
            code, report = run_json(
                capsys,
                ["verify-word", "--word", "0123", "--m", "4", "--forbidden", "1", "--model",
                 "cycle", "--i", str(exponents[0]), "--j", str(exponents[1]),
                 "--k", str(exponents[2])],
            )
            assert code == 0
            assert report["result"]["status"] == "instance"
            assert report["result"]["witness"]["exponents"] == exponents


class TestVerifyMorphicCommand:
    def test_builtin_spec_clean(self, capsys):
        code, report = run_json(
            capsys,
            ["verify-morphic", "--spec", "ternary-thue", "--forbidden", "6,9,10",
             "--model", "all", "--umax", "6", "--len", "400"],
        )
        assert code == 0
        assert report["result"]["status"] == "clean"

    def test_spec_file(self, capsys, tmp_path):
        from permavoid.verifier import h_alpha_spec

        path = tmp_path / "halpha.json"
        path.write_text(json.dumps(h_alpha_spec().as_json()), encoding="utf-8")
        code, report = run_json(
            capsys,
            ["verify-morphic", "--spec", str(path), "--forbidden", "2,3,4,5,6,7,8,9,10,11,12,13,14",
             "--umax", "8", "--len", "600"],
        )
        assert code == 0
        assert report["result"]["status"] == "clean"
        assert report["result"]["gap_without_full_image"] == 30


class TestVerbose:
    def test_progress_on_stderr_only(self, capsys, monkeypatch):
        # --verbose adds progress lines on stderr and leaves the report as it was
        import permavoid.search as search_module
        from permavoid.verifier import h_alpha_spec

        monkeypatch.setattr(search_module, "_PROGRESS_EVERY", 10_000)
        monkeypatch.setattr(search_module, "_POSITIONS_PROGRESS_EVERY", 100)
        commands = [
            ("search", ["search", "--m", "4", "--forbidden", "1,2,4,6,7", "--model", "cycle",
                        "--cap", "40"]),
            ("verify", ["verify-word", "--word", h_alpha_spec().generate(400).text(), "--m", "5",
                        "--forbidden", "2,3,4"]),
            ("verify", ["verify-morphic", "--spec", "h-alpha", "--forbidden", "2,3,4",
                        "--umax", "8", "--len", "400"]),
        ]
        for name, argv in commands:
            outputs = []
            for extra in ([], ["--verbose"], []):
                main(argv + extra)
                captured = capsys.readouterr()
                outputs.append(re.sub(r'"elapsed_seconds": [^,]*,', "", captured.out))
                progress = [line for line in captured.err.splitlines() if line]
                if extra:
                    assert progress and all(
                        line.startswith(f"permavoid: {name}: ") and "memo" in line
                        for line in progress
                    )
                else:
                    assert progress == []  # the handler is gone after the verbose run
            assert outputs[0] == outputs[1] == outputs[2]
            assert "verbose" not in json.loads(outputs[0])["config"]


class TestDomainErrors:
    def assert_one_line_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("permavoid: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        return captured.err

    def test_missing_spec_file(self, capsys, tmp_path):
        err = self.assert_one_line_error(
            capsys,
            ["verify-morphic", "--spec", str(tmp_path / "absent.json"), "--forbidden", "10"],
        )
        assert "spec file" in err

    def test_spec_file_without_seed(self, capsys, tmp_path):
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps({"base": {"0": "01", "1": "10"}}), encoding="utf-8")
        err = self.assert_one_line_error(
            capsys, ["verify-morphic", "--spec", str(path), "--forbidden", "10"]
        )
        assert "'seed'" in err

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        base = '"base": {"0": "01", "1": "10"}'
        documents = ("[1, 2]", '{"base": "012", "seed": 0}', "{")
        # seeds and alphabet sizes must be JSON integers (true and 1.7 are not read as 1),
        # and an alphabet has at most 256 letters
        documents += tuple(
            "{" + base + ", " + field + "}"
            for field in (
                '"seed": null',
                '"seed": [0]',
                '"seed": 0, "base_alphabet": "x"',
                '"seed": 0, "base_alphabet": 300',
                '"seed": 1.7',
                '"seed": true',
                '"seed": 0, "name": [1]',  # a spec's name must be a JSON string
                '"seed": 0, "name": 3',
            )
        )
        # images must be JSON strings, and morphism or seed errors name the file and key
        documents += tuple(
            '{"base": ' + images + ', "seed": 0}'
            for images in (
                '{"0": [0, 1], "1": "10"}',
                '{"0": "0,300", "1": "10"}',
                '{"0": "", "1": "10"}',
                '{"x": "01", "1": "10"}',
                "{}",
                '{"0": "10", "1": "01"}',  # not prolongable on seed 0
            )
        )
        documents += ("{" + base + ', "seed": 0, "coding": {"0": "1"}}',)
        for document in documents:
            path.write_text(document, encoding="utf-8")
            err = self.assert_one_line_error(
                capsys, ["verify-morphic", "--spec", str(path), "--forbidden", "10"]
            )
            assert "spec file" in err
        path.write_text("{" + base + ', "seed": 0, "name": [1]}', encoding="utf-8")
        err = self.assert_one_line_error(
            capsys, ["verify-morphic", "--spec", str(path), "--forbidden", "10"]
        )
        assert err == f"permavoid: error: spec file {path}: 'name' must be a string, got [1]\n"
        path.write_text('{"base": {"0": "0,300", "1": "10"}, "seed": 0}', encoding="utf-8")
        err = self.assert_one_line_error(
            capsys, ["verify-morphic", "--spec", str(path), "--forbidden", "10"]
        )
        assert err.startswith(
            f"permavoid: error: spec file {path}: 'base': cannot parse letters '0,300': "
        )

    def test_unparsable_word(self, capsys):
        for text in ("01a", "0,,1", "0,300"):
            err = self.assert_one_line_error(
                capsys, ["verify-word", "--word", text, "--m", "4", "--forbidden", "1"]
            )
            assert err.startswith(f"permavoid: error: --word: cannot parse letters {text!r}: ")

    def test_incomplete_exponents(self, capsys):
        for command in (["search", "--m", "3", "--forbidden", "1"],
                        ["verify-word", "--word", "0120", "--m", "3", "--forbidden", "1"]):
            for given in (["--i", "1"], ["--i", "1", "--j", "2"]):
                err = self.assert_one_line_error(capsys, command + given)
                assert err == "permavoid: error: this command needs --i, --j and --k\n"

    def test_exponent_above_cap(self, capsys):
        err = self.assert_one_line_error(
            capsys, ["alphas", "--i", "10000000000000", "--j", "2", "--k", "3"]
        )
        assert "at most" in err

    def test_oversized_model(self, capsys):
        err = self.assert_one_line_error(capsys, ["search", "--m", "9", "--forbidden", "1,2,3"])
        assert "362,880" in err


class TestCliContract:
    def test_usage_error_exit_code(self, capsys):
        assert main(["alphas", "--i", "1", "--j", "2"]) == 64
        assert main(["unknown-command"]) == 64
        assert main([]) == 64

    def test_reports_byte_identical_modulo_timing(self, capsys):
        argv = ["classify", "--i", "3", "--j", "7", "--k", "6"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_round_trip_config_enables_reproduction(self, capsys):
        abstract = ["search", "--m", "3", "--forbidden", ALL_PARAMS, "--cap", "30"]
        runs = [
            ["search", "--m", "2", "--forbidden", "1,2,3", "--cap", "30"],
            abstract,
            abstract + ["--i", "2", "--j", "4", "--k", "1"],
        ]
        results = []
        for argv in runs:
            _, report = run_json(capsys, argv)
            config = report["config"]
            again_argv = [
                "search", "--m", str(config["m"]), "--forbidden", config["forbidden"],
                "--model", config["model"], "--cap", str(config["cap"]),
                "--budget", str(config["budget"]),
            ]
            for name in ("i", "j", "k"):
                if config[name] is not None:
                    again_argv += [f"--{name}", str(config[name])]
            _, again = run_json(capsys, again_argv)
            assert again["result"] == report["result"]
            results.append(report["result"])
        # the echoed exponents are what made the fixed run differ from the abstract one
        assert results[2]["max_length_found"] == 30 != results[1]["max_length_found"]

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "permavoid" in capsys.readouterr().out


class TestReadmeCommands:
    """Every `permavoid ...` line of README's command examples runs as documented."""

    def readme_commands(self):
        text = README.read_text(encoding="utf-8").replace("\\\n", " ")
        blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
        return [
            shlex.split(line)[1:]
            for block in blocks
            for line in block.splitlines()
            if line.startswith("permavoid ")
        ]

    def test_readme_commands_run(self, capsys):
        commands = self.readme_commands()
        assert len(commands) >= 8
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 2), (argv, captured.err)
            assert json.loads(captured.out)["command"] == argv[0]


class TestModuleEntryPoint:
    """``python -m permavoid`` in a child process, as the console script runs it."""

    @staticmethod
    def command(*args):
        src = str(Path(permavoid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return [sys.executable, "-m", "permavoid", *args], env

    def run_module(self, *args):
        argv, env = self.command(*args)
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)

    def test_closed_pipe_is_one_line_error(self):
        # the report (the word twice, about 200 kB) outgrows the pipe buffer,
        # so the child is still writing when the reader closes after 10 bytes
        argv, env = self.command(
            "verify-word", "--m", "2", "--forbidden", "1", "--model", "all", "--word", "0" * 100_000
        )
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert child.stdout.read(10) == b'{\n  "comma'
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert err.splitlines() == ["permavoid: error: cannot write the report: Broken pipe"]
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_huge_prefix_length_fails_fast(self):
        # rejected before the prefix is generated: one line, exit 1, no traceback
        argv, env = self.command(
            "verify-morphic", "--spec", "h-alpha", "--forbidden", "2", "--len", "100000000000"
        )
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "permavoid: error: prefix length 100,000,000,000 exceeds the supported"
            " 10,000,000 letters"
        ]
        assert "Traceback" not in done.stderr

    def test_version(self):
        done = self.run_module("--version")
        assert done.returncode == 0
        assert done.stdout.strip() == f"permavoid {permavoid.__version__}"

    def test_classify(self):
        done = self.run_module("classify", "--i", "3", "--j", "7", "--k", "6")
        assert done.returncode == 0
        report = json.loads(done.stdout)
        assert report["command"] == "classify"
        assert report["result"]["sigma"] == 7
