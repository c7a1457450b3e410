"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import hashlib
import json

import pytest

import recipefuzz.cli as cli_module
import recipefuzz.controller as controller_module
from recipefuzz import controller, elfdict, engine, micro, plateau, recipe, stats
from recipefuzz.cli import main
from recipefuzz.targets import ParserTarget, UnknownTarget, default_seeds

from conftest import CountingExecutor, build_elf, build_fixture_run_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "exc,code",
    [
        (controller.ConfigInvalid("x"), 5),
        (recipe.SchemaViolation([("id", "x")]), 5),
        (micro.EmptyQueue("x"), 5),
        (micro.BudgetZero("x"), 5),
        (micro.EmptyResults("x"), 5),
        (engine.ZeroCalls("x"), 5),
        (elfdict.NotElf("x"), 5),
        (elfdict.NoRodataSection("x"), 5),
        (plateau.NonMonotonicTelemetry("x"), 5),
        (stats.EmptySample("x"), 5),
        (stats.DegenerateVariance("x"), 5),
        (stats.NonMonotonicSeries("x"), 5),
        (stats.MissingArtifact("r", "fuzzer_stats"), 5),
        (UnknownTarget("x"), 5),
        (micro.ExecutorFailure("x"), 4),
        (micro.IoFailure("x"), 3),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_follows_exception_family(exc, code, capsys, monkeypatch):
    # Validation errors are ValueErrors and I/O errors OSErrors, so main
    # names only the three families.
    assert isinstance(exc, ValueError) == (code == 5)
    assert isinstance(exc, OSError) == (code == 3)

    def fail(args):
        raise exc

    monkeypatch.setitem(cli_module._DISPATCH, "stats", fail)
    assert main(["stats", "--runs", "x"]) == code
    assert str(exc) in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["launch-missiles"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frobnicate"])
        assert exc.value.code == 2


class TestRun:
    def test_campaign_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        code, stdout, _ = run_cli(
            capsys,
            "run",
            "--target",
            "parser",
            "--ablation",
            "full",
            "--exec-budget",
            "1500",
            "--seed",
            "5",
            "--out",
            str(out),
        )
        assert code == 0
        assert "run complete" in stdout
        for name in ("fuzzer_stats", "coverage.csv", "events.jsonl", "run_metadata.json"):
            assert (out / name).is_file()

    def test_bad_target_exits_5(self, tmp_path, capsys):
        queue = tmp_path / "queue"
        queue.mkdir()
        (queue / "a").write_bytes(b"[1]")
        for argv in (
            ("run", "--target", "nope", "--budget", "5", "--out", str(tmp_path / "x")),
            ("micro", "--target", "nope", "--queue", str(queue), "--recipe", "default"),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 5, argv[0]
            assert err == "error: unknown built-in target 'nope'\n"

    def test_missing_budget_exits_5(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "--out", str(tmp_path / "x"))
        assert code == 5

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_exits_5_before_writing(self, budget, tmp_path, capsys):
        # Without the check the campaign never reaches its budget.
        out = tmp_path / "x"
        code, _, err = run_cli(capsys, "run", "--budget", budget, "--out", str(out))
        assert code == 5
        assert "budget_sec must be finite" in err
        assert not out.exists()

    def test_zero_micro_execs_exits_5_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run_cli(
            capsys, "run", "--exec-budget", "2000", "--micro-execs", "0", "--out", str(out)
        )
        assert code == 5
        assert "micro_budget_execs" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fail_at, exc",
        [
            (1, RuntimeError("harness fault")),
            (len(default_seeds("parser")) + 5, ValueError("bad input")),
        ],
        ids=["seed", "main-loop-value-error"],
    )
    def test_executor_failure_exits_4(self, fail_at, exc, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            controller_module,
            "get_target",
            lambda name: CountingExecutor(ParserTarget(), fail_at, exc),
        )
        code, _, err = run_cli(
            capsys, "run", "--exec-budget", "500", "--out", str(tmp_path / "x")
        )
        assert code == 4
        assert "executor failure" in err


class TestMutate:
    def test_deterministic_outputs(self, tmp_path, capsys):
        inp = tmp_path / "a"
        inp.write_bytes(b'{"k": 1}')
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            code, _, err = run_cli(
                capsys,
                "mutate",
                "--recipe",
                "reference",
                "--input",
                str(inp),
                "--seed",
                "7",
                "--out",
                str(out),
            )
            assert code == 0
            assert "op=" in err
        assert out1.read_bytes() == out2.read_bytes()

    def test_recipe_file(self, tmp_path, capsys, reference_recipe_text):
        recipe_file = tmp_path / "r.json"
        recipe_file.write_text(reference_recipe_text)
        inp = tmp_path / "a"
        inp.write_bytes(b'{"k": 1}')
        code, _, _ = run_cli(
            capsys, "mutate", "--recipe", str(recipe_file), "--input", str(inp),
            "--seed", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 0

    def test_invalid_recipe_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"id": "x"}')
        inp = tmp_path / "a"
        inp.write_bytes(b"ab")
        code, _, err = run_cli(
            capsys, "mutate", "--recipe", str(bad), "--input", str(inp),
        )
        assert code == 5

    def test_missing_input_exits_3(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "mutate", "--recipe", "default", "--input", str(tmp_path / "nope"),
        )
        assert code == 3

    @pytest.mark.parametrize("weight", [[1], {"a": 1}, "abc"])
    def test_malformed_token_weight_exits_5(self, weight, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "id": "w", "selector": {"mode": "mode", "key": "any"}, "priority": 1,
            "ttl_sec": 60, "operator_weights": {"BitFlip": 1.0, "InsertToken": weight},
        }))
        inp = tmp_path / "a"
        inp.write_bytes(b"ab")
        code, _, err = run_cli(
            capsys, "mutate", "--recipe", str(bad), "--input", str(inp),
        )
        assert code == 5
        assert "weight must be numeric" in err

    @pytest.mark.parametrize("matches", [False, True], ids=["mismatch", "match"])
    def test_seed_hash_selector(self, matches, tmp_path, capsys):
        # The input is the corpus entry named "input": a scoped recipe
        # whose selector does not match it is a recorded miss.
        data = b'{"k": 1}'
        inp = tmp_path / "a"
        inp.write_bytes(data)
        key = hashlib.sha256(data).hexdigest() if matches else "0" * 64
        recipe_file = tmp_path / "r.json"
        recipe_file.write_text(json.dumps({
            "id": "scoped", "selector": {"mode": "seed_hash", "key": key}, "priority": 1,
            "ttl_sec": 60, "operator_weights": {"BitFlip": 1.0},
        }))
        out = tmp_path / "o"
        code, _, err = run_cli(
            capsys, "mutate", "--recipe", str(recipe_file), "--input", str(inp),
            "--out", str(out),
        )
        assert code == 0
        if matches:
            assert err.startswith("op=BitFlip hit=1 ")
            assert out.read_bytes() != data
        else:
            assert err == f"op=none hit=0 size={len(data)}\n"
            assert out.read_bytes() == data

    @pytest.mark.parametrize("size", [0, 101])
    def test_input_outside_max_size_exits_5(self, size, tmp_path, capsys):
        # mutate's outputs stay within 1..max_size, so it takes only such
        # inputs: a 101-byte input with --max-size 10 used to come back
        # 101 bytes long, with exit 0.
        inp = tmp_path / "a"
        inp.write_bytes(b"x" * size)
        out = tmp_path / "o"
        code, _, err = run_cli(
            capsys, "mutate", "--recipe", "default", "--input", str(inp),
            "--max-size", "10", "--out", str(out),
        )
        assert code == 5
        assert f"input is {size} bytes; mutate takes 1..10 bytes" in err
        assert not out.exists()

    def test_default_max_size_is_the_campaign_limit(self, tmp_path, capsys):
        inp = tmp_path / "a"
        size = micro.MAX_SIZE
        inp.write_bytes(b"x" * (size + 1))
        code, _, err = run_cli(capsys, "mutate", "--recipe", "default", "--input", str(inp))
        assert code == 5
        assert f"input is {size + 1} bytes; mutate takes 1..{size} bytes" in err


def micro_fields(stdout):
    return dict(
        (k.strip(), v.strip())
        for k, v in (line.split(":", 1) for line in stdout.strip().splitlines())
    )


class TestMicro:
    def test_standalone_gate_run(self, tmp_path, capsys):
        queue = tmp_path / "queue"
        queue.mkdir()
        for name, data in (("a", b"aaaa"), ("b", b"abcdefghijklmnop")):
            (queue / name).write_bytes(data)
        recipe_file = tmp_path / "gate.json"
        recipe_file.write_text(
            json.dumps(
                {
                    "id": "gate_probe",
                    "selector": {"mode": "mode", "key": "any"},
                    "priority": 1,
                    "ttl_sec": 60,
                    "operator_weights": {"InsertToken": 0.7, "BitFlip": 0.3},
                    "dictionary_tokens": ["XKEY1"],
                }
            )
        )
        code, stdout, _ = run_cli(
            capsys,
            "micro",
            "--target",
            "staircase",
            "--queue",
            str(queue),
            "--recipe",
            str(recipe_file),
            "--budget-execs",
            "400",
            "--seed",
            "2",
        )
        assert code == 0
        fields = micro_fields(stdout)
        assert int(fields["delta_edges"]) >= 4
        assert float(fields["reward"]) > 0

    def test_default_budget_is_500_execs_and_reproducible(self, tmp_path, capsys):
        queue = tmp_path / "queue"
        queue.mkdir()
        for name, data in (("a", b"[1, 2]"), ("b", b'{"k": "v"}')):
            (queue / name).write_bytes(data)
        argv = ("micro", "--queue", str(queue), "--recipe", "default", "--seed", "3")
        (code1, out1, _), (code2, out2, err2) = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert (code1, code2) == (0, 0), err2
        assert out1 == out2
        assert micro_fields(out1)["execs"] == "500"

    def test_rerun_writes_nothing(self, tmp_path, capsys):
        queue = tmp_path / "queue"
        queue.mkdir()
        for name, data in (("a", b"[1, 2]"), ("b", b'{"k": "v"}')):
            (queue / name).write_bytes(data)

        def tree():
            return {str(p): p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

        before = tree()
        argv = ("micro", "--queue", str(queue), "--recipe", "default", "--budget-execs", "200")
        (code1, out1, _), (code2, out2, err2) = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert (code1, code2) == (0, 0), err2
        assert out1 == out2
        assert tree() == before

    def test_snapshot_dir_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["micro", "--queue", str(tmp_path), "--recipe", "default",
                  "--snapshot-dir", str(tmp_path / "snap")])
        assert exc.value.code == 2
        assert not (tmp_path / "snap").exists()

    @pytest.mark.parametrize("size", [0, micro.MAX_SIZE + 1], ids=["empty", "oversized"])
    def test_queue_entry_outside_max_size_exits_5(self, size, tmp_path, capsys, monkeypatch):
        # The gate mutates every queue entry, so an entry its mutate cannot
        # take is rejected, by name, before anything runs.
        queue = tmp_path / "queue"
        queue.mkdir()
        (queue / "a").write_bytes(b"[1, 2]")
        (queue / "bad").write_bytes(b"x" * size)

        def never(*args, **kwargs):
            raise AssertionError("the gate ran")

        monkeypatch.setattr(micro, "evaluate_candidate", never)
        code, out, err = run_cli(capsys, "micro", "--queue", str(queue), "--recipe", "default")
        assert code == 5
        assert f"queue entry {queue / 'bad'} is {size} bytes" in err
        assert out == ""

    def test_empty_queue_exits_5(self, tmp_path, capsys):
        queue = tmp_path / "queue"
        queue.mkdir()
        code, _, _ = run_cli(
            capsys, "micro", "--queue", str(queue), "--recipe", "default",
            "--budget-execs", "10",
        )
        assert code == 5


class TestMicrobench:
    def test_single_config_report(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "microbench", "--config", "vanilla", "--calls", "2000",
            "--reps", "2", "--corpus-size", "50",
        )
        assert code == 0
        assert stdout.count("config        : vanilla") == 2

    def test_all_configs_with_gate(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "microbench", "--config", "all", "--calls", "3000",
            "--reps", "3", "--corpus-size", "100",
        )
        assert code == 0
        assert "cost ratio" in stdout
        assert "sanity gate" in stdout

    def test_zero_calls_exits_5(self, capsys):
        code, _, _ = run_cli(capsys, "microbench", "--calls", "0", "--reps", "1")
        assert code == 5

    @pytest.mark.parametrize("config", ["vanilla", "all"])
    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exits_5(self, config, reps, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("timed with no reps")

        monkeypatch.setattr(engine, "bench_dispatch", never)
        code, out, err = run_cli(
            capsys, "microbench", "--config", config, "--reps", reps, "--calls", "100",
        )
        assert code == 5
        assert "--reps" in err
        assert out == ""


class TestExtractDict:
    def test_extraction_to_file(self, tmp_path, capsys):
        image = build_elf(b"null\x00true\x00ok\x00")
        binary = tmp_path / "target.bin"
        binary.write_bytes(image)
        out = tmp_path / "dict.txt"
        code, _, err = run_cli(
            capsys, "extract-dict", "--binary", str(binary), "--out", str(out),
        )
        assert code == 0
        assert 'token_0000="null"' in out.read_text()
        assert "unique_tokens" in err

    def test_not_elf_exits_5(self, tmp_path, capsys):
        binary = tmp_path / "plain.txt"
        binary.write_bytes(b"just text")
        code, _, _ = run_cli(capsys, "extract-dict", "--binary", str(binary))
        assert code == 5

    def test_dict_feeds_campaign(self, tmp_path, capsys):
        image = build_elf(b"XKEY1\x00other\x00")
        binary = tmp_path / "t.bin"
        binary.write_bytes(image)
        dict_file = tmp_path / "d.txt"
        code, _, _ = run_cli(
            capsys, "extract-dict", "--binary", str(binary), "--min-len", "5",
            "--out", str(dict_file),
        )
        assert code == 0
        out = tmp_path / "campaign"
        code, _, _ = run_cli(
            capsys, "run", "--target", "staircase", "--ablation", "rule-only",
            "--exec-budget", "3000", "--seed", "4", "--out", str(out),
            "--dict", str(dict_file),
        )
        assert code == 0
        # The extracted gate literal reaches the rule dictionary recipe and
        # unlocks the gated edges.
        stats = (out / "fuzzer_stats").read_text()
        edges = int(
            next(l for l in stats.splitlines() if l.startswith("edges_found"))
            .split(":")[1]
        )
        assert edges >= 7


class TestStats:
    def test_fixture_tree_summary(self, tmp_path, capsys):
        tree = build_fixture_run_tree(tmp_path / "runs")
        csv_out = tmp_path / "rows.csv"
        code, stdout, _ = run_cli(
            capsys, "stats", "--runs", str(tree), "--baseline-mode", "baseline",
            "--out", str(csv_out),
        )
        assert code == 0
        assert "U=8" in stdout
        assert "p=0.42" in stdout
        assert "A12=0.68" in stdout
        lines = csv_out.read_text().splitlines()
        assert len(lines) == 11

    def test_missing_tree_exits_3(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "stats", "--runs", str(tmp_path / "missing"))
        assert code == 3

    def test_nan_plateau_exits_5(self, tmp_path, capsys):
        tree = build_fixture_run_tree(tmp_path / "runs")
        stats_file = next(tree.glob("e1_full_*")) / "fuzzer_stats"
        lines = [
            f"{'last_find':<18}: nan" if line.startswith("last_find") else line
            for line in stats_file.read_text().splitlines()
        ]
        stats_file.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "stats", "--runs", str(tree))
        assert code == 5
        assert "nan" in err
