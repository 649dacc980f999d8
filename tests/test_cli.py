import concurrent.futures
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qcrowd import ConfigError, DenseHalfPositive, ExperimentConfig, SymmetricBlocks
from qcrowd import cli
from qcrowd.cli import (
    RESULT_COLUMNS,
    RunSpec,
    main,
    parse_config,
    run_experiment,
)
from qcrowd.core import CONFIG_KEYS, SOLVER_KEYS

GOOD_CONFIG = """\
# toy problem at documented scale
n = 10
m = 12
alpha = 0.4
beta = 0.1667
epsilon = 0.2
delta = 0.1
k = 6
k0 = 6
seed = 42
adversary = SymmetricBlocks
adversary.block_low = 0.8
solver.max_iters = 250
"""

# at rho_scale 0.1 the nuclear bound binds in these trials (at 0.2 it is
# slack); 20 iterations keep the binding solves short
_BINDING_CONFIG = GOOD_CONFIG.replace("solver.max_iters = 250",
                                      "solver.max_iters = 20")


class TestParseConfig:
    def test_documented_parameters(self):
        cfg = parse_config(GOOD_CONFIG)
        assert cfg.alpha_n == 4
        assert cfg.beta_m == 2
        assert cfg.seed == 42
        assert cfg.adversary == SymmetricBlocks(block_low=0.8)
        assert cfg.solver.max_iters == 250

    def test_empty_file_lists_missing_keys(self):
        with pytest.raises(ConfigError, match="missing required keys: n, m, "
                           "alpha, beta, epsilon, delta, k, k0$"):
            parse_config("")
        with pytest.raises(ConfigError, match="n, m"):
            parse_config("# nothing here\n")

    def test_duplicate_key_reports_second_line(self):
        text = "n = 10\nm = 12\nn = 11\n"
        with pytest.raises(ConfigError, match="line 3: duplicate key 'n'"):
            parse_config(text)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n = 10\nnot a pair\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 1: unknown key 'foo'"):
            parse_config("foo = 3\n" + GOOD_CONFIG)

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="'n' is not a valid int"):
            parse_config(GOOD_CONFIG.replace("n = 10", "n = ten"))

    def test_unknown_adversary(self):
        with pytest.raises(ConfigError, match="unknown adversary"):
            parse_config(GOOD_CONFIG.replace("SymmetricBlocks", "EvilRater"))

    def test_unknown_strategy_parameter(self):
        bad = GOOD_CONFIG.replace("adversary.block_low = 0.8",
                                  "adversary.mood = 0.8")
        with pytest.raises(ConfigError, match="unknown parameter"):
            parse_config(bad)

    def test_strategy_parameter_without_strategy(self):
        bad = GOOD_CONFIG.replace("adversary = SymmetricBlocks\n", "")
        with pytest.raises(ConfigError, match="without 'adversary ='"):
            parse_config(bad)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("\n\n" + GOOD_CONFIG + "\n# trailing comment\n")
        assert cfg.n == 10

    def test_dense_half_positive_parsing(self):
        text = GOOD_CONFIG.replace(
            "adversary = SymmetricBlocks\nadversary.block_low = 0.8",
            "adversary = DenseHalfPositive\nadversary.block_size = 2")
        cfg = parse_config(text)
        assert cfg.adversary == DenseHalfPositive(block_size=2)

    def test_mirrored_copy_parsing(self):
        from qcrowd import MirroredCopy
        text = GOOD_CONFIG.replace(
            "adversary = SymmetricBlocks\nadversary.block_low = 0.8",
            "adversary = MirroredCopy\nadversary.perm_seed = 11")
        assert parse_config(text).adversary == MirroredCopy(perm_seed=11)

    def test_anti_correlated_parsing(self):
        from qcrowd import AntiCorrelated
        text = GOOD_CONFIG.replace(
            "adversary = SymmetricBlocks\nadversary.block_low = 0.8",
            "adversary = AntiCorrelated")
        assert parse_config(text).adversary == AntiCorrelated()

    def test_validation_failure_propagates(self):
        with pytest.raises(ConfigError, match="m must be at least n"):
            parse_config(GOOD_CONFIG.replace("m = 12", "m = 5"))


_HUGE = "1" + "0" * 400
_BASE_PAIRS = dict(
    (key.strip(), value.strip())
    for key, _, value in (line.partition("=")
                          for line in GOOD_CONFIG.splitlines()[1:]))
_KEYS = (*_BASE_PAIRS, "L", "epsilon0", "rho_scale", "adversary.p_high",
         "adversary.block_size", "adversary.perm_seed", "solver.eta0",
         "solver.tol", "adversary.mood", "foo", "solver.", "")
_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([_HUGE, "-" + _HUGE, "1e400", "nan", "-inf", "0.3",
                     "SymmetricBlocks", "RandomSpam", "DenseHalfPositive",
                     "MirroredCopy", "AntiCorrelated", "EvilRater", ""]),
    st.text(max_size=6),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=5),
       dropped=st.sets(st.sampled_from(sorted(_BASE_PAIRS)), max_size=2),
       junk=st.lists(st.text(max_size=10), max_size=2))
def test_parse_config_validates_or_raises_a_config_error(overrides, dropped,
                                                         junk):
    pairs = {k: v for k, v in _BASE_PAIRS.items() if k not in dropped}
    pairs.update(overrides)
    text = "\n".join([f"{k} = {v}" for k, v in pairs.items()] + junk)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    return path


class TestRunMode:
    def test_writes_results_with_pinned_header(self, tmp_path, config_file):
        out = tmp_path / "out"
        spec = RunSpec(mode="run", config_path=config_file, out_dir=out,
                       trials=3, allow_nonconverged=True)
        assert run_experiment(spec) in (0, 2)
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 4
        seeds = [int(line.split(",")[0]) for line in lines[1:]]
        assert seeds == [42, 43, 44]
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("mode,text", [
        pytest.param("run", GOOD_CONFIG, id="run"),
        pytest.param("sweep", GOOD_CONFIG, id="sweep"),
        pytest.param("run", _BINDING_CONFIG + "rho_scale = 0.1\n",
                     id="run-rho_scale=0.1"),
    ])
    def test_byte_identical_across_runs_and_jobs(self, tmp_path, config_file,
                                                 mode, text):
        config_file.write_text(text)
        outs = []
        for j, jobs in ((1, 1), (2, 2)):
            out = tmp_path / f"out{j}"
            spec = RunSpec(mode=mode, config_path=config_file, out_dir=out,
                           trials=4, jobs=jobs, allow_nonconverged=True)
            run_experiment(spec)
            outs.append(((out / "results.csv").read_bytes(),
                         (out / "summary.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_lf_line_endings_and_12_digits(self, tmp_path, config_file):
        out = tmp_path / "out"
        spec = RunSpec(mode="run", config_path=config_file, out_dir=out,
                       trials=1, allow_nonconverged=True)
        run_experiment(spec)
        raw = (out / "results.csv").read_bytes()
        assert b"\r" not in raw
        gap = raw.decode().splitlines()[1].split(",")[1]
        assert len(gap.replace(".", "").replace("-", "").lstrip("0")) <= 12

    def test_rho_scale_key_matches_flag_and_flag_overrides_it(self, tmp_path):
        def outputs(name, text, rho_scale=None):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            out = tmp_path / name
            run_experiment(RunSpec(mode="run", config_path=cfg, out_dir=out,
                                   trials=2, allow_nonconverged=True,
                                   rho_scale=rho_scale))
            return ((out / "results.csv").read_bytes(),
                    (out / "summary.csv").read_bytes())

        flag = outputs("flag", _BINDING_CONFIG, rho_scale=0.1)
        assert flag != outputs("default", _BINDING_CONFIG)  # the bound binds
        assert outputs("key", _BINDING_CONFIG + "rho_scale = 0.1\n") == flag
        assert outputs("both", _BINDING_CONFIG + "rho_scale = 0.5\n",
                       rho_scale=0.1) == flag

    def test_seed_environment_variable_is_ignored(self, tmp_path, config_file,
                                                  monkeypatch):
        # the config's seed key is the only seed input
        monkeypatch.delenv("QCROWD_SEED", raising=False)
        outs = []
        for name in ("plain", "env"):
            if name == "env":
                monkeypatch.setenv("QCROWD_SEED", "7")
            out = tmp_path / name
            run_experiment(RunSpec(mode="run", config_path=config_file,
                                   out_dir=out, trials=2,
                                   allow_nonconverged=True))
            outs.append(((out / "results.csv").read_bytes(),
                         (out / "summary.csv").read_bytes()))
        assert outs[0] == outs[1]
        assert outs[1][0].decode().splitlines()[1].startswith("42,")

    def test_exit_2_on_nonconverged_without_flag(self, tmp_path, config_file):
        # the ball binds at rho_scale 0.1, so 2 steps cannot certify
        text = config_file.read_text().replace("solver.max_iters = 250",
                                               "solver.max_iters = 2")
        text += "rho_scale = 0.1\n"
        strict = config_file.parent / "strict.cfg"
        strict.write_text(text)
        out = tmp_path / "out"
        spec = RunSpec(mode="run", config_path=strict, out_dir=out, trials=1)
        assert run_experiment(spec) == 2
        spec_ok = RunSpec(mode="run", config_path=strict, out_dir=out,
                          trials=1, allow_nonconverged=True)
        assert run_experiment(spec_ok) == 0

    @pytest.fixture
    def inline_pools(self, monkeypatch):
        """Replace the process pool by an inline one; yields the list of
        (max_workers, start method, BLAS thread variables) of each pool
        created."""
        created = []

        class InlinePool:
            def __init__(self, max_workers, mp_context=None):
                created.append((max_workers, mp_context.get_start_method(),
                                {v: os.environ.get(v) for v in cli.BLAS_THREAD_VARS}))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # _run_trials imports the pool class from concurrent.futures on use
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return created

    def test_pool_never_larger_than_the_trial_count(self, inline_pools):
        cfg = parse_config(GOOD_CONFIG)
        assert len(cli._run_trials(cfg, 3, 64)) == 3
        assert len(cli._run_trials(cfg, 1, 4)) == 1  # one trial: no pool
        assert [size for size, _, _ in inline_pools] == [3]

    @pytest.mark.parametrize("preset", [None, "OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS"])
    def test_spawned_workers_get_one_blas_thread_unless_set(self, monkeypatch,
                                                            inline_pools, preset):
        for var in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if preset:
            monkeypatch.setenv(preset, "3")
        cli._run_trials(parse_config(GOOD_CONFIG), 2, 2)
        before = {v: "3" if v == preset else None for v in cli.BLAS_THREAD_VARS}
        want = before if preset else dict.fromkeys(cli.BLAS_THREAD_VARS, "1")
        assert inline_pools == [(2, "spawn", want)]
        # restored once the pool is gone
        assert {v: os.environ.get(v) for v in cli.BLAS_THREAD_VARS} == before

    def test_import_leaves_the_process_pool_unloaded(self):
        code = ("import sys, qcrowd.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="--config is required"):
            run_experiment(RunSpec(mode="run", config_path=None,
                                   out_dir=tmp_path))


class TestSweepMode:
    def test_summary_sorted_by_k(self, tmp_path, config_file):
        out = tmp_path / "out"
        spec = RunSpec(mode="sweep", config_path=config_file, out_dir=out,
                       trials=2, allow_nonconverged=True)
        assert run_experiment(spec) in (0, 2)
        lines = (out / "summary.csv").read_text().splitlines()
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == sorted(ks)
        assert ks == [6, 12]  # doubling grid capped at m, deduplicated
        results = (out / "results.csv").read_text().splitlines()
        assert len(results) == 1 + 2 * len(ks)


class TestMainCommand:
    def test_config_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 10\n")
        runner = CliRunner()
        result = runner.invoke(main, ["--config", str(bad), "--out",
                                      str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_missing_file_exits_1(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["--config", str(tmp_path / "nope.cfg")])
        assert result.exit_code == 1

    def test_run_via_command_line(self, tmp_path, config_file):
        runner = CliRunner()
        result = runner.invoke(main, [
            "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--trials", "2", "--mode", "run", "--allow-nonconverged"])
        assert result.exit_code == 0
        assert (tmp_path / "o" / "results.csv").exists()

    def test_rho_scale_accepted(self, tmp_path, config_file):
        runner = CliRunner()
        result = runner.invoke(main, [
            "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--trials", "1", "--rho-scale", "2.0", "--allow-nonconverged"])
        assert result.exit_code == 0

    def test_radius_below_rounding_runs(self, tmp_path, config_file):
        # rho is far below the float spacing of the top singular value
        result = CliRunner().invoke(main, [
            "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--trials", "1", "--rho-scale", "1e-22", "--allow-nonconverged"])
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output

    def test_invalid_trials_rejected(self, tmp_path, config_file):
        runner = CliRunner()
        result = runner.invoke(main, [
            "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--trials", "0"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("old,new,args,names", [
        *(pytest.param("", "", ["--rho-scale", v], "rho scale",
                       id=f"rho-scale={v}") for v in ("-1", "0", "nan", "inf")),
        pytest.param("seed = 42", "seed = 42\nrho_scale = 0", [],
                     "rho scale", id="rho_scale=0"),
        pytest.param("adversary = SymmetricBlocks\nadversary.block_low = 0.8\n",
                     "", [], "adversary strategy is required",
                     id="no-adversary"),
        pytest.param("seed = 42", "seed = 42\nL = nan", [], "L must",
                     id="L=nan"),
        # in range, but rho's alpha * epsilon underflows or the cap overflows
        pytest.param("epsilon = 0.2", "epsilon = 5e-324", [],
                     "nuclear-norm bound", id="epsilon=5e-324"),
        pytest.param("delta = 0.1", "delta = 1e-320", [], "rounding cap",
                     id="delta=1e-320"),
        pytest.param("SymmetricBlocks\nadversary.block_low = 0.8",
                     "RandomSpam\nadversary.p_high = 2", [], "p_high",
                     id="p_high=2"),
        pytest.param("block_low = 0.8", "block_low = 1.5", [], "block_low",
                     id="block_low=1.5"),
        pytest.param("SymmetricBlocks\nadversary.block_low = 0.8",
                     "DenseHalfPositive\nadversary.block_size = -1", [],
                     "block_size", id="block_size=-1"),
        pytest.param("max_iters = 250", "max_iters = 0", [], "max_iters",
                     id="max_iters=0"),
        pytest.param("max_iters = 250", "eta0 = nan", [], "eta0",
                     id="eta0=nan"),
        pytest.param("seed = 42", "seed = 42\nepsilon0 = 0", [], "epsilon0",
                     id="removed-key"),
        pytest.param("max_iters = 250", "max_iters = 250\nsolver.stop_window = 25",
                     [], "solver.stop_window", id="removed-solver-key"),
        pytest.param("n = 10\nm = 12", f"n = {_HUGE}\nm = {_HUGE}",
                     [], "n * m is too large", id="huge-n-m"),
        *(pytest.param("n = 10\nm = 12", f"n = {v}\nm = {v}", [],
                       "n * m is too large", id=f"n=m={label}")
          for v, label in ((10**10, "1e10"), (10**200, "1e200"))),
        pytest.param("# toy", "# \xff toy", [], "utf-8", id="not-utf8"),
        *(pytest.param("", "", [flag, "x"], f"'{flag}'", id=f"{flag}=x")
          for flag in ("--trials", "--jobs", "--rho-scale", "--mode")),
        pytest.param("", "", ["--mode", "check"], "'check'",
                     id="--mode=check"),
        pytest.param("", "", ["--bogus"], "No such option",
                     id="unknown-option"),
    ])
    def test_malformed_input_gives_one_error_line(self, tmp_path, old, new,
                                                  args, names):
        cfg = tmp_path / "exp.cfg"
        text = GOOD_CONFIG.replace(old, new) if old else GOOD_CONFIG
        cfg.write_bytes(text.encode("latin-1"))  # keeps a lone \xff byte
        result = CliRunner().invoke(main, [
            "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--allow-nonconverged", *args])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.output
        assert names in lines[0]
        assert "Traceback" not in result.output
        assert not (tmp_path / "o").exists()  # rejected before any output


def test_readme_config_block_names_every_key():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    parse_config(block)
    named = {line.split("#")[0].partition("=")[0].strip()
             for line in block.splitlines()}
    accepted = ({*CONFIG_KEYS, "adversary"}
                | {f"solver.{key}" for key in SOLVER_KEYS})
    # a field added to ExperimentConfig or SolverSettings changes this set
    assert accepted == {
        "n", "m", "alpha", "beta", "epsilon", "delta", "k", "k0", "L",
        "seed", "rho_scale", "adversary", "solver.max_iters", "solver.eta0"}
    # the example runs the derived step, so solver.eta0 is named in the text
    # below the block instead
    assert accepted - named == {"solver.eta0"}, sorted(accepted - named)
    assert "`solver.eta0`" in text.partition(block)[2]


def test_readme_library_block_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = text.partition("\n## Library\n")[2]
    block = re.match(r"\s*```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].seed == 7
