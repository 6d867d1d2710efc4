"""The linter linted: every rule with triggering + clean fixtures.

Each rule gets at least one fixture that MUST produce its finding and
one that MUST NOT — so a rule that silently stops firing (or starts
flagging idiomatic code) fails here, not in a surprised CI run three
PRs later.  On top of the per-rule fixtures:

* baseline mechanics — suppression, stale entries, TODO placeholders;
* CLI exit codes — clean tree 0, new finding 1, ``--write-baseline``,
  ``--json``;
* the self-check: ``python -m repro.lint --check`` on the *committed*
  tree exits 0, i.e. the shipped baseline matches the shipped code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    ALL_CHECKERS,
    TODO_JUSTIFICATION,
    apply_baseline,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.lint.cli import main
from repro.lint.findings import Finding
from repro.lint.rules.determinism import DeterminismChecker
from repro.lint.rules.exceptions import ExceptionHygieneChecker
from repro.lint.rules.hotpath import HotPathPurityChecker
from repro.lint.rules.oracle import OraclePairingChecker
from repro.lint.rules.rng import RngDisciplineChecker
from repro.lint.rules.shard import ShardReadinessChecker

REPO_ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------- harness


def lint_tree(tmp_path: Path, files: dict[str, str], checkers=None):
    """Materialize ``files`` under a scratch root and lint it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return run_lint(tmp_path, checkers=checkers)


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------- rule: oracle


class TestOraclePairing:
    CHECKERS = [OraclePairingChecker()]

    def test_staticmethod_oracle_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/dct.py": (
                    "class Codec:\n"
                    "    @staticmethod\n"
                    "    def quantize_reference(block, q):\n"
                    "        return block\n"
                    "    @staticmethod\n"
                    "    def quantize(block, q):\n"
                    "        return block\n"
                )
            },
            self.CHECKERS,
        )
        assert any("staticmethod" in f.message for f in findings)

    def test_missing_counterpart_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/dct.py": (
                    "def quantize_reference(block, q):\n"
                    "    return block\n"
                )
            },
            self.CHECKERS,
        )
        assert any("no batched counterpart" in f.message for f in findings)

    def test_signature_drift_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/dct.py": (
                    "def quantize(blocks, table):\n"
                    "    return blocks\n"
                    "def quantize_reference(block, q):\n"
                    "    return block\n"
                )
            },
            self.CHECKERS,
        )
        assert any("does not match" in f.message for f in findings)

    def test_unregistered_oracle_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/dct.py": (
                    "def quantize(block, q):\n"
                    "    return block\n"
                    "def quantize_reference(block, q):\n"
                    "    return block\n"
                ),
                # Registry exists but registers a different oracle.
                "tests/strategies/registry.py": (
                    'register(oracle="repro.video.other.x_reference")\n'
                ),
            },
            self.CHECKERS,
        )
        assert any("not registered" in f.message for f in findings)

    def test_well_formed_pair_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/dct.py": (
                    "def quantize(block, q):\n"
                    "    return block\n"
                    "def quantize_reference(block, q):\n"
                    "    return block\n"
                ),
                "tests/strategies/registry.py": (
                    'register(oracle="repro.video.dct.quantize_reference")\n'
                ),
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_batched_suffix_counterpart_accepted(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/dct.py": (
                    "def quantize_batched(block, q):\n"
                    "    return block\n"
                    "def quantize_reference(block, q):\n"
                    "    return block\n"
                ),
                "tests/strategies/registry.py": (
                    'register(oracle="repro.video.dct.quantize_reference")\n'
                ),
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_missing_registry_disables_registration_check(self, tmp_path):
        # No tests/strategies/registry.py in the fixture tree: pairing
        # and signature checks still run, registration does not.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/dct.py": (
                    "def quantize(block, q):\n"
                    "    return block\n"
                    "def quantize_reference(block, q):\n"
                    "    return block\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# -------------------------------------------------------------- rule: rng


class TestRngDiscipline:
    CHECKERS = [RngDisciplineChecker()]

    def test_global_state_call_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "import numpy as np\n"
                    "np.random.seed(0)\n"
                    "x = np.random.rand(4)\n"
                )
            },
            self.CHECKERS,
        )
        assert len(findings) == 2
        assert all(f.rule == "rng-discipline" for f in findings)

    def test_legacy_import_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "from numpy.random import shuffle\n"
                )
            },
            self.CHECKERS,
        )
        assert any("global-state" in f.message for f in findings)

    def test_literal_seed_outside_helper_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "import numpy as np\n"
                    "def make():\n"
                    "    return np.random.default_rng(42)\n"
                )
            },
            self.CHECKERS,
        )
        assert any("hardcodes a seed" in f.message for f in findings)

    def test_blessed_helper_module_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/core/rng.py": (
                    "import numpy as np\n"
                    "def coerce_rng(rng=None, default_seed=0):\n"
                    "    if isinstance(rng, np.random.Generator):\n"
                    "        return rng\n"
                    "    return np.random.default_rng(0)\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_generator_methods_not_flagged(self, tmp_path):
        # rng.random(n) / rng.choice(...) on an explicit Generator are
        # exactly what the rule wants to see.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "def sample(rng, n):\n"
                    "    return rng.random(n), rng.choice([1, 2], n)\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_plumbed_default_rng_not_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "import numpy as np\n"
                    "def make(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# ------------------------------------------------------ rule: determinism


class TestDeterminism:
    CHECKERS = [DeterminismChecker()]

    def test_wall_clock_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/runtime/sched.py": (
                    "import time\n"
                    "def pick():\n"
                    "    return time.perf_counter()\n"
                )
            },
            self.CHECKERS,
        )
        assert any("wall clock" in f.message for f in findings)

    def test_from_import_alias_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/runtime/sched.py": (
                    "from time import perf_counter as pc\n"
                    "def pick():\n"
                    "    return pc()\n"
                )
            },
            self.CHECKERS,
        )
        assert any("wall clock" in f.message for f in findings)

    def test_wall_clock_boundary_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/obs/clock.py": (
                    "import time\n"
                    "class WallClock:\n"
                    "    def now(self):\n"
                    "        return time.perf_counter()\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_engine_run_no_longer_exempt(self, tmp_path):
        # The exemption moved to the injectable clock boundary: the
        # engine's run loop takes a Clock now, so a raw read there is a
        # regression the rule must catch.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/runtime/engine.py": (
                    "import time\n"
                    "class StreamEngine:\n"
                    "    def run(self):\n"
                    "        return time.perf_counter()\n"
                )
            },
            self.CHECKERS,
        )
        assert any("wall clock" in f.message for f in findings)

    def test_wall_clock_elsewhere_in_clock_module_still_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/obs/clock.py": (
                    "import time\n"
                    "class ManualClock:\n"
                    "    def now(self):\n"
                    "        return time.time()\n"
                )
            },
            self.CHECKERS,
        )
        assert any("wall clock" in f.message for f in findings)

    def test_set_iteration_in_serialization_path_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/net/pack.py": (
                    "def emit(ids):\n"
                    "    for i in set(ids):\n"
                    "        yield i\n"
                )
            },
            self.CHECKERS,
        )
        assert any("set order" in f.message for f in findings)

    def test_sorted_set_iteration_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/net/pack.py": (
                    "def emit(ids):\n"
                    "    for i in sorted(set(ids)):\n"
                    "        yield i\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_set_iteration_outside_serialization_paths_clean(self, tmp_path):
        # mapping/ is not a serialization subpackage: set iteration there
        # feeds symmetric cost sums, not emitted bytes.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/mapping/cost.py": (
                    "def total(xs):\n"
                    "    acc = 0\n"
                    "    for x in {1, 2, 3}:\n"
                    "        acc += x\n"
                    "    return acc\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# ------------------------------------------------------------ rule: shard


class TestShardReadiness:
    CHECKERS = [ShardReadinessChecker()]

    def test_mutated_module_cache_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/tables.py": (
                    "_CACHE = {}\n"
                    "def get(k):\n"
                    "    if k not in _CACHE:\n"
                    "        _CACHE[k] = k * 2\n"
                    "    return _CACHE[k]\n"
                )
            },
            self.CHECKERS,
        )
        assert any("module-level mutable" in f.message for f in findings)
        # The finding anchors at the *definition*, so the baseline entry
        # survives edits to the function that mutates it.
        assert findings[0].line == 1

    def test_global_rebinding_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/toggle.py": (
                    "_FLAG = False\n"
                    "def set_flag(v):\n"
                    "    global _FLAG\n"
                    "    _FLAG = v\n"
                )
            },
            self.CHECKERS,
        )
        assert any("global _FLAG" in f.message for f in findings)

    def test_unpicklable_session_attr_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/runtime/session.py": (
                    "class Session:\n"
                    "    def __init__(self, path):\n"
                    "        self.sink = open(path, 'wb')\n"
                    "        self.key = lambda x: x.t\n"
                )
            },
            self.CHECKERS,
        )
        messages = [f.message for f in findings]
        assert any("open file handle" in m for m in messages)
        assert any("lambda" in m for m in messages)

    def test_lambda_attr_outside_runtime_clean(self, tmp_path):
        # Only repro.runtime objects must stay picklable for dispatch.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/mapping/search.py": (
                    "class Search:\n"
                    "    def __init__(self):\n"
                    "        self.key = lambda x: x.cost\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_immutable_and_unmutated_module_state_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/tables.py": (
                    "ZIGZAG = (0, 1, 8, 16)\n"   # immutable: fine
                    "_NAMES = {1: 'a'}\n"         # mutable but never mutated
                    "def lookup(k):\n"
                    "    return _NAMES.get(k)\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# --------------------------------------------------------- rule: hot path


class TestHotPathPurity:
    CHECKERS = [HotPathPurityChecker()]

    def test_loop_in_batched_module_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/blockpipe.py": (
                    "def encode(frames):\n"
                    "    out = []\n"
                    "    for f in frames:\n"
                    "        out.append(f * 2)\n"
                    "    return out\n"
                )
            },
            self.CHECKERS,
        )
        assert any("Python-level for loop" in f.message for f in findings)

    def test_reference_oracle_loops_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/blockpipe.py": (
                    "def encode_reference(frames):\n"
                    "    out = []\n"
                    "    for f in frames:\n"
                    "        out.append(f * 2)\n"
                    "    return out\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_module_level_table_build_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/net/fec.py": (
                    "TABLE = {}\n"
                    "for i in range(8):\n"
                    "    TABLE[i] = i * i\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_comprehensions_not_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/net/packetizer.py": (
                    "def sizes(packets):\n"
                    "    return [len(p) for p in packets]\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_loops_outside_batched_modules_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/motion.py": (
                    "def search(blocks):\n"
                    "    for b in blocks:\n"
                    "        pass\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# ------------------------------------------------------- rule: exceptions


class TestExceptionHygiene:
    CHECKERS = [ExceptionHygieneChecker()]

    def test_silent_broad_except_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except Exception:\n"
                    "        return None\n"
                )
            },
            self.CHECKERS,
        )
        assert any("swallows all errors" in f.message for f in findings)

    def test_bare_except_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except:\n"
                    "        return None\n"
                )
            },
            self.CHECKERS,
        )
        assert any("bare except" in f.message for f in findings)

    def test_reraise_and_chaining_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "class IoError(Exception):\n"
                    "    pass\n"
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except Exception as exc:\n"
                    "        raise IoError(str(exc)) from exc\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_logging_handler_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "import logging\n"
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except Exception:\n"
                    "        logging.warning('load failed: %s', p)\n"
                    "        return None\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_narrow_silent_handler_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except FileNotFoundError:\n"
                    "        return None\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# ------------------------------------------------------ framework pieces


class TestFramework:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        findings = lint_tree(
            tmp_path, {"src/repro/video/bad.py": "def broken(:\n"}
        )
        assert [f.rule for f in findings] == ["parse-error"]

    def test_findings_sort_and_render(self):
        a = Finding(file="a.py", line=3, rule="r", message="m")
        b = Finding(file="a.py", line=1, rule="r", message="m")
        assert sorted([a, b])[0] is b
        assert a.render() == "a.py:3: [r] m"
        assert a.key == ("r", "a.py", 3)

    def test_every_rule_has_id_and_description(self):
        ids = [cls.rule_id for cls in ALL_CHECKERS]
        assert len(ids) == len(set(ids)) == 7
        assert all(cls.description for cls in ALL_CHECKERS)


# ------------------------------------------------------ baseline mechanics


class TestBaseline:
    FINDING = Finding(
        file="src/repro/x.py", line=5, rule="hot-path-purity", message="loop"
    )

    def test_suppression_by_key(self, tmp_path):
        path = tmp_path / "lint_baseline.json"
        write_baseline(path, [self.FINDING], [])
        entries = load_baseline(path)
        # write_baseline leaves a TODO: justified manually here.
        entries = [
            type(e)(**{**e.to_dict(), "justification": "measured 6x"})
            for e in entries
        ]
        report = apply_baseline([self.FINDING], entries)
        assert report.clean
        assert report.suppressed == [self.FINDING]

    def test_todo_placeholder_fails(self, tmp_path):
        path = tmp_path / "lint_baseline.json"
        entries = write_baseline(path, [self.FINDING], [])
        assert entries[0].justification == TODO_JUSTIFICATION
        report = apply_baseline([self.FINDING], entries)
        assert not report.clean
        assert report.unjustified == entries

    def test_stale_entry_fails(self, tmp_path):
        path = tmp_path / "lint_baseline.json"
        entries = write_baseline(path, [self.FINDING], [])
        report = apply_baseline([], entries)  # finding fixed, entry kept
        assert not report.clean
        assert report.stale == entries

    def test_rewrite_preserves_justifications(self, tmp_path):
        path = tmp_path / "lint_baseline.json"
        first = write_baseline(path, [self.FINDING], [])
        justified = [
            type(e)(**{**e.to_dict(), "justification": "measured 6x"})
            for e in first
        ]
        second = write_baseline(path, [self.FINDING], justified)
        assert second[0].justification == "measured 6x"

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []


# --------------------------------------------------------------- the CLI


CLEAN_TREE = {
    "pyproject.toml": "[project]\nname = 'fixture'\n",
    "src/repro/video/dct.py": (
        "def quantize(block, q):\n"
        "    return block\n"
        "def quantize_reference(block, q):\n"
        "    return block\n"
    ),
    "tests/strategies/registry.py": (
        'register(oracle="repro.video.dct.quantize_reference")\n'
    ),
}


class TestCli:
    def materialize(self, tmp_path, files):
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        assert main(["--root", str(tmp_path), "--check"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_new_finding_exits_nonzero(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["--root", str(tmp_path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "rng-discipline" in out and "lint FAILED" in out

    def test_write_baseline_then_check_cycle(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["--root", str(tmp_path), "--write-baseline"]) == 0
        # TODO placeholder: check still fails until a human justifies.
        assert main(["--root", str(tmp_path), "--check"]) == 1
        assert "no justification" in capsys.readouterr().out
        baseline = tmp_path / "lint_baseline.json"
        payload = json.loads(baseline.read_text())
        for entry in payload["entries"]:
            entry["justification"] = "fixture: accepted for the test"
        baseline.write_text(json.dumps(payload))
        assert main(["--root", str(tmp_path), "--check"]) == 0

    def test_stale_baseline_exits_nonzero(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        bad = tmp_path / "src/repro/video/bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        main(["--root", str(tmp_path), "--write-baseline"])
        bad.unlink()  # finding fixed; suppression now stale
        assert main(["--root", str(tmp_path), "--check"]) == 1
        assert "stale" in capsys.readouterr().out

    def test_no_baseline_reports_everything(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        main(["--root", str(tmp_path), "--write-baseline"])
        assert main(["--root", str(tmp_path), "--no-baseline"]) == 1

    def test_json_report(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["--root", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["new"][0]["rule"] == "rng-discipline"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "oracle-pairing", "rng-discipline", "determinism",
            "shard-readiness", "hot-path-purity", "exception-hygiene",
            "width-parity",
        ):
            assert rule in out

    def test_github_format_annotations(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(
            ["--root", str(tmp_path), "--check", "--format=github"]
        ) == 1
        out = capsys.readouterr().out
        assert "::error file=src/repro/video/bad.py,line=2," in out
        assert "title=rng-discipline::" in out

    def test_lint_run_is_read_only(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        before = sorted(tmp_path.rglob("*"))
        for flags in ([], ["--json"], ["--format=github"], ["--no-baseline"]):
            assert main(["--root", str(tmp_path), "--check", *flags]) == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "flags", [["--no-cache"], ["--cache-dir", "x"]],
        ids=["no-cache", "cache-dir"],
    )
    def test_cache_flags_are_unknown(self, tmp_path, capsys, flags):
        self.materialize(tmp_path, CLEAN_TREE)
        with pytest.raises(SystemExit) as exc:
            main(["--root", str(tmp_path), "--check", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_report_keys(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["--root", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "root", "baseline", "new", "stale_baseline",
            "unjustified_baseline", "suppressed", "clean",
        ]
        assert [f["rule"] for f in payload["new"]] == ["rng-discipline"]
        assert payload["clean"] is False

    def test_repeat_runs_print_identical_output(self, tmp_path, capsys):
        """Every run analyzes cold; two runs over the same tree print
        the same bytes in every output mode."""
        self.materialize(tmp_path, CLEAN_TREE)
        self.materialize(tmp_path, {
            "src/repro/video/fmt.py": (
                "def write_header(w, count):\n"
                "    w.write_bits(count & 0xFF, 8)\n"
                "def read_header(r):\n"
                "    return r.read_bits(8)\n"
            ),
            "src/repro/video/bad.py": (
                "import numpy as np\nnp.random.seed(0)\n"
            ),
        })
        for flags in ([], ["--json"], ["--format=github"]):
            outputs = []
            for _ in range(2):
                assert main(
                    ["--root", str(tmp_path), "--no-baseline", *flags]
                ) == 1
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            assert "rng-discipline" in outputs[0]
            assert "width-parity" in outputs[0]


# ------------------------------------------------------------ self-check


class TestCommittedTree:
    """The shipped code passes its own linter with the shipped baseline."""

    def test_module_invocation_is_clean(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--check",
             "--root", str(REPO_ROOT)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lint clean" in result.stdout

    def test_committed_baseline_is_fully_justified(self):
        entries = load_baseline(REPO_ROOT / "lint_baseline.json")
        assert entries, "committed baseline should not be empty"
        for entry in entries:
            assert entry.justification.strip(), entry.render()
            assert entry.justification != TODO_JUSTIFICATION, entry.render()

    def test_no_unbaselined_rng_or_determinism_findings(self):
        # The two rules the tree satisfies outright — keep it that way.
        findings = run_lint(
            REPO_ROOT,
            checkers=[RngDisciplineChecker(), DeterminismChecker()],
        )
        assert findings == []
