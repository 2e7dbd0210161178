"""End-to-end tests for ``python -m repro.analysis``.

The contract CI relies on: exit 0 on the committed tree (with the
committed baseline), exit 1 naming file/line/checker/hint when a
violation is seeded into a scratch module, exit 2 on usage errors,
baseline round-tripping (write -> suppress -> stale reporting) and a
deterministic SARIF document.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis import baseline as baseline_mod
from repro.analysis import sarif as sarif_mod
from repro.analysis.cli import main
from repro.analysis.core import Finding
from repro.analysis.registry import all_checkers

REPO_ROOT = Path(__file__).resolve().parents[1]

VIOLATIONS = """
import time

SIZE = 4096


def stamp():
    return time.time()
"""


def seed(tmp_path, code=VIOLATIONS, name="seeded_mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


class TestCommittedTree:
    def test_repo_is_clean_with_committed_baseline(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        rc = main(
            [
                "src",
                "tests",
                "--format",
                "json",
                "--baseline",
                str(REPO_ROOT / "analysis-baseline.json"),
            ]
        )
        document = json.loads(capsys.readouterr().out)
        assert rc == 0, document["findings"]
        assert document["findings"] == []
        assert document["stale_baseline_entries"] == []
        assert document["files"] > 100  # whole tree scanned, not a subset

    def test_committed_baseline_is_empty(self):
        entries = baseline_mod.load(REPO_ROOT / "analysis-baseline.json")
        assert entries == []


class TestSeededViolations:
    def test_exit_one_names_file_line_checker_and_hint(self, tmp_path, capsys):
        path = seed(tmp_path)
        rc = main([str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "seeded_mod.py" in out
        assert "[geometry.page-size]" in out
        assert "[determinism.wallclock]" in out
        assert ":4:" in out  # SIZE = 4096 line number
        assert "fix:" in out and "PAGE_SIZE" in out

    def test_json_document_shape(self, tmp_path, capsys):
        path = seed(tmp_path)
        rc = main([str(path), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert document["exit_code"] == 1
        checkers = {f["checker"] for f in document["findings"]}
        assert checkers == {"geometry", "determinism"}
        for f in document["findings"]:
            assert f["path"].endswith("seeded_mod.py")
            assert f["line"] > 0 and f["rule"] and f["hint"]

    def test_each_violation_class_is_caught(self, tmp_path, capsys):
        snippets = {
            "determinism": "import os\nv = os.urandom(8)\n",
            "geometry": "vpn = addr >> 12\n",
            "persist-barrier": (
                "def f(machine, a, d):\n    machine.physmem.write(a, d)\n"
            ),
            "stats-key": (
                "class C:\n"
                "    def __init__(self, stats):\n"
                "        self._counters = stats.counters\n"
                "        self._hit_key = 'c.hits'\n"
            ),
            "task-safety": 't = Task("not a spec")\n',
        }
        for checker, code in snippets.items():
            path = seed(tmp_path, code, name=f"viol_{checker.replace('-', '_')}.py")
            rc = main([str(path), "--checkers", checker])
            out = capsys.readouterr().out
            assert rc == 1, (checker, out)
            assert f"[{checker}." in out

    def test_pragma_round_trip(self, tmp_path):
        path = seed(
            tmp_path,
            """
            import time

            t = time.time()  # repro: allow-nondet(host metadata only)
            """,
        )
        assert main([str(path)]) == 0


class TestBaselineRoundTrip:
    def test_write_suppress_then_stale(self, tmp_path, capsys):
        path = seed(tmp_path)
        baseline = tmp_path / "baseline.json"

        assert main([str(path), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()

        # The recorded findings are now suppressed.
        rc = main([str(path), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "baselined" in out

        # A *new* violation still fails even with the baseline.
        path.write_text(
            path.read_text(encoding="utf-8") + "\nEXTRA = 4096\n",
            encoding="utf-8",
        )
        rc = main([str(path), "--baseline", str(baseline)])
        capsys.readouterr()
        assert rc == 1

        # Fixing everything turns the entries stale (reported, exit 0).
        path.write_text("CLEAN = True\n", encoding="utf-8")
        rc = main([str(path), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stale baseline entry" in out

    def test_partial_scan_reports_no_stale_entries(self, tmp_path, capsys):
        """Entries for a file this run did not scan, or for a checker it
        did not run, are not evidence of a fix."""
        path = seed(tmp_path, "A = 4096\n", name="a.py")
        other = seed(tmp_path, "B = 1\n", name="b.py")
        baseline = tmp_path / "baseline.json"
        assert main([str(path), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()

        for argv in (
            [str(other)],
            [str(path), "--checkers", "determinism"],
        ):
            rc = main([*argv, "--baseline", str(baseline), "--format", "json"])
            document = json.loads(capsys.readouterr().out)
            assert rc == 0, argv
            assert document["stale_baseline_entries"] == [], argv

    def test_malformed_baseline_is_a_usage_error(self, tmp_path, capsys):
        path = seed(tmp_path, "CLEAN = True\n")
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main([str(path), "--baseline", str(bad)]) == 2
        capsys.readouterr()

    def test_duplicate_findings_need_duplicate_entries(self, tmp_path, capsys):
        path = seed(tmp_path, "A = 4096\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(path), "--write-baseline", str(baseline)]) == 0
        # Introduce a second identical violation: one entry cannot
        # absorb both (multiset matching).
        path.write_text("A = 4096\nB = 4096\n", encoding="utf-8")
        capsys.readouterr()
        assert main([str(path), "--baseline", str(baseline)]) == 1
        capsys.readouterr()


class TestCliSurface:
    def test_list_checkers(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "determinism",
            "geometry",
            "persist-barrier",
            "stats-key",
            "task-safety",
        ]

    def test_unknown_checker_id_is_rejected(self, tmp_path):
        path = seed(tmp_path, "CLEAN = True\n")
        try:
            main([str(path), "--checkers", "bogus"])
        except SystemExit as exc:
            assert "bogus" in str(exc)
        else:  # pragma: no cover - fail loudly if it slips through
            raise AssertionError("unknown checker id was accepted")

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        capsys.readouterr()


class TestSarif:
    def test_document_shape_and_determinism(self, tmp_path):
        findings = [
            Finding(
                checker="geometry",
                rule="geometry.page-size",
                path="src/repro/replay/batch.py",
                line=10,
                col=0,
                message="hardcoded page size 4096",
                hint="use PAGE_SIZE",
            )
        ]
        first = sarif_mod.render(findings, all_checkers())
        second = sarif_mod.render(findings, all_checkers())
        assert first == second
        assert first["version"] == "2.1.0"
        run = first["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "geometry" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "geometry"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/replay/batch.py"
        assert location["region"]["startLine"] == 10
        # Byte-identical when serialized deterministically.
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestChangedFiles:
    """``--changed`` discovery must survive deletions, renames-by-rm,
    and paths git would otherwise quote."""

    @staticmethod
    def _git(root, *args):
        import subprocess

        subprocess.run(
            [
                "git",
                "-c",
                "user.email=ci@example.invalid",
                "-c",
                "user.name=ci",
                *args,
            ],
            cwd=root,
            check=True,
            capture_output=True,
        )

    def _repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "kept.py").write_text("KEPT = 1\n", encoding="utf-8")
        (tmp_path / "doomed.py").write_text("DOOMED = 1\n", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("prose\n", encoding="utf-8")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        return tmp_path

    def test_deleted_and_nonpython_entries_are_skipped(self, tmp_path):
        from repro.analysis.cli import _changed_files

        root = self._repo(tmp_path)
        self._git(root, "rm", "-q", "doomed.py")
        (root / "kept.py").write_text("KEPT = 2\n", encoding="utf-8")
        (root / "notes.txt").write_text("edited prose\n", encoding="utf-8")
        (root / "weird name.py").write_text("NEW = 1\n", encoding="utf-8")

        names = sorted(p.name for p in _changed_files(root))
        assert names == ["kept.py", "weird name.py"]

    def test_changed_run_ignores_deleted_file(self, tmp_path, monkeypatch, capsys):
        root = self._repo(tmp_path)
        self._git(root, "rm", "-q", "doomed.py")
        (root / "kept.py").write_text(
            "import time\nT = time.time()\n", encoding="utf-8"
        )
        monkeypatch.chdir(root)
        rc = main([".", "--changed", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        flagged = {f["path"] for f in payload["findings"]}
        assert flagged == {"kept.py"}
