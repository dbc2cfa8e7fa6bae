"""End-to-end command-line behavior: pipelines, exit codes, report shapes.

Exit-code contract: 0 success (a found counterexample is a successful
finding), 1 usage, 2 unreadable or invalid input, 3 budget refusal.

Most cases read only the exit code, stdout and stderr, so they run the
command through cli.main in this process (`run`). A few run it as
`python -m foldvote.cli` in a child process (`run_child`): the ones
that compare runs across processes, where hash randomization differs,
and a pipeline or two end to end.
"""

import ast
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from foldvote.audit import AxiomId
from foldvote.cli import main
from foldvote.data import four_residue_pdb_path

CLI = [sys.executable, "-m", "foldvote.cli"]
SRC = Path(__file__).resolve().parents[1] / "src"


def _checked(proc, check):
    if check is not None:
        assert proc.returncode == check, proc.stderr
    return proc


def run(*args, stdin=None, check=None):
    """The command run through cli.main as `python -m foldvote.cli` runs
    it: stdin from the given text, exit code from main's return value or
    its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin = saved
    proc = subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())
    return _checked(proc, check)


def run_child(*args, stdin=None, check=None, **env):
    """The command run as `python -m foldvote.cli` in a child process, with
    env added to its environment."""
    proc = subprocess.run(
        CLI + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC), **env),
    )
    return _checked(proc, check)


def jout(proc):
    return json.loads(proc.stdout)


def drop_timestamp(report):
    return {k: v for k, v in report.items() if k != "timestamp"}


class TestPipeline:
    def test_condorcet_cycle_detected(self):
        synth = run_child("synth", "condorcet", check=0)
        agg = run_child("aggregate", "--rule", "may", stdin=synth.stdout, check=0)
        outcome = jout(agg)["outcome"]
        assert outcome["transitive"] is False
        assert outcome["tiers"] is None
        witness = outcome["cycle_witness"]
        assert len(witness) == 3
        # re-verify the cycle by recounting majorities from the profile
        profile = jout(synth)["profile"]
        positions = [
            {c: t for t, tier in enumerate(ind["tiers"]) for c in tier}
            for ind in profile["individuals"]
        ]

        def beats(a, b):
            wins = sum(1 for pos in positions if pos[a] < pos[b])
            return wins >= len(positions) - wins

        x, y, z = witness
        assert beats(x, y) and beats(y, z) and beats(z, x) and not beats(x, z)

    def test_unanimous_profile_ranks(self):
        synth = run("synth", "impartial_culture", "--n", "2", "--seed", "3", check=0)
        agg = run("aggregate", "--rule", "borda", stdin=synth.stdout, check=0)
        outcome = jout(agg)["outcome"]
        assert outcome["transitive"] is True
        assert outcome["tiers"] is not None

    def test_accepts_bare_profile_json(self):
        synth = jout(run("synth", "condorcet", check=0))
        bare = json.dumps(synth["profile"])
        agg = run("aggregate", "--rule", "may", stdin=bare, check=0)
        assert jout(agg)["outcome"]["transitive"] is False


class TestDeterminism:
    def test_synth_identical_modulo_timestamp(self):
        a = jout(run_child("synth", "impartial_culture", "--seed", "11", check=0))
        b = jout(run_child("synth", "impartial_culture", "--seed", "11", check=0))
        assert drop_timestamp(a) == drop_timestamp(b)

    def test_audit_identical_modulo_timestamp(self):
        args = ("audit", "--rule", "may", "--axioms", "transitivity")
        a = jout(run_child(*args, check=0))
        b = jout(run_child(*args, check=0))
        assert drop_timestamp(a) == drop_timestamp(b)

    def test_different_seed_differs(self):
        a = jout(run_child("synth", "impartial_culture", "--seed", "1", check=0))
        b = jout(run_child("synth", "impartial_culture", "--seed", "2", check=0))
        assert a["profile"] != b["profile"]


class TestExitCodes:
    def test_unknown_rule_is_usage(self):
        proc = run("aggregate", "--rule", "zap", stdin="{}")
        assert proc.returncode == 1

    def test_unknown_axiom_is_usage(self):
        proc = run("audit", "--rule", "may", "--axioms", "nonsense")
        assert proc.returncode == 1
        assert "unknown axiom" in proc.stderr

    def test_continuity_needs_mean_direction(self):
        assert run("audit", "--rule", "may", "--axioms", "continuity").returncode == 1
        proc = run("audit", "--rule", "mean-direction", "--axioms", "transitivity")
        assert proc.returncode == 1

    def test_missing_profile_file(self):
        proc = run("aggregate", "/nonexistent/profile.json")
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    def test_malformed_json(self):
        proc = run("aggregate", stdin="this is not json")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", ["aggregate", "restrict"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_json_is_input_error(self, command, source, tmp_path):
        # json.load's RecursionError printed a traceback and exited 1
        text = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.json"
        path.write_text(text)
        where = "-" if source == "stdin" else str(path)
        proc = run(command, where, stdin=text)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            f"error: MalformedProfile: {where}: JSON nested too deeply\n"
        )

    @pytest.mark.parametrize("command", ["aggregate", "restrict"])
    @pytest.mark.parametrize(
        "text", ["[1, 2]", "3", '"profile"', "null", '{"profile": [1, 2]}']
    )
    def test_non_object_json_is_input_error(self, command, text):
        proc = run(command, stdin=text)
        assert proc.returncode == 2, proc.stderr
        assert "NotAnObject" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["aggregate", "restrict"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"universe": [1], "individuals": []}',
            '{"universe": ["A-A"], "individuals": [5]}',
        ],
    )
    def test_malformed_profile_is_input_error(self, command, text):
        proc = run(command, stdin=text)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: MalformedProfile")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["aggregate", "restrict"])
    @pytest.mark.parametrize(
        "edit,message",
        [
            # these used to end in a bare KeyError or ValueError, and a
            # non-string owner was accepted
            (lambda p: p.pop("universe"), "missing key 'universe'"),
            (lambda p: p.pop("individuals"), "missing key 'individuals'"),
            (lambda p: p["individuals"][0].pop("owner"), "missing key 'owner'"),
            (lambda p: p["individuals"][1].pop("tiers"), "missing key 'tiers'"),
            (
                lambda p: p.update(mode="utility"),
                "missing key 'values'",
            ),
            (
                lambda p: p["individuals"][0].update(owner=5),
                "owner must be a string, got 5",
            ),
            (
                lambda p: p["individuals"][0]["tiers"].append([]),
                "empty tier",
            ),
            (
                lambda p: p["individuals"][0]["tiers"].pop(),
                "tiers must partition the universe",
            ),
            (
                lambda p: p["individuals"][0]["tiers"].append(["A-A"]),
                "tiers must partition the universe",
            ),
            (
                lambda p: p["individuals"].pop(),
                "a profile needs at least 2 individuals",
            ),
        ],
    )
    def test_profile_json_faults_are_malformed_profile(self, command, edit, message):
        profile = {
            "universe": ["A-A", "A-C", "A-D"],
            "individuals": [
                {"owner": "a", "tiers": [["A-D"], ["A-A", "A-C"]]},
                {"owner": "b", "tiers": [["A-C"], ["A-A"], ["A-D"]]},
            ],
        }
        edit(profile)
        proc = run(command, stdin=json.dumps(profile), check=2)
        assert proc.stderr == f"error: MalformedProfile: {message}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["aggregate", "restrict"])
    @pytest.mark.parametrize("rule", ["may", "borda", "kemeny", "dictator", "utilitarian"])
    def test_repeated_universe_class_is_input_error(self, command, rule):
        ranked = [["C-C"], ["A-A"]]
        profile = {
            "universe": ["A-A", "A-A", "C-C"],
            "individuals": [{"owner": o, "tiers": ranked} for o in ("a", "b")],
        }
        proc = run(command, "--rule", rule, stdin=json.dumps(profile))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: MalformedProfile: universe repeats A-A\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["aggregate", "restrict"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (
                ("--rule", "utilitarian"),
                "error: WrongMode: utilitarian needs a utility profile, got ordinal\n",
            ),
            (
                ("--rule", "dictator", "--dictator-k", "3"),
                "error: BadIndex: dictator index 3 outside 1..2\n",
            ),
        ],
    )
    def test_rule_refusing_the_profile_is_input_error(self, command, flags, message):
        synth = run("synth", "impartial_culture", "--n", "2", check=0)
        proc = run(command, *flags, stdin=synth.stdout)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == message
        assert proc.stdout == ""

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_is_input_error(self, trials):
        for extra in (["--mode", "sampled", "--axioms", "iia"],
                      ["--axioms", "may_coincidence"],
                      ["--axioms", "unanimity"],
                      ["--rule", "mean-direction", "--axioms", "continuity"]):
            proc = run("audit", "--rule", "may", "--trials", trials, *extra)
            assert proc.returncode == 2, proc.stderr
            assert "BadSpec" in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("n", ["0", "-1", "1"])
    def test_fewer_than_two_individuals_is_input_error(self, n):
        # n <= 0 used to end in an IndexError traceback
        for extra in (["--axioms", "unanimity"],
                      ["--axioms", "arrow"],
                      ["--mode", "sampled", "--axioms", "iia"],
                      ["--axioms", "may_coincidence"]):
            proc = run("audit", "--rule", "may", "--n", n, *extra, check=2)
            assert proc.stderr == f"error: BadSpec: n must be >= 2, got {n}\n"
            assert proc.stdout == ""

    @pytest.mark.parametrize("m", ["-2", "0", "1", "300"])
    def test_class_count_outside_two_to_210_is_input_error(self, m):
        # m < 0 ended in a factorial ValueError, sampled m = 1 in a
        # randrange ValueError, exhaustive m = 1 passed vacuously and
        # m = 300 was refused with a budget quoting a 1229-digit count
        for extra in (["--axioms", "unanimity"],
                      ["--axioms", "arrow"],
                      ["--mode", "sampled", "--axioms", "iia"],
                      ["--axioms", "may_coincidence"]):
            proc = run("audit", "--rule", "may", "--m", m, "--n", "2", *extra, check=2)
            assert proc.stderr == f"error: BadSpec: m must be in 2..210, got {m}\n"
            assert proc.stdout == ""

    @pytest.mark.parametrize("k", ["0", "4"])
    @pytest.mark.parametrize(
        "axioms",
        sorted({a.value for a in AxiomId} - {"continuity"}) + ["arrow"],
    )
    def test_dictator_index_outside_one_to_n_is_input_error(self, k, axioms):
        # unrestricted_domain used to report the rule's BadIndex as a fail
        # witness, and exit 0
        proc = run(
            "audit", "--rule", "dictator", "--dictator-k", k, "--axioms", axioms,
            "--m", "3", "--n", "3", check=2,
        )
        assert proc.stderr == f"error: BadIndex: dictator index {k} outside 1..3\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "flags,message",
        [
            # m = 1 used to end in the probe's ValueError, and no m was too
            # large, though the probe builds coordinate lists of length m
            (("--m", "1"), "m must be in 2..210, got 1"),
            (("--m", "211"), "m must be in 2..210, got 211"),
            (("--n", "1"), "n must be >= 2, got 1"),
        ],
    )
    def test_continuity_request_outside_bounds_is_input_error(self, flags, message):
        proc = run(
            "audit", "--rule", "mean-direction", "--axioms", "continuity", *flags,
            check=2,
        )
        assert proc.stderr == f"error: BadSpec: {message}\n"
        assert proc.stdout == ""

    def test_unknown_profile_mode_is_input_error(self):
        synth = run("synth", "impartial_culture", "--n", "2", check=0)
        profile = json.loads(synth.stdout)["profile"]
        profile["mode"] = "foo"
        proc = run("aggregate", "--rule", "may", stdin=json.dumps(profile), check=2)
        assert proc.stderr == (
            'error: MalformedProfile: mode must be "ordinal" or "utility", got \'foo\'\n'
        )
        assert proc.stdout == ""

    def test_extract_without_inputs(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        proc = run("extract", str(empty), "--out-dir", str(tmp_path))
        assert proc.returncode == 2
        assert "no inputs" in proc.stderr

    def test_budget_refusal_with_partial_report(self):
        # transitivity at (3, 5) fits, proximity squares the space past the cap
        proc = run_child(
            "audit",
            "--rule",
            "may",
            "--axioms",
            "transitivity,proximity_preservation",
            "--n",
            "5",
        )
        assert proc.returncode == 3
        assert "budget exceeded" in proc.stderr
        report = jout(proc)
        assert "error" in report
        assert "BudgetExceeded" in report["error"]
        # the axiom that fit the budget still reported before the refusal
        assert [r["axiom"] for r in report["results"]] == ["transitivity"]

    def test_oversized_coincidence_sample_is_refused(self):
        # the coincidence sample is priced as any sampled audit is, at its
        # trials times n individuals, before its premise audits run
        proc = run(
            "audit", "--rule", "may", "--axioms", "may_coincidence",
            "--trials", "1000000000",
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "budget exceeded: may_coincidence over m=3 n=3 needs 3000000000 "
            "enumerations (limit 10000000)\n"
        )
        report = jout(proc)
        assert report["results"] == []
        assert report["error"] == (
            "BudgetExceeded: may_coincidence over m=3 n=3 needs 3000000000 "
            "enumerations (limit 10000000)"
        )

    def test_a_sample_of_too_many_individuals_is_refused(self):
        # one trial used to cost 1 whatever n was, so this one was admitted
        # and drew 10^7 + 1 orders
        proc = run(
            "audit", "--rule", "may", "--axioms", "transitivity", "--mode",
            "sampled", "--n", "10000001", "--trials", "1",
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "budget exceeded: transitivity over m=3 n=10000001 needs 10000001 "
            "enumerations (limit 10000000)\n"
        )
        assert jout(proc)["results"] == []

    @pytest.mark.parametrize(
        "m,n,digits,needs",
        [
            ("210", "11", None, "more than 10^4378"),
            # at the interpreter's floor of the int-to-str limit
            ("210", "2", "640", "more than 10^796"),
            ("3", "10000000", "640", "more than 10^7781512"),
        ],
    )
    def test_huge_exhaustive_counts_are_refused(self, m, n, digits, needs):
        # quoting (210!)^11 raised an untyped ValueError past the int-to-str
        # limit, and exited 2
        env = {} if digits is None else {"PYTHONINTMAXSTRDIGITS": digits}
        proc = run_child(
            "audit", "--rule", "may", "--axioms", "unanimity", "--m", m, "--n", n,
            **env,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            f"budget exceeded: unanimity over m={m} n={n} needs {needs} "
            "enumerations (limit 10000000)\n"
        )

    def test_bad_synth_size_is_input_error(self):
        proc = run("synth", "condorcet", "--n", "4")
        assert proc.returncode == 2


class TestExtractAndRank:
    def test_fixture_extracts_two_instances(self, tmp_path):
        proc = run(
            "extract", str(four_residue_pdb_path()), "--out-dir", str(tmp_path),
            check=0,
        )
        assert "four_residue\t4\t2" in proc.stdout
        csv_path = tmp_path / "four_residue.contacts.csv"
        assert csv_path.exists()
        body = csv_path.read_text()
        assert "A-G" in body and "G-V" in body
        summary = json.loads((tmp_path / "extract_summary.json").read_text())
        assert summary["proteins"][0]["instances"] == 2
        assert summary["failures"] == []
        assert summary["config"]["threshold_tau"] == 8.0

    def test_rank_from_extracted_csv(self, tmp_path):
        run_child("extract", str(four_residue_pdb_path()), "--out-dir", str(tmp_path),
                  check=0)
        proc = run_child(
            "rank", str(tmp_path / "four_residue.contacts.csv"),
            "--universe", "hetero", check=0,
        )
        report = jout(proc)
        assert report["utility"]["values"]["A-G"] == 1.0
        assert report["utility"]["values"]["G-V"] == 1.0
        top = set(report["ranking"]["tiers"][0])
        assert top == {"A-G", "G-V"}

    @pytest.mark.parametrize("stem", ["a,b", '"q"', "a\rb"])
    def test_rank_reads_back_any_file_stem(self, tmp_path, stem):
        # the stem names the protein; a comma used to split its CSV rows,
        # quotes were dropped from its owner, and a carriage return was
        # written bare and ended its row
        pdb = tmp_path / f"{stem}.pdb"
        shutil.copy(four_residue_pdb_path(), pdb)
        run("extract", str(pdb), "--out-dir", str(tmp_path), check=0)
        proc = run(
            "rank", str(tmp_path / f"{stem}.contacts.csv"), "--universe", "hetero",
            check=0,
        )
        report = jout(proc)
        assert report["config"]["protein_id"] == stem
        assert report["ranking"]["owner"] == stem
        assert set(report["ranking"]["tiers"][0]) == {"A-G", "G-V"}

    HEADER = "protein_id,class,chain_i,seq_i,chain_j,seq_j,distance,score"
    GOOD_ROW = "p,A-G,A,1,A,4,5.0,1.0"

    @pytest.mark.parametrize(
        "rows,error",
        [
            # a short row used to end in a TypeError traceback
            (["p,A-C,A,1,A,5"], "MalformedContacts: line 3: 6 fields, expected 8"),
            # an extra field used to be dropped without a word; the blank
            # line still counts towards the line number
            (
                ["", "p,A-C,A,1,A,5,6.0,1.0,extra"],
                "MalformedContacts: line 4: 9 fields, expected 8",
            ),
            # the fields below used to end in a bare ValueError
            (
                ["p,A-C,A,x,A,5,6.0,1.0"],
                "MalformedContacts: line 3: invalid literal for int() with base 10: 'x'",
            ),
            (
                ["p,A-Z,A,1,A,5,6.0,1.0"],
                "MalformedContacts: line 3: not standard residue codes: 'A', 'Z'",
            ),
            (
                ["p,A-C,A,1,A,5.5,6.0,1.0"],
                "MalformedContacts: line 3: invalid literal for int() with base 10: '5.5'",
            ),
            (
                ["p,AC,A,1,A,5,6.0,1.0"],
                "MalformedContacts: line 3: not a class label: 'AC'",
            ),
            (
                ["", GOOD_ROW, "p,A-C,A,1,A,5,far,1.0"],
                "MalformedContacts: line 5: could not convert string to float: 'far'",
            ),
            (
                ["p,A-C,A,1,A,5,6.0,"],
                "MalformedContacts: line 3: could not convert string to float: ''",
            ),
            # a -inf distance used to be ranked, and a nan score to end in
            # NonFiniteUtility without a line number
            (
                ["p,A-C,A,1,A,5,-inf,1.0"],
                "MalformedContacts: line 3: distance must be finite and >= 0, got -inf",
            ),
            (
                ["p,A-C,A,1,A,5,-1.0,1.0"],
                "MalformedContacts: line 3: distance must be finite and >= 0, got -1.0",
            ),
            (
                [GOOD_ROW, "p,A-C,A,1,A,5,6.0,nan"],
                "MalformedContacts: line 4: score must be finite, got nan",
            ),
            (
                ["p,A-C,A,1,A,5,6.0,inf"],
                "MalformedContacts: line 3: score must be finite, got inf",
            ),
        ],
    )
    def test_rank_rejects_a_malformed_row(self, tmp_path, rows, error):
        path = tmp_path / "bad.contacts.csv"
        path.write_text("\n".join([self.HEADER, self.GOOD_ROW, *rows]) + "\n")
        proc = run("rank", str(path), check=2)
        assert proc.stderr == f"error: {error}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "lines,line",
        [
            ([HEADER.replace("chain_i", "ch\rain_i")], 1),
            ([HEADER, GOOD_ROW, "p,A-G,A\r,1,A,4,5.0,1.0"], 3),
        ],
    )
    def test_rank_rejects_a_bare_carriage_return(self, tmp_path, lines, line):
        # the CSV reader's error used to end in a traceback and exit 1
        path = tmp_path / "bad.contacts.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        proc = run("rank", str(path), check=2)
        assert proc.stderr.startswith(
            f"error: MalformedContacts: line {line}: new-line character seen"
        )
        assert proc.stdout == ""

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "0"])
    def test_extract_rejects_a_bad_tau(self, tmp_path, tau):
        # NaN and infinity used to reach the summary, which is then not JSON
        out = tmp_path / "out"
        proc = run(
            "extract", str(four_residue_pdb_path()), "--out-dir", str(out),
            f"--tau={tau}", check=2,
        )
        assert proc.stderr == (
            "error: ValueError: threshold_tau must be positive and finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.5"])
    def test_rank_rejects_a_bad_tie_epsilon(self, tmp_path, epsilon):
        run("extract", str(four_residue_pdb_path()), "--out-dir", str(tmp_path),
            check=0)
        proc = run(
            "rank", str(tmp_path / "four_residue.contacts.csv"),
            f"--tie-epsilon={epsilon}", check=2,
        )
        assert proc.stderr == (
            "error: ValueError: tie_epsilon must be finite and >= 0\n"
        )
        assert proc.stdout == ""

    def test_rank_rejects_a_bad_header(self, tmp_path):
        path = tmp_path / "bad.contacts.csv"
        path.write_text("wrong,header\n1,2\n")
        proc = run("rank", str(path), check=2)
        assert proc.stderr == (
            "error: MalformedContacts: bad instance CSV header: ['wrong', 'header'], "
            f"expected {self.HEADER.split(',')}\n"
        )

    @staticmethod
    def score_table(rows=20) -> str:
        """A symmetric table scoring pair (a, b) as a's index + b's."""
        letters = "ACDEFGHIKLMNPQRSTVWY"
        lines = ["," + ",".join(letters)]
        for i, a in enumerate(letters[:rows]):
            lines.append(a + "," + ",".join(f"{i + j}.5" for j in range(20)))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("negate", [True, False])
    def test_extract_scores_contacts_from_a_table(self, tmp_path, negate):
        table = tmp_path / "table.csv"
        table.write_text(self.score_table())
        flags = () if negate else ("--no-negate",)
        out = tmp_path / "out"
        run(
            "extract", str(four_residue_pdb_path()), "--out-dir", str(out),
            "--table", str(table), *flags, check=0,
        )
        rows = (out / "four_residue.contacts.csv").read_text().splitlines()[1:]
        scores = {row.split(",")[1]: float(row.split(",")[7]) for row in rows}
        # A is letter 0, G letter 5 and V letter 17
        sign = -1.0 if negate else 1.0
        assert scores == {"A-G": sign * 5.5, "G-V": sign * 22.5}
        config = json.loads((out / "extract_summary.json").read_text())["config"]
        assert (config["scorer"], config["negate"]) == ("table", negate)

    def test_extract_rejects_a_table_missing_a_row(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(self.score_table(rows=19))
        proc = run(
            "extract", str(four_residue_pdb_path()), "--out-dir", str(tmp_path),
            "--table", str(table), check=2,
        )
        assert proc.stderr == "error: BadTable: expected 20 data rows, got 19\n"
        assert proc.stdout == ""

    def test_extract_rejects_a_table_with_a_non_finite_entry(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(self.score_table().replace(",0.5,", ",inf,", 1))
        proc = run(
            "extract", str(four_residue_pdb_path()), "--out-dir", str(tmp_path),
            "--table", str(table), check=2,
        )
        assert proc.stderr == (
            "error: BadTable: table has a non-finite entry (nan, inf or -inf)\n"
        )
        assert proc.stdout == ""

    def test_summary_named_dash_is_a_file(self, tmp_path, monkeypatch):
        # with the default --out-dir ".", the summary's path is "-" as text
        monkeypatch.chdir(tmp_path)
        proc = run(
            "extract", str(four_residue_pdb_path()), "--summary-name", "-", check=0,
        )
        assert proc.stdout == "four_residue\t4\t2\n"
        assert json.loads((tmp_path / "-").read_text())["proteins"][0]["instances"] == 2

    def test_mixed_inputs_continue_past_failures(self, tmp_path):
        good = tmp_path / "good.pdb"
        shutil.copy(four_residue_pdb_path(), good)
        bad = tmp_path / "bad.pdb"
        bad.write_text("REMARK nothing atomic here\n")
        out = tmp_path / "out"
        out.mkdir()
        proc = run("extract", str(tmp_path), "--out-dir", str(out), check=0)
        assert "failed: " in proc.stderr
        summary = json.loads((out / "extract_summary.json").read_text())
        assert len(summary["proteins"]) == 1
        assert len(summary["failures"]) == 1
        assert "bad.pdb" in summary["failures"][0]["path"]

    def test_all_inputs_failing_is_input_error(self, tmp_path):
        bad = tmp_path / "only.pdb"
        bad.write_text("REMARK empty\n")
        out = tmp_path / "out"
        out.mkdir()
        proc = run("extract", str(bad), "--out-dir", str(out))
        assert proc.returncode == 2


class TestAuditCommand:
    def test_arrow_report_shape(self):
        proc = run(
            "audit", "--rule", "borda", "--axioms", "arrow", "--n", "2", check=0,
        )
        report = jout(proc)
        assert set(report) == {"config", "timestamp", "results"}
        axioms = [r["axiom"] for r in report["results"]]
        assert len(axioms) == 6
        fails = [r for r in report["results"] if r["verdict"] == "fail"]
        assert [r["axiom"] for r in fails] == ["iia"]
        assert fails[0]["witness"] is not None

    def test_may_coincidence(self):
        proc = run(
            "audit", "--rule", "may", "--axioms", "may_coincidence",
            "--trials", "200", check=0,
        )
        results = jout(proc)["results"]
        assert results[0]["axiom"] == "may_coincidence"
        assert results[0]["verdict"] == "pass_within_search"

    def test_continuity_probe(self):
        proc = run(
            "audit", "--rule", "mean-direction", "--axioms", "continuity",
            "--m", "2", "--epsilon", "1e-3", check=0,
        )
        result = jout(proc)["results"][0]
        assert result["verdict"] == "fail"
        w = result["witness"]
        assert w["input_distance"] <= 2e-3
        assert w["output_distance"] >= 1.0

    def test_continuity_witness_is_verified_before_it_is_emitted(
        self, monkeypatch, capsys
    ):
        from foldvote.cli import main
        from foldvote.directions import DiscontinuityWitness

        monkeypatch.setattr(DiscontinuityWitness, "verify", lambda self: False)
        with pytest.raises(AssertionError, match="continuity witness failed"):
            main(["audit", "--rule", "mean-direction", "--axioms", "continuity"])
        assert capsys.readouterr().out == ""

    def test_sampled_mode(self):
        proc = run(
            "audit", "--rule", "borda", "--axioms", "iia", "--mode", "sampled",
            "--trials", "400", "--seed", "5", check=0,
        )
        result = jout(proc)["results"][0]
        assert "sampled" in result["search_budget"]


class TestAggregateCommand:
    def test_dictator_lists_each_tier_in_universe_order(self):
        # the copied preorder is the same, but its tiers are listed in
        # universe order, as every other rule lists them
        profile = {
            "universe": ["A-A", "A-C", "A-D"],
            "individuals": [
                {"owner": "a", "tiers": [["A-D", "A-A"], ["A-C"]]},
                {"owner": "b", "tiers": [["A-C"], ["A-A", "A-D"]]},
            ],
        }
        proc = run("aggregate", "--rule", "dictator", stdin=json.dumps(profile), check=0)
        assert jout(proc)["outcome"] == {
            "rule": "dictator[1]",
            "universe": ["A-A", "A-C", "A-D"],
            "transitive": True,
            "tiers": [["A-A", "A-D"], ["A-C"]],
            "cycle_witness": None,
        }

    def test_utilitarian_sum_past_the_float_range_is_input_error(self):
        profile = {
            "universe": ["A-A", "A-C"],
            "mode": "utility",
            "individuals": [
                {"owner": "a", "values": {"A-A": 1e308, "A-C": 0}},
                {"owner": "b", "values": {"A-A": 1e308, "A-C": 1}},
            ],
        }
        proc = run(
            "aggregate", "--rule", "utilitarian", stdin=json.dumps(profile), check=2
        )
        assert proc.stderr == (
            "error: NonFiniteUtility: summed utility of A-A overflows\n"
        )
        assert proc.stdout == ""


class TestRestrictCommand:
    def test_single_peaked_profile(self):
        synth = run("synth", "single_peaked", "--m", "4", "--n", "5", check=0)
        proc = run("restrict", stdin=synth.stdout, check=0)
        report = jout(proc)
        assert report["single_peaked"] is True
        assert report["axis"] is not None and len(report["axis"]) == 4
        assert report["quasi_transitive"] is True

    def test_condorcet_profile(self):
        synth = run("synth", "condorcet", check=0)
        proc = run("restrict", stdin=synth.stdout, check=0)
        report = jout(proc)
        assert report["single_peaked"] is False
        assert report["axis"] is None
        assert report["quasi_transitive"] is False


class TestLayering:
    def test_cli_imports_no_private_name(self):
        # the command line uses what the library exports, not its internals
        import foldvote.cli

        tree = ast.parse(Path(foldvote.cli.__file__).read_text())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("foldvote"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []


class TestReportConventions:
    @pytest.mark.parametrize(
        "args,stdin",
        [
            (("synth", "condorcet"), None),
            (("audit", "--rule", "may", "--axioms", "unanimity"), None),
        ],
    )
    def test_config_and_timestamp_present(self, args, stdin):
        report = jout(run(*args, stdin=stdin, check=0))
        assert "config" in report and "timestamp" in report
        assert report["timestamp"].endswith("Z")

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run("synth", "condorcet", "--out", str(target), check=0)
        assert proc.stdout == ""
        report = json.loads(target.read_text())
        assert report["config"]["kind"] == "condorcet_cycle"
