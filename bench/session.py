"""cli: a scripted session of `python -m foldvote.cli` commands replaying
the README, one command per operation, run one at a time.

It is the only workload that pays interpreter start-up, the import of
numpy on every command, JSON emission and CSV round-trips; the
in-process workloads cannot see those costs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

import gen
from core import Op, median

IMPORTS = ("foldvote.cli",)
# corpus slots written as PDB files: small chains, one with two chains and
# insertion codes, one with a second MODEL
PDB_SLOTS = (0, 5, 6, 7)


class Session:
    name = "cli"
    calibration = "tuple"
    imports = IMPORTS

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kb = 0
        self.expected: dict[int, object] = {}

    def setup(self, seed: int, tracer) -> None:
        from foldvote.preferences import RankingWithTies
        from foldvote.profiles import Profile, synthetic_universe

        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        pdb_dir = self.work / "pdb"
        pdb_dir.mkdir(parents=True, exist_ok=True)
        for slot in range(max(PDB_SLOTS) + 1):
            text = gen.structure(rng, slot)
            if slot in PDB_SLOTS:
                (pdb_dir / f"s{slot:02d}.pdb").write_text(text)
        universe = synthetic_universe(30)
        rankings = []
        for v, row in enumerate(gen.sparse_counts(np.random.default_rng([seed, 3]), 30, 20)):
            tiers = gen.tiers_from_values(row)
            rankings.append(RankingWithTies(
                f"p{v + 1}", universe, tuple(tuple(universe[c] for c in t) for t in tiers)
            ))
        self.tied = Profile(universe, tuple(rankings), "ordinal")
        (self.work / "tied.json").write_text(json.dumps(self.tied.to_json_dict()))
        self.dictator_k = int(rng.integers(1, 26))
        self.script = self._script()

    def _script(self) -> list[list[str]]:
        s = str(self.seed)
        return [
            ["extract", "pdb", "--out-dir", "contacts"],
            ["extract", "pdb/s07.pdb", "--mode", "centroid", "--out-dir", "centroid"],
            ["rank", "contacts/s00.contacts.csv"],
            ["rank", "contacts/s05.contacts.csv", "--combine", "count"],
            ["rank", "contacts/s06.contacts.csv", "--tie-epsilon", "0.5"],
            ["synth", "condorcet", "--m", "3", "--n", "3", "--out", "condorcet.json"],
            ["synth", "impartial_culture", "--m", "12", "--n", "25", "--seed", s,
             "--out", "ic.json"],
            ["synth", "single_peaked", "--m", "6", "--n", "9", "--seed", s,
             "--out", "sp.json"],
            ["aggregate", "condorcet.json", "--rule", "may"],
            ["aggregate", "condorcet.json", "--rule", "borda"],
            ["aggregate", "ic.json", "--rule", "may"],
            ["aggregate", "ic.json", "--rule", "borda"],
            ["aggregate", "ic.json", "--rule", "dictator", "--dictator-k",
             str(self.dictator_k)],
            ["aggregate", "sp.json", "--rule", "kemeny"],
            ["aggregate", "tied.json", "--rule", "may"],
            ["audit", "--rule", "may", "--axioms", "arrow", "--m", "3", "--n", "3"],
            ["audit", "--rule", "borda", "--axioms", "arrow", "--m", "3", "--n", "3"],
            ["restrict", "sp.json", "--rule", "may"],
            ["restrict", "condorcet.json", "--rule", "may"],
            ["synth", "condorcet", "--m", "4", "--n", "6"],
        ]

    def ops(self) -> list[Op]:
        return [
            Op(f"{argv[0]}.{idx}", partial(self._run, argv), partial(self._check, idx, argv))
            for idx, argv in enumerate(self.script)
        ]

    def _run(self, argv: list[str], tr):
        err_path = self.work / "stderr.txt"
        with tr.span(f"cli.{argv[0]}"), err_path.open("wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "foldvote.cli", *argv],
                cwd=self.work, env=self.env, stdout=subprocess.PIPE, stderr=err,
            )
            try:
                out = proc.stdout.read()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.stdout.close()
            # reap the child here to read its own peak RSS
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        report = out
        if "--out" in argv:
            report = (self.work / argv[argv.index("--out") + 1]).read_bytes()
        elif argv[0] == "extract":
            report = (self.work / argv[argv.index("--out-dir") + 1]
                      / "extract_summary.json").read_bytes()
        if tr.enabled:
            tr.count("cli.report_bytes", len(report))
        return proc.returncode, report

    # -- checks: the report minus timestamp against in-process results ----

    def _check(self, idx: int, argv: list[str], out, tr) -> str | None:
        code, report = out
        if code != 0:
            return f"cli.exit_{code}"
        got = json.loads(report)
        got.pop("timestamp", None)
        expected = self.expected.get(idx)
        if expected is None:
            expected = self.expected[idx] = self._in_process(argv)
        payload = {k: v for k, v in got.items() if k != "config"}
        if payload != expected:
            return f"cli.{argv[0]}_report"
        if argv[0] == "extract":
            return self._check_csvs(argv)
        return None

    def _flag(self, argv, name, default):
        return argv[argv.index(name) + 1] if name in argv else default

    def _structures(self, argv):
        target = self.work / argv[1]
        return sorted(target.glob("*.pdb")) if target.is_dir() else [target]

    def _instances(self, path: Path, mode: str = "c_alpha"):
        from foldvote.contacts import ContactConfig, extract_instances
        from foldvote.pdb import parse_pdb

        structure = parse_pdb(path.read_text(), path.stem)
        return structure, extract_instances(structure, ContactConfig(mode=mode))

    def _profile(self, name: str):
        from foldvote.profiles import SynthSpec, generate

        if name == "tied.json":
            return self.tied
        kind, m, n = {
            "condorcet.json": ("condorcet_cycle", 3, 3),
            "ic.json": ("impartial_culture", 12, 25),
            "sp.json": ("single_peaked", 6, 9),
        }[name]
        return generate(SynthSpec(kind, m, n, seed=0 if kind == "condorcet_cycle" else self.seed))

    def _rule(self, argv):
        from foldvote import rules

        name = self._flag(argv, "--rule", "may")
        if name == "dictator":
            k = int(self._flag(argv, "--dictator-k", "1"))
            return lambda p: rules.dictator(p, k)
        return getattr(rules, "may_rule" if name == "may" else name)

    def _in_process(self, argv: list[str]) -> dict:
        cmd = argv[0]
        if cmd == "extract":
            out_dir = self._flag(argv, "--out-dir", ".")
            proteins = []
            for path in self._structures(argv):
                structure, instances = self._instances(
                    path, self._flag(argv, "--mode", "c_alpha")
                )
                proteins.append({
                    "id": structure.id,
                    "path": str(path.relative_to(self.work)),
                    "residues": structure.n_residues,
                    "instances": len(instances),
                    "csv": str(Path(out_dir) / f"{path.stem}.contacts.csv"),
                })
            return {"proteins": proteins, "failures": []}
        if cmd == "rank":
            from foldvote.contacts import class_universe
            from foldvote.preferences import ordinal_from_utility, utility_from_instances

            stem = Path(argv[1]).name.split(".")[0]
            _s, instances = self._instances(self.work / "pdb" / f"{stem}.pdb")
            utility = utility_from_instances(
                instances,
                class_universe(self._flag(argv, "--universe", "full") == "full"),
                combine=self._flag(argv, "--combine", "sum"),
            )
            ranking = ordinal_from_utility(
                utility, tie_epsilon=float(self._flag(argv, "--tie-epsilon", "0"))
            )
            return {"utility": utility.to_json_dict(), "ranking": ranking.to_json_dict()}
        if cmd == "synth":
            from foldvote.profiles import SynthSpec, generate

            kind = "condorcet_cycle" if argv[1] == "condorcet" else argv[1]
            spec = SynthSpec(kind, int(self._flag(argv, "--m", "3")),
                             int(self._flag(argv, "--n", "3")),
                             int(self._flag(argv, "--seed", "0")))
            return {"profile": generate(spec).to_json_dict()}
        if cmd == "aggregate":
            outcome = self._rule(argv)(self._profile(argv[1]))
            return {"outcome": outcome.to_json_dict()}
        if cmd == "audit":
            from foldvote.audit import arrow_audit, standard_rules

            rule = standard_rules()[self._flag(argv, "--rule", "may")]
            results = arrow_audit(rule, int(self._flag(argv, "--m", "3")),
                                  int(self._flag(argv, "--n", "3")))
            return {"results": [r.to_json_dict() for r in results]}
        if cmd == "restrict":
            from foldvote.restrictions import find_axis, is_quasi_transitive

            profile = self._profile(argv[1])
            axis = find_axis(profile)
            return {
                "single_peaked": axis is not None,
                "axis": None if axis is None else [c.render() for c in axis],
                "quasi_transitive": is_quasi_transitive(self._rule(argv)(profile)),
            }
        raise ValueError(f"no in-process result for {cmd}")

    def _check_csvs(self, argv: list[str]) -> str | None:
        from foldvote.contacts import instances_to_csv

        out_dir = self.work / self._flag(argv, "--out-dir", ".")
        for path in self._structures(argv):
            _s, instances = self._instances(path, self._flag(argv, "--mode", "c_alpha"))
            csv = (out_dir / f"{path.stem}.contacts.csv").read_text()
            if csv != instances_to_csv(instances):
                return "cli.extract_csv"
        return None

    # -- start-up probes --------------------------------------------------

    def probes(self, repeats: int, cal) -> dict[str, float]:
        """Bare interpreter start, and numpy's and foldvote's import time
        in a `synth` command, from -X importtime; corrected medians in ms."""
        from core import timed

        bare, numpy_ms, own_ms = [], [], []
        for _ in range(repeats):
            _out, dt, _f = timed(cal, partial(
                subprocess.run, [sys.executable, "-c", "pass"], check=True
            ))
            bare.append(1000 * dt)
            done, _dt, factor = timed(cal, partial(
                subprocess.run,
                [sys.executable, "-X", "importtime", "-m", "foldvote.cli", "synth",
                 "condorcet"],
                cwd=self.work, env=self.env, check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            ))
            rows = re.findall(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", done.stderr)
            numpy_ms.append(factor * sum(int(c) for _s, c, _i, n in rows if n == "numpy") / 1000)
            own_ms.append(factor * sum(int(s) for s, _c, _i, n in rows
                                       if n.split(".")[0] == "foldvote") / 1000)
        return {
            "cli.interpreter_ms": median(bare),
            "cli.import.numpy_ms": median(numpy_ms),
            "cli.import.foldvote_ms": median(own_ms),
        }

    def properties(self) -> dict:
        return {
            "commands_per_job": len(self.script),
            "subcommands": sorted({argv[0] for argv in self.script}),
            "pdb_files": len(PDB_SLOTS),
        }
