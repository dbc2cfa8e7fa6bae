"""Command-line surface: extract -> rank -> synth/aggregate -> audit -> restrict.

Reports are JSON with the fully resolved configuration and a timestamp
embedded; the timestamp is the only field exempt from byte-for-byte
reproducibility. Impossibility manifestations (cycles, failed axioms)
are findings, so runs that surface them still exit 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

from .errors import BudgetExceeded, FoldvoteError, MalformedProfile, NotAnObject

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# what bad input raises, reported with EXIT_INPUT instead of a traceback
_INPUT_ERRORS = (FoldvoteError, OSError, ValueError)

RULE_NAMES = ("may", "borda", "kemeny", "dictator", "utilitarian")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this CLI reserves 2 for input
    # errors, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(dest: str | Path, config: dict, **body) -> None:
    """Write the report {config, timestamp, **body} to stdout when dest is
    the string "-", else to the file dest (a Path named "-" is a file)."""
    timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    report = {"config": config, "timestamp": timestamp, **body}
    text = json.dumps(report, indent=2) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        Path(dest).write_text(text)


def _require_object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise NotAnObject(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _load_profile(path: str):
    from .profiles import Profile

    with nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:  # nesting past the interpreter's recursion limit
            raise MalformedProfile(f"{path}: JSON nested too deeply") from None
    obj = _require_object(obj, path)
    if "profile" in obj and "individuals" not in obj:
        # accept wrapped reports from synth
        obj = _require_object(obj["profile"], f"{path}: profile")
    return Profile.from_json_dict(obj)


# --------------------------------------------------------------------------
# subcommands


def _cmd_extract(args) -> int:
    from dataclasses import asdict

    from .contacts import (
        ContactConfig,
        Scorer,
        extract_instances,
        instances_to_csv,
        load_score_table,
    )
    from .pdb import parse_pdb

    paths: list[Path] = []
    for raw in args.inputs:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.pdb")))
        else:
            paths.append(p)
    if not paths:
        print("no inputs", file=sys.stderr)
        return EXIT_INPUT

    config = ContactConfig(
        threshold_tau=args.tau,
        mode=args.mode,
        min_seq_separation=args.min_seq_separation,
        cross_chain=args.cross_chain,
    )
    if args.table is not None:
        scorer = load_score_table(args.table, negate=not args.no_negate)
    else:
        scorer = Scorer()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {
        "command": "extract",
        "inputs": [str(p) for p in paths],
        "out_dir": str(out_dir),
        **asdict(config),
        "scorer": "table" if args.table else "unit_count",
        "table": args.table,
        "negate": (not args.no_negate) if args.table else None,
    }

    proteins, failures = [], []
    for p in paths:
        try:
            structure = parse_pdb(p.read_text(), p.stem)
            instances = extract_instances(structure, config, scorer)
        except _INPUT_ERRORS as exc:
            failures.append({"path": str(p), "error": f"{type(exc).__name__}: {exc}"})
            print(f"failed: {p}: {exc}", file=sys.stderr)
            continue
        csv_path = out_dir / f"{p.stem}.contacts.csv"
        csv_path.write_text(instances_to_csv(instances))
        proteins.append(
            {
                "id": structure.id,
                "path": str(p),
                "residues": structure.n_residues,
                "instances": len(instances),
                "csv": str(csv_path),
            }
        )
        print(f"{structure.id}\t{structure.n_residues}\t{len(instances)}")

    _emit(out_dir / args.summary_name, resolved, proteins=proteins, failures=failures)
    return EXIT_INPUT if not proteins else EXIT_OK


def _cmd_rank(args) -> int:
    from .aminoacids import class_universe
    from .interchange import instances_from_csv
    from .preferences import ordinal_from_utility, utility_from_instances

    # newline="" keeps a quoted "\r" in a protein id as it was written
    with open(args.contacts, newline="") as fh:
        instances = instances_from_csv(fh.read())
    universe = class_universe(args.universe == "full")
    utility = utility_from_instances(
        instances, universe, combine=args.combine, protein_id=args.protein_id
    )
    ranking = ordinal_from_utility(utility, tie_epsilon=args.tie_epsilon)
    config = {
        "command": "rank",
        "contacts": args.contacts,
        "combine": args.combine,
        "tie_epsilon": args.tie_epsilon,
        "universe": args.universe,
        "protein_id": utility.protein_id,
    }
    _emit(
        args.out, config, utility=utility.to_json_dict(), ranking=ranking.to_json_dict()
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    from dataclasses import asdict

    from .profiles import SynthSpec, generate

    kind = "condorcet_cycle" if args.kind == "condorcet" else args.kind
    spec = SynthSpec(kind=kind, m=args.m, n=args.n, seed=args.seed)
    profile = generate(spec)
    config = {"command": "synth", **asdict(spec)}
    _emit(args.out, config, profile=profile.to_json_dict())
    return EXIT_OK


def _rule_config(args) -> dict:
    """The config of a command applying one rule to one profile."""
    return {
        "command": args.command,
        "profile": args.profile,
        "rule": args.rule,
        "dictator_k": args.dictator_k if args.rule == "dictator" else None,
    }


def _cmd_aggregate(args) -> int:
    from .rules import standard_rules

    profile = _load_profile(args.profile)
    outcome = standard_rules(args.dictator_k)[args.rule](profile)
    _emit(args.out, _rule_config(args), outcome=outcome.to_json_dict())
    return EXIT_OK


def _cmd_audit(args, parser: _Parser) -> int:
    from .audit import (
        ARROW_AXIOMS,
        AxiomId,
        audit as run_audit,
        continuity_check,
        exhaustive,
        may_coincidence_check,
        sampled,
    )
    from .rules import check_dictator_index, standard_rules

    tokens = [t.strip() for t in args.axioms.split(",") if t.strip()]
    if not tokens:
        parser.error("no axioms given")
    known = {a.value for a in AxiomId} | {"arrow"}
    for t in tokens:
        if t not in known:
            parser.error(f"unknown axiom {t!r}; known: " + ", ".join(sorted(known)))
    if args.rule == "mean-direction" and any(t != "continuity" for t in tokens):
        parser.error("rule mean-direction supports only the continuity axiom")
    if args.rule != "mean-direction" and "continuity" in tokens:
        parser.error("the continuity axiom applies to rule mean-direction")
    # every request is checked as a sampled space, whatever its mode or rule
    drawn = sampled(args.m, args.n, args.trials, args.seed)
    if args.rule == "dictator":
        check_dictator_index(args.dictator_k, args.n)

    resolved = {
        "command": "audit",
        "rule": args.rule,
        "axioms": tokens,
        "m": args.m,
        "n": args.n,
        "mode": args.mode,
        "trials": args.trials,
        "seed": args.seed,
        "dictator_k": args.dictator_k if args.rule == "dictator" else None,
        "epsilon": args.epsilon if args.rule == "mean-direction" else None,
    }

    results = []
    if args.rule == "mean-direction":
        results.append(continuity_check(args.m, args.epsilon, args.seed))
    else:
        rule = standard_rules(args.dictator_k)[args.rule]
        full = exhaustive(args.m, args.n)
        space = full if args.mode == "exhaustive" else drawn
        try:
            for token in tokens:
                if token == "arrow":
                    for axiom in ARROW_AXIOMS:
                        results.append(run_audit(rule, axiom, full))
                elif token == "may_coincidence":
                    results.append(
                        may_coincidence_check(
                            rule, args.m, args.n, args.trials, args.seed
                        )
                    )
                else:
                    results.append(run_audit(rule, AxiomId(token), space))
        except BudgetExceeded as exc:
            # report the axioms that fit before the refusal, which main prints
            _emit(
                args.out,
                resolved,
                results=[r.to_json_dict() for r in results],
                error=f"BudgetExceeded: {exc}",
            )
            raise

    _emit(args.out, resolved, results=[r.to_json_dict() for r in results])
    return EXIT_OK


def _cmd_restrict(args) -> int:
    from .restrictions import find_axis, is_quasi_transitive
    from .rules import standard_rules

    profile = _load_profile(args.profile)
    axis = find_axis(profile)
    outcome = standard_rules(args.dictator_k)[args.rule](profile)
    _emit(
        args.out,
        _rule_config(args),
        single_peaked=axis is not None,
        axis=[c.render() for c in axis] if axis is not None else None,
        quasi_transitive=is_quasi_transitive(outcome),
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# parser assembly


def _add_rule_flags(sub, rules=RULE_NAMES) -> None:
    sub.add_argument("--rule", choices=rules, default="may")
    sub.add_argument(
        "--dictator-k",
        type=int,
        default=1,
        help="1-based individual index for rule=dictator",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="foldvote", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    ext = subs.add_parser("extract", help="PDB files to contact CSVs")
    ext.add_argument("inputs", nargs="*", help="PDB files or directories")
    ext.add_argument("--out-dir", default=".")
    ext.add_argument("--tau", type=float, default=8.0, help="contact threshold (A)")
    ext.add_argument(
        "--mode", choices=("c_alpha", "centroid", "heavy_min"), default="c_alpha"
    )
    ext.add_argument("--min-seq-separation", type=int, default=3)
    ext.add_argument("--cross-chain", action="store_true")
    ext.add_argument("--table", help="CSV score table; default is unit counting")
    ext.add_argument(
        "--no-negate",
        action="store_true",
        help="keep table sign (default negates so contact energies score high)",
    )
    ext.add_argument("--summary-name", default="extract_summary.json")
    ext.set_defaults(run=_cmd_extract)

    rank = subs.add_parser("rank", help="contact CSV to utility and ranking")
    rank.add_argument("contacts")
    rank.add_argument("--combine", choices=("sum", "mean", "count"), default="sum")
    rank.add_argument("--tie-epsilon", type=float, default=0.0)
    rank.add_argument("--universe", choices=("full", "hetero"), default="full")
    rank.add_argument("--protein-id", default=None)
    rank.add_argument("--out", default="-")
    rank.set_defaults(run=_cmd_rank)

    synth = subs.add_parser("synth", help="generate a synthetic profile")
    synth.add_argument(
        "kind",
        choices=("impartial_culture", "single_peaked", "condorcet_cycle", "condorcet"),
    )
    synth.add_argument("--m", type=int, default=3)
    synth.add_argument("--n", type=int, default=3)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default="-")
    synth.set_defaults(run=_cmd_synth)

    agg = subs.add_parser("aggregate", help="apply a rule to a profile")
    agg.add_argument("profile", nargs="?", default="-", help="profile JSON or - for stdin")
    _add_rule_flags(agg)
    agg.add_argument("--out", default="-")
    agg.set_defaults(run=_cmd_aggregate)

    aud = subs.add_parser("audit", help="audit a rule against axioms")
    _add_rule_flags(aud, RULE_NAMES + ("mean-direction",))
    aud.add_argument(
        "--axioms",
        required=True,
        help="comma-separated axiom names, or arrow / may_coincidence / continuity",
    )
    aud.add_argument("--m", type=int, default=3)
    aud.add_argument("--n", type=int, default=3)
    aud.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    aud.add_argument("--trials", type=int, default=10_000)
    aud.add_argument("--seed", type=int, default=0)
    aud.add_argument("--epsilon", type=float, default=1e-3)
    aud.add_argument("--out", default="-")
    aud.set_defaults(run=lambda args: _cmd_audit(args, parser))

    res = subs.add_parser("restrict", help="single-peakedness and quasi-transitivity")
    res.add_argument("profile", nargs="?", default="-")
    _add_rule_flags(res)
    res.add_argument("--out", default="-")
    res.set_defaults(run=_cmd_restrict)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
