"""audit: a fixed battery of audit / may_coincidence_check calls, one
verdict per operation.

This uses `rules` the opposite way to the aggregate workload: hundreds of
thousands of calls at m <= 4, so per-call overhead matters, not O(m^2)
work. It mixes passes, which enumerate the whole space, with fails,
which exit early and re-verify a witness. Every verdict is fixed by the
space searched (exhaustive) or by theory (sampled passes of rules that
satisfy the axiom everywhere), so the expected table does not depend on
the seed; the seed only moves the sampled draws.
"""

from __future__ import annotations

from functools import partial

from core import Op

IMPORTS = ("foldvote.audit",)

ARROW_FAILS = {
    "may": "transitivity",
    "borda": "iia",
    "kemeny": "iia",
    "dictator": "non_dictatorship",
}


def battery() -> list[tuple]:
    """(label, kind, rule, axiom, m, n, trials, expected verdict, expected
    axiom). kind is exhaustive, sampled or coincidence; trials is None for
    exhaustive spaces."""
    from foldvote.audit import ARROW_AXIOMS, FAIL, PASS

    out = []
    for rule, failing in ARROW_FAILS.items():
        for n in (3, 4):
            for axiom in ARROW_AXIOMS:
                verdict = FAIL if axiom.value == failing else PASS
                out.append((f"arrow.{rule}.{axiom.value}.3x{n}", "exhaustive",
                            rule, axiom.value, 3, n, None, verdict, axiom.value))
    fixed = [
        # anonymity and neutrality over (4,3): 13824 profiles
        ("exhaustive", "may", "anonymity", 4, 3, None, PASS),
        ("exhaustive", "dictator", "anonymity", 4, 3, None, FAIL),
        ("exhaustive", "kemeny", "neutrality", 4, 3, None, FAIL),
        # responsiveness over (3,4)
        ("exhaustive", "may", "positive_responsiveness", 3, 4, None, PASS),
        ("exhaustive", "borda", "positive_responsiveness", 3, 4, None, PASS),
        # proximity preservation fails for every standard rule at (3,3)
        ("exhaustive", "may", "proximity_preservation", 3, 3, None, FAIL),
        ("exhaustive", "borda", "proximity_preservation", 3, 3, None, FAIL),
        ("exhaustive", "kemeny", "proximity_preservation", 3, 3, None, FAIL),
        # sampled ordinal audits: Borda is always transitive, majority is
        # always independent and neutral
        ("sampled", "borda", "transitivity", 20, 50, 100, PASS),
        ("sampled", "may", "iia", 10, 11, 150, PASS),
        ("sampled", "may", "neutrality", 12, 11, 150, PASS),
        # the utilitarian sum satisfies both utility axioms everywhere
        ("exhaustive", "utilitarian", "strict_unanimity", 3, 2, None, PASS),
        ("exhaustive", "utilitarian", "utility_iia", 2, 2, None, PASS),
        ("sampled", "utilitarian", "strict_unanimity", 4, 3, 500, PASS),
        ("sampled", "utilitarian", "utility_iia", 4, 3, 500, PASS),
    ]
    for kind, rule, axiom, m, n, trials, verdict in fixed:
        out.append((f"{kind}.{rule}.{axiom}.{m}x{n}", kind, rule, axiom, m, n,
                    trials, verdict, axiom))
    # May's theorem: majority passes; Borda loses positive responsiveness
    # and the dictator anonymity among the premises
    for rule, verdict, axiom in (
        ("may", PASS, "may_coincidence"),
        ("borda", FAIL, "positive_responsiveness"),
        ("dictator", FAIL, "anonymity"),
    ):
        out.append((f"coincidence.{rule}.3x3", "coincidence", rule, axiom, 3, 3,
                    300, verdict, axiom))
    return out


class Battery:
    name = "audit"
    calibration = "dataclass"
    imports = IMPORTS

    def setup(self, seed: int, tracer) -> None:
        from foldvote.audit import standard_rules

        self.seed = seed
        self.rules = standard_rules()
        self.entries = battery()

    def ops(self) -> list[Op]:
        return [
            Op(entry[0], partial(self._run, idx, entry), partial(self._check, entry))
            for idx, entry in enumerate(self.entries)
        ]

    def _run(self, idx: int, entry: tuple, tr):
        from foldvote.audit import AxiomId, audit, exhaustive, may_coincidence_check, sampled

        _label, kind, rule_name, axiom, m, n, trials, _v, _a = entry
        rule = tr.rule(self.rules[rule_name])
        seed = self.seed * 1000 + idx
        with tr.span(f"audit.{kind}"):
            if kind == "coincidence":
                return may_coincidence_check(rule, m, n, trials, seed)
            space = exhaustive(m, n) if trials is None else sampled(m, n, trials, seed)
            return audit(rule, AxiomId(axiom), space)

    def _check(self, entry: tuple, result, tr) -> str | None:
        from foldvote.audit import verify_result

        _label, _kind, rule_name, _axiom, _m, _n, _t, verdict, axiom = entry
        if tr.enabled:
            tr.count("audit.fail_verdicts" if result.failed else "audit.pass_verdicts")
        if result.verdict != verdict or result.axiom.value != axiom:
            return "audit.verdict"
        if result.failed:
            with tr.span("audit.verify"):
                ok = verify_result(tr.rule(self.rules[rule_name]), result)
            if not ok:
                return "audit.witness"
        return None

    def properties(self) -> dict:
        from foldvote.audit import FAIL

        return {
            "verdicts": len(self.entries),
            "expected_fails": sum(1 for e in self.entries if e[7] == FAIL),
            "kinds": {
                kind: sum(1 for e in self.entries if e[1] == kind)
                for kind in ("exhaustive", "sampled", "coincidence")
            },
        }
