"""Acceptance gate: the nine headline behaviors, one test and one
printed verdict line each, at the stated tolerances.

Run with -s (or read the -v test lines) to see the verdict lines.
"""

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

from foldvote.audit import (
    AxiomId,
    arrow_audit,
    audit,
    exhaustive,
    may_coincidence_check,
    standard_rules,
    verify_result,
)
from foldvote.data import four_residue_pdb_path
from foldvote.directions import aggregate_directions, continuity_probe
from foldvote.preferences import RankingWithTies, UtilityVector
from foldvote.profiles import (
    Profile,
    SynthSpec,
    generate,
    kendall_distance,
    profile_distance,
    synthetic_universe,
)
from foldvote.restrictions import find_axis
from foldvote.rules import (
    UtilityTransform,
    apply_transform,
    may_rule,
    outcome_distance,
    utilitarian,
)

CLI = [sys.executable, "-m", "foldvote.cli"]
SRC = Path(__file__).resolve().parents[1] / "src"
RULES = standard_rules()


def announce(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def cli(*args, stdin=None):
    proc = subprocess.run(
        CLI + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_acceptance_1_condorcet_pipeline():
    start = time.perf_counter()
    synth_out = cli("synth", "condorcet")
    agg_out = cli("aggregate", "--rule", "may", stdin=synth_out)
    elapsed = time.perf_counter() - start

    outcome = json.loads(agg_out)["outcome"]
    assert outcome["transitive"] is False
    x, y, z = outcome["cycle_witness"]

    profile = json.loads(synth_out)["profile"]
    positions = [
        {c: t for t, tier in enumerate(ind["tiers"]) for c in tier}
        for ind in profile["individuals"]
    ]

    def beats(a, b):
        wins = sum(1 for pos in positions if pos[a] < pos[b])
        return wins >= len(positions) - wins

    assert beats(x, y) and beats(y, z) and beats(z, x)
    assert not beats(x, z)
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"
    announce(1, f"majority cycle {x}>{y}>{z}>{x} re-verified in {elapsed:.3f}s")


def test_acceptance_2_arrow_audits():
    expected = {
        "may": {AxiomId.TRANSITIVITY},
        "borda": {AxiomId.IIA},
        "kemeny": {AxiomId.IIA},
        "dictator": {AxiomId.NON_DICTATORSHIP},
    }
    start = time.perf_counter()
    observed = {}
    for name in ("may", "borda", "kemeny", "dictator"):
        for n in (2, 3):
            first = arrow_audit(RULES[name], 3, n)
            second = arrow_audit(RULES[name], 3, n)
            failed = {r.axiom for r in first if r.failed}
            assert failed, f"{name} at n={n} failed no Arrow axiom"
            assert failed == {r.axiom for r in second if r.failed}, "unstable"
            for r in first:
                if r.failed:
                    assert r.witness is not None
                    assert verify_result(RULES[name], r)
            observed.setdefault(name, set()).update(failed)
    elapsed = time.perf_counter() - start
    assert observed == expected
    assert elapsed < 60.0, f"arrow audits took {elapsed:.1f}s"
    announce(
        2,
        "every rule fails its Arrow axiom with verified witness "
        f"({elapsed:.1f}s): "
        + ", ".join(f"{k}->{next(iter(v)).value}" for k, v in observed.items()),
    )


def test_acceptance_3_may_coincidence():
    space = exhaustive(3, 3)
    for premise in (
        AxiomId.UNANIMITY,
        AxiomId.ANONYMITY,
        AxiomId.NEUTRALITY,
        AxiomId.POSITIVE_RESPONSIVENESS,
    ):
        res = audit(RULES["may"], premise, space)
        assert res.verdict == "pass_within_search", premise
    res = may_coincidence_check(RULES["may"], 3, 3, trials=10_000, seed=0)
    assert res.verdict == "pass_within_search"
    announce(
        3,
        "majority passes all four premises exhaustively at (3,3) and "
        "matches the count formula exactly on 10000 sampled profiles",
    )


def test_acceptance_4_proximity_violations():
    details = []
    for name in ("may", "borda", "kemeny"):
        rule = RULES[name]
        res = audit(rule, AxiomId.PROXIMITY_PRESERVATION, exhaustive(3, 3))
        assert res.failed, f"{name} showed no proximity violation"
        w = res.witness
        base = Profile.from_json_dict(w["profile_base"])
        near = Profile.from_json_dict(w["profile_near_input"])
        far = Profile.from_json_dict(w["profile_far_input"])
        # independent exact recomputation of all four distances
        assert profile_distance(base, near) == w["D_near"]
        assert profile_distance(base, far) == w["D_far"]
        out_base = rule(base)
        assert outcome_distance(out_base, rule(near)) == w["d_near"]
        assert outcome_distance(out_base, rule(far)) == w["d_far"]
        assert w["D_near"] <= w["D_far"] and w["d_near"] > w["d_far"]
        details.append(
            f"{name}: D {w['D_near']}<={w['D_far']} "
            f"but d {w['d_near']}>{w['d_far']}"
        )
    announce(4, "; ".join(details))


def test_acceptance_5_continuity():
    w = continuity_probe(2, 1e-3, seed=0)
    assert w.input_distance <= 2e-3
    assert w.output_distance >= 1.0 - 1e-9
    assert w.verify()

    rng = random.Random(5)
    for _ in range(1000):
        dim = rng.randint(2, 4)
        coords = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(math.fsum(c * c for c in coords))
        if norm < 1e-6:
            continue
        from foldvote.directions import DirectionPoint, euclidean

        v = DirectionPoint(tuple(c / norm for c in coords))
        # unanimity: duplicating one voice must return it
        agg = aggregate_directions([v] * rng.randint(1, 5))
        assert euclidean(agg.coordinates, v.coordinates) < 1e-9
        # anonymity: order of voices must not matter, bit for bit
        pts = [v]
        for _ in range(rng.randint(1, 4)):
            jitter = tuple(c + rng.uniform(-0.2, 0.2) for c in v.coordinates)
            jn = math.sqrt(math.fsum(c * c for c in jitter))
            pts.append(DirectionPoint(tuple(c / jn for c in jitter)))
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert (
            aggregate_directions(pts).coordinates
            == aggregate_directions(shuffled).coordinates
        )
    announce(
        5,
        f"discontinuity witness input {w.input_distance:.2e} <= 2e-3, "
        f"output {w.output_distance:.6f} >= 1; unanimity and anonymity "
        "hold on 1000 random direction profiles",
    )


def test_acceptance_6_utilitarian_invariance():
    rng = random.Random(6)
    checked = 0
    for _ in range(1000):
        m = rng.randint(2, 6)
        n = rng.randint(2, 5)
        universe = synthetic_universe(m)
        # dyadic utilities keep every transform product float-exact
        rows = [
            [rng.randint(-32, 32) / 4.0 for _ in range(m)] for _ in range(n)
        ]
        profile = Profile(
            universe,
            tuple(
                UtilityVector(f"v{i}", universe, dict(zip(universe, row)))
                for i, row in enumerate(rows)
            ),
            "utility",
        )
        base_tiers = utilitarian(profile).ranking.tiers
        for alpha in (0.5, 2.0, 10.0):
            offsets = {f"v{i}": rng.randint(-16, 16) / 4.0 for i in range(n)}
            moved = apply_transform(profile, UtilityTransform(alpha, offsets))
            assert utilitarian(moved).ranking.tiers == base_tiers
        checked += 1
    assert checked == 1000

    res = audit(RULES["utilitarian"], AxiomId.STRICT_UNANIMITY, exhaustive(3, 2))
    assert res.verdict == "pass_within_search"
    announce(
        6,
        "utilitarian ranking exactly invariant under alpha in {0.5,2,10} "
        "plus random offsets on 1000 profiles; strict unanimity passes "
        "exhaustively on the (3,2) grid",
    )


def test_acceptance_7_single_peaked_escape():
    transitive = 0
    total = 1000
    for i in range(total):
        n = (3, 5, 7)[i % 3]
        m = 3 + (i % 4)
        p = generate(SynthSpec("single_peaked", m, n, seed=i))
        if may_rule(p).transitive:
            transitive += 1
    assert transitive == total, f"only {transitive}/{total} transitive"
    assert find_axis(generate(SynthSpec("condorcet_cycle", 3, 3))) is None
    announce(
        7,
        "1000/1000 single-peaked odd-panel profiles aggregate "
        "transitively; the cycle template admits no axis",
    )


def test_acceptance_8_pipeline_determinism(tmp_path):
    fixture = str(four_residue_pdb_path())
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        out.mkdir()
        cli("extract", fixture, "--out-dir", str(out))
        csv_body = (out / "four_residue.contacts.csv").read_text()
        summary = (out / "extract_summary.json").read_text()
        rank = cli("rank", str(out / "four_residue.contacts.csv"))
        runs.append((csv_body, summary, rank))

    csv_a, summary_a, rank_a = runs[0]
    csv_b, summary_b, rank_b = runs[1]
    assert csv_a == csv_b  # byte-identical CSV
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": X', s)
    out_dir = lambda s: re.sub(r'"(out_dir|csv|path|contacts)": "[^"]*"', "", s)
    assert out_dir(strip(summary_a)) == out_dir(strip(summary_b))
    assert out_dir(strip(rank_a)) == out_dir(strip(rank_b))

    report = json.loads(rank_a)
    classes = sorted(
        c for c, v in report["utility"]["values"].items() if v != 0.0
    )
    assert classes == ["A-G", "G-V"]
    assert report["utility"]["values"]["A-G"] == 1.0
    assert report["utility"]["values"]["G-V"] == 1.0
    summary = json.loads(summary_a)
    assert summary["proteins"][0]["instances"] == 2
    announce(
        8,
        "fixture yields exactly the two known instances (A-G, G-V) with "
        "identical bytes across repeated runs (timestamp field aside)",
    )


def test_acceptance_9_kendall_metric():
    rng = random.Random(9)

    def weak_order(universe):
        classes = list(universe)
        rng.shuffle(classes)
        tiers, current = [], [classes[0]]
        for c in classes[1:]:
            if rng.random() < 0.5:
                current.append(c)
            else:
                tiers.append(tuple(sorted(current)))
                current = [c]
        tiers.append(tuple(sorted(current)))
        return RankingWithTies("w", universe, tuple(tiers))

    for trial in range(10_000):
        m = rng.randint(2, 6)
        universe = synthetic_universe(m)
        a, b, c = (weak_order(universe) for _ in range(3))
        dab = kendall_distance(a, b)
        dac = kendall_distance(a, c)
        dbc = kendall_distance(b, c)
        assert dab == kendall_distance(b, a)  # symmetry, exact
        assert (dab == 0.0) == (a.slots() == b.slots())  # identity
        assert dac <= dab + dbc  # triangle, exact half-integer arithmetic
        assert dab >= 0.0 and dab * 2 == int(dab * 2)
    announce(
        9,
        "identity, symmetry, and triangle hold exactly on 10000 random "
        "weak-order triples up to m=6",
    )
