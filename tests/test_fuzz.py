"""Seeded mutation fuzzing of the input readers and the command line.

Each surface gets many mutations of valid inputs, drawn from a fixed
seed, and must either succeed or fail in its documented way:

- `instances_from_csv` returns a list or raises `MalformedContacts`;
- `Profile.from_json_dict`, and every standard rule run on a profile it
  loads, return or raise a `FoldvoteError`;
- `RankingWithTies.from_json_dict`, `UtilityVector.from_json_dict` and
  `utility_from_json` return or raise `MalformedProfile` (or
  `NonFiniteUtility` for a non-finite value);
- `parse_pdb`, and `extract_instances` in every distance mode on a
  structure it parses, return or raise a `FoldvoteError`;
- `parse_score_table` returns a `Scorer` or raises `BadTable`, and
  `Scorer` given a table of any shape, nested lists, non-finite entries
  or strings builds a scorer with a finite score for every class or
  raises `ValueError`;
- `verify_result` on a mutated frozen fail witness returns a bool, and
  only the audited rule's own exceptions escape it;
- `direction_from_utility` on a finite vector of any magnitude returns
  a unit `DirectionPoint` or raises `ZeroVector`;
- `SearchSpace`, `exhaustive` and `sampled`, given sizes of any type,
  raise `BadSpec` or hold plain ints, and every axiom's `price` of such
  a space returns its budget text or raises `BudgetExceeded`, at once;
- `cli.main` returns an exit code in {0, 1, 2, 3}, or argparse exits
  with one, whatever flag values it is given.

Any other exception is a fault that the command line would report as a
bare traceback or hide behind its catch-all.

FOLDVOTE_FUZZ_SCALE (a positive integer, default 1) multiplies every
test's number of mutations.
"""

import copy
import dataclasses
import io
import json
import math
import os
import random
import time
import warnings
from functools import partial

import numpy as np

from foldvote.aminoacids import ONE_LETTER
from foldvote.audit import _AXIOMS, FAIL, SearchSpace, exhaustive, sampled
from foldvote.audit import verify_result
from foldvote.cli import main
from foldvote.contacts import ContactConfig, Scorer, class_universe, extract_instances
from foldvote.contacts import parse_score_table
from foldvote.directions import UNIT_TOLERANCE, DirectionPoint, direction_from_utility
from foldvote.errors import BadSpec, BadTable, BudgetExceeded, FoldvoteError
from foldvote.errors import MalformedContacts
from foldvote.errors import MalformedProfile, NonFiniteUtility, ZeroVector
from foldvote.interchange import InteractionInstance, instances_from_csv
from foldvote.pdb import DISTANCE_MODES, parse_pdb
from foldvote.preferences import RankingWithTies, UtilityVector
from foldvote.preferences import universe_from_json, utility_from_json
from foldvote.profiles import Profile, synthetic_universe
from foldvote.rules import standard_rules
from test_audit_frozen import CASES, DIGESTS, RULES, _run
from test_pdb import atom_line

SCALE = int(os.environ.get("FOLDVOTE_FUZZ_SCALE", "1"))

CSV = (
    "protein_id,class,chain_i,seq_i,chain_j,seq_j,distance,score\n"
    "1abc,A-C,A,1,A,5,4.25,1.5\n"
    '"a,""b""\rc",G-W,B,12,B,-3,0.0,-2\n'
    "\n"
    "1abc,W-W,A,7,C,8,6.5,0\n"
)
# the CSV reader's delimiters and line ends, NUL, non-ASCII letters and
# line separators, and what the fields are made of
CHARACTERS = ',"\r\n\x00é ∞ ' + "-.+eE0123456789ACGWinfa"


def _edit(rng, text):
    """One character inserted, deleted or replaced at a random place."""
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 1 or at == len(text):
        return text[:at] + rng.choice(CHARACTERS) + text[at:]
    return text[:at] + (rng.choice(CHARACTERS) if kind else "") + text[at + 1 :]


def test_contact_csv_reads_or_raises_malformed_contacts():
    rng = random.Random(2201)
    read = 0
    for _ in range(20_000 * SCALE):
        text = CSV
        for _ in range(rng.randint(1, 3)):
            text = _edit(rng, text)
        try:
            instances = instances_from_csv(text)
        except MalformedContacts:
            continue
        read += 1
        assert isinstance(instances, list)
        for instance in instances:
            assert 0.0 <= instance.distance < math.inf
            assert math.isfinite(instance.score)
    # the edits leave enough CSVs readable for the read path to be fuzzed
    assert read > 1000


ORDINAL = {
    "universe": ["A-A", "A-C", "A-D"],
    "mode": "ordinal",
    "individuals": [
        {"owner": "v1", "tiers": [["A-A"], ["A-C", "A-D"]]},
        {"owner": "v2", "tiers": [["A-D"], ["A-A"], ["A-C"]]},
        {"owner": "v3", "tiers": [["A-C"], ["A-A"], ["A-D"]]},
    ],
}
UTILITY = {
    "universe": ["A-A", "A-C", "A-D"],
    "mode": "utility",
    "individuals": [
        {"owner": "v1", "values": {"A-A": 1.0, "C-A": 0.5, "A-D": 0}},
        {"owner": "v2", "values": {"A-A": 0.0, "A-C": 2, "A-D": -1.5}},
    ],
}
# values of every JSON type, labels in and out of the universe, and the
# non-finite floats json.loads accepts
VALUES = [
    None, True, False, 0, 1, -1, 2.5, math.nan, math.inf, "", "x", "A-A",
    "A-C", "C-A", "A-Q", "ordinal", "utility", [], ["A-A"], [["A-A"]], {},
    {"A-A": 1.0},
]
KEYS = ["universe", "mode", "individuals", "owner", "tiers", "values", "A-A", "C-A"]


def _nodes(value, path=()):
    """The path of every list and object in the JSON value."""
    if isinstance(value, (list, dict)):
        yield path
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _nodes(child, path + (key,))


def _mutate(rng, document, keys=KEYS):
    """The document with one list or object changed: an entry deleted,
    repeated, replaced by another JSON value, or (in an object) added
    under one of keys."""
    document = json.loads(json.dumps(document))  # a copy, faster than deepcopy
    node = document
    for key in rng.choice(list(_nodes(document))):
        node = node[key]
    present = list(node) if isinstance(node, dict) else list(range(len(node)))
    kind = rng.randrange(4)
    if not present or kind == 0:
        if isinstance(node, dict):
            node[rng.choice(keys)] = copy.deepcopy(rng.choice(VALUES))
        else:
            node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(VALUES)))
        return document
    key = rng.choice(present)
    if kind == 1:
        del node[key]
    elif kind == 2 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = copy.deepcopy(rng.choice(VALUES))
    return document


def test_profile_json_loads_and_rules_run_or_raise_foldvote_errors():
    rng = random.Random(2202)
    rules = standard_rules().values()
    loaded = 0
    for trial in range(4_000 * SCALE):
        document = ORDINAL if trial % 2 else UTILITY
        for _ in range(rng.randint(1, 3)):
            document = _mutate(rng, document)
        # what a reader of a JSON file would pass: a json.loads result
        document = json.loads(json.dumps(document))
        try:
            profile = Profile.from_json_dict(document)
        except FoldvoteError:
            continue
        loaded += 1
        for rule in rules:
            try:
                rule(profile)
            except FoldvoteError:
                pass
    assert loaded > 100


# one individual of each mode, with its universe
RANKING = {
    "universe": ["A-A", "A-C", "A-D"],
    "owner": "v1",
    "tiers": [["A-A"], ["C-A", "A-D"]],
}
VECTOR = {
    "universe": ["A-A", "A-C", "A-D"],
    "owner": "v1",
    "values": {"A-A": 1.0, "C-A": 0.5, "A-D": 0},
}


def _loads(read, document, seed, trials):
    """How many mutations of the document read loads. Every other one
    must raise MalformedProfile, or NonFiniteUtility when it holds a
    non-finite value (json.loads reads NaN and Infinity), which has its
    own typed error."""
    rng = random.Random(seed)
    loaded = 0
    for _ in range(trials * SCALE):
        obj = document
        for _ in range(rng.randint(1, 2)):
            obj = _mutate(rng, obj)
        if rng.random() < 0.02:
            obj = copy.deepcopy(rng.choice(VALUES))  # not an object at all
        try:
            read(obj)
        except MalformedProfile:
            continue
        except NonFiniteUtility:
            assert not all(map(math.isfinite, obj["values"].values()))
            continue
        loaded += 1
    return loaded


def test_ranking_json_loads_or_raises_malformed_profile():
    assert _loads(RankingWithTies.from_json_dict, RANKING, 2401, 4_000) > 100


def test_utility_vector_json_loads_or_raises_malformed_profile():
    assert _loads(UtilityVector.from_json_dict, VECTOR, 2402, 4_000) > 100


def test_utility_from_json_loads_or_raises_malformed_profile():
    # the per-individual reader of a utility profile, over a fixed universe
    individual = {k: v for k, v in VECTOR.items() if k != "universe"}
    read = partial(utility_from_json, universe=universe_from_json(VECTOR))
    assert _loads(read, individual, 2403, 4_000) > 100


def _magnitude(rng, exponent):
    """A random sign times a mantissa in [1, 10) times 10**exponent, or 0."""
    if rng.random() < 0.1:
        return 0.0
    return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0**exponent


def test_direction_is_a_unit_point_or_a_zero_vector_at_any_magnitude():
    rng = random.Random(2305)
    units = zeros = 0
    for _ in range(2_000 * SCALE):
        m = rng.randint(1, 8)
        # each value's exponent is a shared one, near it or anywhere, from
        # 1e-320 to 1e308; a shared one near 154 gives finite squares whose
        # sum overflows
        shared = rng.choice((rng.randint(-320, 307), rng.randint(152, 155)))
        near = min(307, max(-320, shared + rng.randint(-3, 3)))
        exponents = [rng.choice((shared, near, rng.randint(-320, 307))) for _ in range(m)]
        values = tuple(_magnitude(rng, e) for e in exponents)
        u = UtilityVector("p", synthetic_universe(m), values)
        try:
            d = direction_from_utility(u)
        except ZeroVector:
            zeros += 1
            continue
        units += 1
        assert type(d) is DirectionPoint and d.dimension == m
        norm = math.sqrt(math.fsum(x * x for x in d.coordinates))
        assert abs(norm - 1.0) <= UNIT_TOLERANCE, values
        # no coordinate changes sign
        assert all(x * v >= 0 for x, v in zip(d.coordinates, values))
    assert units > 500 and zeros > 100


def _size(rng):
    """A size as a caller might pass it: a small, mid or huge Python int,
    a numpy int32 or int64, None, a bool or a float."""
    value = rng.choice((rng.randint(-2, 12), rng.randint(13, 300), rng.randint(0, 10**9)))
    return rng.choice(
        (value, value, np.int32(min(value, 2**31 - 1)), np.int64(value), None,
         value % 2 == 1, float(value))
    )


def test_search_spaces_hold_ints_and_are_priced_or_refused_at_once():
    # numpy sizes were multiplied in int64, which wrapped (10!)^9 to 0 and
    # admitted it, and a huge exhaustive count was built in full and then
    # failed to print with an untyped ValueError
    rng = random.Random(2311)
    outcomes = {"bad_spec": 0, "priced": 0, "refused": 0}
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings included
        for _ in range(2_000 * SCALE):
            m, n, trials, seed = (_size(rng) for _ in range(4))
            build = rng.choice(
                (partial(SearchSpace, m, n, trials, seed), partial(exhaustive, m, n),
                 partial(sampled, m, n, trials, seed))
            )
            try:
                space = build()
            except BadSpec:
                outcomes["bad_spec"] += 1
                continue
            assert all(type(v) is int for v in dataclasses.astuple(space) if v is not None)
            for spec in _AXIOMS.values():
                try:
                    assert type(spec.price(space)) is str
                    outcomes["priced"] += 1
                except BudgetExceeded:
                    outcomes["refused"] += 1
    # a budget decided from sizes alone takes microseconds per request
    assert time.perf_counter() - start < 5 * SCALE
    assert min(outcomes.values()) > 100, outcomes


# two chains, an altloc pair, an inserted residue, a nonstandard residue,
# a water and a second model, so the edits can reach every filter
PDB = "\n".join(
    [
        "HEADER    FUZZ",
        atom_line(1, " N  ", "ALA", "A", 1, 0.0, 1.2, 0.0),
        atom_line(2, " CA ", "ALA", "A", 1, 0.0, 0.0, 0.0),
        atom_line(3, " CA ", "VAL", "A", 2, 3.8, 0.0, 0.0),
        atom_line(4, " CB ", "VAL", "A", 2, 4.0, 1.5, 0.0, altloc="A"),
        atom_line(5, " CB ", "VAL", "A", 2, 4.2, 1.5, 0.0, altloc="B"),
        atom_line(6, " CA ", "GLY", "A", 5, 6.0, 0.0, 0.0),
        atom_line(7, " CA ", "SER", "A", 5, 6.5, 0.5, 0.0, icode="A"),
        atom_line(8, " CA ", "LEU", "A", 9, 9.0, 2.0, 0.0),
        atom_line(9, " CD1", "LEU", "A", 9, 10.0, 3.0, 0.0),
        atom_line(10, " CA ", "MSE", "A", 10, 9.5, 4.0, 0.0),
        atom_line(11, " CA ", "TRP", "B", 1, 2.0, 3.0, 1.0),
        atom_line(12, " CA ", "LYS", "B", 4, 5.0, 3.0, 1.0),
        atom_line(13, " O  ", "HOH", "B", 50, 1.0, 1.0, 1.0, record="HETATM"),
        "TER",
        "ENDMDL",
        atom_line(14, " CA ", "ALA", "A", 1, 0.0, 0.0, 9.0),
        "END",
    ]
)
# what the fixed columns hold, NUL, non-ASCII letters and a tab
PDB_CHARACTERS = " .-+eE0123456789ACGHLMNTWXa\x00é∞\t"
# whole coordinate fields that no one-character edit makes: huge,
# non-finite and the widest fixed-point values
PDB_FIELDS = ["   1e300", "  -1e300", "     1e8", "     nan", "    -inf", "99999999"]


def _pdb_edit(rng, lines):
    """One line edited in a column, cut short, repeated or given a new
    coordinate field."""
    at = rng.randrange(len(lines))
    line = lines[at]
    kind = rng.randrange(5)
    if kind == 0:
        lines[at] = line[: rng.randrange(len(line) + 1)]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), line)
    elif kind == 4:
        column = rng.choice((30, 38, 46))
        lines[at] = line[:column] + rng.choice(PDB_FIELDS) + line[column + 8 :]
    else:
        column = rng.randrange(len(line) + 1)
        # replace the column's character, or insert one before it
        rest = line[column + 1 :] if kind == 2 else line[column:]
        lines[at] = line[:column] + rng.choice(PDB_CHARACTERS) + rest


def test_pdb_parses_and_extracts_or_raises_foldvote_errors():
    rng = random.Random(2301)
    base = PDB.split("\n")
    scorer = Scorer()
    parsed = 0
    for _ in range(600 * SCALE):
        lines = list(base)
        for _ in range(rng.randint(1, 3)):
            _pdb_edit(rng, lines)
        text = "\n".join(lines)
        if rng.random() < 0.1:
            text = text[: rng.randrange(len(text) + 1)]
        try:
            structure = parse_pdb(text, "fuzz")
        except FoldvoteError:
            continue
        parsed += 1
        for mode in DISTANCE_MODES:
            config = ContactConfig(
                mode=mode,
                min_seq_separation=rng.randint(0, 3),
                cross_chain=rng.random() < 0.5,
            )
            try:
                instances = extract_instances(structure, config, scorer)
            except FoldvoteError:
                continue
            for instance in instances:
                assert isinstance(instance, InteractionInstance)
                assert 0.0 <= instance.distance <= config.threshold_tau
    assert parsed > 200


def _table_cells():
    """A valid symmetric 20x20 table, as CSV cells with its labels."""
    cells = [[""] + list(ONE_LETTER)]
    for i, code in enumerate(ONE_LETTER):
        cells.append([code] + [str(((i + j) % 7 - 3) / 2) for j in range(20)])
    return cells


# non-finite, extreme and unparseable numbers, and row and column labels
TABLE_VALUES = [
    "nan", "NaN", "inf", "-Infinity", "1e400", "1e308", "-1e308", "5e-324",
    "", " ", "x", "0x1", "1_0", " 2 ", "-0", "0.5", "A", "a", "X", "AA",
    "\x00", "é", "C",
]


def _table_edit(rng, cells):
    """One shape, value or label change of the table's cells; half of
    them change a cell and its mirror alike, which can keep it valid."""
    kind = min(rng.randrange(10), 5)
    row = rng.randrange(len(cells))
    if kind == 0 and len(cells) > 1:
        del cells[row]
    elif kind == 1:
        cells.insert(rng.randrange(len(cells) + 1), list(cells[row]))
    elif kind == 2 and cells[row]:
        del cells[row][rng.randrange(len(cells[row]))]
    elif kind == 3:
        cells[row].insert(rng.randrange(len(cells[row]) + 1), rng.choice(TABLE_VALUES))
    elif cells[row]:
        col = rng.randrange(len(cells[row]))
        cells[row][col] = rng.choice(TABLE_VALUES)
        if kind == 5 and col < len(cells) and row < len(cells[col]):
            cells[col][row] = cells[row][col]  # the mirror cell too


def test_score_table_parses_or_raises_bad_table():
    rng = random.Random(2302)
    read = 0
    for _ in range(2_000 * SCALE):
        cells = _table_cells()
        for _ in range(rng.randint(1, 2)):
            _table_edit(rng, cells)
        text = "\n".join(",".join(row) for row in cells)
        if rng.random() < 0.1:
            text = _edit(rng, text)
        try:
            scorer = parse_score_table(text, negate=rng.random() < 0.5)
        except BadTable:
            continue
        read += 1
        assert isinstance(scorer, Scorer)
        assert scorer.table.shape == (20, 20)
        assert np.isfinite(scorer.table).all()
        assert np.abs(scorer.table - scorer.table.T).max() <= 1e-9
    # enough tables stay readable for the read path to be fuzzed
    assert read > 100


def _scorer_table(rng):
    """A bare string, or an array of a random shape (20x20 half of the
    time), perhaps with non-finite entries, perhaps as nested lists with
    string entries or one row cut short."""
    if rng.random() < 0.1:
        return rng.choice(TABLE_VALUES)
    if rng.random() < 0.5:
        shape = (20, 20)
    else:
        shape = tuple(rng.randint(0, 21) for _ in range(rng.randint(0, 3)))
    table = np.array([rng.gauss(0.0, 10.0) for _ in range(math.prod(shape))])
    table = table.reshape(shape)
    for _ in range(rng.choice([0, 0, 1, 3]) if table.size else 0):
        at = rng.randrange(table.size)
        table.flat[at] = rng.choice([math.nan, math.inf, -math.inf])
    if table.ndim < 2 or rng.random() < 0.5:
        return table
    cells = table.tolist()
    if table.size:
        for _ in range(rng.choice([0, 0, 1, 2])):
            row = rng.choice(cells)
            row[rng.randrange(len(row))] = rng.choice(TABLE_VALUES)
        if rng.random() < 0.1:
            del rng.choice(cells)[-1]
    return cells


def test_scorer_builds_a_finite_scorer_or_raises_value_error():
    rng = random.Random(2304)
    built = 0
    for _ in range(2_000 * SCALE):
        table = _scorer_table(rng)
        try:
            scorer = Scorer(table)
        except ValueError:
            continue
        built += 1
        assert all(math.isfinite(scorer.score(cls)) for cls in class_universe())
    # enough tables build for the scoring path to be fuzzed
    assert built > 200


def _own(rule):
    """The rule, and the list of the exceptions it raises as it runs."""
    raised = []

    def fn(profile):
        try:
            return rule(profile)
        except Exception as exc:
            raised.append(exc)
            raise

    return dataclasses.replace(rule, fn=fn), raised


FAIL_WITNESSES = sorted(c for c, (verdict, _) in DIGESTS.items() if verdict == FAIL)


def test_mutated_fail_witnesses_verify_to_a_bool():
    rng = random.Random(2303)
    rejected = 0
    for case_id in FAIL_WITNESSES:
        _verdict, result, _text = _run(case_id)
        rule, raised = _own(RULES[CASES[case_id][1]])
        # the witness as a stored report gives it back
        witness = json.loads(json.dumps(result.witness))
        assert verify_result(rule, dataclasses.replace(result, witness=witness))
        keys = KEYS + sorted(witness)
        for _ in range(12 * SCALE):
            mutated = witness
            for _ in range(rng.randint(1, 2)):
                mutated = _mutate(rng, mutated, keys)
            edited = dataclasses.replace(result, witness=mutated)
            try:
                verified = verify_result(rule, edited)
            except Exception as exc:
                assert any(exc is own for own in raised)
                continue
            assert isinstance(verified, bool)
            rejected += not verified
    assert rejected > 200


# flag values of every kind: small sizes, signs, non-numbers, non-finite
# floats, other digits, path edge cases, NUL and known names; sizes stay
# at most 4 so every command is quick
ARGV_VALUES = [
    "", "x", "-1", "0", "1", "2", "3", "4", "2.5", "0.01", "1e400", "nan",
    "inf", "-inf", "0x1", "１", "\x00", "é", "-", ".", "sub/dir",
    "missing/x.json", "may", "borda", "kemeny", "dictator", "utilitarian",
    "mean-direction", "arrow", "iia,anonymity", ",", "continuity",
    "may_coincidence", "c_alpha", "heavy_min", "sum", "mean", "hetero",
    "sampled", "exhaustive", "condorcet", "single_peaked",
]


def _commands():
    """Valid argv per subcommand, for files the test writes first."""
    return [
        ["extract", "in.pdb", "--out-dir", "out", "--tau", "8", "--mode", "centroid",
         "--min-seq-separation", "3", "--table", "table.csv",
         "--summary-name", "summary.json"],
        ["rank", "contacts.csv", "--combine", "sum", "--tie-epsilon", "0",
         "--universe", "full", "--protein-id", "p", "--out", "rank.json"],
        ["synth", "impartial_culture", "--m", "3", "--n", "3", "--seed", "0",
         "--out", "synth.json"],
        ["aggregate", "profile.json", "--rule", "kemeny", "--dictator-k", "1",
         "--out", "aggregate.json"],
        ["audit", "--rule", "may", "--axioms", "arrow", "--m", "3", "--n", "2",
         "--mode", "sampled", "--trials", "3", "--seed", "1", "--epsilon", "0.01",
         "--dictator-k", "1", "--out", "audit.json"],
        ["restrict", "profile.json", "--rule", "borda", "--dictator-k", "2",
         "--out", "restrict.json"],
    ]


def _argv_edit(rng, argv):
    """One argument replaced by a flag value, dropped or repeated."""
    at = rng.randrange(1, len(argv))
    kind = rng.randrange(5)
    if kind == 0:
        del argv[at]
    elif kind == 1:
        argv.insert(at, argv[at])
    else:
        argv[at] = rng.choice(ARGV_VALUES)


def test_cli_exits_with_a_documented_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.pdb").write_text(PDB)
    (tmp_path / "table.csv").write_text(
        "\n".join(",".join(row) for row in _table_cells())
    )
    assert main(["extract", "in.pdb", "--out-dir", "."]) == 0
    os.replace("in.contacts.csv", "contacts.csv")
    synth = ["synth", "condorcet", "--m", "3", "--n", "3", "--out", "profile.json"]
    assert main(synth) == 0
    profile = (tmp_path / "profile.json").read_text()
    rng = random.Random(2304)
    codes = []
    for _ in range(60 * SCALE):
        for argv in _commands():
            for _ in range(rng.randint(1, 2)):
                _argv_edit(rng, argv)
            # a profile of "-" is read from stdin
            monkeypatch.setattr("sys.stdin", io.StringIO(profile))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 1, 2, 3), argv
            codes.append(code)
    # the edits reach every exit code but the budget's
    assert {0, 1, 2} <= set(codes)
