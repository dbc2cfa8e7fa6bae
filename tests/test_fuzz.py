"""Seeded mutation fuzzing of two input readers.

Each reader gets thousands of mutations of one valid input, drawn from a
fixed seed, and must either succeed or raise its typed error:
`instances_from_csv` returns a list or raises `MalformedContacts`, and
`Profile.from_json_dict`, and every standard rule run on a profile it
loads, return or raise a `FoldvoteError`. Any other exception is a
reader fault that the command line would report as a bare traceback or
hide behind its catch-all.
"""

import copy
import json
import math
import random

from foldvote.errors import FoldvoteError, MalformedContacts
from foldvote.interchange import instances_from_csv
from foldvote.profiles import Profile
from foldvote.rules import standard_rules

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
    for _ in range(20_000):
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


def _mutate(rng, document):
    """The document with one list or object changed: an entry deleted,
    repeated, replaced by another JSON value, or (in an object) added."""
    document = copy.deepcopy(document)
    node = document
    for key in rng.choice(list(_nodes(document))):
        node = node[key]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    kind = rng.randrange(4)
    if not keys or kind == 0:
        if isinstance(node, dict):
            node[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES))
        else:
            node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(VALUES)))
        return document
    key = rng.choice(keys)
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
    for trial in range(4_000):
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
