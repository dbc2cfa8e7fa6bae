"""The interaction classes and their universe, and the layering they
allow: the collective side runs without the structure side or numpy."""

import importlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import foldvote
import foldvote.aminoacids as aminoacids
import foldvote.contacts as contacts
import foldvote.interchange as interchange
from foldvote.aminoacids import CLASSES, ONE_LETTER, InteractionClass, class_universe

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs every command of the collective side, and rank on a contact CSV,
# through cli.main, then prints which structure-side modules the process
# has loaded.
COLLECTIVE_SESSION = """
import contextlib, io, json, sys
from pathlib import Path

from foldvote.cli import RULE_NAMES, main
from foldvote.preferences import UtilityVector
from foldvote.profiles import Profile, synthetic_universe


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


run("synth", "condorcet", "--out", "cycle.json")
run("synth", "single_peaked", "--m", "4", "--n", "5", "--seed", "2", "--out", "sp.json")
u = synthetic_universe(3)
utility = Profile(
    u,
    tuple(UtilityVector(f"p{i}", u, (float(i), 1.0, 2.0 - i)) for i in range(3)),
    "utility",
)
Path("utility.json").write_text(json.dumps(utility.to_json_dict()))
for rule in RULE_NAMES:
    if rule == "utilitarian":
        run("aggregate", "utility.json", "--rule", rule)
    else:
        run("aggregate", "cycle.json", "--rule", rule)
        run("restrict", "sp.json", "--rule", rule)
run("audit", "--rule", "borda", "--axioms", "arrow", "--m", "3", "--n", "2")
Path("p.contacts.csv").write_text(
    "protein_id,class,chain_i,seq_i,chain_j,seq_j,distance,score\\n"
    "p,A-G,A,1,A,4,5.0,1.0\\n"
    "p,G-V,A,2,A,5,6.5,1.0\\n"
)
run("rank", "p.contacts.csv", "--universe", "hetero")
print(json.dumps([m for m in ("numpy", "foldvote.contacts", "foldvote.pdb") if m in sys.modules]))
"""


def test_collective_commands_load_no_structure_side(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", COLLECTIVE_SESSION],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_one_definition_of_the_classes():
    assert contacts.InteractionClass is aminoacids.InteractionClass
    assert contacts.class_universe is aminoacids.class_universe
    assert foldvote.InteractionClass is aminoacids.InteractionClass
    assert foldvote.class_universe is aminoacids.class_universe


def test_one_definition_of_the_contact_interchange():
    names = ("InteractionInstance", "CSV_HEADER", "instances_to_csv", "instances_from_csv")
    for name in names:
        assert getattr(contacts, name) is getattr(interchange, name), name
    assert foldvote.InteractionInstance is interchange.InteractionInstance


@pytest.mark.parametrize("name", foldvote.__all__)
def test_each_public_name_is_its_submodules(name):
    defining = importlib.import_module(f"foldvote.{foldvote._EXPORTS[name]}")
    assert getattr(foldvote, name) is getattr(defining, name)
    assert name in dir(foldvote)


def test_a_name_outside_the_export_table_is_no_attribute():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        foldvote.no_such_name


def nested_loop_universe(include_homopairs):
    """The class universe by a nested loop over the codes, as a reference."""
    out = []
    for i, a in enumerate(ONE_LETTER):
        for b in ONE_LETTER[i:]:
            if a == b and not include_homopairs:
                continue
            out.append(InteractionClass(a, b))
    return tuple(out)


@pytest.mark.parametrize("include_homopairs,size", [(True, 210), (False, 190)])
def test_universe_matches_nested_loop(include_homopairs, size):
    universe = class_universe(include_homopairs)
    assert len(universe) == size
    assert universe == nested_loop_universe(include_homopairs)


def test_of_is_symmetric_over_all_code_pairs():
    for a, b in product(ONE_LETTER, repeat=2):
        cls = InteractionClass.of(a, b)
        assert cls == InteractionClass.of(b, a)
        assert (cls.first, cls.second) == tuple(sorted((a, b)))


def test_hash_is_that_of_the_code_pair():
    # the cached hash keeps the generated one, so set and dict iteration
    # orders do not move
    fresh = InteractionClass("A", "C")
    assert fresh is not class_universe()[1]
    for cls in class_universe() + (fresh,):
        assert hash(cls) == hash((cls.first, cls.second))
    assert hash(fresh) == hash(class_universe()[1])
    assert len(class_universe()) == 210


def test_classes_order_by_their_code_pair():
    assert sorted(reversed(CLASSES)) == list(CLASSES)
    for a, b in product(CLASSES, repeat=2):
        assert (a < b) == ((a.first, a.second) < (b.first, b.second))


def test_class_is_a_named_tuple_of_its_codes():
    cls = InteractionClass.of("V", "A")
    assert cls == ("A", "V")  # equal to the plain tuple of its codes
    assert tuple(cls) == ("A", "V")
    with pytest.raises(AttributeError):
        cls.first = "C"


@pytest.mark.parametrize(
    "label,message",
    [
        ("A-Z", "not standard residue codes: 'A', 'Z'"),
        ("a-v", "not standard residue codes: 'a', 'v'"),
        ("", "not a class label: ''"),
        ("A-V-C", "not standard residue codes: 'A', 'V-C'"),
        ("-A", "not standard residue codes: '', 'A'"),
    ],
)
def test_parse_rejects_non_codes(label, message):
    with pytest.raises(ValueError) as excinfo:
        InteractionClass.parse(label)
    assert str(excinfo.value) == message
