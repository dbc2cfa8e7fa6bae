import random
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foldvote.aminoacids import THREE_TO_ONE
from foldvote.data import four_residue_pdb_path
from foldvote.errors import (
    EmptyStructure,
    FoldvoteError,
    MalformedRecord,
    MissingAtom,
)
from foldvote.pdb import Residue, parse_pdb, residue_distance


def atom_line(
    serial, name, res, chain, seq, x, y, z, record="ATOM  ", altloc=" ", icode=" "
):
    return (
        f"{record}{serial:>5} {name:<4}{altloc}{res:>3} {chain}{seq:>4}{icode}   "
        f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
    )


def residue(code, seq, positions, names=None):
    names = names or [" CA "] * len(positions)
    return Residue(
        one_letter_code=code,
        seq_index=seq,
        atoms=tuple(n.strip() for n in names),
        xyz=np.array(positions, dtype=float),
    )


# The parser as it stood before residues held one coordinate array: one
# (name, 3-vector) object per atom, appended to its residue as read. It
# is the reference parse_pdb is checked against, on the bundled file,
# every case of TestParse and TestResidueRuns and seeded random texts.


@dataclass(frozen=True, eq=False)
class ReferenceAtom:
    name: str
    point: np.ndarray  # shape (3,), float64


@dataclass(eq=False)
class ReferenceResidue:
    one_letter_code: str
    seq_index: int
    atoms: list[ReferenceAtom] = field(default_factory=list)


def reference_atom_line(line):
    if len(line) < 54:
        raise MalformedRecord(f"ATOM line shorter than 54 columns: {line!r}")
    try:
        seq = int(line[22:26])
        xyz = [float(line[30:38]), float(line[38:46]), float(line[46:54])]
    except ValueError as exc:
        raise MalformedRecord(f"unparseable ATOM fields: {line!r}") from exc
    if not all(abs(v) < 1e8 for v in xyz):  # NaN fails the comparison too
        raise MalformedRecord(
            f"non-finite or huge (|v| >= 1e8) coordinate in ATOM line: {line!r}"
        )
    name = line[12:16].strip()
    altloc = line[16:17]
    resname = line[17:20].strip()
    chain = line[21:22]
    return name, altloc, resname, chain, seq, line[26:27], np.array(xyz)


def reference_parse_pdb(text, id):
    """Chains as (chain id, [ReferenceResidue]) in first-seen order."""
    chains = {}
    claimed = {}
    for line in text.splitlines():
        record = line[:6]
        if record.startswith("ENDMDL"):
            break
        if not record.startswith("ATOM"):
            continue
        name, altloc, resname, chain, seq, icode, pos = reference_atom_line(line)
        if altloc not in (" ", "A", ""):
            continue
        if claimed.setdefault((chain, seq), (resname, icode)) != (resname, icode):
            continue
        one = THREE_TO_ONE.get(resname)
        if one is None:
            continue
        residue = chains.setdefault(chain, {}).get(seq)
        if residue is None:
            residue = ReferenceResidue(one_letter_code=one, seq_index=seq)
            chains[chain][seq] = residue
        residue.atoms.append(ReferenceAtom(name=name, point=pos))

    ordered = [
        (chain_id, [chains[chain_id][seq] for seq in sorted(chains[chain_id])])
        for chain_id in chains
    ]
    ordered = [(cid, res) for cid, res in ordered if res]
    if not any(res for _, res in ordered):
        raise EmptyStructure(f"no standard residues in {id!r}")
    return ordered


def parse_both(text, id):
    """parse_pdb's result, after checking that it holds the reference
    parser's chains, residues, atom names and bitwise coordinates, or
    that both raise the same error type with the same message."""
    try:
        want = reference_parse_pdb(text, id)
    except FoldvoteError as exc:
        with pytest.raises(FoldvoteError) as got:
            parse_pdb(text, id)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        raise got.value
    structure = parse_pdb(text, id)
    assert structure.id == id
    assert [c for c, _ in structure.chains] == [c for c, _ in want]
    for (_, residues), (_, ref_residues) in zip(structure.chains, want):
        assert [(r.one_letter_code, r.seq_index, r.atoms) for r in residues] == [
            (r.one_letter_code, r.seq_index, tuple(a.name for a in r.atoms))
            for r in ref_residues
        ]
        for res, ref in zip(residues, ref_residues):
            assert res.xyz.dtype == np.float64
            assert np.array_equal(res.xyz, np.stack([a.point for a in ref.atoms]))
    return structure


class TestParse:
    def test_two_residue_file(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0),
                atom_line(2, " CA ", "VAL", "A", 2, 3.8, 0, 0),
            ]
        )
        s = parse_both(text, "toy")
        assert s.id == "toy"
        assert len(s.chains) == 1
        chain_id, residues = s.chains[0]
        assert chain_id == "A"
        assert [r.one_letter_code for r in residues] == ["A", "V"]
        assert s.n_residues == 2

    def test_hetatm_only_is_empty(self):
        text = atom_line(1, " O  ", "HOH", "A", 1, 0, 0, 0, record="HETATM")
        with pytest.raises(EmptyStructure):
            parse_both(text, "water")

    def test_first_model_only(self):
        text = "\n".join(
            [
                "MODEL        1",
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0),
                "ENDMDL",
                "MODEL        2",
                atom_line(2, " CA ", "VAL", "A", 2, 9, 9, 9),
                "ENDMDL",
            ]
        )
        s = parse_both(text, "nmr")
        assert s.n_residues == 1
        assert s.chains[0][1][0].one_letter_code == "A"

    def test_altloc_b_skipped(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0, altloc="A"),
                atom_line(2, " CB ", "ALA", "A", 1, 1, 0, 0, altloc="B"),
            ]
        )
        s = parse_both(text, "alt")
        (residues,) = [rs for _, rs in s.chains]
        assert len(residues[0].atoms) == 1

    def test_nonstandard_residue_skipped(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "MSE", "A", 1, 0, 0, 0),
                atom_line(2, " CA ", "GLY", "A", 2, 1, 0, 0),
            ]
        )
        s = parse_both(text, "mod")
        assert [r.one_letter_code for r in s.chains[0][1]] == ["G"]

    def test_duplicate_residue_keeps_first(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0),
                atom_line(2, " CA ", "VAL", "A", 1, 5, 0, 0),
            ]
        )
        s = parse_both(text, "dup")
        residues = s.chains[0][1]
        assert len(residues) == 1
        assert residues[0].one_letter_code == "A"

    def test_inserted_residue_dropped(self):
        # 52A has the same residue name as 52; reading the insertion code
        # keeps its atoms out of residue 52, which used to get two CAs
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 52, 0, 0, 0),
                atom_line(2, " CB ", "ALA", "A", 52, 1, 0, 0),
                atom_line(3, " CA ", "ALA", "A", 52, 5, 0, 0, icode="A"),
                atom_line(4, " CB ", "ALA", "A", 52, 6, 0, 0, icode="A"),
                atom_line(5, " CA ", "GLY", "A", 53, 9, 0, 0),
            ]
        )
        residues = parse_both(text, "ins").chains[0][1]
        assert [(r.one_letter_code, r.seq_index) for r in residues] == [
            ("A", 52),
            ("G", 53),
        ]
        assert list(zip(residues[0].atoms, residues[0].xyz[:, 0])) == [
            ("CA", 0.0),
            ("CB", 1.0),
        ]

    def test_first_insertion_code_claims_the_number(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "SER", "A", 7, 0, 0, 0, icode="B"),
                atom_line(2, " CA ", "SER", "A", 7, 4, 0, 0),
            ]
        )
        (residue,) = parse_both(text, "ins").chains[0][1]
        assert list(residue.xyz[:, 0]) == [0.0]

    def test_malformed_atom_line(self):
        with pytest.raises(MalformedRecord):
            parse_both("ATOM  garbage", "bad")
        # coordinates that do not parse as floats
        line = atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0)
        broken = line[:30] + "  not-num" + line[39:]
        with pytest.raises(MalformedRecord):
            parse_both(broken, "bad")

    # a huge value: no %8.3f field reaches 1e8, and extraction would
    # square it past the float range
    @pytest.mark.parametrize(
        "bad", ["nan", "inf", "-inf", "1e300", "-1e300", "1e8", "-1.0e8"]
    )
    @pytest.mark.parametrize("column", [30, 38, 46])
    def test_non_finite_coordinate_is_malformed(self, bad, column):
        line = atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0)
        broken = line[:column] + f"{bad:>8}" + line[column + 8 :]
        text = "\n".join([broken, atom_line(2, " CA ", "GLY", "A", 5, 1, 0, 0)])
        with pytest.raises(MalformedRecord, match="non-finite"):
            parse_both(text, "bad")

    @pytest.mark.parametrize("wide", ["99999999", "-9999999", "9.9999e7"])
    def test_widest_fixed_point_coordinates_parse(self, wide):
        line = atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0)
        text = line[:30] + wide + line[38:]
        (residue,) = parse_both(text, "wide").chains[0][1]
        assert residue.xyz[0, 0] == float(wide)

    def test_deterministic(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "B", 3, 1, 2, 3),
                atom_line(2, " CA ", "TRP", "A", 1, 4, 5, 6),
            ]
        )
        a = parse_both(text, "x")
        b = parse_both(text, "x")
        assert [(c, [(r.one_letter_code, r.seq_index) for r in rs]) for c, rs in a.chains] == [
            (c, [(r.one_letter_code, r.seq_index) for r in rs]) for c, rs in b.chains
        ]


def kept(structure):
    """(chain, seq, code, atom names, x column) of every kept residue."""
    return [
        (chain, r.seq_index, r.one_letter_code, r.atoms, list(r.xyz[:, 0]))
        for chain, r in structure.residues()
    ]


class TestResidueRuns:
    """Lines that repeat the residue columns of the last kept-or-dropped
    line go where it went without a second lookup; these cases break
    such runs in each way a file can."""

    @pytest.mark.parametrize(
        "column, bad",
        [(30, "       x"), (38, "     nan"), (46, "    -inf"), (54, None)],
    )
    def test_malformed_altloc_b_line_inside_a_run_raises(self, column, bad):
        b_line = atom_line(2, " CB ", "ALA", "A", 1, 1, 0, 0, altloc="B")
        if bad is None:
            b_line = b_line[:53]  # one column short
        else:
            b_line = b_line[:column] + bad + b_line[column + 8 :]
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0),
                b_line,
                atom_line(3, " CG ", "ALA", "A", 1, 2, 0, 0),
            ]
        )
        with pytest.raises(MalformedRecord):
            parse_both(text, "bad")

    def test_residue_resuming_after_another(self):
        text = "\n".join(
            [
                atom_line(1, " N  ", "ALA", "A", 1, 0, 0, 0),
                atom_line(2, " CA ", "ALA", "A", 1, 1, 0, 0),
                atom_line(3, " CA ", "GLY", "A", 2, 2, 0, 0),
                atom_line(4, " C  ", "ALA", "A", 1, 3, 0, 0),
                atom_line(5, " N  ", "GLY", "B", 2, 4, 0, 0),
                atom_line(6, " O  ", "ALA", "A", 1, 5, 0, 0),
            ]
        )
        assert kept(parse_both(text, "resume")) == [
            ("A", 1, "A", ("N", "CA", "C", "O"), [0.0, 1.0, 3.0, 5.0]),
            ("A", 2, "G", ("CA",), [2.0]),
            ("B", 2, "G", ("N",), [4.0]),
        ]

    @pytest.mark.parametrize("b_name", ["SER", "THR"])
    def test_altloc_b_with_a_new_key_then_its_altloc_a(self, b_name):
        # the B conformer opens no run, so the A line after it still
        # claims residue 2, under its own name when the two differ
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0),
                atom_line(2, " CA ", b_name, "A", 2, 9, 0, 0, altloc="B"),
                atom_line(3, " CA ", "SER", "A", 2, 1, 0, 0, altloc="A"),
                atom_line(4, " CB ", b_name, "A", 2, 8, 0, 0, altloc="B"),
                atom_line(5, " CB ", "SER", "A", 2, 2, 0, 0, altloc="A"),
            ]
        )
        assert kept(parse_both(text, "alt")) == [
            ("A", 1, "A", ("CA",), [0.0]),
            ("A", 2, "S", ("CA", "CB"), [1.0, 2.0]),
        ]

    @pytest.mark.parametrize(
        "res, seq, icode",
        [("VAL", 1, " "), ("ALA", 1, "A"), ("MSE", 2, " ")],
        ids=["duplicate", "insertion", "nonstandard"],
    )
    def test_dropped_run_stays_dropped(self, res, seq, icode):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0),
                atom_line(2, " N  ", res, "A", seq, 9, 0, 0, icode=icode),
                atom_line(3, " CA ", res, "A", seq, 9, 0, 0, icode=icode),
                atom_line(4, " O  ", "HOH", "A", 50, 9, 0, 0, record="HETATM"),
                atom_line(5, " CB ", res, "A", seq, 9, 0, 0, icode=icode),
                atom_line(6, " CB ", res, "A", seq, 9, 0, 0, altloc="B", icode=icode),
                atom_line(7, " CG ", res, "A", seq, 9, 0, 0, altloc="A", icode=icode),
                atom_line(8, " CA ", "GLY", "A", 3, 3, 0, 0),
                atom_line(9, " C  ", res, "A", seq, 9, 0, 0, icode=icode),
            ]
        )
        assert kept(parse_both(text, "drop")) == [
            ("A", 1, "A", ("CA",), [0.0]),
            ("A", 3, "G", ("CA",), [3.0]),
        ]

    @pytest.mark.parametrize("res, seq", [("HOH", 100), ("ALA", 1)])
    def test_hetatm_line_inside_a_run(self, res, seq):
        # a HETATM record is skipped even when it repeats the run's
        # residue columns, and the run goes on past it
        text = "\n".join(
            [
                atom_line(1, " N  ", "ALA", "A", 1, 0, 0, 0),
                atom_line(2, " O  ", res, "A", seq, 9, 0, 0, record="HETATM"),
                atom_line(3, " CA ", "ALA", "A", 1, 1, 0, 0),
            ]
        )
        assert kept(parse_both(text, "het")) == [
            ("A", 1, "A", ("N", "CA"), [0.0, 1.0]),
        ]


RESIDUE_NAMES = ("ALA", "GLY", "LEU", "TRP", "SER", "LYS", "MSE", "HOH")
ATOM_NAMES = (" N  ", " CA ", " C  ", " O  ", " CB ", " CG ", " OG1", "CD1 ")


def random_pdb_text(rng):
    """PDB text from atom_line: one to three chains of gapped residue
    numbers, a few atoms per residue, with now and then an altloc,
    an insertion code, a HETATM, a nonstandard residue or a reused
    residue number; about half the texts shuffle the atoms of different
    residues together, and some carry a second model or a bad line."""
    lines = []
    for chain in rng.sample("ABC", rng.randint(1, 3)):
        for seq in sorted(rng.choices(range(-3, 15), k=rng.randint(1, 6))):
            resname = rng.choice(RESIDUE_NAMES)
            icode = rng.choice(" " * 8 + "A")
            for name in rng.sample(ATOM_NAMES, rng.randint(1, 5)):
                x, y, z = (round(rng.uniform(-99, 999), 3) for _ in range(3))
                lines.append(
                    atom_line(
                        len(lines) + 1, name, resname, chain, seq, x, y, z,
                        record=rng.choice(["ATOM  "] * 9 + ["HETATM"]),
                        altloc=rng.choice(" " * 6 + "AB"),
                        icode=icode,
                    )
                )
    if rng.random() < 0.5:
        rng.shuffle(lines)
    extra = rng.random()
    if extra < 0.1:
        lines.insert(rng.randrange(len(lines) + 1), "ENDMDL")
    elif extra < 0.15:
        line = rng.choice(lines)
        lines.insert(rng.randrange(len(lines) + 1), line[:40])
    elif extra < 0.2:
        line = rng.choice(lines)
        column = rng.choice([22, 30, 38, 46])
        bad = line[:column] + rng.choice(["   x", "     nan", "     inf"]) + line[column + 8 :]
        lines.insert(rng.randrange(len(lines) + 1), bad)
    return "\n".join(["HEADER    RANDOM", *lines, "TER", "END"])


class TestReferenceParse:
    def test_bundled_file(self):
        structure = parse_both(four_residue_pdb_path().read_text(), "four_residue")
        assert structure.n_residues == 4

    @pytest.mark.parametrize("seed", range(240))
    def test_random_text(self, seed):
        text = random_pdb_text(random.Random(seed))
        try:
            parse_both(text, f"r{seed}")
        except (EmptyStructure, MalformedRecord):
            pass  # parse_both has checked that the reference raised it too

    def test_random_texts_cover_every_outcome(self):
        outcomes = set()
        for seed in range(240):
            try:
                reference_parse_pdb(random_pdb_text(random.Random(seed)), "r")
                outcomes.add("parsed")
            except FoldvoteError as exc:
                outcomes.add(type(exc).__name__)
        assert outcomes == {"parsed", "EmptyStructure", "MalformedRecord"}

    def test_atom_returns_first_row_or_none(self):
        res = residue("A", 1, [(0, 0, 0), (1, 2, 3), (4, 5, 6)], [" CB ", " CA ", " CA "])
        assert res.atom("CA").tolist() == [1.0, 2.0, 3.0]
        assert res.atom("CB").tolist() == [0.0, 0.0, 0.0]
        assert res.atom("CG") is None


class TestResidueDistance:
    def test_c_alpha_five_angstrom(self):
        a = residue("A", 1, [(0, 0, 0)])
        b = residue("V", 2, [(5, 0, 0)])
        assert residue_distance(a, b, "c_alpha") == 5.0

    def test_identical_residue_zero(self):
        a = residue("A", 1, [(1, 2, 3)])
        for mode in ("c_alpha", "centroid", "heavy_min"):
            assert residue_distance(a, a, mode) == 0.0

    def test_heavy_min_and_centroid(self):
        # spec'd two-atom example: closest atoms 1.0 apart, centroids 5.5
        a = residue("A", 1, [(0, 0, 0), (2, 0, 0)], [" CA ", " CB "])
        b = residue("V", 2, [(10, 0, 0), (3, 0, 0)], [" CA ", " CB "])
        assert residue_distance(a, b, "heavy_min") == pytest.approx(1.0)
        assert residue_distance(a, b, "centroid") == pytest.approx(5.5)

    def test_missing_ca(self):
        a = residue("A", 1, [(0, 0, 0)], [" CB "])
        b = residue("V", 2, [(1, 0, 0)])
        with pytest.raises(MissingAtom):
            residue_distance(a, b, "c_alpha")

    def test_missing_ca_on_the_second_residue(self):
        a = residue("A", 1, [(0, 0, 0)])
        b = residue("V", 2, [(1, 0, 0)], [" CB "])
        with pytest.raises(MissingAtom, match="^residue 2 has no CA atom$"):
            residue_distance(a, b, "c_alpha")

    def test_unknown_mode(self):
        a = residue("A", 1, [(0, 0, 0)])
        with pytest.raises(ValueError):
            residue_distance(a, a, "sidechain")

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(-50, 50, allow_nan=False),
                st.floats(-50, 50, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(-50, 50, allow_nan=False),
                st.floats(-50, 50, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(["centroid", "heavy_min"]),
    )
    def test_symmetry(self, pos_a, pos_b, mode):
        a = residue("A", 1, pos_a, [" C  "] * len(pos_a))
        b = residue("G", 2, pos_b, [" C  "] * len(pos_b))
        assert residue_distance(a, b, mode) == residue_distance(b, a, mode)

    def test_heavy_min_not_above_c_alpha(self):
        a = residue("A", 1, [(0, 0, 0), (1, 1, 0)], [" CA ", " CB "])
        b = residue("V", 2, [(4, 0, 0), (2, 0, 0)], [" CA ", " CB "])
        assert residue_distance(a, b, "heavy_min") <= residue_distance(
            a, b, "c_alpha"
        )
