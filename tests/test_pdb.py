import numpy as np
import pytest
from hypothesis import given, strategies as st

from foldvote.errors import EmptyStructure, MalformedRecord, MissingAtom
from foldvote.pdb import AtomRecord, Residue, parse_pdb, residue_distance


def atom_line(
    serial, name, res, chain, seq, x, y, z, record="ATOM  ", altloc=" ", icode=" "
):
    return (
        f"{record}{serial:>5} {name:<4}{altloc}{res:>3} {chain}{seq:>4}{icode}   "
        f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
    )


def residue(code, seq, positions, names=None):
    names = names or [" CA "] * len(positions)
    atoms = [
        AtomRecord(name=n.strip(), position=np.array(p, dtype=float))
        for n, p in zip(names, positions)
    ]
    return Residue(one_letter_code=code, seq_index=seq, atoms=atoms)


class TestParse:
    def test_two_residue_file(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0),
                atom_line(2, " CA ", "VAL", "A", 2, 3.8, 0, 0),
            ]
        )
        s = parse_pdb(text, "toy")
        assert s.id == "toy"
        assert len(s.chains) == 1
        chain_id, residues = s.chains[0]
        assert chain_id == "A"
        assert [r.one_letter_code for r in residues] == ["A", "V"]
        assert s.n_residues == 2

    def test_hetatm_only_is_empty(self):
        text = atom_line(1, " O  ", "HOH", "A", 1, 0, 0, 0, record="HETATM")
        with pytest.raises(EmptyStructure):
            parse_pdb(text, "water")

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
        s = parse_pdb(text, "nmr")
        assert s.n_residues == 1
        assert s.chains[0][1][0].one_letter_code == "A"

    def test_altloc_b_skipped(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0, altloc="A"),
                atom_line(2, " CB ", "ALA", "A", 1, 1, 0, 0, altloc="B"),
            ]
        )
        s = parse_pdb(text, "alt")
        (residues,) = [rs for _, rs in s.chains]
        assert len(residues[0].atoms) == 1

    def test_nonstandard_residue_skipped(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "MSE", "A", 1, 0, 0, 0),
                atom_line(2, " CA ", "GLY", "A", 2, 1, 0, 0),
            ]
        )
        s = parse_pdb(text, "mod")
        assert [r.one_letter_code for r in s.chains[0][1]] == ["G"]

    def test_duplicate_residue_keeps_first(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0),
                atom_line(2, " CA ", "VAL", "A", 1, 5, 0, 0),
            ]
        )
        s = parse_pdb(text, "dup")
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
        residues = parse_pdb(text, "ins").chains[0][1]
        assert [(r.one_letter_code, r.seq_index) for r in residues] == [
            ("A", 52),
            ("G", 53),
        ]
        assert [(a.name, a.position[0]) for a in residues[0].atoms] == [
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
        (residue,) = parse_pdb(text, "ins").chains[0][1]
        assert [a.position[0] for a in residue.atoms] == [0.0]

    def test_malformed_atom_line(self):
        with pytest.raises(MalformedRecord):
            parse_pdb("ATOM  garbage", "bad")
        # coordinates that do not parse as floats
        line = atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0)
        broken = line[:30] + "  not-num" + line[39:]
        with pytest.raises(MalformedRecord):
            parse_pdb(broken, "bad")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [30, 38, 46])
    def test_non_finite_coordinate_is_malformed(self, bad, column):
        line = atom_line(1, " CA ", "ALA", "A", 1, 0, 0, 0)
        broken = line[:column] + f"{bad:>8}" + line[column + 8 :]
        text = "\n".join([broken, atom_line(2, " CA ", "GLY", "A", 5, 1, 0, 0)])
        with pytest.raises(MalformedRecord, match="non-finite"):
            parse_pdb(text, "bad")

    def test_deterministic(self):
        text = "\n".join(
            [
                atom_line(1, " CA ", "ALA", "B", 3, 1, 2, 3),
                atom_line(2, " CA ", "TRP", "A", 1, 4, 5, 6),
            ]
        )
        a = parse_pdb(text, "x")
        b = parse_pdb(text, "x")
        assert [(c, [(r.one_letter_code, r.seq_index) for r in rs]) for c, rs in a.chains] == [
            (c, [(r.one_letter_code, r.seq_index) for r in rs]) for c, rs in b.chains
        ]


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
