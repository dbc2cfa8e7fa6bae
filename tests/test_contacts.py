"""Interaction classes, contact extraction, score tables, CSV round trip."""

import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foldvote.aminoacids import LETTER_INDEX, ONE_LETTER
from foldvote.contacts import (
    CSV_HEADER,
    ContactConfig,
    InteractionClass,
    InteractionInstance,
    Scorer,
    class_universe,
    extract_instances,
    instances_from_csv,
    instances_to_csv,
    parse_score_table,
)
from foldvote.contacts import _points
from foldvote.errors import BadTable, MalformedContacts, MissingAtom
from foldvote.pdb import ProteinStructure, Residue, parse_pdb, residue_distance
from test_pdb import atom_line


def ca_structure(spec, pid="toy"):
    """spec: list of (chain, code, seq, xyz) with a single CA atom each."""
    chains: dict[str, list] = {}
    for chain, code, seq, xyz in spec:
        chains.setdefault(chain, []).append(
            Residue(
                one_letter_code=code,
                seq_index=seq,
                atoms=("CA",),
                xyz=np.array([xyz], dtype=float),
            )
        )
    return ProteinStructure(
        id=pid, chains=[(c, rs) for c, rs in sorted(chains.items())]
    )


FOUR_RESIDUE = [
    ("A", "A", 1, (0, 0, 0)),
    ("A", "V", 2, (4, 0, 0)),
    ("A", "G", 5, (6, 0, 0)),
    ("A", "L", 9, (30, 0, 0)),
]


class TestInteractionClass:
    def test_canonicalization(self):
        assert InteractionClass.of("V", "A") == InteractionClass.of("A", "V")
        assert InteractionClass.of("V", "A").render() == "A-V"

    def test_parse_render_roundtrip(self):
        for cls in class_universe(True):
            assert InteractionClass.parse(cls.render()) == cls

    def test_rejects_unknown_letter(self):
        with pytest.raises(ValueError):
            InteractionClass.of("A", "B")  # B is not an amino-acid code


class TestClassUniverse:
    def test_with_homopairs(self):
        u = class_universe(True)
        assert len(u) == 210
        assert u[0] == InteractionClass.of("A", "A")
        assert list(u) == sorted(u)

    def test_without_homopairs(self):
        u = class_universe(False)
        assert len(u) == 190
        assert all(c.first != c.second for c in u)

    def test_oracle_count(self):
        # independent enumeration over the letter alphabet
        letters = sorted(ONE_LETTER)
        hetero = {(a, b) for i, a in enumerate(letters) for b in letters[i + 1 :]}
        assert len(class_universe(False)) == len(hetero)
        assert len(class_universe(True)) == len(hetero) + len(letters)

    def test_membership(self):
        assert InteractionClass.of("V", "A") in set(class_universe(True))


class TestExtract:
    def test_four_residue_example(self):
        s = ca_structure(FOUR_RESIDUE)
        inst = extract_instances(s, ContactConfig(), Scorer())
        keyed = {(i.residues, i.distance) for i in inst}
        assert keyed == {
            ((("A", 1), ("A", 5)), 6.0),
            ((("A", 2), ("A", 5)), 2.0),
        }
        assert {i.interaction_class.render() for i in inst} == {"A-G", "G-V"}

    def test_tiny_threshold_empty(self):
        s = ca_structure(FOUR_RESIDUE)
        inst = extract_instances(
            s, ContactConfig(threshold_tau=0.5), Scorer()
        )
        assert inst == []

    def test_unit_scores(self):
        s = ca_structure(FOUR_RESIDUE)
        inst = extract_instances(s, ContactConfig(), Scorer())
        assert all(i.score == 1.0 for i in inst)

    def test_cross_chain(self):
        spec = [
            ("A", "A", 1, (0, 0, 0)),
            ("B", "V", 1, (1, 0, 0)),
        ]
        s = ca_structure(spec)
        off = extract_instances(s, ContactConfig(), Scorer())
        assert off == []
        on = extract_instances(
            s, ContactConfig(cross_chain=True), Scorer()
        )
        assert len(on) == 1
        # separation predicate is intra-chain only
        assert on[0].residues == ((("A", 1), ("B", 1)))

    def test_tau_monotonicity(self):
        s = ca_structure(FOUR_RESIDUE)
        seen = set()
        for tau in (1.0, 2.0, 6.0, 8.0, 40.0):
            inst = extract_instances(
                s, ContactConfig(threshold_tau=tau), Scorer()
            )
            now = {i.residues for i in inst}
            assert seen <= now
            seen = now

    def test_missing_ca_raises(self):
        bad = Residue(
            one_letter_code="A",
            seq_index=1,
            atoms=("CB",),
            xyz=np.zeros((1, 3)),
        )
        ok = Residue(
            one_letter_code="G",
            seq_index=5,
            atoms=("CA",),
            xyz=np.zeros((1, 3)),
        )
        s = ProteinStructure(id="x", chains=[("A", [bad, ok])])
        with pytest.raises(MissingAtom):
            extract_instances(s, ContactConfig(), Scorer())

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ContactConfig(threshold_tau=0.0)
        with pytest.raises(ValueError):
            ContactConfig(mode="nonsense")
        with pytest.raises(ValueError):
            ContactConfig(min_seq_separation=-1)

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_negative_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="threshold_tau must be positive and finite"):
            ContactConfig(threshold_tau=tau)

    @given(st.integers(0, 2**31 - 1))
    def test_brute_force_equivalence(self, seed):
        # a random structure and configuration against the all-pairs
        # reference, compared exactly
        rng = np.random.default_rng(seed)
        structure = random_structure(rng, int(rng.integers(1, 4)))
        config = ContactConfig(
            threshold_tau=float(rng.uniform(3.0, 10.0)),
            mode=str(rng.choice(["c_alpha", "centroid", "heavy_min"])),
            min_seq_separation=int(rng.integers(0, 5)),
            cross_chain=bool(rng.integers(2)),
        )
        assert_matches_reference(structure, config)


def reference_extract(structure, config, scorer):
    """All-pairs extraction: every candidate pair the chain and separation
    predicates allow, then its distance, kept at or below tau."""
    flat = structure.residues()
    n = len(flat)
    candidates = []
    for i in range(n):
        chain_i, res_i = flat[i]
        for j in range(i + 1, n):
            chain_j, res_j = flat[j]
            if chain_i == chain_j:
                if abs(res_i.seq_index - res_j.seq_index) < config.min_seq_separation:
                    continue
            elif not config.cross_chain:
                continue
            candidates.append((i, j))

    distances = reference_distances(flat, candidates, config.mode)

    instances = []
    for (i, j), dist in zip(candidates, distances):
        if dist > config.threshold_tau:
            continue
        chain_i, res_i = flat[i]
        chain_j, res_j = flat[j]
        cls = InteractionClass.of(res_i.one_letter_code, res_j.one_letter_code)
        first, second = sorted(
            [(chain_i, res_i.seq_index), (chain_j, res_j.seq_index)]
        )
        instances.append(
            InteractionInstance(
                protein_id=structure.id,
                interaction_class=cls,
                residues=(first, second),
                distance=float(dist),
                score=scorer.score(cls),
            )
        )
    instances.sort(key=lambda inst: inst.residues)
    return instances


def reference_distances(flat, candidates, mode):
    if not candidates:
        return np.empty(0)
    if mode in ("c_alpha", "centroid"):
        reps = np.full((len(flat), 3), np.nan)
        for k, (_, res) in enumerate(flat):
            if mode == "c_alpha":
                ca = res.atom("CA")
                if ca is not None:
                    reps[k] = ca
            else:
                reps[k] = res.xyz.mean(axis=0)
        ii = np.array([i for i, _ in candidates])
        jj = np.array([j for _, j in candidates])
        touched = np.unique(np.concatenate([ii, jj]))
        bad = touched[np.isnan(reps[touched]).any(axis=1)]
        if bad.size:
            seq = flat[int(bad[0])][1].seq_index
            raise MissingAtom(f"residue {seq} has no CA atom")
        return np.linalg.norm(reps[ii] - reps[jj], axis=1)
    return np.array(
        [residue_distance(flat[i][1], flat[j][1], mode) for i, j in candidates]
    )


ATOM_NAMES = ("CA", "CB", "CG", "CD", "CE", "NZ", "OH", "CZ2", "CH2", "NE1")


def random_structure(rng, n_chains, max_residues=16, ca=True):
    """Chains in a shuffled id order with gapped, partly negative
    numbering; each residue holds 1-10 atoms scattered around a point of
    an 18 A box, its first atom a CA unless `ca` is false."""
    ids = list(rng.permutation(["A", "B", "C"])[:n_chains])
    chains = []
    for chain_id in ids:
        n = int(rng.integers(1, max_residues))
        seqs = np.sort(rng.choice(np.arange(-5, 60), size=n, replace=False))
        residues = []
        for seq in seqs.tolist():
            centre = rng.uniform(0, 18, 3)
            k = int(rng.integers(1, len(ATOM_NAMES) + 1))
            names = ATOM_NAMES[:k] if ca else ATOM_NAMES[1 : k + 1]
            xyz = np.array([centre + rng.normal(0, 1.5, 3) for _ in names])
            code = ONE_LETTER[int(rng.integers(20))]
            residues.append(
                Residue(one_letter_code=code, seq_index=seq, atoms=names, xyz=xyz)
            )
        chains.append((str(chain_id), residues))
    return ProteinStructure(id="rand", chains=chains)


def random_scorer(rng):
    table = rng.normal(size=(20, 20))
    table = table + table.T
    return Scorer(-table if rng.integers(2) else table)


def assert_matches_reference(structure, config, scorer=Scorer()):
    got = extract_instances(structure, config, scorer)
    assert got == reference_extract(structure, config, scorer)
    return got


class TestReferenceExtract:
    """The pair search against the all-pairs reference; instances compare
    with ==, so distances and scores must match to the last bit."""

    @pytest.mark.parametrize("mode", ["c_alpha", "centroid", "heavy_min"])
    @pytest.mark.parametrize("min_sep", [0, 1, 3])
    @pytest.mark.parametrize("cross_chain", [False, True])
    @pytest.mark.parametrize("n_chains", [1, 2, 3])
    def test_matches_reference(self, mode, min_sep, cross_chain, n_chains):
        for seed in range(3):
            rng = np.random.default_rng([seed, n_chains, min_sep])
            structure = random_structure(rng, n_chains, max_residues=30)
            config = ContactConfig(
                threshold_tau=float(rng.choice([4.5, 6.0, 8.0])),
                mode=mode,
                min_seq_separation=min_sep,
                cross_chain=cross_chain,
            )
            scorer = random_scorer(rng) if seed else Scorer()
            assert_matches_reference(structure, config, scorer)

    def test_long_chain_spans_blocks(self):
        # more residues than one block of the pair search holds
        rng = np.random.default_rng(7)
        spec = [
            ("A", ONE_LETTER[k % 20], k, tuple(rng.uniform(0, 30, 3)))
            for k in range(300)
        ]
        got = assert_matches_reference(ca_structure(spec), ContactConfig())
        assert len(got) > 100

    @pytest.mark.parametrize("mode", ["c_alpha", "centroid", "heavy_min"])
    def test_csv_distance_is_residue_distance(self, mode):
        # every distance written to the CSV is, to the last bit, what
        # residue_distance gives for the pair
        for seed in range(4):
            rng = np.random.default_rng([seed, 17])
            structure = random_structure(rng, 2, max_residues=30)
            residues = {(c, res.seq_index): res for c, res in structure.residues()}
            config = ContactConfig(
                threshold_tau=12.0, mode=mode, min_seq_separation=0, cross_chain=True
            )
            rows = instances_from_csv(
                instances_to_csv(extract_instances(structure, config))
            )
            assert len(rows) > 50
            for row in rows:
                a, b = (residues[key] for key in row.residues)
                assert row.distance == residue_distance(a, b, mode)

    @pytest.mark.parametrize("mode", ["c_alpha", "centroid", "heavy_min"])
    def test_pair_at_exactly_tau_is_kept(self, mode):
        # tau set to one pair's distance, so a prefilter without a
        # rounding allowance could drop the pair
        for seed in range(20):
            rng = np.random.default_rng(seed)
            structure = random_structure(rng, 1, max_residues=12)
            chain, residues = structure.chains[0]
            a, b = residues[0], residues[-1]
            tau = residue_distance(a, b, mode)
            if tau == 0:
                continue
            config = ContactConfig(threshold_tau=tau, mode=mode, min_seq_separation=0)
            got = assert_matches_reference(structure, config)
            pair = ((chain, a.seq_index), (chain, b.seq_index))
            assert [i.distance for i in got if i.residues == pair] == [tau]
        exact = ca_structure([("A", "A", 1, (0, 0, 0)), ("A", "G", 9, (3, 4, 0))])
        (inst,) = extract_instances(exact, ContactConfig(threshold_tau=5.0))
        assert inst.distance == 5.0

    def test_missing_ca_without_partner_is_ignored(self):
        # seq 1 lacks a CA but is within the separation minimum of every
        # other residue, so no candidate pair needs its CA
        spec = [("A", "A", 2, (0, 0, 0)), ("A", "G", 3, (2, 0, 0))]
        structure = ca_structure(spec)
        lone = Residue("V", 1, ("CB",), np.zeros((1, 3)))
        structure.chains[0][1].insert(0, lone)
        config = ContactConfig(min_seq_separation=3)
        assert assert_matches_reference(structure, config) == []

    @pytest.mark.parametrize("cross_chain", [False, True])
    def test_missing_ca_message_matches_reference(self, cross_chain):
        # A10 lacks a CA and has a partner only across chains; B2 lacks
        # one and has partner B9 within its chain. The error names the
        # first CA-less residue, in flat order, that has a partner.
        def without_ca(code, seq):
            return Residue(code, seq, ("CB",), np.ones((1, 3)))

        def with_ca(code, seq, x):
            return Residue(code, seq, ("CA",), np.full((1, 3), x))

        structure = ProteinStructure(
            id="holes",
            chains=[
                ("A", [without_ca("A", 10), with_ca("G", 11, 0.0)]),
                ("B", [with_ca("L", 1, 1.0), without_ca("V", 2), with_ca("W", 9, 2.0)]),
            ],
        )
        config = ContactConfig(cross_chain=cross_chain)
        with pytest.raises(MissingAtom) as want:
            reference_extract(structure, config, Scorer())
        with pytest.raises(MissingAtom) as got:
            extract_instances(structure, config, Scorer())
        assert str(got.value) == str(want.value)
        assert str(got.value) == (
            "residue 10 has no CA atom" if cross_chain else "residue 2 has no CA atom"
        )

    @pytest.mark.parametrize("mode", ["c_alpha", "centroid"])
    def test_point_not_a_number_raises_like_reference(self, mode):
        spec = [
            ("A", "A", 1, (0, 0, 0)),
            ("A", "G", 5, (0, np.nan, 0)),
            ("A", "V", 9, (4, 0, 0)),
        ]
        structure = ca_structure(spec)
        with pytest.raises(MissingAtom) as want:
            reference_extract(structure, ContactConfig(mode=mode), Scorer())
        with pytest.raises(MissingAtom) as got:
            extract_instances(structure, ContactConfig(mode=mode))
        assert str(got.value) == str(want.value) == "residue 5 has no CA atom"

    def test_all_missing_ca_heavy_min_and_centroid(self):
        # only c_alpha reads the CA; the other modes use every atom
        rng = np.random.default_rng(11)
        structure = random_structure(rng, 2, max_residues=20, ca=False)
        for mode in ("centroid", "heavy_min"):
            config = ContactConfig(mode=mode, cross_chain=True)
            assert assert_matches_reference(structure, config)
        with pytest.raises(MissingAtom):
            extract_instances(structure, ContactConfig(cross_chain=True))


def residue(code, seq, x):
    return Residue(code, seq, ("CA",), np.array([[x, 0.0, 0.0]]))


class TestArrayPath:
    """Class codes, residue-key ranks and the stable sort of
    extract_instances against the reference's loop and sort."""

    def test_repeated_keys_keep_row_major_order(self):
        # chain A repeats seq 1 within itself and is listed twice, so four
        # pairs share the key ((A, 1), (A, 9)); they must keep the order
        # the pair search found them in, not their distance or class order
        structure = ProteinStructure(
            id="ties",
            chains=[
                ("A", [residue("A", 9, 0), residue("G", 1, 1), residue("V", 1, 2)]),
                ("A", [residue("L", 9, 3)]),
            ],
        )
        got = assert_matches_reference(structure, ContactConfig(min_seq_separation=0))
        assert [(i.interaction_class.render(), i.distance) for i in got] == [
            ("G-V", 1.0),
            ("A-G", 1.0),
            ("A-V", 2.0),
            ("G-L", 2.0),
            ("L-V", 1.0),
            ("A-L", 3.0),
        ]

    @pytest.mark.parametrize("mode", ["c_alpha", "centroid", "heavy_min"])
    def test_random_repeated_keys(self, mode):
        # every chain renamed A and sequence numbers folded onto 0-3, so
        # most keys repeat, within a chain and across chains
        tied = 0
        for seed in range(10):
            rng = np.random.default_rng([seed, 23])
            structure = random_structure(rng, int(rng.integers(1, 4)), max_residues=20)
            structure.chains = [("A", residues) for _, residues in structure.chains]
            for _, res in structure.residues():
                res.seq_index %= 4
            config = ContactConfig(mode=mode, min_seq_separation=int(rng.integers(0, 2)))
            got = assert_matches_reference(structure, config, random_scorer(rng))
            tied += len(got) - len({i.residues for i in got})
        assert tied > 100

    def test_nonstandard_code_in_contact_raises_like_reference(self):
        # two pairs hold a nonstandard code; the first in row-major order
        # (X with A) is named, not the first in residue order (Z with G)
        spec = [
            ("A", "X", 30, (0, 0, 0)),
            ("A", "A", 1, (1, 0, 0)),
            ("A", "Z", 10, (100, 0, 0)),
            ("A", "G", 5, (101, 0, 0)),
        ]
        structure = ca_structure(spec)
        with pytest.raises(ValueError) as want:
            reference_extract(structure, ContactConfig(), Scorer())
        with pytest.raises(ValueError) as got:
            extract_instances(structure, ContactConfig())
        assert str(got.value) == str(want.value)
        assert str(got.value) == "not standard residue codes: 'X', 'A'"

    def test_nonstandard_code_without_partner_is_ignored(self):
        spec = [("A", "A", 1, (0, 0, 0)), ("A", "G", 5, (1, 0, 0)), ("A", "X", 9, (50, 0, 0))]
        got = assert_matches_reference(ca_structure(spec), ContactConfig())
        assert [i.interaction_class.render() for i in got] == ["A-G"]

    @pytest.mark.parametrize("mode", ["c_alpha", "centroid", "heavy_min"])
    def test_empty_contact_set(self, mode):
        config = ContactConfig(mode=mode)
        far = [("A", "A", 1, (0, 0, 0)), ("A", "G", 9, (50, 0, 0))]
        assert assert_matches_reference(ca_structure(far), config) == []
        assert assert_matches_reference(ca_structure(far[:1]), config) == []
        assert assert_matches_reference(ProteinStructure("none", []), config) == []


MODES = ("c_alpha", "centroid", "heavy_min")
# FOLDVOTE_FUZZ_SCALE (a positive integer, default 1) multiplies the
# seeded structures of the coordinate differential
SCALE = int(os.environ.get("FOLDVOTE_FUZZ_SCALE", "1"))


def reference_points(flat, mode):
    """The per-residue loop that _points replaced: (sizes, reps, radii,
    atoms_i, atoms_j), each residue's point, radius and padded atoms
    taken from its own xyz."""
    n = len(flat)
    sizes = np.array([len(res.xyz) for _, res in flat])
    reps = np.full((n, 3), np.nan)
    for k, (_, res) in enumerate(flat):
        point = res.atom("CA") if mode == "c_alpha" else res.xyz.mean(axis=0)
        if point is not None:
            reps[k] = point
    if mode != "heavy_min":
        return sizes, reps, None, None, None
    radii = np.array(
        [np.sqrt(((res.xyz - c) ** 2).sum(axis=1)).max() for (_, res), c in zip(flat, reps)]
    )
    atoms_i = np.full((3, n, sizes.max()), np.inf)
    atoms_j = np.full((3, n, sizes.max()), -np.inf)
    for k, (_, res) in enumerate(flat):
        atoms_i[:, k, : len(res.xyz)] = atoms_j[:, k, : len(res.xyz)] = res.xyz.T
    return sizes, reps, radii, atoms_i, atoms_j


def assert_bitwise(got, want):
    # tobytes tells -0.0 from 0.0, which == and array_equal do not
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def random_coordinates(rng, k):
    """k atoms spread about a point by 1e-3 to 1e3, some rounded to the
    PDB's three decimals, some zeros of either sign, and now and then a
    column of -0.0 alone, whose mean is +0.0."""
    xyz = rng.normal(rng.uniform(-50, 50, 3), 10.0 ** rng.integers(-3, 4), (k, 3))
    if rng.random() < 0.5:
        xyz = xyz.round(3)
    xyz[rng.random((k, 3)) < 0.1] = 0.0
    xyz[rng.random((k, 3)) < 0.1] = -0.0
    if rng.random() < 0.2:
        xyz[:, int(rng.integers(3))] = -0.0
    return xyz


def random_atoms(rng):
    """1 to 20 atom names, a CA among them now and then twice, or not at all."""
    k = int(rng.integers(1, 21))
    names = [f"C{i}" for i in range(k)]
    for _ in range(int(rng.integers(0, 3))):
        names[int(rng.integers(k))] = "CA"
    return tuple(names)


def parsed_chain(rng, chain):
    """PDB text of one chain of 1 to 8 residues of random atoms, their
    coordinates clipped to what the fixed columns hold."""
    lines = []
    for seq in range(1, int(rng.integers(2, 10))):
        names = random_atoms(rng)
        xyz = random_coordinates(rng, len(names)).clip(-999, 9999)
        for name, (x, y, z) in zip(names, xyz):
            lines.append(atom_line(len(lines) + 1, f" {name:<3}", "ALA", chain, seq, x, y, z))
    return "\n".join(lines)


def mixed_structure(rng):
    """A parsed structure of one to three chains, with residues built by
    hand inserted into its chains and a chain built by hand appended."""
    chains = "ABC"[: int(rng.integers(1, 4))]
    structure = parse_pdb("\n".join(parsed_chain(rng, c) for c in chains), "mixed")
    built = []
    for seq in range(100, 100 + int(rng.integers(1, 8))):
        names = random_atoms(rng)
        built.append(Residue("G", seq, names, random_coordinates(rng, len(names))))
    for res in built[::2]:
        _, residues = structure.chains[int(rng.integers(len(structure.chains)))]
        residues.insert(int(rng.integers(len(residues) + 1)), res)
    structure.chains.append(("Z", built[1::2]))
    return structure


class TestJoinedCoordinates:
    """The per-residue arrays of the pair search, built from one joined
    coordinate array, against the per-residue loop they replaced, to the
    bit; and the parser's one array per structure."""

    @pytest.mark.parametrize("mode", MODES)
    def test_points_match_per_residue_loop(self, mode):
        negative_zero_columns = 0
        for seed in range(10 * SCALE):
            structure = mixed_structure(np.random.default_rng([seed, 35]))
            flat = structure.residues()
            got, want = _points(flat, mode), reference_points(flat, mode)
            for g, w in zip(got, want):
                assert_bitwise(g, w)
            negative_zero_columns += sum(
                bool(np.signbit(res.xyz).all(axis=0).any()) for _, res in flat
            )
        # columns of -0.0 alone, where starting a sum at the first atom
        # instead of +0.0 would give a centroid of -0.0
        assert negative_zero_columns > 5

    def test_residues_of_one_parsed_structure_share_one_array(self):
        structure = mixed_structure(np.random.default_rng(35))
        parsed = [
            res
            for chain, residues in structure.chains
            if chain != "Z"
            for res in residues
            if res.one_letter_code == "A"
        ]
        assert len(parsed) > 1
        base = parsed[0].xyz.base
        assert base is not None
        for res in parsed:
            assert res.xyz.base is base
            assert res.xyz.shape == (len(res.atoms), 3)
            assert res.xyz.dtype == np.float64
            assert res.xyz.flags.c_contiguous
        # a view: writing to a residue's rows writes the shared array
        parsed[-1].xyz[-1, -1] = 12345.5
        assert base[-1] == 12345.5

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "atoms,xyz,shape",
        [
            ((), np.array([]), "(0,)"),
            (("CB", "CA"), np.zeros((1, 3)), "(1, 3)"),
            (("CA",), np.zeros((2, 3)), "(2, 3)"),
            (("CA",), np.zeros((1, 2)), "(1, 2)"),
        ],
    )
    def test_coordinates_must_match_atom_names(self, mode, atoms, xyz, shape):
        # rows are found by count, so a short residue would read its
        # neighbour's rows as its own
        chain = [residue("A", 1, 0.0), Residue("G", 5, atoms, xyz), residue("V", 9, 7.0)]
        structure = ProteinStructure("odd", [("A", chain)])
        with pytest.raises(ValueError) as got:
            extract_instances(structure, ContactConfig(mode=mode))
        assert str(got.value) == (
            f"residue 5 has {len(atoms)} atom names but coordinates of shape {shape}"
        )


class TestEmptyResidue:
    """A residue without atoms, which only a caller can build, raises
    MissingAtom in every mode when it has a candidate partner and is
    ignored when it has none, wherever it stands."""

    MESSAGE = {
        "c_alpha": "residue 100 has no CA atom",
        "centroid": "residue 100 has no CA atom",
        "heavy_min": "residue 100 has no atoms",
    }

    @staticmethod
    def chain():
        spec = [("A", 10, 0.0), ("G", 20, 3.0), ("V", 30, 6.0), ("L", 40, 9.0)]
        return [residue(code, seq, x) for code, seq, x in spec]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("place", [0, 2, 4])
    def test_with_a_partner_raises(self, mode, place):
        residues = self.chain()
        residues.insert(place, Residue("W", 100, (), np.empty((0, 3))))
        structure = ProteinStructure("empty", [("A", residues)])
        with pytest.raises(MissingAtom) as got:
            extract_instances(structure, ContactConfig(mode=mode))
        assert str(got.value) == self.MESSAGE[mode]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("place", [0, 1, 2])
    def test_without_a_partner_is_ignored(self, mode, place):
        # alone in its chain, with cross-chain pairs off
        chains = [("A", self.chain()), ("B", self.chain()[:2])]
        with_empty = chains.copy()
        with_empty.insert(place, ("E", [Residue("W", 100, (), np.empty((0, 3)))]))
        config = ContactConfig(mode=mode)
        want = assert_matches_reference(ProteinStructure("s", chains), config)
        assert want
        assert extract_instances(ProteinStructure("s", with_empty), config) == want


class TestInstanceContract:
    def setup_method(self):
        self.cls = InteractionClass.of("V", "A")
        self.fields = ("p", self.cls, (("A", 1), ("B", 2)), 4.5, -1.0)
        self.inst = InteractionInstance(
            protein_id="p",
            interaction_class=self.cls,
            residues=(("A", 1), ("B", 2)),
            distance=4.5,
            score=-1.0,
        )

    def test_repr(self):
        assert repr(self.inst) == (
            "InteractionInstance(protein_id='p', "
            "interaction_class=InteractionClass(first='A', second='V'), "
            "residues=(('A', 1), ('B', 2)), distance=4.5, score=-1.0)"
        )

    def test_hash_and_equality_are_the_fields_tuple(self):
        assert hash(self.inst) == hash(tuple(self.fields))
        assert self.inst == InteractionInstance(*self.fields)
        assert self.inst != InteractionInstance(*self.fields[:4], 1.0)
        # a named tuple: equal to the plain tuple of its fields
        assert self.inst == self.fields

    @pytest.mark.parametrize("name", ["protein_id", "score", "residues"])
    def test_fields_are_read_only(self, name):
        with pytest.raises(AttributeError):
            setattr(self.inst, name, None)


def table_csv(value_fn):
    letters = sorted(ONE_LETTER)
    lines = ["," + ",".join(letters)]
    for a in letters:
        lines.append(a + "," + ",".join(str(value_fn(a, b)) for b in letters))
    return "\n".join(lines) + "\n"


class TestScorerValidation:
    def test_the_table_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(Scorer)] == ["table"]

    def test_no_table_counts_each_contact_once(self):
        cls = InteractionClass.of("G", "A")
        assert Scorer().score(cls) == Scorer(None).score(cls) == 1.0

    @pytest.mark.parametrize("by_keyword", [False, True])
    def test_a_given_table_is_scored(self, by_keyword):
        # a table given by keyword used to be ignored: the scorer's kind
        # defaulted to unit counting and scored every class 1.0
        values = np.arange(400.0).reshape(20, 20)
        scorer = Scorer(table=values) if by_keyword else Scorer(values)
        for cls in class_universe():
            want = values[LETTER_INDEX[cls.first], LETTER_INDEX[cls.second]]
            assert scorer.score(cls) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_table_must_be_finite(self, bad):
        # a NaN table used to score NaN into contact CSVs
        table = np.zeros((20, 20))
        table[3, 7] = table[7, 3] = bad
        with pytest.raises(
            ValueError, match=r"^table has a non-finite entry \(nan, inf or -inf\)$"
        ):
            Scorer(table)

    def test_table_given_as_nested_lists(self):
        # score indexes the table as an array; a list of lists used to
        # raise a bare TypeError there
        values = np.arange(400.0).reshape(20, 20)
        as_lists = Scorer(values.tolist())
        cls = InteractionClass.of("G", "A")
        assert as_lists.score(cls) == Scorer(values).score(cls) == 5.0

    @pytest.mark.parametrize("shape", [(3, 3), (20,), (20, 21), (21, 20), (400,)])
    def test_table_must_be_20_by_20(self, shape):
        # a 3x3 table used to raise a bare IndexError from score
        want = re.escape(f"table must be 20x20, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{want}$"):
            Scorer(np.zeros(shape))


class TestScoreTable:
    def test_symmetric_lookup(self):
        text = table_csv(lambda a, b: ord(a) + ord(b))
        scorer = parse_score_table(text, negate=False)
        av = scorer.score(InteractionClass.of("A", "V"))
        va = scorer.score(InteractionClass.of("V", "A"))
        assert av == va == ord("A") + ord("V")

    def test_negate_default(self):
        text = table_csv(lambda a, b: 2.5)
        scorer = parse_score_table(text)
        assert scorer.score(InteractionClass.of("A", "V")) == -2.5

    def test_a_negated_zero_scores_minus_zero(self):
        # the scorer holds the negated table, so a zero entry scores -0.0
        # as negating its score did
        text = table_csv(lambda a, b: 0.0)
        cls = InteractionClass.of("A", "V")
        negated = parse_score_table(text).score(cls)
        kept = parse_score_table(text, negate=False).score(cls)
        assert (math.copysign(1.0, negated), math.copysign(1.0, kept)) == (-1.0, 1.0)

    def test_missing_row(self):
        text = table_csv(lambda a, b: 1.0)
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(BadTable):
            parse_score_table(truncated)

    def test_asymmetric(self):
        text = table_csv(lambda a, b: 1.0 if a <= b else 2.0)
        with pytest.raises(BadTable):
            parse_score_table(text)

    def test_bad_header(self):
        text = table_csv(lambda a, b: 0.0).replace(",A,", ",B,", 1)
        with pytest.raises(BadTable):
            parse_score_table(text)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_entry(self, cell):
        text = table_csv(lambda a, b: cell if (a, b) == ("A", "G") else 1.0)
        with pytest.raises(BadTable, match=r"non-finite entry \(nan, inf or -inf\)"):
            parse_score_table(text)

    def test_opposite_infinities(self):
        # inf - (-inf) is NaN, which no asymmetry bound catches
        cells = {("A", "G"): "inf", ("G", "A"): "-inf"}
        text = table_csv(lambda a, b: cells.get((a, b), 1.0))
        with pytest.raises(BadTable, match="non-finite entry"):
            parse_score_table(text)

    def test_opposite_extremes_are_asymmetric(self):
        # 1e308 - (-1e308) overflows to inf, which used to warn on the way
        cells = {("A", "G"): "1e308", ("G", "A"): "-1e308"}
        text = table_csv(lambda a, b: cells.get((a, b), 1.0))
        with pytest.raises(BadTable, match="^table is asymmetric beyond 1e-9$"):
            parse_score_table(text)

    def test_bare_carriage_return(self):
        # the CSV reader's own error used to escape as csv.Error
        text = table_csv(lambda a, b: 1.0).replace(",1.0,", ",1\r0,", 1)
        with pytest.raises(BadTable, match="^unreadable table CSV: new-line character"):
            parse_score_table(text)

    @pytest.mark.parametrize("text", ["", "\n , ,\n"])
    def test_empty(self, text):
        with pytest.raises(BadTable, match="^empty table$"):
            parse_score_table(text)

    def test_repeated_row_label(self):
        text = table_csv(lambda a, b: 1.0).replace("\nC,", "\nA,", 1)
        with pytest.raises(BadTable, match="^bad or repeated row label 'A'$"):
            parse_score_table(text)

    def test_short_row(self):
        lines = table_csv(lambda a, b: 1.0).splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        with pytest.raises(BadTable, match="^row A has 19 values, expected 20$"):
            parse_score_table("\n".join(lines))

    def test_non_numeric_cell(self):
        text = table_csv(lambda a, b: "x" if (a, b) == ("C", "D") else 1.0)
        with pytest.raises(BadTable, match="^non-numeric value in row C$"):
            parse_score_table(text)

    def test_extract_with_table(self):
        text = table_csv(lambda a, b: 3.0)
        scorer = parse_score_table(text)  # negate=True
        s = ca_structure(FOUR_RESIDUE)
        inst = extract_instances(s, ContactConfig(), scorer)
        assert all(i.score == -3.0 for i in inst)


class TestCsvRoundTrip:
    def test_roundtrip(self):
        s = ca_structure(FOUR_RESIDUE)
        inst = extract_instances(s, ContactConfig(), Scorer())
        text = instances_to_csv(inst)
        back = instances_from_csv(text)
        assert [
            (i.protein_id, i.interaction_class, i.residues, i.distance, i.score)
            for i in back
        ] == [
            (i.protein_id, i.interaction_class, i.residues, i.distance, i.score)
            for i in inst
        ]

    def test_bad_header_rejected(self):
        with pytest.raises(MalformedContacts, match="bad instance CSV header"):
            instances_from_csv("wrong,header\n1,2\n")

    @pytest.mark.parametrize(
        "text,line",
        [
            (CSV_HEADER.replace("chain_i", "ch\rain_i") + "\n", 1),
            (f"{CSV_HEADER}\np,A-G,A,1,A,4,5.0,1.0\n\np,A-G,A\r,1,A,4,5.0,1.0\n", 4),
        ],
    )
    def test_bare_carriage_return_rejected(self, text, line):
        # the CSV reader's own error used to escape as a bare csv.Error
        with pytest.raises(MalformedContacts, match=f"^line {line}: new-line "):
            instances_from_csv(text)

    @pytest.mark.parametrize(
        "pid", ["a,b", '"q"', "two\nlines", 'x,"y"\nz', "a\rb", "cr\r\nlf", '"\r"']
    )
    def test_ids_with_commas_quotes_and_newlines_read_back(self, pid):
        # ids were joined unquoted: a comma split the row, and a quoted id
        # read back without its quotes; a bare carriage return was written
        # unquoted and ended the row
        inst = extract_instances(
            ca_structure(FOUR_RESIDUE, pid), ContactConfig(), Scorer()
        )
        assert inst and all(i.protein_id == pid for i in inst)
        assert instances_from_csv(instances_to_csv(inst)) == inst

    def test_numpy_numbers_print_as_python_numbers(self):
        # a numpy float used to print as np.float64(4.25)
        inst = InteractionInstance(
            "p",
            InteractionClass.parse("A-G"),
            (("A", np.int64(1)), ("A", np.int64(4))),
            np.float64(4.25),
            np.float64(-1.5),
        )
        text = instances_to_csv([inst])
        assert text.splitlines()[1] == "p,A-G,A,1,A,4,4.25,-1.5"
        assert instances_from_csv(text) == [inst]

    def test_a_row_holding_a_carriage_return_is_quoted(self):
        inst = InteractionInstance(
            "a\rb", InteractionClass.parse("A-G"), (("A", 1), ("A", 4)), 4.25, -1.5
        )
        text = instances_to_csv([inst])
        assert text == f'{CSV_HEADER}\n"a\rb","A-G","A","1","A","4","4.25","-1.5"\n'
        assert instances_from_csv(text) == [inst]

    def test_plain_rows_are_unquoted(self):
        residues = ((" ", -3), ("B", 10))
        inst = InteractionInstance(
            "1abc_x", InteractionClass.parse("C-W"), residues, 0.1 + 0.2, 1e-7
        )
        assert instances_to_csv([inst]) == (
            f"{CSV_HEADER}\n1abc_x,C-W, ,-3,B,10,0.30000000000000004,1e-07\n"
        )
