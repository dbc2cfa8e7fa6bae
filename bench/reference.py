"""Benchmark-side reference results, computed independently of foldvote.

The structure references follow the parse semantics documented in
foldvote.pdb: ATOM records of the first model only, altloc blank or A,
nonstandard residues dropped, insertion codes ignored and a duplicated
(chain, resSeq) keeping its first occurrence. The rule references count
pairwise preferences and sum scores with numpy.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

THREE_TO_ONE = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}


class RefStructure:
    """Residues as the documented semantics keep them."""

    def __init__(self, text: str):
        owners: dict[tuple[str, int], tuple[str, str]] = {}
        atoms: dict[tuple[str, int], list[tuple[str, list[float]]]] = {}
        chain_order: list[str] = []
        self.atom_records = 0
        for line in text.splitlines():
            if line.startswith("ENDMDL"):
                break
            if not line.startswith("ATOM"):
                continue
            if line[16:17] not in (" ", "A", ""):
                continue
            key = (line[21:22], int(line[22:26]))
            who = (line[26:27], line[17:20].strip())
            owner = owners.setdefault(key, who)
            if owner != who:
                continue
            if who[1] not in THREE_TO_ONE:
                continue
            if key[0] not in chain_order:
                chain_order.append(key[0])
            xyz = [float(line[30:38]), float(line[38:46]), float(line[46:54])]
            atoms.setdefault(key, []).append((line[12:16].strip(), xyz))
            self.atom_records += 1
        self.keys = [
            k
            for chain in chain_order
            for k in sorted(k for k in atoms if k[0] == chain)
        ]
        self.letters = [THREE_TO_ONE[owners[k][1]] for k in self.keys]
        self.atoms = [np.array([a[1] for a in atoms[k]]) for k in self.keys]
        self.ca = np.array(
            [next(xyz for name, xyz in atoms[k] if name == "CA") for k in self.keys]
        )
        self.centroids = np.array([a.mean(axis=0) for a in self.atoms])
        self.flat_atoms = np.concatenate(self.atoms)
        self.atom_starts = np.cumsum([0] + [len(a) for a in self.atoms[:-1]])

    def candidate_mask(self, min_sep: int, cross_chain: bool) -> np.ndarray:
        """Upper-triangle mask of pairs the sequence/chain predicates allow."""
        chains = np.array([k[0] for k in self.keys])
        seqs = np.array([k[1] for k in self.keys])
        same = chains[:, None] == chains[None, :]
        far = np.abs(seqs[:, None] - seqs[None, :]) >= min_sep
        allowed = np.where(same, far, cross_chain)
        return np.triu(allowed, k=1)

    def distance_rows(self, mode: str, lo: int, hi: int) -> np.ndarray:
        """Distances from residues lo..hi-1 to every residue; computed a
        block at a time so the reference adds little to peak memory."""
        if mode in ("c_alpha", "centroid"):
            reps = self.ca if mode == "c_alpha" else self.centroids
            diff = reps[lo:hi, None, :] - reps[None, :, :]
            return np.sqrt((diff**2).sum(axis=2))
        rows = []
        for i in range(lo, hi):
            diff = self.atoms[i][:, None, :] - self.flat_atoms[None, :, :]
            nearest = np.sqrt((diff**2).sum(axis=2)).min(axis=0)
            rows.append(np.minimum.reduceat(nearest, self.atom_starts))
        return np.array(rows)

    def contacts(self, mode: str, tau: float, min_sep: int, cross_chain: bool):
        """Sorted (key_i, key_j, class label, distance) for every contact,
        plus the number of candidate pairs examined."""
        mask = self.candidate_mask(min_sep, cross_chain)
        out = []
        for lo in range(0, len(self.keys), 128):
            hi = min(lo + 128, len(self.keys))
            dist = self.distance_rows(mode, lo, hi)
            ii, jj = np.nonzero(mask[lo:hi] & (dist <= tau))
            for i, j in zip(ii.tolist(), jj.tolist()):
                a, b = sorted((self.letters[lo + i], self.letters[j]))
                first, second = sorted((self.keys[lo + i], self.keys[j]))
                out.append((first, second, f"{a}-{b}", float(dist[i, j])))
        out.sort(key=lambda c: (c[0], c[1]))
        return out, int(mask.sum())


def pair_values(pos: np.ndarray) -> np.ndarray:
    """v[k, i, j] = 1 if individual k ranks i above j, 1/2 on a tie, else 0.
    `pos` holds tier indices, lower is better."""
    return (np.sign(pos[:, None, :] - pos[:, :, None]) + 1) / 2


def majority_relation(pos: np.ndarray) -> np.ndarray:
    """Weak majority relation from strict pairwise counts."""
    wins = np.zeros((pos.shape[1], pos.shape[1]), dtype=np.int64)
    for row in pos:
        wins += row[:, None] < row[None, :]
    rel = wins >= wins.T
    np.fill_diagonal(rel, True)
    return rel


def is_transitive(rel: np.ndarray) -> bool:
    r = rel.astype(np.int64)
    return not ((r @ r > 0) & ~rel).any()


def borda_scores(pos: np.ndarray) -> np.ndarray:
    """Classes strictly below, ties sharing the midpoint, summed."""
    n, m = pos.shape
    total = np.zeros(m)
    for row in pos:
        sizes = np.bincount(row)
        through = np.cumsum(sizes)
        total += (m - through[row]) + (sizes[row] - 1) / 2.0
    return total


def tiers_by_score(scores) -> list[list[int]]:
    groups: dict[float, list[int]] = {}
    for idx, s in enumerate(np.asarray(scores).tolist()):
        groups.setdefault(s, []).append(idx)
    return [groups[s] for s in sorted(groups, reverse=True)]


def kemeny_order(pos: np.ndarray) -> tuple[int, ...]:
    """First order, in permutation order, of least total tie-aware
    Kendall distance to the profile."""
    m = pos.shape[1]
    disagree = (1 - pair_values(pos)).sum(axis=0)  # cost of ranking i over j
    perms = np.array(list(permutations(range(m))))
    rank = np.argsort(perms, axis=1)
    cost = np.zeros(len(perms))
    for i in range(m):
        for j in range(i + 1, m):
            before = rank[:, i] < rank[:, j]
            cost += np.where(before, disagree[i, j], disagree[j, i])
    return tuple(perms[int(np.argmin(cost))].tolist())


def kendall_total(pos_a: np.ndarray, pos_b: np.ndarray) -> float:
    m = pos_a.shape[1]
    upper = np.triu(np.ones((m, m), dtype=bool), k=1)
    diff = np.abs(pair_values(pos_a) - pair_values(pos_b))
    return float(diff[:, upper].sum())


def first_single_peaked_axis(pos: np.ndarray) -> tuple[int, ...] | None:
    """First axis, in permutation order of class indices, along which
    every strict ranking rises to one peak and then falls."""
    m = pos.shape[1]
    perms = np.array(list(permutations(range(m))))
    heights = -pos[:, perms]  # (n, perms, m): higher is preferred
    steps = np.diff(heights, axis=2)
    fell = np.maximum.accumulate(steps < 0, axis=2)
    valley = (fell[:, :, :-1] & (steps[:, :, 1:] > 0)).any(axis=(0, 2))
    ok = np.flatnonzero(~valley)
    return tuple(perms[ok[0]].tolist()) if ok.size else None
