"""ingest: seeded synthetic structures through parse -> contacts ->
utility -> ranking, one structure per operation.

pdb, contacts and preferences do almost all of the work here and none
anywhere else. Chain sizes run from 25 to over 1000 residues, so a
contacts change that helps long chains (op_ms_tail) but costs short ones
(op_ms_p50) shows on both metrics.
"""

from __future__ import annotations

from functools import partial

import gen
from core import Op
from reference import RefStructure, tiers_by_score

IMPORTS = ("foldvote.pdb", "foldvote.contacts", "foldvote.preferences")

TAU = 8.0
MIN_SEP = 3


class Ingest:
    name = "ingest"
    calibration = "tuple"
    imports = IMPORTS

    def setup(self, seed: int, tracer) -> None:
        from foldvote.contacts import class_universe

        self.texts = gen.corpus(seed)
        self.universe = class_universe(include_homopairs=True)
        self.refs: dict[int, tuple] = {}

    def ops(self) -> list[Op]:
        out = []
        for slot, (n_res, mode, _chains, _ins, _models) in enumerate(gen.CORPUS):
            out.append(
                Op(
                    label=f"{mode}.{n_res}",
                    run=partial(self._run, slot),
                    check=partial(self._check, slot),
                )
            )
        return out

    def _config(self, slot: int):
        from foldvote.contacts import ContactConfig

        _n, mode, chains, _ins, _models = gen.CORPUS[slot]
        return ContactConfig(
            threshold_tau=TAU,
            mode=mode,
            min_seq_separation=MIN_SEP,
            cross_chain=chains > 1,
        )

    def _run(self, slot: int, tr):
        from foldvote.contacts import extract_instances
        from foldvote.pdb import parse_pdb
        from foldvote.preferences import ordinal_from_utility, utility_from_instances

        config = self._config(slot)
        with tr.span("pdb.parse"):
            structure = parse_pdb(self.texts[slot], f"s{slot:02d}")
        with tr.span(f"contacts.{config.mode}"):
            instances = extract_instances(structure, config)
        with tr.span("preferences.utility"):
            utility = utility_from_instances(instances, self.universe)
        with tr.span("preferences.ordinal"):
            ranking = ordinal_from_utility(utility)
        if tr.enabled:
            tr.count("pdb.atoms", sum(len(r.atoms) for _, r in structure.residues()))
            tr.count("contacts.instances", len(instances))
        return instances, utility, ranking

    def _reference(self, slot: int) -> tuple:
        ref = self.refs.get(slot)
        if ref is None:
            config = self._config(slot)
            structure = RefStructure(self.texts[slot])
            contacts, candidates = structure.contacts(
                config.mode, TAU, MIN_SEP, config.cross_chain
            )
            index = {c.render(): k for k, c in enumerate(self.universe)}
            counts = [0.0] * len(self.universe)
            for _a, _b, label, _d in contacts:
                counts[index[label]] += 1.0
            ref = (structure, contacts, candidates, counts, tiers_by_score(counts))
            self.refs[slot] = ref
        return ref

    def _check(self, slot: int, out, tr) -> str | None:
        instances, utility, ranking = out
        _structure, contacts, candidates, counts, tiers = self._reference(slot)
        if tr.enabled:
            tr.count("contacts.candidate_pairs", candidates)
        got = [
            (i.residues[0], i.residues[1], i.interaction_class.render(), i.distance)
            for i in instances
        ]
        if len(got) != len(contacts) or any(
            g[:3] != r[:3] or abs(g[3] - r[3]) > 1e-9 for g, r in zip(got, contacts)
        ):
            return "contacts.mismatch"
        if utility.as_list() != counts:
            return "preferences.utility_mismatch"
        rank = {c: k for k, c in enumerate(self.universe)}
        if [[rank[c] for c in tier] for tier in ranking.tiers] != tiers:
            return "preferences.ranking_mismatch"
        return None

    def properties(self) -> dict:
        """Residues, atoms, contacts per residue and tie tiers of the
        corpus, as the documented parse semantics read it."""
        refs = [self._reference(slot) for slot in range(len(gen.CORPUS))]
        residues = sum(len(r[0].keys) for r in refs)
        contacts = sum(len(r[1]) for r in refs)
        return {
            "structures": len(refs),
            "residues": residues,
            "atoms": sum(r[0].atom_records for r in refs),
            "contacts_per_residue": round(2 * contacts / residues, 3),
            "tie_tiers_per_ranking": round(sum(len(r[4]) for r in refs) / len(refs), 3),
            "modes": {
                mode: sum(1 for spec in gen.CORPUS if spec[1] == mode)
                for mode in ("c_alpha", "centroid", "heavy_min")
            },
        }
