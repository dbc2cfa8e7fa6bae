"""Frozen command-line outputs: one sha256 per command of a fixed matrix.

Each digest covers the exit code, stdout with the report's `timestamp`
line removed, stderr, and the files the command writes (the `extract`
summary, with its `timestamp` line removed, and its CSVs). Usage errors
keep only the last line of stderr, since argparse's usage text varies
across Python versions. Commands run through cli.main in this process,
in a directory holding the bundled structure, a score table, a contact
CSV and three synthetic profiles, so every path in a report is relative.

A change that means to alter a command's output records the new digest
here with the reason.
"""

import hashlib
import io
import json
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from foldvote.cli import main
from foldvote.data import four_residue_pdb_path

TIMESTAMP = re.compile(r'\n  "timestamp": "[^"]*",')

AUDIT = ("audit",)
CASES = {
    # subcommands
    "extract.c_alpha": ("extract", "four_residue.pdb", "--out-dir", "out"),
    "extract.centroid": (
        "extract", "four_residue.pdb", "--out-dir", "out", "--mode", "centroid",
        "--tau", "6.5",
    ),
    "extract.heavy_min": (
        "extract", "four_residue.pdb", "--out-dir", "out", "--mode", "heavy_min",
        "--min-seq-separation", "1",
    ),
    "extract.table": (
        "extract", "four_residue.pdb", "--out-dir", "out", "--table", "table.csv",
    ),
    "extract.summary_dash": (
        "extract", "four_residue.pdb", "--out-dir", "out", "--summary-name", "-",
    ),
    "rank": ("rank", "contacts.csv"),
    "rank.hetero_mean": (
        "rank", "contacts.csv", "--universe", "hetero", "--combine", "mean",
        "--protein-id", "p1",
    ),
    "synth.condorcet": ("synth", "condorcet"),
    "synth.impartial": ("synth", "impartial_culture", "--m", "4", "--n", "5",
                        "--seed", "3"),
    "synth.single_peaked": ("synth", "single_peaked", "--m", "4", "--n", "5"),
    "aggregate.may": ("aggregate", "condorcet.json"),
    "aggregate.borda": ("aggregate", "impartial.json", "--rule", "borda"),
    "aggregate.kemeny": ("aggregate", "impartial.json", "--rule", "kemeny"),
    "aggregate.dictator": (
        "aggregate", "impartial.json", "--rule", "dictator", "--dictator-k", "2",
    ),
    "restrict.single_peaked": ("restrict", "single_peaked.json"),
    "restrict.condorcet": ("restrict", "condorcet.json", "--rule", "borda"),
    # audits
    "audit.exhaustive": AUDIT + (
        "--rule", "may", "--axioms", "transitivity,anonymity,neutrality,iia",
    ),
    "audit.sampled": AUDIT + (
        "--rule", "borda", "--axioms", "iia,positive_responsiveness",
        "--mode", "sampled", "--trials", "400", "--seed", "5",
    ),
    "audit.arrow": AUDIT + ("--rule", "borda", "--axioms", "arrow", "--n", "2"),
    "audit.may_coincidence_pass": AUDIT + (
        "--rule", "may", "--axioms", "may_coincidence", "--trials", "200",
    ),
    "audit.may_coincidence_fail": AUDIT + (
        "--rule", "borda", "--axioms", "may_coincidence", "--trials", "200",
    ),
    "audit.utility": AUDIT + (
        "--rule", "utilitarian", "--axioms", "utility_iia,strict_unanimity",
        "--n", "2",
    ),
    "audit.dictator": AUDIT + (
        "--rule", "dictator", "--dictator-k", "2", "--n", "2",
        "--axioms", "non_dictatorship,unrestricted_domain",
    ),
    "audit.continuity": AUDIT + (
        "--rule", "mean-direction", "--axioms", "continuity", "--m", "4",
        "--seed", "7", "--epsilon", "0.01",
    ),
    "audit.budget_refusal": AUDIT + (
        "--rule", "may", "--axioms", "transitivity,proximity_preservation",
        "--n", "5",
    ),
    # usage errors
    "usage.no_axioms": AUDIT + ("--axioms", ","),
    "usage.unknown_axiom": AUDIT + ("--axioms", "unanimity,nonsense"),
    "usage.continuity_needs_mean_direction": AUDIT + ("--axioms", "continuity"),
    "usage.mean_direction_needs_continuity": AUDIT + (
        "--rule", "mean-direction", "--axioms", "continuity,transitivity",
    ),
    "usage.missing_axioms": AUDIT,
    # input errors
    "input.trials_zero": AUDIT + ("--axioms", "unanimity", "--trials", "0"),
    "input.trials_zero_sampled": AUDIT + (
        "--axioms", "iia", "--mode", "sampled", "--trials", "0",
    ),
    "input.trials_zero_may_coincidence": AUDIT + (
        "--axioms", "may_coincidence", "--trials", "-1",
    ),
    "input.trials_zero_mean_direction": AUDIT + (
        "--rule", "mean-direction", "--axioms", "continuity", "--trials", "0",
    ),
    "input.n_one": AUDIT + ("--axioms", "arrow", "--n", "1"),
    "input.m_large": AUDIT + ("--axioms", "unanimity", "--m", "300", "--n", "2"),
    "input.mean_direction_m_one": AUDIT + (
        "--rule", "mean-direction", "--axioms", "continuity", "--m", "1",
    ),
    "input.mean_direction_epsilon": AUDIT + (
        "--rule", "mean-direction", "--axioms", "continuity", "--epsilon", "0.5",
    ),
    "input.dictator_k_beyond_n": AUDIT + (
        "--rule", "dictator", "--dictator-k", "9", "--axioms", "unrestricted_domain",
    ),
    "input.dictator_k_beyond_n_transitivity": AUDIT + (
        "--rule", "dictator", "--dictator-k", "9", "--axioms", "transitivity",
    ),
    "input.utility_axiom_ordinal_rule": AUDIT + ("--axioms", "utility_iia"),
    "input.missing_profile": ("aggregate", "missing.json"),
    "input.not_json": ("restrict", "contacts.csv"),
    "input.wrong_mode": ("aggregate", "condorcet.json", "--rule", "utilitarian"),
    "input.bad_header": ("rank", "bad_header.csv"),
    "input.bad_row": ("rank", "bad_row.csv"),
    "input.synth_size": ("synth", "condorcet", "--n", "4"),
    "input.extract_no_inputs": ("extract", "empty", "--out-dir", "out"),
    "input.extract_bad_table": (
        "extract", "four_residue.pdb", "--out-dir", "out", "--table", "contacts.csv",
    ),
}

DIGESTS = {
    "aggregate.borda": "78a994a77eb82526dad439a2843cb662fb4f88e0b4c01ec1c2862df31b7335d1",
    "aggregate.dictator": "b5f63d135ff146aa7ed61046f272cb9b05fb313b90400def17aed7c6b1db2c1d",
    "aggregate.kemeny": "f578e9138f6b0d237f349eca0423ca6f6c3369a0e8784adadc7ba4ab23812edd",
    "aggregate.may": "b8ec29c982ad958e609dd87a348c0374611ab8d26d70ebeb866efff59d24f768",
    "audit.arrow": "4937f06ffb4f18151d241106f84102fad4186652acd10db7c288b9975700e930",
    "audit.budget_refusal": "19db6ad3ef234769e2e7b1ce8554a249782c8539c03ee7bf737c882c09ac96ae",
    "audit.continuity": "0f98fb93cc4954f8420b447f28c19f0dd521f99a9eb6ca2a1614520a9c575b7c",
    "audit.dictator": "441934f50f995bddcd5a74ca78956b9df780747958c3318c7cfeea75214950dc",
    "audit.exhaustive": "9dd5b46f6c41c11cb21d4d5d431cf9c02f5a7ec6aefb61c0d173fb596fb71884",
    "audit.may_coincidence_fail": "11863ee90c47df90813564dd750bf4b44c8ecd12aad8fa9e111ac243bdd3c27a",
    "audit.may_coincidence_pass": "84c915dbd8055ba31a6a10ae12f6e7bdc1e9859f20848adcc20f9ec9287751dc",
    "audit.sampled": "c7a4b4682ff07954d386cda87146981b223c0c79467526094f33c8bf63a9b816",
    "audit.utility": "67e698b736573e8b7aac7315c7aac1aea1c6a3d2e938ef98852a1ff20e211013",
    "extract.c_alpha": "a17c6345a45193c4269f68ea3d5c8e9b18f29762d7cc335affe70708a79c430e",
    "extract.centroid": "c71cb148b975943230268e7acbd8bf0f6f4efc6d55fe10cdcb8b306d8db4e449",
    "extract.heavy_min": "8ef167615bc11162d01847600c3e9cb9df9e40e1d6cf79be5a13ebe2185e5f28",
    "extract.summary_dash": "6802dd7e614770fcb223570893e70180ddbcb73ded344efff3166dba740f6283",
    "extract.table": "53b17b2edabe5319e80895a8cc3f0b30fe32403a538b163fbaf4467626e9e3b0",
    # a wrong contact CSV header is MalformedContacts, not a bare ValueError
    "input.bad_header": "a61d66782b3df36655cb52482f2dc2d92cd64d19f4aa1e5d4468a313a4f1ba5e",
    "input.bad_row": "2123a3df4c1c661d6e8ef6821dccadecdfb25ac5a34f164faf907d9da9c2e4f6",
    # a dictator index outside 1..n is refused before any search, as it is
    # for transitivity, instead of reported as an unrestricted-domain fail
    "input.dictator_k_beyond_n": "e6331892e8e4659229e64ba1461e3a22269802daa67587b3d1e7aadc01432755",
    "input.dictator_k_beyond_n_transitivity": "e6331892e8e4659229e64ba1461e3a22269802daa67587b3d1e7aadc01432755",
    "input.extract_bad_table": "d86cd4b19848b705b9101dbb8f166d6730a03be5e282c59e4652150989117d49",
    "input.extract_no_inputs": "7926742a13874bb1e5c22fe2a8eb1ad7a65cb83cf1a943b1112667a045805230",
    "input.m_large": "b2b70c9269cd9d4f7e62d16556a1fda161773401a9760e5505c8b3f666d5d7c0",
    "input.mean_direction_epsilon": "d11c8cadcc9b0730ab78f0dcfe2bef9db9f3999e3d91b674f685fc3a4071c255",
    # a continuity request's m is checked as any audit's: BadSpec, not the
    # probe's ValueError
    "input.mean_direction_m_one": "a12e7f442a8e09eb68877574d88448d89d7c7a0660aed9dd3ac4d3ee5ea7b4d6",
    "input.missing_profile": "e4a6399e74cca63740673dbc6620a54e11a6bd1f06446e6ed508ae535b656a9e",
    "input.n_one": "22bc032de92f290a39a3fabdc4c0b0dfa7993538fb3185e36798eecf9b6fd305",
    "input.not_json": "106072b8076b84ff7fa01308c7a9fa303dadc66d014edeb521359aeb9c82a9d4",
    "input.synth_size": "9425e37612cde7342199119913fad6214db7184af819c7679a2faeb59dc5ac48",
    "input.trials_zero": "3916d24acfa9f94e27784b57f7a18854535e2bb5e9ea2312168a8d37699c0b9f",
    "input.trials_zero_may_coincidence": "42373fb83721c6a7c2be2a021c13bfa8ea1e04764080936b8e0e521341f7ae61",
    "input.trials_zero_mean_direction": "3916d24acfa9f94e27784b57f7a18854535e2bb5e9ea2312168a8d37699c0b9f",
    "input.trials_zero_sampled": "3916d24acfa9f94e27784b57f7a18854535e2bb5e9ea2312168a8d37699c0b9f",
    "input.utility_axiom_ordinal_rule": "4b1ec88abd418776e35e1419676aec928bde26bcacff7ada6370e0f6afa015a6",
    "input.wrong_mode": "0a5327cb452a2fb9695b5be8354ac0cca094bbc0cc10ebfb5f507792ba4a559c",
    "rank": "6d76c2717654b9d32616ea9a8e8186ffcdb1ae52acfe2981c695ad3c7ba45087",
    "rank.hetero_mean": "08c9d5c2d7df763c90442fa74f7e2321ba11fed39a13922edfd123f3eb871266",
    "restrict.condorcet": "ae6156d59ee71d1169c3c505585d5ddab673a2b49bcf5ac1d7768ba3b0006b3e",
    "restrict.single_peaked": "ad7f2e4ab624a47f4bba53e96e5d20d232291004fa21eecfd8698c1eed815ddd",
    "synth.condorcet": "19d5c4294f72030d5d8dc1b4b5979ecf010999c58ccc946a3e528a90f495b581",
    "synth.impartial": "7be8e2565a1841f5924beb1de8e2c3a02c905b7781a14ab57eb291dec571a11f",
    "synth.single_peaked": "b8326fdbd9a3b2a456374ba27d121210a54642808d86e7fb76b4af7b2d5eba71",
    "usage.continuity_needs_mean_direction": "760711dc16a3d3e497a41e316b08643c3105db5342f52f87a64db53420b8959f",
    "usage.mean_direction_needs_continuity": "cc0b850877deb400e5d4050d167ec260339ceb0f62776713c30ba2835e12e0a9",
    "usage.missing_axioms": "1cd8a681a2a2b9ffd25646c728dc2f1e8c724c1d2ab45f70fffb1dd169478730",
    "usage.no_axioms": "edef97ef9d4bf7ea4572355c7533908738461d04e0946e1d8bc817b20c205df1",
    "usage.unknown_axiom": "273ca64b833ec015da3158afc479135a49afa9da522965312d1775f3110cddc0",
}


def _table() -> str:
    letters = "ACDEFGHIKLMNPQRSTVWY"
    rows = ["," + ",".join(letters)]
    for i, a in enumerate(letters):
        rows.append(a + "," + ",".join(f"{(i + j) % 7 - 3}.5" for j in range(20)))
    return "\n".join(rows) + "\n"


def make_inputs(root: Path) -> None:
    """The inputs the matrix reads, made with the library and CLI."""
    shutil.copy(four_residue_pdb_path(), root / "four_residue.pdb")
    (root / "table.csv").write_text(_table())
    (root / "empty").mkdir()
    header = "protein_id,class,chain_i,seq_i,chain_j,seq_j,distance,score"
    (root / "bad_header.csv").write_text("wrong,header\n1,2\n")
    (root / "bad_row.csv").write_text(f"{header}\np,A-C,A,1,A,5,far,1.0\n")
    (root / "contacts.csv").write_text(
        f"{header}\np,A-G,A,1,A,4,5.0,1.0\np,G-V,A,2,A,6,7.5,2.0\n"
        "p,A-G,A,1,A,7,6.0,0.5\n"
    )
    for name, args in {
        "condorcet": ("synth", "condorcet"),
        "impartial": ("synth", "impartial_culture", "--m", "4", "--n", "3"),
        "single_peaked": ("synth", "single_peaked", "--m", "4", "--n", "5"),
    }.items():
        assert main([*args, "--out", str(root / f"{name}.json")]) == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    make_inputs(root)
    return root


def outcome(args, where: Path) -> str:
    """The command's exit code, output and written files, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    stderr = err.getvalue()
    if code == 1:
        stderr = stderr.splitlines()[-1]
    written = {}
    if (where / "out").is_dir():
        for path in sorted((where / "out").iterdir()):
            written[path.name] = TIMESTAMP.sub("", path.read_text())
    return json.dumps(
        [code, TIMESTAMP.sub("", out.getvalue()), stderr, written], indent=1
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_output(name, inputs, tmp_path, monkeypatch):
    where = tmp_path / "work"
    shutil.copytree(inputs, where)
    monkeypatch.chdir(where)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    text = outcome(CASES[name], where)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name], text


def test_every_case_is_frozen():
    assert sorted(DIGESTS) == sorted(CASES)
