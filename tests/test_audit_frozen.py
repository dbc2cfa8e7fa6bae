"""Frozen audit reports: one sha256 per (rule, axiom, space).

Each digest is taken over ``json.dumps(result.to_json_dict(),
sort_keys=True)``, so any change to a verdict, a witness, a
``search_budget`` string or a note changes it. The digests were recorded
from the audit engine as it stood before its axioms were given a single
shared definition, and a restructuring of ``foldvote.audit`` has to
reproduce every one of them.

Besides the standard rules, a few probe rules (defined below) make the
fail path of every axiom run: over the exhaustive spaces no standard
rule fails agreement, unanimity, unrestricted domain, monotonic
responsiveness or the two utility axioms.
"""

import hashlib
import json
import sys
from functools import cache

import pytest

from foldvote.audit import (
    FAIL,
    ORDINAL_AXIOMS,
    PASS,
    AxiomId,
    Rule,
    audit,
    exhaustive,
    may_coincidence_check,
    sampled,
    standard_rules,
    verify_result,
)
from foldvote.errors import BudgetExceeded
from foldvote.preferences import UtilityVector, ordinal_from_utility
from foldvote.profiles import Profile
from foldvote.rules import AggregationOutcome, borda, majority_tournament
from foldvote.rules import may_rule, utilitarian


def _inverse_may(profile):
    # majority read backwards: a unanimous a > b yields b > a
    relation = may_rule(profile).relation
    transposed = tuple(zip(*relation))
    return AggregationOutcome("inverse_may", profile.universe, transposed)


def _strict_majority(profile):
    # a >= b only on a strict majority, so a tied count leaves the pair
    # incomparable
    counts = majority_tournament(profile)
    m = profile.m
    relation = tuple(
        tuple(i == j or counts[i][j] > counts[j][i] for j in range(m))
        for i in range(m)
    )
    return AggregationOutcome("strict_majority", profile.universe, relation)


def _constant(profile):
    # ignores the profile, so nearer inputs can never give farther outputs
    m = profile.m
    relation = tuple(tuple(i <= j for j in range(m)) for i in range(m))
    return AggregationOutcome("constant", profile.universe, relation)


def _fragile(profile):
    if profile.individuals[0].tiers == profile.individuals[-1].tiers:
        raise ValueError("first and last individual agree")
    return may_rule(profile)


def _anti_utilitarian(profile):
    negated = tuple(
        UtilityVector(u.protein_id, u.universe, tuple(-v for v in u.values))
        for u in profile.individuals
    )
    return utilitarian(Profile(profile.universe, negated, "utility"))


def _utility_borda(profile):
    ranked = tuple(ordinal_from_utility(u) for u in profile.individuals)
    return borda(Profile(profile.universe, ranked, "ordinal"))


RULES = {
    **standard_rules(),
    "inverse_may": Rule("inverse_may", _inverse_may),
    "strict_majority": Rule("strict_majority", _strict_majority),
    "constant": Rule("constant", _constant),
    "fragile": Rule("fragile", _fragile),
    "anti_utilitarian": Rule("anti_utilitarian", _anti_utilitarian, "utility"),
    "utility_borda": Rule("utility_borda", _utility_borda, "utility"),
}
STANDARD_ORDINAL = ("may", "borda", "kemeny", "dictator")
PROBE_ORDINAL = ("inverse_may", "strict_majority", "constant")
UTILITY = ("utilitarian", "anti_utilitarian", "utility_borda")
ORDINAL_AXES = sorted(ORDINAL_AXIOMS, key=lambda a: a.value)
UTILITY_AXES = (AxiomId.STRICT_UNANIMITY, AxiomId.UTILITY_IIA)


def _cases():
    # (kind, rule, axiom, m, n, trials, seed)
    out = []
    for m, n in ((3, 2), (3, 3)):
        for rule in STANDARD_ORDINAL + PROBE_ORDINAL:
            out += [("exhaustive", rule, a, m, n, None, None) for a in ORDINAL_AXES]
        for rule in UTILITY:
            out += [("exhaustive", rule, a, m, n, None, None) for a in UTILITY_AXES]
        # any other axiom lets the rule's exception propagate
        out.append(
            ("exhaustive", "fragile", AxiomId.UNRESTRICTED_DOMAIN, m, n, None, None)
        )
    for rule in STANDARD_ORDINAL:
        for axiom in (AxiomId.ANONYMITY, AxiomId.NEUTRALITY):
            out.append(("exhaustive", rule, axiom, 4, 2, None, None))
    for m, n, trials, seed, rules in (
        (3, 2, 300, 5, PROBE_ORDINAL),
        (3, 3, 300, 5, STANDARD_ORDINAL + PROBE_ORDINAL),
        (5, 4, 100, 11, STANDARD_ORDINAL + ("constant",)),
    ):
        for rule in rules:
            out += [("sampled", rule, a, m, n, trials, seed) for a in ORDINAL_AXES]
    # proximity at a size where counting the Kendall distance matters;
    # constant passes, so the fail witnesses have a rule to be rejected by
    for rule in ("may", "borda", "constant"):
        out.append(("sampled", rule, AxiomId.PROXIMITY_PRESERVATION, 60, 20, 10, 7))
    for rule in UTILITY:
        out += [("sampled", rule, a, 4, 3, 300, 2) for a in UTILITY_AXES]
    for rule in ("may", "borda", "dictator"):
        out.append(("coincidence", rule, AxiomId.MAY_COINCIDENCE, 3, 3, 300, 0))
    return out


def _case_id(case):
    kind, rule, axiom, m, n, trials, seed = case
    tail = "" if trials is None else f":t{trials}:s{seed}"
    return f"{kind}:{rule}:{axiom.value}:{m}x{n}{tail}"


CASES = {_case_id(c): c for c in _cases()}


@cache
def _run(case_id):
    """(verdict, result, canonical text); verdict "budget" and result
    None when the space is refused."""
    kind, rule, axiom, m, n, trials, seed = CASES[case_id]
    try:
        if kind == "coincidence":
            result = may_coincidence_check(RULES[rule], m, n, trials, seed)
        else:
            space = (
                exhaustive(m, n) if kind == "exhaustive" else sampled(m, n, trials, seed)
            )
            result = audit(RULES[rule], axiom, space)
    except BudgetExceeded as exc:
        return "budget", None, f"BudgetExceeded: {exc}"
    return result.verdict, result, json.dumps(result.to_json_dict(), sort_keys=True)


# case id -> (verdict, sha256 of the canonical report)
DIGESTS = {
    "coincidence:borda:may_coincidence:3x3:t300:s0":
        ("fail", "0e1e09e51edaf7b9e85537d7c0c122a62af118d5c85f73f1309561ad064f932e"),
    "coincidence:dictator:may_coincidence:3x3:t300:s0":
        ("fail", "7840909b56eb5ce84fddbc03405d2e9d9ed248400390d99d0caa463d9646ecc8"),
    "coincidence:may:may_coincidence:3x3:t300:s0":
        ("pass_within_search", "97d66693064dec21d4ab62535c5a106431289feb8402c5279d606ca5f47c2d2d"),
    "exhaustive:anti_utilitarian:strict_unanimity:3x2":
        ("fail", "c9a4ef15d24d0c58a65dd4da8b8a051483bbc791806c6cb32d5d9c2e4f6e6b75"),
    "exhaustive:anti_utilitarian:strict_unanimity:3x3":
        ("fail", "8b15b959f086602e5377400a450fff5733f3f0f809d28b35d772c0ae646224c7"),
    "exhaustive:anti_utilitarian:utility_iia:3x2":
        ("pass_within_search", "7de4f62aa91a81c1615d32cbfd87c6ec859abd482f8940d056c8171c2083d097"),
    "exhaustive:anti_utilitarian:utility_iia:3x3":
        ("budget", "851019a22ef4a33d3295d4de40457a5fe29bda106c0feac30d499f25d9a9b842"),
    "exhaustive:borda:agreement:3x2":
        ("pass_within_search", "48e06937f6d2be42abbcb5d2cff2c86d82c13b110e866af1d9a7ce42df90394f"),
    "exhaustive:borda:agreement:3x3":
        ("pass_within_search", "92bd4fc9d39bb4952b186ffeec28699f38947c0a57a8c300753ca00ac07e7f0b"),
    "exhaustive:borda:anonymity:3x2":
        ("pass_within_search", "6d0848d10368f16baf67807564f71e58479d29c450a6fa19c19c0c9ee915b2a3"),
    "exhaustive:borda:anonymity:3x3":
        ("pass_within_search", "27ff7f13b80c24c0c0c0121463cca6a7901e99aed50dd49c8b402b0b641d1560"),
    "exhaustive:borda:anonymity:4x2":
        ("pass_within_search", "fa5e4cfaa0764910609bd2614c06a27a525ee60e74e492e2b6449cbfcc42beb0"),
    "exhaustive:borda:iia:3x2":
        ("fail", "083a2d7bc8ffb157c67a46df7977b56a3034611ecbe202f89372d86501a3bede"),
    "exhaustive:borda:iia:3x3":
        ("fail", "41b45131a86ab9a8c371c772c035bac3f5065aaf68c7d9be54507b9106a72f01"),
    "exhaustive:borda:monotonic_responsiveness:3x2":
        ("pass_within_search", "09328ad8abf2bf37c26422c2b536a40dfa6eed88fba1a5a0eeb9fd558265b7f2"),
    "exhaustive:borda:monotonic_responsiveness:3x3":
        ("pass_within_search", "320034e198d85062d63e3778d870b3259252aecef911693d34ee44e770ea3c81"),
    "exhaustive:borda:neutrality:3x2":
        ("pass_within_search", "8adf6ea97f1a1e0a5834fa7113ee8d9430c241e2fd547cd0f79e7194da6b2ee4"),
    "exhaustive:borda:neutrality:3x3":
        ("pass_within_search", "7e80e41ae5da9119dcac31d5d33365419fed087597a68428cae6070d9a9413bf"),
    "exhaustive:borda:neutrality:4x2":
        ("pass_within_search", "3ba5ccff4162591cade0bdbb8fc0925299dbbd763ca40f64ff76e76d074cdefb"),
    "exhaustive:borda:non_dictatorship:3x2":
        ("pass_within_search", "397bd5e9067eda86530da877e3713921afd67c76926bc49e7eaeaa61925b5c82"),
    "exhaustive:borda:non_dictatorship:3x3":
        ("pass_within_search", "c0b4ee1803c0e069ab057dce0d7ac7423da339e7b8e881e8ba97405f06693820"),
    "exhaustive:borda:positive_responsiveness:3x2":
        ("pass_within_search", "f79a6c8c9db5060ef748d5798263972e7ea83f8c2fde1850fe83af08c5ed6075"),
    "exhaustive:borda:positive_responsiveness:3x3":
        ("fail", "0e1e09e51edaf7b9e85537d7c0c122a62af118d5c85f73f1309561ad064f932e"),
    "exhaustive:borda:proximity_preservation:3x2":
        ("fail", "c7c9a2bcd11f0e9e3af9c6faeef8ad6224474469520ff05728ae8dcdef299a16"),
    "exhaustive:borda:proximity_preservation:3x3":
        ("fail", "e80f1f64561ed2359555128cdaff07507de9fb758dd7dd0eb09a89378781a4a3"),
    "exhaustive:borda:transitivity:3x2":
        ("pass_within_search", "e43798af14483149a78cd366f5b38775d3f206457560f235f66861a8ce5fb560"),
    "exhaustive:borda:transitivity:3x3":
        ("pass_within_search", "655c50a499d0ff21f609a48afe55cd06e28ec1619bd06a0ea2041be9aeb75268"),
    "exhaustive:borda:unanimity:3x2":
        ("pass_within_search", "c3299604dd9f47fd588f80dce69bb2ae1e4bc437ef2b1d77bad080fa6afa2dc8"),
    "exhaustive:borda:unanimity:3x3":
        ("pass_within_search", "e74fe77afa8f36d5423b33c383851b436422d7f85ceb85f2dfab7b5e3c0315ad"),
    "exhaustive:borda:unrestricted_domain:3x2":
        ("pass_within_search", "256ad4a07389f0bf9cf82c8ba974484d9faa0be39efc8c79f95971bdd809b271"),
    "exhaustive:borda:unrestricted_domain:3x3":
        ("pass_within_search", "771731a4ae3e2b7ae2d793c4c31935ec66568a94bbe3c693a0572fb98fb990f7"),
    "exhaustive:constant:agreement:3x2":
        ("pass_within_search", "5d65051ac31ab3c65bebbfd3198e65a0819722b452b32e84ff9f0face935b294"),
    "exhaustive:constant:agreement:3x3":
        ("pass_within_search", "ee51be3b4e76bb67c888376985b161a9fefad3f0a26dc740b4767869a2852d9a"),
    "exhaustive:constant:anonymity:3x2":
        ("pass_within_search", "3584496d64cff732d7b87ed166f52fbf5dde1fdabd11f337a608d1a9670dd553"),
    "exhaustive:constant:anonymity:3x3":
        ("pass_within_search", "dca8489db5c4f4e93dd2e9a0be9ea9d9e8f32c06867d0830dc0f3661d9e9be5b"),
    "exhaustive:constant:iia:3x2":
        ("pass_within_search", "50e00bc43504c617abc4a2da7575b40561125b5ec403f77a05ffb9b371469c5e"),
    "exhaustive:constant:iia:3x3":
        ("pass_within_search", "f652632b30c87836523e25b2561aeed890ef7146d4007911b1999bd552ecf006"),
    "exhaustive:constant:monotonic_responsiveness:3x2":
        ("pass_within_search", "656e0b21fee5eb1e4f2725e8d258288fd8a8e2ada7a1e82486f6a7dd5eab6d23"),
    "exhaustive:constant:monotonic_responsiveness:3x3":
        ("pass_within_search", "06b1e20ba69a55858c60c04c6f1fc9c91595d35698f98cecd60b1dca91c54afd"),
    "exhaustive:constant:neutrality:3x2":
        ("fail", "87bcad035a4ade45b35991c1a4370ce401076adcca0c5bfc521ed317e61a1c04"),
    "exhaustive:constant:neutrality:3x3":
        ("fail", "4be1b5f18f70555de2636bd99fc4e68dfe8b3642c51e8d618a160bfe67fb7877"),
    "exhaustive:constant:non_dictatorship:3x2":
        ("pass_within_search", "c71bf90031c76458e6b0cd0093aa52dbd76b2a87df472bfbe3bdd4f58948a21f"),
    "exhaustive:constant:non_dictatorship:3x3":
        ("pass_within_search", "13cc20adb5a80446bdb7782a3f81a200d7ed963a376cba295543d2113de2c801"),
    "exhaustive:constant:positive_responsiveness:3x2":
        ("pass_within_search", "b98e50e692c241ae6c65137bff0f98c1da4ed0d88014dd9eef5a321de044dc81"),
    "exhaustive:constant:positive_responsiveness:3x3":
        ("pass_within_search", "2aac4b728818b4072af22e86e397257f69be7c5fa9525cb5d60170c6c734b125"),
    "exhaustive:constant:proximity_preservation:3x2":
        ("pass_within_search", "de5df3734cdba6afa310d44b4b4765672362a3d958a720aecfda54de92676d89"),
    "exhaustive:constant:proximity_preservation:3x3":
        ("pass_within_search", "a8e26cacf217a0f62cd7a149b4222e44f78afc38bb705ee86461c636de1e571c"),
    "exhaustive:constant:transitivity:3x2":
        ("pass_within_search", "111f44e8fc1e76e3008edb8eb91223668a83682c0c2217a7d777677df4002d25"),
    "exhaustive:constant:transitivity:3x3":
        ("pass_within_search", "4fd075baa3f30e307193eb9ac3aa0e711543b193716a06783261164c724561d4"),
    "exhaustive:constant:unanimity:3x2":
        ("fail", "2df9ffd3714ebc23eebf37e377939a247aa314f547cc032fc3d4edfe51f81b9c"),
    "exhaustive:constant:unanimity:3x3":
        ("fail", "3584661d456c7e9958b97674ead96791161b2e5a44efc6f47cbed06a4e2d0fc7"),
    "exhaustive:constant:unrestricted_domain:3x2":
        ("pass_within_search", "15d60772eab8dc3915615c594a3d9e85c86bd70bd61ef9fd950ab0b3d201b734"),
    "exhaustive:constant:unrestricted_domain:3x3":
        ("pass_within_search", "6c77e8dfef95ba710705a97c1d67097c70cd662824d622968fe5aa65d27f0797"),
    "exhaustive:dictator:agreement:3x2":
        ("pass_within_search", "94d5c189045c518fa8d6bbd3d3462deab58e36ba2707a4dde88820ad50b31687"),
    "exhaustive:dictator:agreement:3x3":
        ("pass_within_search", "856b9aecb13c46b0ccc757e41d2ccfaa7101448121a4ec63abb1ce467cf4ac42"),
    "exhaustive:dictator:anonymity:3x2":
        ("fail", "d2f825fa87046b1e6039214d772ebd47bdd15b836a7b3a339e115ee2ab7c38e1"),
    "exhaustive:dictator:anonymity:3x3":
        ("fail", "7840909b56eb5ce84fddbc03405d2e9d9ed248400390d99d0caa463d9646ecc8"),
    "exhaustive:dictator:anonymity:4x2":
        ("fail", "dad2ecbfe9e8f38897ca6355de6157ad0acbd9c6849d45b05f5b031e85195996"),
    "exhaustive:dictator:iia:3x2":
        ("pass_within_search", "f91d77a120e0e9cc99e773426485959497061b7c3891c3a66405544efbf93616"),
    "exhaustive:dictator:iia:3x3":
        ("pass_within_search", "1febf5d47772a517bdb56f4a4d9708ac0d330941996ede83ce2aade1fff6a13c"),
    "exhaustive:dictator:monotonic_responsiveness:3x2":
        ("pass_within_search", "2f3094dd447c3be88116b06e89e000827dbbc17f7d409ba6cf4b5d8df223d078"),
    "exhaustive:dictator:monotonic_responsiveness:3x3":
        ("pass_within_search", "dd18d3b69d0be803fc925a1b88658cc0ac4b50da0253cdd8f446a52fde8d5641"),
    "exhaustive:dictator:neutrality:3x2":
        ("pass_within_search", "5b19a166a0296c9e0b1239933376104b0778c4cfb47c89fd4b367b4cc519cbd2"),
    "exhaustive:dictator:neutrality:3x3":
        ("pass_within_search", "8997592f261d360d727ad3ce223b13a990b7e8c3b849b4b12f9aba67826625e2"),
    "exhaustive:dictator:neutrality:4x2":
        ("pass_within_search", "103a088c350cb14dd0f124fb6362082a071f6d48fbd235476e310cf28aa6a48b"),
    "exhaustive:dictator:non_dictatorship:3x2":
        ("fail", "a112272159b6cd7f53272804c91027e3e6476e3204f4273615cce7629257a843"),
    "exhaustive:dictator:non_dictatorship:3x3":
        ("fail", "7ca06d359d3c2fa42b9d7b8dc3d7f847b6b3657356aacda400853d89f91ff634"),
    "exhaustive:dictator:positive_responsiveness:3x2":
        ("pass_within_search", "6a7e0bce7ffc0a0b6eb7b120d7c300b2904f5c3a2874b88dc677ab43fe3958e6"),
    "exhaustive:dictator:positive_responsiveness:3x3":
        ("pass_within_search", "b05cf330a9959d9100d91a83077f7b4ba4a43abd5ad0c75226b2bdd0e5633210"),
    "exhaustive:dictator:proximity_preservation:3x2":
        ("fail", "a17758252dede4520be5c873580535c58a5a996bc96b69a00981abed33ec21dc"),
    "exhaustive:dictator:proximity_preservation:3x3":
        ("fail", "f4a669b1311185eef2df6871728c847c3aeba98c91faabf73cc31718aa28d21c"),
    "exhaustive:dictator:transitivity:3x2":
        ("pass_within_search", "9303134f601a71972f5d044ec25e4db049a340b927c52e8a50bf5902a2eef412"),
    "exhaustive:dictator:transitivity:3x3":
        ("pass_within_search", "05627102861d37b6e1887f9d3c554ab4055b511f8bb409c57c03aa1bea4fae1d"),
    "exhaustive:dictator:unanimity:3x2":
        ("pass_within_search", "6d4384465662f75164f81f7b35cd7d5ad0820cb9f7a6ffc7d3d6afe5bf25bebf"),
    "exhaustive:dictator:unanimity:3x3":
        ("pass_within_search", "dce4215362ba586e4eeff90c438f11809ef041e55147902a28666db95e1a0f79"),
    "exhaustive:dictator:unrestricted_domain:3x2":
        ("pass_within_search", "38343b4625ba6d3e9a39eff602421ba6feb323785d477a1d8dff576f36d45e3f"),
    "exhaustive:dictator:unrestricted_domain:3x3":
        ("pass_within_search", "b2e487d79fa809c6217276e47cbe0f8fdea37294b3cec97967651e753910d6e8"),
    "exhaustive:fragile:unrestricted_domain:3x2":
        ("fail", "44603a5af7a9b5a4bc6e4620c21ec79c6037b798a882c5a2243ca69986c2c81a"),
    "exhaustive:fragile:unrestricted_domain:3x3":
        ("fail", "aab50870e3d2761497e95baa6a0c468dd35bee6ad9ebffdc54c03b5616b24088"),
    "exhaustive:inverse_may:agreement:3x2":
        ("pass_within_search", "63d991360d1414f2e8772272795424ee79c40b100a6684d0c03efafcf789e7c0"),
    "exhaustive:inverse_may:agreement:3x3":
        ("pass_within_search", "58057e41a7224c7a06e314f19dc5bc1305df7a54bdf06e05bff19523325b8574"),
    "exhaustive:inverse_may:anonymity:3x2":
        ("pass_within_search", "efebe83e73290fc42fd6abdee1d836ef6609661322f5d9c56d85abfc42f97328"),
    "exhaustive:inverse_may:anonymity:3x3":
        ("pass_within_search", "0139ab7261067e17390b4d5740117245a97786c4e0e092e7427f2d8a737c563d"),
    "exhaustive:inverse_may:iia:3x2":
        ("pass_within_search", "912f9a5c8cb622d1235dc54b9cedfebd019e83f69d948ce10a08be54fc7873d4"),
    "exhaustive:inverse_may:iia:3x3":
        ("pass_within_search", "62076d46b8ad4f787052b10ee867d8c96f5c2639c64f14c1745f331123cff037"),
    "exhaustive:inverse_may:monotonic_responsiveness:3x2":
        ("fail", "ec8099009ab1a3f1927d0184fbf71285529e358d2be75bdbfa10155c1cb175d8"),
    "exhaustive:inverse_may:monotonic_responsiveness:3x3":
        ("fail", "235ea6111a59614bf5e0e66ea06670844e83a1a3ce7759a7a3c39dbec0a22378"),
    "exhaustive:inverse_may:neutrality:3x2":
        ("pass_within_search", "8e57df81f4bf47d8916cfa2d24c87e252298b4e59e4e17ac0e219660281212c4"),
    "exhaustive:inverse_may:neutrality:3x3":
        ("pass_within_search", "ebf0a59bf4ca7a66bc1618067f57215ca3fe97b6835abf353a433a3b9037edcf"),
    "exhaustive:inverse_may:non_dictatorship:3x2":
        ("pass_within_search", "33a273f256e21a5dff66ddac6452cb675ea474f81c9f6b04329b475e2bbd8431"),
    "exhaustive:inverse_may:non_dictatorship:3x3":
        ("pass_within_search", "8c7935559b34449a3d7b586af19edcfae25226f3bbc24615efb0e5eb6186d9ee"),
    "exhaustive:inverse_may:positive_responsiveness:3x2":
        ("fail", "36e6fdb476e26c9cc7d33054b1613314399900a1918433b5c18ca53cec58bb55"),
    "exhaustive:inverse_may:positive_responsiveness:3x3":
        ("fail", "0b2856facd06d6e9936e2a564fb3ebb28bdac0ec299a7c83678dbcfa69740749"),
    "exhaustive:inverse_may:proximity_preservation:3x2":
        ("fail", "e599b6e18d57859b2f8f5e03c85a9af496a068d060f573c0903d38462d80cdd0"),
    "exhaustive:inverse_may:proximity_preservation:3x3":
        ("fail", "6207de141b291ac3b595e7f8bd576dd20a49b7d67c93105b6bf1b674d8511338"),
    "exhaustive:inverse_may:transitivity:3x2":
        ("fail", "6106267171bb856dcb55780f3f4482d85f317df2f9e0ae3454c05e06c8efd464"),
    "exhaustive:inverse_may:transitivity:3x3":
        ("fail", "06c6700d28eb04d248265769f7f3883c8da366f1a3a792c1f84439d8a1649af2"),
    "exhaustive:inverse_may:unanimity:3x2":
        ("fail", "63de3472b2e333feafb6d1e6cc0b04a3b9310465ccdd679a28a8c988cf5febd7"),
    "exhaustive:inverse_may:unanimity:3x3":
        ("fail", "9adc482657e6f41a053383b1e844416d6ebef2bdb0e118256dd31df29335c56d"),
    "exhaustive:inverse_may:unrestricted_domain:3x2":
        ("pass_within_search", "86e9515085efea216fc2b8d25e511cb1cb83c1aaae0a9628e53d2539dea8cf73"),
    "exhaustive:inverse_may:unrestricted_domain:3x3":
        ("pass_within_search", "6715be908282aec7867dc432e2b0b0a0786bdbe4c6874d82e038981100b42986"),
    "exhaustive:kemeny:agreement:3x2":
        ("pass_within_search", "9147a94bf4e16bdf937d1927c4329e4da1f6a5cc566ff47a8cf2ba67b382e48e"),
    "exhaustive:kemeny:agreement:3x3":
        ("pass_within_search", "42867550bbd3169d14f87f777feb307efe9eeee0c0e54158fd0c5cc8a59bdc60"),
    "exhaustive:kemeny:anonymity:3x2":
        ("pass_within_search", "fbffe97af1d410d37d3b5830a23d836a347e81a4cdb6cd4ac6ea88e0051175b8"),
    "exhaustive:kemeny:anonymity:3x3":
        ("pass_within_search", "c2cde7a1721d08e1106f4c70473ec564a854b31cf2cec9d843d76fa35905ae28"),
    "exhaustive:kemeny:anonymity:4x2":
        ("pass_within_search", "9acf08cb38d66bab99783046f3b0e62415592ab16cc82b958e9b1701fcadf986"),
    "exhaustive:kemeny:iia:3x2":
        ("fail", "9213e037684592ad106d294a4dfff777dd70286faf570c1618e697b8fe039849"),
    "exhaustive:kemeny:iia:3x3":
        ("fail", "f338dacbe37959c74b9dff0dc2712968752c7e660ae9a034772d20a20f38602d"),
    "exhaustive:kemeny:monotonic_responsiveness:3x2":
        ("pass_within_search", "6020e3818cbee38169bf2aa176ba63389147da039bb33ba84aad0fd0459836fa"),
    "exhaustive:kemeny:monotonic_responsiveness:3x3":
        ("pass_within_search", "bcc232a282cebde065e06a8a4e7471d4477f14a1507ff6c8eef93cea55ce2dc1"),
    "exhaustive:kemeny:neutrality:3x2":
        ("fail", "14cbdbc31389e05cfa292ac2b8a3f9edb9a04fb4096378917a6c08265cf6f11d"),
    "exhaustive:kemeny:neutrality:3x3":
        ("fail", "8c3bc2a9f29f2155ba0128cb5a3611402e4d4499e9e39bca62ea5c980029f6ff"),
    "exhaustive:kemeny:neutrality:4x2":
        ("fail", "837c248d07a2f31d0d02bd849e9d888fba4c3f316912cdeeccb840e9259a0f93"),
    "exhaustive:kemeny:non_dictatorship:3x2":
        ("pass_within_search", "ddcd9c21cd3476bd63253bd172ac0564b5cde0c07ecdf9f96f6eb8260c77c107"),
    "exhaustive:kemeny:non_dictatorship:3x3":
        ("pass_within_search", "c697e1cf9026fb77386474625a45c9d6173dd67eefb4874d3ea17cdbb967a3e5"),
    "exhaustive:kemeny:positive_responsiveness:3x2":
        ("pass_within_search", "b03cff1c69f222af66e7e8dce7a1c500e845e840d6c6ee698a02b60e28b1dfdc"),
    "exhaustive:kemeny:positive_responsiveness:3x3":
        ("pass_within_search", "1c6ccaced0d70c27bcf5801aa7a0897a03eff6ec6f652596994064dc3163e2f2"),
    "exhaustive:kemeny:proximity_preservation:3x2":
        ("fail", "38a75a1c5cc4eb96675310d3736afd7e3c30b27fb708fc69423ae0f3f1ecd14f"),
    "exhaustive:kemeny:proximity_preservation:3x3":
        ("fail", "96f522fffc7d89e29579dc1cd9da041b40fd011c9faea9add674d04209b0df0a"),
    "exhaustive:kemeny:transitivity:3x2":
        ("pass_within_search", "9248dca201e4fca3557fd39b46d0996169e60892f659816b711101d860273479"),
    "exhaustive:kemeny:transitivity:3x3":
        ("pass_within_search", "e40a83d9859b3adbffa6ef9f1d59cf0b3a97c1ac255918de4f1afb15676ddbad"),
    "exhaustive:kemeny:unanimity:3x2":
        ("pass_within_search", "7220281c4bd9fdc02b4c03afb1f9f61f84ae8e31ed809c1791cde30807257fff"),
    "exhaustive:kemeny:unanimity:3x3":
        ("pass_within_search", "95eed9d71c3c26bb97175ae40b50eb7bb80eab4672f7466bb7ec8efaf0247862"),
    "exhaustive:kemeny:unrestricted_domain:3x2":
        ("pass_within_search", "31993b96a56d092bfe659c79ad78e7364dc33bccc8e66de6ab67cb33dfdb5f4e"),
    "exhaustive:kemeny:unrestricted_domain:3x3":
        ("pass_within_search", "3345e888b886fd43fb823aa3e8bdc41bf452eab0f79d59b80ee372183bee7f78"),
    "exhaustive:may:agreement:3x2":
        ("pass_within_search", "5535cfd9ddee480035d8baa6e6824f71d5505039f2c902d632c4dbd0f4376eab"),
    "exhaustive:may:agreement:3x3":
        ("pass_within_search", "f8c6c1601b2d4a1d125ce971ea73204a320d24f66c7a7add47250d16bcf1ce3e"),
    "exhaustive:may:anonymity:3x2":
        ("pass_within_search", "90e4347334469c4a6bf311f7b344feba0ccef030687644a9bd15ef0ad7422be3"),
    "exhaustive:may:anonymity:3x3":
        ("pass_within_search", "ba55a2a8d5fc21816e9db5d1fb29e3f37b3c36b78f91fabb252ce33b9abdc2d2"),
    "exhaustive:may:anonymity:4x2":
        ("pass_within_search", "37130f76a4db4bdd2dec939805eedfe91bf7949b47e53f60ca8f175f0cbb03f0"),
    "exhaustive:may:iia:3x2":
        ("pass_within_search", "faab6ca36983fdd4fb01c07856de019ab3799497fe6560afd2ad842e16d795e8"),
    "exhaustive:may:iia:3x3":
        ("pass_within_search", "2d745efeae3d4ff8f0697a7921b7cb3cbc43e91016f896472425d811d6022709"),
    "exhaustive:may:monotonic_responsiveness:3x2":
        ("pass_within_search", "463c69d82003ab3af144049c4635299ec35fdde541ff90913a0a4585fe8a35e7"),
    "exhaustive:may:monotonic_responsiveness:3x3":
        ("pass_within_search", "baa0bc9117efbfee19ad2e826abf283e3739f676910ee6474509108f3eb8a746"),
    "exhaustive:may:neutrality:3x2":
        ("pass_within_search", "76df9854c0a583a20586a7338c353be5289fc0a020989cc941ab29dd86b687a5"),
    "exhaustive:may:neutrality:3x3":
        ("pass_within_search", "83a0abb2a5dc95d91074c7cc75b306d2d367b1314dab461e7d9fa53b9b12ce1f"),
    "exhaustive:may:neutrality:4x2":
        ("pass_within_search", "95c36fe0dfbdfa5075ee9cbf722d577550e0132f44a52daa051f1f9acbc26a45"),
    "exhaustive:may:non_dictatorship:3x2":
        ("pass_within_search", "ea99227af0030551f279c43c260080864d8b0aeb35ad2cdc39663e10ace598b2"),
    "exhaustive:may:non_dictatorship:3x3":
        ("pass_within_search", "880de9fb877f33b3a2146494ab6e369ae1fc1cb863ba9d29893d5e651e6a7c01"),
    "exhaustive:may:positive_responsiveness:3x2":
        ("pass_within_search", "a053f0ce8dabe5600ba3cfa3c0b267326a5bbd167ff0c62edf11e3a5797c91e6"),
    "exhaustive:may:positive_responsiveness:3x3":
        ("pass_within_search", "938988d50e4e67b96a8a2449b4034dda9260e24246a5b639cf9edc8cf762a2a4"),
    "exhaustive:may:proximity_preservation:3x2":
        ("fail", "0767abb6b454e46a5a5be85a2705be3128936583e7615a20ed7f0bc80ce8bef4"),
    "exhaustive:may:proximity_preservation:3x3":
        ("fail", "1bd54c44acf928222b3c6cfda79e6e5e36e00def76e6a1b4341566e3fe6e75e9"),
    "exhaustive:may:transitivity:3x2":
        ("fail", "c3d6adc90e73f65bc628cde0c53f0e6f5d28005e394ed329f8003998df238960"),
    "exhaustive:may:transitivity:3x3":
        ("fail", "2c88a131b8e7f7bc1fed7111a32b54e1bd2ff3f6aeb7102e3f27e3899524c338"),
    "exhaustive:may:unanimity:3x2":
        ("pass_within_search", "61b7bc22a2495670d9e3620b40c5c5ab885c13a45a6f3e616f669abbb37c6ce8"),
    "exhaustive:may:unanimity:3x3":
        ("pass_within_search", "46a62192bfc667c63201f990c6fdd33f8391125060f662e78e05ba93ad075b18"),
    "exhaustive:may:unrestricted_domain:3x2":
        ("pass_within_search", "22861239b020235cf875d25977a49b264b0e109e45340212969e15d48ae927da"),
    "exhaustive:may:unrestricted_domain:3x3":
        ("pass_within_search", "73bdf7bf241c121a97a0276a426ae3123afb68a1009a8a1893b1ec0559dc20bb"),
    "exhaustive:strict_majority:agreement:3x2":
        ("fail", "71ddc868cbc6098ec24847bd58537b2ee6674c339eea34396ed1ea4bc4b95d35"),
    "exhaustive:strict_majority:agreement:3x3":
        ("pass_within_search", "92f6a438c817c4a7aea8b82c53164b732b7a45c842eaebe7723964046aa85dde"),
    "exhaustive:strict_majority:anonymity:3x2":
        ("pass_within_search", "2591f33d752eb81aff85120d9465d08e7a1dd7a43a9e6cb7e933c384c988a7f5"),
    "exhaustive:strict_majority:anonymity:3x3":
        ("pass_within_search", "eef8b87459c5b2efffce9680a3d26a4c6bbad0cf3add174b865914b90d8c4016"),
    "exhaustive:strict_majority:iia:3x2":
        ("pass_within_search", "9319ebef88abd2eef0f896f579a5efd62f03eac9ceff72eb846960ceb220da6a"),
    "exhaustive:strict_majority:iia:3x3":
        ("pass_within_search", "38cd7adfd8d9a3bce179525f195312cf0016f21729b46c7fc8a09c9726869e35"),
    "exhaustive:strict_majority:monotonic_responsiveness:3x2":
        ("pass_within_search", "c6e8049ee2ac4e9b2b4c2a2c9a4ef5af3545c731a0685ace06e74cc2f0b6841f"),
    "exhaustive:strict_majority:monotonic_responsiveness:3x3":
        ("pass_within_search", "0a845a4efbf791a01650dc6ff44b97c6f8c426ee0e092cd00f0289e6e63d6de8"),
    "exhaustive:strict_majority:neutrality:3x2":
        ("pass_within_search", "2339b1dc157f3506d6b50a661350099189917f457d0d0c5495fb920e68e061a7"),
    "exhaustive:strict_majority:neutrality:3x3":
        ("pass_within_search", "2eb8c5ee485d829349a3bc2e819940522c908908d4a2ecd5dcc4ca6e08adab9c"),
    "exhaustive:strict_majority:non_dictatorship:3x2":
        ("pass_within_search", "564204b8fad71b9586678b6214370bc4f1d6f68495d01688b6e57868742f2fcd"),
    "exhaustive:strict_majority:non_dictatorship:3x3":
        ("pass_within_search", "7a333fef4e3112d8ab168ac6149bc6ab3de603326b675a5798cbb9f0c17fe306"),
    "exhaustive:strict_majority:positive_responsiveness:3x2":
        ("pass_within_search", "54d47ad5e9ad47107de82d52a6647b8e70ae79796dbc466034e0127a19c82add"),
    "exhaustive:strict_majority:positive_responsiveness:3x3":
        ("pass_within_search", "f80a20e925b803b8c0f59fb01742aed2fd18cbebcfcf7ffb9d3e2717738d46d6"),
    "exhaustive:strict_majority:proximity_preservation:3x2":
        ("fail", "16dcb0c650c1fa22ff2d5c66a4ffbc80ee05de2208e454532d6d5c15ce1b6804"),
    "exhaustive:strict_majority:proximity_preservation:3x3":
        ("fail", "92dd7124e6ae8d6cd269cac025853fa7a2a29b9c8450c0f79c7ab0f0a62a91d7"),
    "exhaustive:strict_majority:transitivity:3x2":
        ("pass_within_search", "14b7a99358a533089e769dd0755c16e10745702fa1aa6cbd6393a8973a0a6c10"),
    "exhaustive:strict_majority:transitivity:3x3":
        ("fail", "d7f6d83e557f63306187e4e7ff354488eecccf03394ad58834c2829b1f0fcbf1"),
    "exhaustive:strict_majority:unanimity:3x2":
        ("pass_within_search", "535b40543a1cb7a64a1f354a74e0dcdcbcb611758c4603f0950f30463040c720"),
    "exhaustive:strict_majority:unanimity:3x3":
        ("pass_within_search", "97b46d8d3cb9f5d906bb873a8ece586ee6034995a0dc0eb449decde0f6d6d07b"),
    "exhaustive:strict_majority:unrestricted_domain:3x2":
        ("pass_within_search", "80ceae27088c2620613be05f96a71e0489c0c7ae503ce21b2c4af793db288fba"),
    "exhaustive:strict_majority:unrestricted_domain:3x3":
        ("pass_within_search", "e6ddbeaa40825bb8699a1bb2854101881518e415dc397d1eaa6460c5301fa242"),
    "exhaustive:utilitarian:strict_unanimity:3x2":
        ("pass_within_search", "b6d1813f0310df0da0e93b53411e4ee57f54a29b7ce7ff5f094e95d8e776fd7e"),
    "exhaustive:utilitarian:strict_unanimity:3x3":
        ("pass_within_search", "ab8a12653e98e2494fd62d2ce2fd93409c46a0ab42fe17ddf550dc413547bde2"),
    "exhaustive:utilitarian:utility_iia:3x2":
        ("pass_within_search", "5c21535f3d6dcba9d1362968cfa2c8f9c4f0c1a44278c01e6a478099bce1dc5f"),
    "exhaustive:utilitarian:utility_iia:3x3":
        ("budget", "851019a22ef4a33d3295d4de40457a5fe29bda106c0feac30d499f25d9a9b842"),
    "exhaustive:utility_borda:strict_unanimity:3x2":
        ("pass_within_search", "3d74ed827b4a33c5fa39619830c44e9faa176e6d2c883bd241746e3e12e09d76"),
    "exhaustive:utility_borda:strict_unanimity:3x3":
        ("pass_within_search", "67cc70786e3d44bf2e9f40b97067444d31dfce144446b9d7c2000c3b5d346e6b"),
    "exhaustive:utility_borda:utility_iia:3x2":
        ("fail", "0f28b3a5aea013451ef761ea07e0c1c74648841e840df0f5dd0bda642cf29df3"),
    "exhaustive:utility_borda:utility_iia:3x3":
        ("budget", "851019a22ef4a33d3295d4de40457a5fe29bda106c0feac30d499f25d9a9b842"),
    "sampled:anti_utilitarian:strict_unanimity:4x3:t300:s2":
        ("fail", "b5b247f242c7180690cba30ae719ab08c7d697c46f996dbe0bc2171c032f017a"),
    "sampled:anti_utilitarian:utility_iia:4x3:t300:s2":
        ("pass_within_search", "6b229d52e1954bac1834f143138e6bfd65f38dd287329476ac314dd77ec8105f"),
    "sampled:borda:agreement:3x3:t300:s5":
        ("pass_within_search", "d64ff3dfef016da01ad0c117fe6f14561d1e47233bb6375499a24344e0c4e525"),
    "sampled:borda:agreement:5x4:t100:s11":
        ("pass_within_search", "5e047d2bab5d0fd2cf7602a7c14b1e0f7d7bbc4b0272fa44163c3b044613157f"),
    "sampled:borda:anonymity:3x3:t300:s5":
        ("pass_within_search", "2393c826996b5c0c4695b498a5ae8c0ca91e6cbb91f9b0b8b2c70608e90d9f7e"),
    "sampled:borda:anonymity:5x4:t100:s11":
        ("pass_within_search", "a9e16980965178434756bcdf48669ddb176336c8fc2143f40659a18f8fca1569"),
    "sampled:borda:iia:3x3:t300:s5":
        ("fail", "e3e90c3a322264f9224291809914ff90ce9445b6c4134f080bdd78c82d9c3460"),
    "sampled:borda:iia:5x4:t100:s11":
        ("fail", "a40c376548a23da356ff709b23c68cb9ab4261e042ddd2af029230aded7162ce"),
    "sampled:borda:monotonic_responsiveness:3x3:t300:s5":
        ("pass_within_search", "1b83b93ca1f9b17ac1b29bb42704a176bf2505810e3d8c50af08ec035593acd2"),
    "sampled:borda:monotonic_responsiveness:5x4:t100:s11":
        ("fail", "eace369d5410a966dbba92572815827905b009170124495b073d33cf03e4d74b"),
    "sampled:borda:neutrality:3x3:t300:s5":
        ("pass_within_search", "db661351fc584e289f70403d09f755bb8d3cb588f8166fd5abcb255841254071"),
    "sampled:borda:neutrality:5x4:t100:s11":
        ("pass_within_search", "4fd78346e2ced4fb035b08753aa4e7777a5a5e82221a2adeda8dbb75f882344f"),
    "sampled:borda:non_dictatorship:3x3:t300:s5":
        ("pass_within_search", "755a143838b47616fb63a3ea7af2c69085c235d9417c673a3c473dce2d79dc4c"),
    "sampled:borda:non_dictatorship:5x4:t100:s11":
        ("pass_within_search", "c12ebaa3b5b1a082d1b377290eb7d75133d6e4a10cad182b5d1550f0d845164b"),
    "sampled:borda:positive_responsiveness:3x3:t300:s5":
        ("fail", "a58e6a742bc9ab6fdf9519a33061e73928e4150447350052ddd36c02850281f0"),
    "sampled:borda:positive_responsiveness:5x4:t100:s11":
        ("fail", "957eea1e90258fbda0f396708bf54c1194eff6e85dde2087d0f918e269dfa42a"),
    "sampled:borda:proximity_preservation:3x3:t300:s5":
        ("fail", "5f96cbf50cd754897744b47fc6e186c667782763eec05769a6913f53273f661e"),
    "sampled:borda:proximity_preservation:5x4:t100:s11":
        ("fail", "e27815e103f4a78fe4115b81e260f82148b213b38c0c8fb99f681e8d1d1854db"),
    "sampled:borda:proximity_preservation:60x20:t10:s7":
        ("fail", "9305463f442cd42907c946449bf51eec5aff1c3e53d4be7f294bb3f5bce25d37"),
    "sampled:borda:transitivity:3x3:t300:s5":
        ("pass_within_search", "bae36c0b8b89f20cdb3465ffd6472d57879736c211bdbce5a7ca02ac64c23d69"),
    "sampled:borda:transitivity:5x4:t100:s11":
        ("pass_within_search", "a25c3b5386701b359f41edeb80b3c33443fccb9ec4024846c9a1bd4fc953fb59"),
    "sampled:borda:unanimity:3x3:t300:s5":
        ("pass_within_search", "fc558b9380b587d89f18f074506ea8b25aa67949eebb0a9085d47735b0efc887"),
    "sampled:borda:unanimity:5x4:t100:s11":
        ("pass_within_search", "e4c2ae14b9abad039b8ea448de519df906af71e9598651cf59f5493ed5f3a7f8"),
    "sampled:borda:unrestricted_domain:3x3:t300:s5":
        ("pass_within_search", "5167835d5ea820e3144172f5a9dce7ac5dbd2df9648452437e6d22466b406dcf"),
    "sampled:borda:unrestricted_domain:5x4:t100:s11":
        ("pass_within_search", "8783dbfee2b20adede314768238096cdbd2014aa395b67c1b6fc6b4ed6e91dc4"),
    "sampled:constant:agreement:3x2:t300:s5":
        ("pass_within_search", "23e5c61076d5fa042bd5dd2d54b24f2a6ed20788df5dbc4e57937f90687d2854"),
    "sampled:constant:agreement:3x3:t300:s5":
        ("pass_within_search", "73346881d36af1857a06d87374f3089edb5610ff37b845ba85b06b58b28cbf8a"),
    "sampled:constant:agreement:5x4:t100:s11":
        ("pass_within_search", "88069ed8d2a30db55a8610845607b03e9d7d7cd0936bdb0562247d45e9ac9906"),
    "sampled:constant:anonymity:3x2:t300:s5":
        ("pass_within_search", "69a6a1f0752618ea67bacebceeb240c51618acf554ac6bb210414102714ecb21"),
    "sampled:constant:anonymity:3x3:t300:s5":
        ("pass_within_search", "731b10fa84a1039bc473b3f925294c0fb297e0ad2069790c50b4d5171d3a47de"),
    "sampled:constant:anonymity:5x4:t100:s11":
        ("pass_within_search", "837a1abd40ca29a91acd3a3632e3241697498bb09db105df52f9590ebd91efd5"),
    "sampled:constant:iia:3x2:t300:s5":
        ("pass_within_search", "e9d9e715020f34fb55bc21dc16f3c98a9cfe63ef554e7d922c2924dd6ca1a2a6"),
    "sampled:constant:iia:3x3:t300:s5":
        ("pass_within_search", "5ba9e00939681a865efb33c4334f2eaea48690568a57bde017e4a490ee5f8668"),
    "sampled:constant:iia:5x4:t100:s11":
        ("pass_within_search", "dbca32d76b731dbc6a37b71d4eb4a395ec1757e9f71225351a1eac9a78f468e5"),
    "sampled:constant:monotonic_responsiveness:3x2:t300:s5":
        ("pass_within_search", "0c8e8c7872921f952441fa2a302d357962cbf9a7f9611090c7523fdad62b4a00"),
    "sampled:constant:monotonic_responsiveness:3x3:t300:s5":
        ("pass_within_search", "15688a237d494edbee6112e4ea79428b002a02b6958ad8c4e7d233bc7bae56f4"),
    "sampled:constant:monotonic_responsiveness:5x4:t100:s11":
        ("pass_within_search", "afe2f4be58b80904f34c237913376ac14e167fabf5f9a5c6a9c8714a8d052be6"),
    "sampled:constant:neutrality:3x2:t300:s5":
        ("fail", "751e689e79278e75b69c1bc178f0caeb36e3e6e53ba4770f284086d39d10167d"),
    "sampled:constant:neutrality:3x3:t300:s5":
        ("fail", "1b00d60f44bc643a233ae3581d5edc9c27d1761c8fe4df763e0900dcb1bf4a49"),
    "sampled:constant:neutrality:5x4:t100:s11":
        ("fail", "5f1d610f1d7bdd5f4bac623d9af168abc98cc5ac695df4671f1ca0e85ac1a21a"),
    "sampled:constant:non_dictatorship:3x2:t300:s5":
        ("pass_within_search", "ea51792e9ed5c79937fb6ae25c6fd592fe449c11ebf54f0cffa507fc5335b540"),
    "sampled:constant:non_dictatorship:3x3:t300:s5":
        ("pass_within_search", "dfd3cfd6dcc2e6623f66d041a8b1a3db070bdb869fc6722a2754313b0c5b880f"),
    "sampled:constant:non_dictatorship:5x4:t100:s11":
        ("pass_within_search", "104654b29f983505981bf1dd669f5b6394b403a03d653f1f7f67742139957c2a"),
    "sampled:constant:positive_responsiveness:3x2:t300:s5":
        ("pass_within_search", "3ca72fd84ba4e954db480dfc60b01e95fa6030017f9df013f53b36090f65bd5e"),
    "sampled:constant:positive_responsiveness:3x3:t300:s5":
        ("pass_within_search", "83d01161277f88b9d7b1515606d92d0aa813e6dd91ddc429e7ff3c5ff356a303"),
    "sampled:constant:positive_responsiveness:5x4:t100:s11":
        ("pass_within_search", "01f7d7b041ffa8f75fb611100d54e8b25f59a7972c7f3d723f1d08fc0f91cb7a"),
    "sampled:constant:proximity_preservation:3x2:t300:s5":
        ("pass_within_search", "6ee547c13a1f83345ecd0e94f7fbaa42f7eda0df75aaf944061d10b701464457"),
    "sampled:constant:proximity_preservation:3x3:t300:s5":
        ("pass_within_search", "c5352e5a8dcb45c49ba7be8234563589b360f1ad571ac35287d0dc18ca386c95"),
    "sampled:constant:proximity_preservation:5x4:t100:s11":
        ("pass_within_search", "091d26babb0369c27723c9f22840535b8a25ccf5c20efb605f6f42e27758e158"),
    "sampled:constant:proximity_preservation:60x20:t10:s7":
        ("pass_within_search", "0f9db7c4b7aaf7c7d9a47f9764af6d4e6895f1aadea1a78e476accfed12f4af7"),
    "sampled:constant:transitivity:3x2:t300:s5":
        ("pass_within_search", "1b857ba320ae6795c721025d30a5f7f336269af1914ea9ab99805f0bb6b074ec"),
    "sampled:constant:transitivity:3x3:t300:s5":
        ("pass_within_search", "0377bb1d7709cd059f261c90bf84a035d23fdd2c5a02f45f60501bd2f8eeafe4"),
    "sampled:constant:transitivity:5x4:t100:s11":
        ("pass_within_search", "0d649a91bf21f57227628cae9a1656dedc1f5666629ccb215bdb2968947ba930"),
    "sampled:constant:unanimity:3x2:t300:s5":
        ("fail", "f783b6fbe214795b3196f351e2cc9908eb8a8a2e32b80bc3fe6a654eb03615f0"),
    "sampled:constant:unanimity:3x3:t300:s5":
        ("fail", "dc0f1f4b9997f5d7c1af2c76a110d068f4ba3b5e4bce0e304e4dd658e3dfb61a"),
    "sampled:constant:unanimity:5x4:t100:s11":
        ("fail", "b3ace1f054a7d1ef7b86b664504b83c1934aa33502ff7ca108e10aadd7cc2446"),
    "sampled:constant:unrestricted_domain:3x2:t300:s5":
        ("pass_within_search", "3269282a824ea91a916440c672387315e14a68e678654b6e2dc57fa65df32e10"),
    "sampled:constant:unrestricted_domain:3x3:t300:s5":
        ("pass_within_search", "1f04e3ee036f7dcb3fae3a82f0e75c9571e1a466b37c982beef5493cdcfa7f6e"),
    "sampled:constant:unrestricted_domain:5x4:t100:s11":
        ("pass_within_search", "2d79e61bcc2f596f2bce76c9a5598470afefe49eecdd430cc499becb365c3735"),
    "sampled:dictator:agreement:3x3:t300:s5":
        ("pass_within_search", "af1cee2343022f1324dd46a5ef10aa97c4d9172e0ca266a8485b9e5d5b64c2d7"),
    "sampled:dictator:agreement:5x4:t100:s11":
        ("pass_within_search", "c63d23b03dda6fb69a541db78e16fc5a82223021fb2602e10de1f3ff169ad01e"),
    "sampled:dictator:anonymity:3x3:t300:s5":
        ("fail", "ba7f8e48cbbbd872c79415e780df6e5ce4f7aa7c56f2f66618aae793c5eb37ce"),
    "sampled:dictator:anonymity:5x4:t100:s11":
        ("fail", "3069f9c6212e34aa141c0d2f23f8733c3b5ca3bb254247a931b240682ddddc19"),
    "sampled:dictator:iia:3x3:t300:s5":
        ("pass_within_search", "71396dc34a434dc73b842cacf81f54b610e56c5f2d76faf3418af674a2e07673"),
    "sampled:dictator:iia:5x4:t100:s11":
        ("pass_within_search", "4422f7cf3dd6faba7174d448099a06b445c340d96eff658ecde72a030269a89c"),
    "sampled:dictator:monotonic_responsiveness:3x3:t300:s5":
        ("pass_within_search", "1ba8a5ca3624863937a45965433616c88f1ab8b1a4608670d59f1489c6cb643f"),
    "sampled:dictator:monotonic_responsiveness:5x4:t100:s11":
        ("pass_within_search", "2cd7606cdcb3461564355965b278f103c5968bd302f158e1afc70931e7aa88e9"),
    "sampled:dictator:neutrality:3x3:t300:s5":
        ("pass_within_search", "1d936f016729a11b447330647e4ce312561baea3c2cf2a7af6faef502e92b202"),
    "sampled:dictator:neutrality:5x4:t100:s11":
        ("pass_within_search", "cb28fd6550c116b67f31578763ede53a5866bfc9e7a534c06825435112056d3f"),
    "sampled:dictator:non_dictatorship:3x3:t300:s5":
        ("fail", "eb4b2b8f65059507030a1ef72c29605dd039b780977af67073ddbb30c1cb12b1"),
    "sampled:dictator:non_dictatorship:5x4:t100:s11":
        ("fail", "26104ca5933031cbc6161ace5b537da454a356d32822107986e8e7d396abec5b"),
    "sampled:dictator:positive_responsiveness:3x3:t300:s5":
        ("pass_within_search", "4b3001f924e206c3dbede139bf8d54e48b546d57bd3a4db85b84bf3e474eeed5"),
    "sampled:dictator:positive_responsiveness:5x4:t100:s11":
        ("pass_within_search", "bd7a6d17bfb1267804277b351d6b6a64cd356aa65daddf4047356d56b5e01aa1"),
    "sampled:dictator:proximity_preservation:3x3:t300:s5":
        ("fail", "f70df93c0e06c09eb8a7413cf4a70e4393ca8243652257b91cd5a64ad70b5620"),
    "sampled:dictator:proximity_preservation:5x4:t100:s11":
        ("fail", "cadd268086870465c26905b9d27b672dfecacdaf513dc733b8a58e50c69f26f5"),
    "sampled:dictator:transitivity:3x3:t300:s5":
        ("pass_within_search", "3cc94f6655eac81272bf2bae0458bbc9e482da55bf2e7407f1375c1805bc2695"),
    "sampled:dictator:transitivity:5x4:t100:s11":
        ("pass_within_search", "d507a71a0f6550ec4e4dec3b35e132e147a168470659f3502503b001ae06e462"),
    "sampled:dictator:unanimity:3x3:t300:s5":
        ("pass_within_search", "40cb34153f936ea235c433d978ecc29deff1caf9f930bee912574bcc0337c0dd"),
    "sampled:dictator:unanimity:5x4:t100:s11":
        ("pass_within_search", "d1ffefb5fb1bf26f3d7b3da28baed30dcf764901386c856e8d5803b29efe6721"),
    "sampled:dictator:unrestricted_domain:3x3:t300:s5":
        ("pass_within_search", "4415826f0b57ad120aa12a890d2186af8083ff0e8bec9f32d6aeed57f6de4649"),
    "sampled:dictator:unrestricted_domain:5x4:t100:s11":
        ("pass_within_search", "d5a6d6c3db63b578ed890d23f3e22f44756a9d852eeac2dcc330f6855b9a03fc"),
    "sampled:inverse_may:agreement:3x2:t300:s5":
        ("pass_within_search", "a0d8d76d34cdc59cfdf9b20eff61fa8e03f8b479dd356ff06175e03775df1e4d"),
    "sampled:inverse_may:agreement:3x3:t300:s5":
        ("pass_within_search", "e2aa879b4c53d984c9a92f9c012f9108cb1ffd38deddf624288661fbab2c2daa"),
    "sampled:inverse_may:anonymity:3x2:t300:s5":
        ("pass_within_search", "66259f44cad611f946934089ea792b72a22fbf80dacace5690a52323a46052fc"),
    "sampled:inverse_may:anonymity:3x3:t300:s5":
        ("pass_within_search", "1c41e878096f646b862cf240f5d6a80e816164ffa36e8880cb175b962eefe8f1"),
    "sampled:inverse_may:iia:3x2:t300:s5":
        ("pass_within_search", "e124014c9e96216c56a135105a9e69b88a6bf47fc709ae0a719a8d66d4a31c37"),
    "sampled:inverse_may:iia:3x3:t300:s5":
        ("pass_within_search", "65173329346ffb6e7c5907b3447f06ce5069f30db3d2a9f13fe9e2e80e5aa5fa"),
    "sampled:inverse_may:monotonic_responsiveness:3x2:t300:s5":
        ("fail", "2ca62f90698aa48e88c6cf29dfdf28d3067aa2b0d8f621ed91c07935eab76a5e"),
    "sampled:inverse_may:monotonic_responsiveness:3x3:t300:s5":
        ("fail", "d7d3a5b866958ceeb13ba2a820b58dc8db55a34de3df294763a1467b8a4a6613"),
    "sampled:inverse_may:neutrality:3x2:t300:s5":
        ("pass_within_search", "b380558a74ffe68f8ca2ae610fc9bfa2371dc1084fea7b8bf77f9c023481cfab"),
    "sampled:inverse_may:neutrality:3x3:t300:s5":
        ("pass_within_search", "badd54b921fdd731ff8d1d465904eefc0221648348b4469eaecddd7a249faf0b"),
    "sampled:inverse_may:non_dictatorship:3x2:t300:s5":
        ("pass_within_search", "38de2ee4f8e78e9a6008dbdcacfe5d524c65c7391be714ae7b646b3a66262567"),
    "sampled:inverse_may:non_dictatorship:3x3:t300:s5":
        ("pass_within_search", "a102e5b4cc07561651a5ff37707a3856f53e34861831bb2d1f31e433b5d5464a"),
    "sampled:inverse_may:positive_responsiveness:3x2:t300:s5":
        ("fail", "a16266930c7b28b18160b20953a5982688526f7ec4bd0521ce064ae177e409b0"),
    "sampled:inverse_may:positive_responsiveness:3x3:t300:s5":
        ("fail", "e759fb5e68143ea1f2ee9734941cd2a39720404d649ca1a05e4098b3aeac84b0"),
    "sampled:inverse_may:proximity_preservation:3x2:t300:s5":
        ("fail", "d6f992995aca1709ac19b61a5e35febc468946bd1bf4821b975e57b84e938f6c"),
    "sampled:inverse_may:proximity_preservation:3x3:t300:s5":
        ("fail", "09820f9b292e87e5fed10bae5843ad605a0393f8d05334bac4a9ae97e0135ef4"),
    "sampled:inverse_may:transitivity:3x2:t300:s5":
        ("fail", "b2376ca17b5dac900900c38a99f115896422b3130c601d1344fbcf14a214251e"),
    "sampled:inverse_may:transitivity:3x3:t300:s5":
        ("fail", "5c1253d048e7b69c40403f928fde2b02280d0b451b97498b6f17e6f83b6e58b5"),
    "sampled:inverse_may:unanimity:3x2:t300:s5":
        ("fail", "62e279e55cd422471071985be77ffe8f597a78812130ae026f8c255c93002b2a"),
    "sampled:inverse_may:unanimity:3x3:t300:s5":
        ("fail", "eadf62054ad2444a0faacd580b58e62d1172ef02b79350edbbff4f2a3d0992a0"),
    "sampled:inverse_may:unrestricted_domain:3x2:t300:s5":
        ("pass_within_search", "a6b2891bb60f3a1a63c3c05aef652dfef309757937242e66d085c4794fd01497"),
    "sampled:inverse_may:unrestricted_domain:3x3:t300:s5":
        ("pass_within_search", "b4bf2018371900f26dd74e2f2d86f60213ad7f454bf5931fefd306a21bbd0dd9"),
    "sampled:kemeny:agreement:3x3:t300:s5":
        ("pass_within_search", "d6ee5b72dd99d8c9c0627a95351bcb379798b8bd20185b8ed8c4ff3294f09a29"),
    "sampled:kemeny:agreement:5x4:t100:s11":
        ("pass_within_search", "04ada1095e45431b8d54fa7d0edd859bcb010926921ce0f2fa2b28111c11f489"),
    "sampled:kemeny:anonymity:3x3:t300:s5":
        ("pass_within_search", "df91a20597e4d949d6901ad4b30a88792ded7def49db6892644e1a00e2c3528a"),
    "sampled:kemeny:anonymity:5x4:t100:s11":
        ("pass_within_search", "710d6212c4175eb73e2f4978c48135b25fc6c07bbd4f9a16dab25b5f0cfebd67"),
    "sampled:kemeny:iia:3x3:t300:s5":
        ("fail", "2c3673c9d2167536d0e8321c6885789fcbcd4d7b62b02df184b12c796d692054"),
    "sampled:kemeny:iia:5x4:t100:s11":
        ("fail", "33f78be02a3131b959f940a551dd4a63fa75dac67cce2bcc010f76ec05a42aeb"),
    "sampled:kemeny:monotonic_responsiveness:3x3:t300:s5":
        ("pass_within_search", "cfc647e7d7e5124f042107a9fab0abd5ba26d5488a51d8ee9beeb2689b4b90a1"),
    "sampled:kemeny:monotonic_responsiveness:5x4:t100:s11":
        ("pass_within_search", "0210aa748e261462d9947b9dee1c2340402e6fcd645885c19d0610053128f5b8"),
    "sampled:kemeny:neutrality:3x3:t300:s5":
        ("fail", "342737beb395ad3b230797a68f38e482298cafee4efd9893dfc96363b8056b8f"),
    "sampled:kemeny:neutrality:5x4:t100:s11":
        ("fail", "edf5e6d911d714f8036704ab527a8fe7c7d3ee2acbfa8c454bad026cb8b72158"),
    "sampled:kemeny:non_dictatorship:3x3:t300:s5":
        ("pass_within_search", "fd143b7f3ce996a56ac128002be4f5a064e228bd7d06aea07d938061439d7d6f"),
    "sampled:kemeny:non_dictatorship:5x4:t100:s11":
        ("pass_within_search", "ea822728f5fc983c4ea6b0c87fb9e0baf8188e58f3a990bb445c3c2d1592ff8a"),
    "sampled:kemeny:positive_responsiveness:3x3:t300:s5":
        ("pass_within_search", "9a0434e64bcee993d5e1b13888e1216b18975228682a541bb1d97ae800a1473f"),
    "sampled:kemeny:positive_responsiveness:5x4:t100:s11":
        ("pass_within_search", "153c5abeba993099de978d776dfd7f06538c4b47c19615cb17bdd5b372c85bf7"),
    "sampled:kemeny:proximity_preservation:3x3:t300:s5":
        ("fail", "0051a8d233b785a29fd15a91b2790fa4ab349a8f30492151cb35629b7e35a25c"),
    "sampled:kemeny:proximity_preservation:5x4:t100:s11":
        ("fail", "c72e6fb67e5a75869dde2e3f02ff01e2b2dcbd6b624b2e966706fa6942491fb5"),
    "sampled:kemeny:transitivity:3x3:t300:s5":
        ("pass_within_search", "390db165f155b2195e3bc1d367022fd356eabccd434cc359e20823ea95763431"),
    "sampled:kemeny:transitivity:5x4:t100:s11":
        ("pass_within_search", "b61d6db6779bd7c0ef9c8ccba8ea94998865d16a8b1422e42e853aa7e9c0c74e"),
    "sampled:kemeny:unanimity:3x3:t300:s5":
        ("pass_within_search", "977831e9cd5e2809c735e1533ae8014f7aa5ab3e2fbbf99d478c49834d4a1a6a"),
    "sampled:kemeny:unanimity:5x4:t100:s11":
        ("pass_within_search", "b205a6591c203343985a76bb92bc2d654c0f138d2d4f395d682ed5dd5669bed4"),
    "sampled:kemeny:unrestricted_domain:3x3:t300:s5":
        ("pass_within_search", "ab3be694c0051f2c583a2904e8514afb3b71c9a4adf32df0a3125cb92a42a2aa"),
    "sampled:kemeny:unrestricted_domain:5x4:t100:s11":
        ("pass_within_search", "3dbf2d68357182e21b7a614e2838ad71cf57742aee2c3c4bb8e26fc5cbb4c2dc"),
    "sampled:may:agreement:3x3:t300:s5":
        ("pass_within_search", "53db50ed2de716751863e8aa97a07ac953c1e84dd8fa3e73712d7c8324a01688"),
    "sampled:may:agreement:5x4:t100:s11":
        ("pass_within_search", "d607d6cf6be5856f4fe80a43cfc1fca66c431eac716d9c83ac86619a4afb4029"),
    "sampled:may:anonymity:3x3:t300:s5":
        ("pass_within_search", "615d27d2dec9189d0521dbef8625fb03d2f145f5ea9482b3328787e053e6e7d9"),
    "sampled:may:anonymity:5x4:t100:s11":
        ("pass_within_search", "a4ec081728bc4650f23710f0b4fc2ac54c2f996772cc66d81089dece5b0eaff6"),
    "sampled:may:iia:3x3:t300:s5":
        ("pass_within_search", "59ec29463c98ab81242d27848b278ee131fe518455e1f893532755b354d78712"),
    "sampled:may:iia:5x4:t100:s11":
        ("pass_within_search", "2e8b956bda98a765968ec327ffec4818f6413bfac1a614a1ab054533db932aac"),
    "sampled:may:monotonic_responsiveness:3x3:t300:s5":
        ("pass_within_search", "d7ff549317c08c2a8372d41bdcf75006dddd9749e1511f7700e3726fabdd6d52"),
    "sampled:may:monotonic_responsiveness:5x4:t100:s11":
        ("pass_within_search", "f6cecdfdbb451ecce6c1992fc159f890482305f3928d5e03f010d1eb7c2ad080"),
    "sampled:may:neutrality:3x3:t300:s5":
        ("pass_within_search", "9c759e8980209c65ad80c357c05ae56cf02eec0d3e232209635a5cd92693d132"),
    "sampled:may:neutrality:5x4:t100:s11":
        ("pass_within_search", "ff492996fc0d4101673f794c1564c464f088df5ba1782b9eb09affe4510ba729"),
    "sampled:may:non_dictatorship:3x3:t300:s5":
        ("pass_within_search", "d3f0a10a44dcfbb79a173e4b794f0abcb30e39ed809b1a0a526cc97d5db1d782"),
    "sampled:may:non_dictatorship:5x4:t100:s11":
        ("pass_within_search", "88f62e54057943d587d53cd24d7a43dce99eb608549139b074d072aa3c700ec9"),
    "sampled:may:positive_responsiveness:3x3:t300:s5":
        ("pass_within_search", "baaa2388d84ff5becef85521928214f49e9aa5ead4b1f9026981b2061e1fa425"),
    "sampled:may:positive_responsiveness:5x4:t100:s11":
        ("pass_within_search", "c69e4952a5cc5190acd7d807330b8cef9f2ce4a444c0b06316b20d216ce71bfd"),
    "sampled:may:proximity_preservation:3x3:t300:s5":
        ("fail", "bbbd88502cdd63843fb49d11be13a60b37b6889f859136a00fdd31a421d3dbf8"),
    "sampled:may:proximity_preservation:5x4:t100:s11":
        ("fail", "57437eacbd4d2df6e5720684e05d98ecd3e859f5d46d0c269745960f7a9391ab"),
    "sampled:may:proximity_preservation:60x20:t10:s7":
        ("fail", "a1aaa63cfe3ba2ed97af1d344ac23a20abff79f185eedea8c790eeb59445a1bb"),
    "sampled:may:transitivity:3x3:t300:s5":
        ("fail", "25fac22d91f234c7639a639b4b68a127d5250af8b9e4a8c7b3448909dae498f1"),
    "sampled:may:transitivity:5x4:t100:s11":
        ("fail", "a96dae71cff2aface842b70208746088104f770fd4c441c024137d21c3e6f994"),
    "sampled:may:unanimity:3x3:t300:s5":
        ("pass_within_search", "ffa07ee7d18037ab977a20aa013d323e3156111d99ea8274496606ea8ecd5860"),
    "sampled:may:unanimity:5x4:t100:s11":
        ("pass_within_search", "49132376d4682927b93a947c8ec43ae25e076da44aaa67a799769a89cddabb02"),
    "sampled:may:unrestricted_domain:3x3:t300:s5":
        ("pass_within_search", "dc6c408a6aba47512cf572e90787238f4a07cbb4bc06af41882213411b19400e"),
    "sampled:may:unrestricted_domain:5x4:t100:s11":
        ("pass_within_search", "ed49c98015144383f613690da68565b7140c204343fe7e1dcae17e64ececef76"),
    "sampled:strict_majority:agreement:3x2:t300:s5":
        ("fail", "82757c62b4753b85466a196f0ff4c6d8ed5e54104b61c8a34170d41fa32179fa"),
    "sampled:strict_majority:agreement:3x3:t300:s5":
        ("pass_within_search", "4ab86b120d388bf0238050748df6897e2a18549d389fc1c4fb733c2d33e19e16"),
    "sampled:strict_majority:anonymity:3x2:t300:s5":
        ("pass_within_search", "a0c3def26382914075aa719436a47c45c4abb00c272fb8ff7be27d4df9189b75"),
    "sampled:strict_majority:anonymity:3x3:t300:s5":
        ("pass_within_search", "654923199cdfc3a3f7c95799e3c5d27c199fa8d83a5a8f4432629c39f9c8da86"),
    "sampled:strict_majority:iia:3x2:t300:s5":
        ("pass_within_search", "a2d00756ed0714cd497ea6c18cfb4cdd03bf6730b64230c4f0686e2738b5e997"),
    "sampled:strict_majority:iia:3x3:t300:s5":
        ("pass_within_search", "313b4c104065917eb0ad05c6055249c774ad9cf6f00829fdec4233db5f95c10b"),
    "sampled:strict_majority:monotonic_responsiveness:3x2:t300:s5":
        ("pass_within_search", "d99806179bd4d3aae7718c5a31695289fe6a195b53f3b15df2a5169a422ae226"),
    "sampled:strict_majority:monotonic_responsiveness:3x3:t300:s5":
        ("pass_within_search", "09a6bd4d4f5c2acb6d9b333e32b14ca7a4d222fa5d1348a18a44a41f9e7c7790"),
    "sampled:strict_majority:neutrality:3x2:t300:s5":
        ("pass_within_search", "c767a5c617de800390fbc29fbbcd5fdd47f6676655f810ea357eee6173e8df93"),
    "sampled:strict_majority:neutrality:3x3:t300:s5":
        ("pass_within_search", "2d3581b304ba7f6c761359f5cf57f8b05a12ba7ac738eb5e3e78e1d3a74c0b44"),
    "sampled:strict_majority:non_dictatorship:3x2:t300:s5":
        ("pass_within_search", "54cdfaa6f0802aed8c5fdb83469927150367456b4b7d1472820f77580296bb6a"),
    "sampled:strict_majority:non_dictatorship:3x3:t300:s5":
        ("pass_within_search", "8ee2a416340f5e779dd71057239b8929d66e4a008896621031f0c3e935c48717"),
    "sampled:strict_majority:positive_responsiveness:3x2:t300:s5":
        ("pass_within_search", "ab6a1da47a3fea4346173d9457ab8593f9df79ebdf728375e595b71686ddb718"),
    "sampled:strict_majority:positive_responsiveness:3x3:t300:s5":
        ("pass_within_search", "92a4bf32707d001120e17940243c504859d9169a3dc7a99d342c0b7041c9c6ef"),
    "sampled:strict_majority:proximity_preservation:3x2:t300:s5":
        ("fail", "583a3119c069245c8a23666611543b0c374775d5222897f3a7aebab1bcae1fc3"),
    "sampled:strict_majority:proximity_preservation:3x3:t300:s5":
        ("fail", "4f25fd3d90fb8abe318d2d2c9a1978e22eadb2939de1323a18e5650884936591"),
    "sampled:strict_majority:transitivity:3x2:t300:s5":
        ("pass_within_search", "08f0440116502761bcf5e251ecf8beb9c8ee8f01bb2d21b871040dbd2b9d2882"),
    "sampled:strict_majority:transitivity:3x3:t300:s5":
        ("fail", "def345b854c6f1111320e8bd9fceb5d30c434c7bfdd85a90e5067f553873145e"),
    "sampled:strict_majority:unanimity:3x2:t300:s5":
        ("pass_within_search", "b2eabf2cf237a2d48d7b1084b53646473d18d6ca40d7f8c0218b6ed80e534c78"),
    "sampled:strict_majority:unanimity:3x3:t300:s5":
        ("pass_within_search", "7a45c53a1bb7ef703a563470decbd0e559ef75a6508e69b7bb1abf2aad3d86f9"),
    "sampled:strict_majority:unrestricted_domain:3x2:t300:s5":
        ("pass_within_search", "ae2132bdb491010c77127378e5f757892dbfa8edd030eb6a980eedd2f025374d"),
    "sampled:strict_majority:unrestricted_domain:3x3:t300:s5":
        ("pass_within_search", "dca28cdbf140e49d9d957436a028adcde8c6d461ef2ed9a12e4bed75c3e400f9"),
    "sampled:utilitarian:strict_unanimity:4x3:t300:s2":
        ("pass_within_search", "7eff59a3b99c671755f41ebb7db00d1e7163430ebb035409c4a948be09662b57"),
    "sampled:utilitarian:utility_iia:4x3:t300:s2":
        ("pass_within_search", "7b056d39dc0c969ce58205f99c912fa415b9b936ed9d390ab09114fdb89fd016"),
    "sampled:utility_borda:strict_unanimity:4x3:t300:s2":
        ("pass_within_search", "9861b50416a88788bb76d4bdafd358943a7fe00def2de90c5f4d203c9d2bb8ca"),
    "sampled:utility_borda:utility_iia:4x3:t300:s2":
        ("fail", "4ee31fac9e760df8c46846ff241755b299236a31cf71a1ebb96665ffc4262a79"),
}


def test_case_list_matches_digests():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_report_digest_frozen(case_id):
    verdict, _result, text = _run(case_id)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (verdict, digest) == DIGESTS[case_id]


def _passing_rules(case_id):
    """Rules of the same input mode that pass the same axiom over the same
    space, according to the frozen verdicts."""
    kind, rule, axiom, m, n, trials, seed = CASES[case_id]
    for other_id, (kind2, other, axiom2, m2, n2, t2, s2) in CASES.items():
        same = (kind2, axiom2, m2, n2, t2, s2) == (kind, axiom, m, n, trials, seed)
        if same and DIGESTS[other_id][0] == PASS:
            yield other


# A non-dictatorship witness only demonstrates the never-overruled
# individual on one profile, which a rule can follow there without being
# a dictator (kemeny's tie-break copies individual 1 at n=2), so those
# witnesses are checked against majority below instead.
FAIL_CASES = sorted(
    c
    for c, (verdict, _) in DIGESTS.items()
    if verdict == FAIL and CASES[c][2] != AxiomId.NON_DICTATORSHIP
)


@pytest.mark.parametrize("case_id", FAIL_CASES)
def test_witness_rejected_under_a_passing_rule(case_id):
    # verification re-runs the rule: a witness of one rule's violation is
    # no violation for a rule that passes the same axiom over the same
    # space
    _verdict, result, _text = _run(case_id)
    assert verify_result(RULES[CASES[case_id][1]], result)
    others = list(_passing_rules(case_id))
    assert others
    for other in others:
        assert not verify_result(RULES[other], result), other


@pytest.mark.parametrize("n", [2, 3])
def test_dictator_witness_rejected_under_majority(n):
    _verdict, result, _text = _run(f"exhaustive:dictator:non_dictatorship:3x{n}")
    assert verify_result(RULES["dictator"], result)
    assert not verify_result(RULES["may"], result)


def test_key_ranked_outcomes_build_relations_only_for_neutrality_witnesses():
    # a key-ranked outcome answers pair values, incomparable pairs and
    # order comparisons from its key; only a failed neutrality check builds
    # relations, for its expected_relation and actual_relation fields
    real = AggregationOutcome.__getattr__
    builds = []

    def counting(self, name):
        # reached for "relation" only while it is unbuilt
        if name == "relation" and self._key is not None:
            caller = sys._getframe(1)
            owner = type(caller.f_locals.get("self")).__name__
            builds.append(f"{owner}.{caller.f_code.co_name}")
        return real(self, name)

    AggregationOutcome.__getattr__ = counting
    try:
        by_case = {}
        for case_id in CASES:
            builds.clear()
            _run.__wrapped__(case_id)
            by_case[case_id] = set(builds)
    finally:
        AggregationOutcome.__getattr__ = real
    built = {case_id: sites for case_id, sites in by_case.items() if sites}
    # kemeny's tie-break is not neutral, so its neutrality witnesses build
    assert "exhaustive:kemeny:neutrality:3x2" in built
    for case_id, sites in built.items():
        assert sites == {"_Neutrality.check"}, case_id
        assert CASES[case_id][2] == AxiomId.NEUTRALITY, case_id
        assert DIGESTS[case_id][0] == FAIL, case_id


def test_budget_refusal_messages_frozen():
    with pytest.raises(BudgetExceeded) as exc:
        audit(RULES["may"], AxiomId.PROXIMITY_PRESERVATION, exhaustive(3, 5))
    assert str(exc.value) == (
        "proximity_preservation over m=3 n=5 needs 60466176 enumerations "
        "(limit 10000000)"
    )
    with pytest.raises(BudgetExceeded) as exc:
        audit(RULES["may"], AxiomId.IIA, exhaustive(4, 3))
    assert str(exc.value) == (
        "iia over m=4 n=3 needs 191102976 enumerations (limit 10000000)"
    )
