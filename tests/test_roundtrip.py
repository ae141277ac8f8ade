"""`lift | check`: the emitted text, and the sharing its reparse recovers.

`lift` prints each subexpression shared by the two lifted charts once, as
a named definition.  Parsing interns structurally identical subtrees, so
the definitions manifest parses to the very nodes of the expanded text
(one `to_source` tree per entry), and the reparsed chart is no larger than
the assembled one and evaluates exactly like a plain (unshared) parse.
"""

import hashlib
import json

import numpy as np
import pytest

from metriclift import cli
from metriclift import exprlang as ex
from metriclift.harmonic import lattice_points
from metriclift.lifts import LiftKind, lift_to_chart
from metriclift.metric import ChartedMetric, metric_at, metric_jets_at
from conftest import HARMONIC_PAIRS, NON_HARMONIC_PAIRS, dense_metric


DENSE2, DENSE3 = dense_metric(2), dense_metric(3)


def unique_nodes(roots) -> int:
    seen = set()
    stack = list(roots)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, (ex.Neg, ex.Call)):
            stack.append(e.arg)
        elif isinstance(e, ex.Binary):
            stack += [e.left, e.right]
    return len(seen)


def upper_triangle(g: ChartedMetric):
    return [g.components[i][j] for i in range(g.dim) for j in range(i, g.dim)]


def reparse(g: ChartedMetric) -> ChartedMetric:
    return ChartedMetric.from_strings(g.coords, g.component_sources(), g.domain)


# Dense m=3 takes the tangent-bundle lifts whose charts stay small enough to
# evaluate unshared in a test; dense m=2 takes every kind.
SHARING_CASES = [(2, kind) for kind in LiftKind] + [
    (3, LiftKind.HORIZONTAL_TM),
    (3, LiftKind.COMPLETE_TM),
]


@pytest.mark.parametrize(
    "m,kind", SHARING_CASES, ids=[f"dense-m{m}-{k.value}" for m, k in SHARING_CASES]
)
def test_reparse_keeps_sharing_and_values(m, kind, monkeypatch):
    lifted = lift_to_chart(DENSE2 if m == 2 else DENSE3, kind)
    shared = reparse(lifted)
    assert unique_nodes(upper_triangle(shared)) <= unique_nodes(upper_triangle(lifted))

    # the same text parsed with no node table: one node per occurrence
    monkeypatch.setattr(ex._Parser, "node", lambda self, key, cls, *fields: cls(*fields))
    plain = reparse(lifted)
    monkeypatch.undo()
    assert unique_nodes(upper_triangle(plain)) > unique_nodes(upper_triangle(shared))

    x = lattice_points(lifted.domain, 4, seed=5)
    for a, b in zip(metric_jets_at(shared, x), metric_jets_at(plain, x)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", [LiftKind.SASAKI_TM, LiftKind.SASAKI_CTM], ids=lambda k: k.value)
def test_sasaki_minors_are_built_once(kind):
    # a cofactor expansion that copied every minor had about 76,000 nodes;
    # the count is named so that a failure does not print the trees
    count = unique_nodes(upper_triangle(lift_to_chart(dense_metric(7), kind)))
    assert count <= 15_000


def _base_manifest(g, ghat) -> dict:
    return {
        "coordinates": list(g.coords),
        "metric": g.component_sources(),
        "hat_metric": ghat.component_sources(),
        "domain": [list(iv) for iv in g.domain],
    }


def _lift_stdout(tmp_path, capsys, g, ghat, kind) -> str:
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_base_manifest(g, ghat)))
    code = cli.main(["lift", "--manifest", str(path), "--lift", kind.value])
    assert code == 0
    return capsys.readouterr().out


def parse_lifted(doc: dict, table: dict) -> tuple[ChartedMetric, ChartedMetric]:
    """The two charts of an emitted manifest, parsed into ``table``."""
    coords = doc["coordinates"]
    names = ex.parse_definitions(doc["definitions"], coords, table)
    return tuple(
        ChartedMetric.from_strings(coords, doc[key], doc["domain"], table, names)
        for key in ("metric", "hat_metric")
    )


# sha256 of the `lift` stdout.  The horizontal lift has no entry of its own:
# its chart is the complete lift's (README Known result 1), so `lift` prints
# the same bytes for both kinds.  What the text must parse to is pinned by
# `test_definitions_parse_to_the_expanded_nodes`.
LIFT_STDOUT_SHA256 = {
    "egorov-m3-exp/sasaki-tm": "7d14eb681d33ae18e5c000402f1a1c36792e3d5cf1c7ef758092ce66e7c6a97c",
    "egorov-m3-exp/complete-tm": "900613475d0c4bc7a88202fa626890ba619a4ddb23b2ae6082dd9b6571fc80cf",
    "egorov-m3-exp/sasaki-ctm": "8d205b9a35f340c6632a00997a6670bacfbc7ad48ac03a5e27cf18cfa405c35d",
    "egorov-m3-quad/sasaki-tm": "82d67d1ef7c7d36193d75215b49c5b7946a42387414fe9538297c41fa3129dad",
    "egorov-m3-quad/complete-tm": "943808814acfc3c0098004132e6d9af4685ccda85e2324673af3c4b5df2440a5",
    "egorov-m3-quad/sasaki-ctm": "87c184435c2fb936e5d5073e480a4798e735107a191cdd236d17e8bc17aa120a",
    "egorov-m3-cosh/sasaki-tm": "b832cfe1dbb03228d3f8b00ac58374839fbf7106dc76648e0d5b20727c450fc1",
    "egorov-m3-cosh/complete-tm": "08f914f0cf4bc48913e51a67ec072e87d21b4c2c02c4f3e377948a32bfa48de8",
    "egorov-m3-cosh/sasaki-ctm": "03183cc76b0d2f25e4ce1665d51cf0a6fbef605e875c414ed7ba9eac6dbfa33a",
    "egorov-m4-exp/sasaki-tm": "2db0297305d38a6b7b64d926caeca899c349c79aee1ea0247af3e87537589e2d",
    "egorov-m4-exp/complete-tm": "baafda92c1daf23293fdded3280fdf1045fa395b11f2e4b7f3978bfd2f31e7b0",
    "egorov-m4-exp/sasaki-ctm": "93e14854f09638d82797fbf23f74955d4bc3e35c3c9c0c535f0be473bc4aa32b",
    "egorov-m4-cosh/sasaki-tm": "fb596fed8f5106c81f416f3326af083fce7f6691168cd4d3ae01f629ebfa08b8",
    "egorov-m4-cosh/complete-tm": "4bceda4eb0d14f3a03822a0670d4d8f6f93d5ea2e672fb2788b242649ac52b9d",
    "egorov-m4-cosh/sasaki-ctm": "48c6c4ca5288eab1920311d10babf3163d1d980a3f3e9335836d73dfada852d6",
    "egorov-m5-quad/sasaki-tm": "a50bea920a4b688e2ec0f393fecc5e296eb463407ded06f4cd637ee569d985b3",
    "egorov-m5-quad/complete-tm": "07749dcf01a16ec7bfff79c3db88236611347b3cf8310e442d330c47ef084612",
    "egorov-m5-quad/sasaki-ctm": "6a33b1b876ccf46796410633012cd8577d91549adf2ca4325e14717bb9919a82",
    "godel-cosh/sasaki-tm": "4c4a916ec8e911a8255604b2923648db8d2778bc5510b712ec39f12c9af88c7a",
    "godel-cosh/complete-tm": "d0dfbf2d40d7c5e94ce322cac5f6d096e38f59b62903154643f3ac9bef6f5ba9",
    "godel-cosh/sasaki-ctm": "66e126c53914cb7d9b8040f83f231ed612888ddfd1c55b87a43658e9dcb18b42",
    "godel-exp/sasaki-tm": "12403e8c639c43d72fbca08c1e9672abd7a7bb0f2be50cb6995d63f34cc3c4ce",
    "godel-exp/complete-tm": "e10afdc38a591b095934362bfd36d16273420099975a78cbe8bcee8a9c37773e",
    "godel-exp/sasaki-ctm": "e510873d14dfcbdab9971e86210e746d4ea67c5826e538b358c2e60a85da2658",
    "godel-shifted/sasaki-tm": "5edd5001b788c60369415e0af9a5696cc1e56d660f5bff99b77d5044cb550f18",
    "godel-shifted/complete-tm": "5056e82b277a0b9bbebfa4ecf6da6b85cd718f0f1d7efa8114a2307063d03772",
    "godel-shifted/sasaki-ctm": "037657310817b3209f8aa7a5956cf8826f558cdddcd1bf16a78bba1c4353f923",
    "walker-const/sasaki-tm": "43eabd8a4adeecc3475c64524e72a09bdc3f751c5101199c2ea2e95d8ef665dc",
    "walker-const/complete-tm": "08bbb326b659a86a86f7f3ad1f8073098831fb3f3034b71d989c960363485363",
    "walker-const/sasaki-ctm": "411bccfd4b28d9b66e4636ff705734b59c8f8593ee3b24d9765c22c6bf3687b0",
    "walker-linear/sasaki-tm": "3a056b65431bbf27b208e1996e07ba049e91c1fe38e040ca71df217b221ca172",
    "walker-linear/complete-tm": "acf6f3f7ee4aa966546bab153bd7ec5ce1248dd858f3c4c0264d8b2f817c5e65",
    "walker-linear/sasaki-ctm": "5bbcc3a3ba0d65572e52e12bcc9e455fcc6fa64ce3e7fa80a4a5ad3d54930b43",
    "walker-mixed/sasaki-tm": "a6398a4fd641a8c9db16449124f17ef2cefb167b8e8e161433c7ae4565f076b5",
    "walker-mixed/complete-tm": "ecaa09a80c5ecbe85c87318d3ffef31ec040039d64a460a82c12922704b78916",
    "walker-mixed/sasaki-ctm": "591ce95ad880c1f00a4cc92ba72bc80046212da0854c5631ff875424df2824e4",
    "egorov-m3-2exp/sasaki-tm": "80b70c6322f71acf469754e2578d2bf9dfd78bae15b8bde5ba331f551fbe0847",
    "egorov-m3-2exp/complete-tm": "a2b1d4a1e0bdcffcaafa83da5c5f9bffde07cf138b05bed37f2001bec22e2120",
    "egorov-m3-2exp/sasaki-ctm": "9463e419e1ba0e5f587eb34e02623589d567e096bd3575bd0498c6fdca9ad47a",
    "egorov-m4-2exp/sasaki-tm": "7c85821da2238683746ccfc83e4a1f4a9d62d574c89b53bcba714a6c9e237720",
    "egorov-m4-2exp/complete-tm": "84f653548c93caa3d1d006e2d09e279b716db6ddc8c715a73dfa362ee802f0ac",
    "egorov-m4-2exp/sasaki-ctm": "99fea8caf4a25a7ff586fb1d2a554bb23f8ed907ba1dd842e5af7e56794689e6",
    "godel-2h/sasaki-tm": "4c34d975308778b00f7d2c5db8b2b96e454f731a7a69eded7d28966c76ef6d7f",
    "godel-2h/complete-tm": "a7bedd5f11df70947a9206114d938ac4787452975edc4f5f1c52346da77f538b",
    "godel-2h/sasaki-ctm": "8bfc8ec01013dd002898fca352559d7e08d88d230631f07b3a491dd3b52446f4",
    "walker-x2x3/sasaki-tm": "586fec8eb6ae2b413c8607cb526c4c4d7e5bf49eff2491d207e519a30714646f",
    "walker-x2x3/complete-tm": "0b45ec7ca83e291cf465627aebba273908dfdf7c219a9c26df4099d6a066704b",
    "walker-x2x3/sasaki-ctm": "15bb0cf07fda660aa3d509a2a62f2d885b62048651ef2048494b3404623deb6a",
    "dense-m2/sasaki-tm": "47ba99e0bc8be57c7a8f766e3865d02b750e9981ad8737e24a97a7096dd6b4f4",
    "dense-m2/complete-tm": "a9c4d13b3e1551553cb11463d6f3970c4b482fb581826ad7c3b0d23f56a48bef",
    "dense-m2/sasaki-ctm": "3efe54d247803908b0c15f155c3b28b4d81b6e7221674e0c9cc92cb4d30384f9",
    "dense-m3/sasaki-tm": "fe926469d223647fdd2cdb795f07e55fc769758696968c64e767bb8327481fde",
    "dense-m3/complete-tm": "0566127bf1cfc0ecec3384b18672b3f1ca5efd555ac0c8b30c677c8d931e75be",
    "dense-m3/sasaki-ctm": "c872bae6c1390d74cb23fec848b137a2fa093fc6444a1afcfe59bd1cb2b59e9b",
}

GOLDEN_CASES = [
    (f"{name}/{kind.value}", g, ghat, kind)
    for name, g, ghat in HARMONIC_PAIRS + NON_HARMONIC_PAIRS
    for kind in LiftKind
] + [
    (f"dense-m{g.dim}/{kind.value}", g, g, kind) for g in (DENSE2, DENSE3) for kind in LiftKind
]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_lift_stdout_unchanged(case, tmp_path, capsys):
    label, g, ghat, kind = case
    out = _lift_stdout(tmp_path, capsys, g, ghat, kind)
    recorded = label.replace(LiftKind.HORIZONTAL_TM.value, LiftKind.COMPLETE_TM.value)
    assert hashlib.sha256(out.encode()).hexdigest() == LIFT_STDOUT_SHA256[recorded]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_definitions_parse_to_the_expanded_nodes(case, tmp_path, capsys):
    # the expanded text of each chart `lift` assembles (from the base
    # charts as the CLI parses them) is what it printed before it emitted
    # definitions
    label, g, ghat, kind = case
    doc = json.loads(_lift_stdout(tmp_path, capsys, g, ghat, kind))
    table: dict = {}
    expanded = [
        ChartedMetric.from_strings(c.coords, c.component_sources(), c.domain, table)
        for c in (
            lift_to_chart(base, kind)
            for base in cli.build_metrics(_base_manifest(g, ghat), need_hat=True)
        )
    ]
    shared = parse_lifted(doc, table)
    m = expanded[0].dim
    for a, b in zip(shared, expanded):
        assert a.coords == b.coords and a.domain == b.domain
        assert all(a.components[i][j] is b.components[i][j] for i in range(m) for j in range(m))

    # parsed apart, into tables of their own, they evaluate bit-identically
    alone = parse_lifted(doc, {})
    x = lattice_points(shared[0].domain, 4, seed=5)
    for a, b in zip(alone, expanded):
        assert metric_at(a, x).tobytes() == metric_at(b, x).tobytes()
        for ja, jb in zip(metric_jets_at(a, x), metric_jets_at(b, x)):
            assert ja.tobytes() == jb.tobytes()


# sha256 of the expanded text (`component_sources()`, one tree per entry) of
# the Sasaki lifts of every gallery base chart, g and g-hat, and of dense
# m=2, 3: the trees `lift_to_chart` assembles, whichever nodes they share.
SASAKI_SOURCES_SHA256 = {
    "egorov-m3-exp/g/sasaki-tm": "37c2d0189a173d9cb313de0e29c2eb63d6e4f87313eccc5731dfd0af27bce99b",
    "egorov-m3-exp/g/sasaki-ctm": "0b0b0f9a274855373661004f9d9fc0f33059eedfd3817ead4568a947a29fa1bb",
    "egorov-m3-exp/ghat/sasaki-tm": "5010b497600337e71f7982f7624456850456239f209882e00a39dd72f749ef4d",
    "egorov-m3-exp/ghat/sasaki-ctm": "ce6c809b08b33d35a4a59c8f9ff2683583f994b0ca0f21f6fcaf599d43c84c80",
    "egorov-m3-quad/g/sasaki-tm": "d644e42f19983684b609585243002cbb4462d9e29b1c187a04175d407132d0c1",
    "egorov-m3-quad/g/sasaki-ctm": "f7454e8512714a8a0c3ac18df22222433392784be5d757a31cc8fedf0710ae84",
    "egorov-m3-quad/ghat/sasaki-tm": "f876a7dd0cfbede01ce48f99a6ce3b1d2dbc7b641c1dbc49b324c100de127562",
    "egorov-m3-quad/ghat/sasaki-ctm": "47d539e069d5125bb9695c9401c9f6220c089710130da2a3327b199e9b7883aa",
    "egorov-m3-cosh/g/sasaki-tm": "0ca11862ecb1a7957e0ee57e695fbf8b6c70c484ae52db7b68ef174022de7276",
    "egorov-m3-cosh/g/sasaki-ctm": "6239380820a616b0483525918a6847faab72f6695f3758bcf51887a14acbbad7",
    "egorov-m3-cosh/ghat/sasaki-tm": "2e735ade26899a6273ac83882fd985d488a3d8ccaf16c0291adb0e1c37860399",
    "egorov-m3-cosh/ghat/sasaki-ctm": "1c90cd5fbbcc6f39bf9f27044a6c442c3b83dd6d8fbc38e62eb1d1999ca3d1b8",
    "egorov-m4-exp/g/sasaki-tm": "832bda243c4b0cff64b32d85fa70fdf9e4cd09a9023cebc357737ef2c2ac68c1",
    "egorov-m4-exp/g/sasaki-ctm": "88f0b1a8d29b66c2a944eb607066f0042193682856e6f3bacac36e3907fd68ac",
    "egorov-m4-exp/ghat/sasaki-tm": "3a6f25381312933600e062f90a46dfc59e5dfb383135c58a89b24a8436261cc8",
    "egorov-m4-exp/ghat/sasaki-ctm": "a9289bc348548cd1a6b8155112ea7dcba21fc62027a350a11a7f519e95263607",
    "egorov-m4-cosh/g/sasaki-tm": "3d6098d31810c68d705e85816b1ae4428419d5b972c0293718c94c1c5df62b2e",
    "egorov-m4-cosh/g/sasaki-ctm": "719e33bc09da1af634ebef5d54860051f728fa9e37f53dbcd5aa071a5c13fbfe",
    "egorov-m4-cosh/ghat/sasaki-tm": "1ff00b9f7c71723a7a39be1ad16033f3d7b7a7f9e5b5dc6b4611411acb4c67c1",
    "egorov-m4-cosh/ghat/sasaki-ctm": "e42501dfd15c050c33bf366de128e5c5b009a2583bf674fe7aa5085c6f298d52",
    "egorov-m5-quad/g/sasaki-tm": "582bcf325c977539497fd6babf86d4c3c2d00d8ba47644e1b360a31d52b00d4c",
    "egorov-m5-quad/g/sasaki-ctm": "501396f6c056e6aa9eb1bb7b8ae828ce3c41c072ce6697dbd6ada6e6c1dcfa8b",
    "egorov-m5-quad/ghat/sasaki-tm": "aea923e00efa0eafbc8541eb46bcfe32ddb536d77b8beb4beaab506e33ba2ea2",
    "egorov-m5-quad/ghat/sasaki-ctm": "ff3926cf615581b1c52d70294fc9b56f5a17d9998b30e65305678920e1b59a05",
    "godel-cosh/g/sasaki-tm": "e3a9df5b63aa66fa416c5c23379152ca13f7979db1a1b696c4a1ed731ff9773f",
    "godel-cosh/g/sasaki-ctm": "ac999b378b74a1ebbed7282a99fa303a069bae2b888aef11eb37acdb23498ed1",
    "godel-cosh/ghat/sasaki-tm": "0f480e789e561654004932fb7f95eddac0e83cff6c1f961b889aad99aa9f1724",
    "godel-cosh/ghat/sasaki-ctm": "d0a1b2a4ed531d2bfa94abd7128e8b9234faa36480315ffeabd0eb99f917f7b5",
    "godel-exp/g/sasaki-tm": "7f1ac5c2059d816a17d515c543e9cbd356657dcc780bff44394330efdd2dc785",
    "godel-exp/g/sasaki-ctm": "624940dc47437f6d19a26d40498e6cb7cb2fc061caa078a80198bd9ae1b9d728",
    "godel-exp/ghat/sasaki-tm": "ea0cf43121775a0cc2f58f5bc18a2a15a08d2de4b5afb458f9105b851da56ac4",
    "godel-exp/ghat/sasaki-ctm": "9339ff0b5d4e9ed9183c1440db798e71c3ad3f82d58e053665b579840d0e72d4",
    "godel-shifted/g/sasaki-tm": "0110f300818d8e98f1d9e1ec84557be20e4234a29b1a8dad06d7c2ac72c4607e",
    "godel-shifted/g/sasaki-ctm": "18c99e643ddeb08def691c1c087519aafffd149bf60703954e6a7813208aed67",
    "godel-shifted/ghat/sasaki-tm": "acf89632864d99a23dfad5a791bbf03913d02af1b2a971e7c204b627e8eaedac",
    "godel-shifted/ghat/sasaki-ctm": "cc63de279f3f1fe0cd57da0e3b601b14ff562d12b8d662f042656b45fa4a22e7",
    "walker-const/g/sasaki-tm": "638fa1ecad463c22468ad71f01709554b8e6bddcbfc22d481c6f3e54ed21ee3a",
    "walker-const/g/sasaki-ctm": "2260d6ce64e0d0ed30e6523ee5d5b46cd77807c7733e07b15ae55222f9bc2b7a",
    "walker-const/ghat/sasaki-tm": "fc66c7551b97d7f21a0413426fe676f5da84527f79960e8a5f84a63f0c09d415",
    "walker-const/ghat/sasaki-ctm": "453547f127efa645425ea53c05b13a4cd405d2e0d654c529e291696a0aa15da3",
    "walker-linear/g/sasaki-tm": "638fa1ecad463c22468ad71f01709554b8e6bddcbfc22d481c6f3e54ed21ee3a",
    "walker-linear/g/sasaki-ctm": "2260d6ce64e0d0ed30e6523ee5d5b46cd77807c7733e07b15ae55222f9bc2b7a",
    "walker-linear/ghat/sasaki-tm": "b632c7a3e74544870b87c1a893053f84b5ff78f67e891d5ee01a3aa0017f1568",
    "walker-linear/ghat/sasaki-ctm": "4c0e20ad2dc2dbcc02ef9e72bcab239b32505ad4bafc9c7de9fdc6b3372fb017",
    "walker-mixed/g/sasaki-tm": "7fad5f30ade21d4a3ee9b58bd4991bb8f620490bb79dd9e26d28b642b4efaefd",
    "walker-mixed/g/sasaki-ctm": "b005b08eb7b5486ff04812742e739db8256477fe57aed11e3eb7950cabde10a4",
    "walker-mixed/ghat/sasaki-tm": "cd5bd8e0783cfd16a2baa3f85f5417b74737e1164c84630f9c1a5aac8b2dadac",
    "walker-mixed/ghat/sasaki-ctm": "a9624deec1fb93f5959504784f93f2498b43c801f49d0ae01cf298a7d36419b7",
    "egorov-m3-2exp/g/sasaki-tm": "37c2d0189a173d9cb313de0e29c2eb63d6e4f87313eccc5731dfd0af27bce99b",
    "egorov-m3-2exp/g/sasaki-ctm": "0b0b0f9a274855373661004f9d9fc0f33059eedfd3817ead4568a947a29fa1bb",
    "egorov-m3-2exp/ghat/sasaki-tm": "097e204719d4be3a535f85786cc72a5dfc71503997779fcaf2afa1783c16d51c",
    "egorov-m3-2exp/ghat/sasaki-ctm": "96c9670a061ef3b029246a86296fc6b64215d377db077c772f79c71488fbdf44",
    "egorov-m4-2exp/g/sasaki-tm": "832bda243c4b0cff64b32d85fa70fdf9e4cd09a9023cebc357737ef2c2ac68c1",
    "egorov-m4-2exp/g/sasaki-ctm": "88f0b1a8d29b66c2a944eb607066f0042193682856e6f3bacac36e3907fd68ac",
    "egorov-m4-2exp/ghat/sasaki-tm": "c92d72cc29a8c4f5949e4ee1ad78bfbf3f1667b5d253d00a148afe379cf7c93f",
    "egorov-m4-2exp/ghat/sasaki-ctm": "4f095ce2fe659ec79be2f103aba917778bdd54a967d6fc89583f4adf50e4db95",
    "godel-2h/g/sasaki-tm": "e3a9df5b63aa66fa416c5c23379152ca13f7979db1a1b696c4a1ed731ff9773f",
    "godel-2h/g/sasaki-ctm": "ac999b378b74a1ebbed7282a99fa303a069bae2b888aef11eb37acdb23498ed1",
    "godel-2h/ghat/sasaki-tm": "379ba480f27bcfdf1cb57379157fbe16b9ff17119ff446cd26006b3e7d85c833",
    "godel-2h/ghat/sasaki-ctm": "ee9bbed6c993f9206c133800889afb26512e0d74d7f20253ca9422e17f5b4145",
    "walker-x2x3/g/sasaki-tm": "638fa1ecad463c22468ad71f01709554b8e6bddcbfc22d481c6f3e54ed21ee3a",
    "walker-x2x3/g/sasaki-ctm": "2260d6ce64e0d0ed30e6523ee5d5b46cd77807c7733e07b15ae55222f9bc2b7a",
    "walker-x2x3/ghat/sasaki-tm": "0e0dbde5badea45c27a671cf70175ff2936d02aee5ac4f1331bc933d667670e5",
    "walker-x2x3/ghat/sasaki-ctm": "eca91178ac8bcb7839ecc0924f4f1bf81f6a5413d4ec7247cc3339c334952b73",
    "dense-m2/sasaki-tm": "f4e37105ef586d9c3eae065f504a0e0357ccaedc19e6162c6aa07aced3e6b7b7",
    "dense-m2/sasaki-ctm": "d32f1bee650fa900145585c77bdf7b8f2963ef0151687ccf0350cb3eca806c0e",
    "dense-m3/sasaki-tm": "d2373654eeffbd5e74d33fb75724168f0eb40b9b2ad32eae8fcfac4e801be525",
    "dense-m3/sasaki-ctm": "80f8b446644788fb91abc4e9d32f7af2c0f5b3d5e29941b8ab9c3194f9655263",
}

SASAKI_BASES = {
    **{
        f"{name}/{which}": base
        for name, g, ghat in HARMONIC_PAIRS + NON_HARMONIC_PAIRS
        for which, base in (("g", g), ("ghat", ghat))
    },
    "dense-m2": DENSE2,
    "dense-m3": DENSE3,
}


@pytest.mark.parametrize("kind", [LiftKind.SASAKI_TM, LiftKind.SASAKI_CTM], ids=lambda k: k.value)
@pytest.mark.parametrize("label", list(SASAKI_BASES))
def test_sasaki_expanded_text_unchanged(label, kind):
    text = json.dumps(lift_to_chart(SASAKI_BASES[label], kind).component_sources())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SASAKI_SOURCES_SHA256[f"{label}/{kind.value}"]
