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
    "egorov-m4-exp/sasaki-tm": "6b0fc644eadb6372d904278a68da6f51a10429f0d19d85fe64a81ddb8c234fe8",
    "egorov-m4-exp/complete-tm": "baafda92c1daf23293fdded3280fdf1045fa395b11f2e4b7f3978bfd2f31e7b0",
    "egorov-m4-exp/sasaki-ctm": "dd74588364ad4cecbb4b54d9909fa206307f3d15980694abfed5249d12d94c9a",
    "egorov-m4-cosh/sasaki-tm": "3baa3e9a485aacfe42991f2a52ee5bc05f377598700c5e8690fe9b83a7b2865b",
    "egorov-m4-cosh/complete-tm": "4bceda4eb0d14f3a03822a0670d4d8f6f93d5ea2e672fb2788b242649ac52b9d",
    "egorov-m4-cosh/sasaki-ctm": "70496b47c4147c1a8220a8b6b686e93c0916d844e95eededfa201e2c7795df12",
    "egorov-m5-quad/sasaki-tm": "a755be0486c30503ce7393b768be645fc0837727c4e30fccc42ade0fad1c49f7",
    "egorov-m5-quad/complete-tm": "07749dcf01a16ec7bfff79c3db88236611347b3cf8310e442d330c47ef084612",
    "egorov-m5-quad/sasaki-ctm": "057e64617075b418e6515dc199e80af630d73f4628d4b69e65a1bf3490812a90",
    "godel-cosh/sasaki-tm": "2431cdfd82f465c49f1c76d20e309b30509ade3d493c5b3ee533aef66eb5bf9e",
    "godel-cosh/complete-tm": "d0dfbf2d40d7c5e94ce322cac5f6d096e38f59b62903154643f3ac9bef6f5ba9",
    "godel-cosh/sasaki-ctm": "26d199443c538bf40f5b7267387c43408459c2a2fc583b7b08f349fd3ab88617",
    "godel-exp/sasaki-tm": "c56648456fb8c668d1fe87d08e8e6724d638ad75c3c635bb486012acb5333e7b",
    "godel-exp/complete-tm": "e10afdc38a591b095934362bfd36d16273420099975a78cbe8bcee8a9c37773e",
    "godel-exp/sasaki-ctm": "b43059ccd428fa84f4dcdfccbcf422fc93e807a6b469a0e46c754a1a433a9641",
    "godel-shifted/sasaki-tm": "69b5a5b9d27ffadf376b9b3bcb3734fdf6f5756425a0e9ec256dc0934c7322b0",
    "godel-shifted/complete-tm": "5056e82b277a0b9bbebfa4ecf6da6b85cd718f0f1d7efa8114a2307063d03772",
    "godel-shifted/sasaki-ctm": "8492f927244a25b848ac5945ce4f4cce0c98dcb745907f813c29f94d1e172d33",
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
    "egorov-m4-2exp/sasaki-tm": "b28949d81bd93463cb250cb71918048e468d0bb9747c564651ab4a0602e7b80f",
    "egorov-m4-2exp/complete-tm": "84f653548c93caa3d1d006e2d09e279b716db6ddc8c715a73dfa362ee802f0ac",
    "egorov-m4-2exp/sasaki-ctm": "4e23c7db57abcd29b70ee760036c9cde4486c006204cab4bebaf768101cf7db9",
    "godel-2h/sasaki-tm": "7e36bcbeb0b3b5f59a79efa4babed67ad07b92eaa51cf5b9be4f855c18d13270",
    "godel-2h/complete-tm": "a7bedd5f11df70947a9206114d938ac4787452975edc4f5f1c52346da77f538b",
    "godel-2h/sasaki-ctm": "1b7a566fbbe476c823d2f4dbc428317f8f7baf22371c4f72561d25537dc23238",
    "walker-x2x3/sasaki-tm": "586fec8eb6ae2b413c8607cb526c4c4d7e5bf49eff2491d207e519a30714646f",
    "walker-x2x3/complete-tm": "0b45ec7ca83e291cf465627aebba273908dfdf7c219a9c26df4099d6a066704b",
    "walker-x2x3/sasaki-ctm": "15bb0cf07fda660aa3d509a2a62f2d885b62048651ef2048494b3404623deb6a",
    "dense-m2/sasaki-tm": "47ba99e0bc8be57c7a8f766e3865d02b750e9981ad8737e24a97a7096dd6b4f4",
    "dense-m2/complete-tm": "a9c4d13b3e1551553cb11463d6f3970c4b482fb581826ad7c3b0d23f56a48bef",
    "dense-m2/sasaki-ctm": "3efe54d247803908b0c15f155c3b28b4d81b6e7221674e0c9cc92cb4d30384f9",
    "dense-m3/sasaki-tm": "dc0acb1fca42d18106b0c9c558413e153e945cbf3c53c180f8930f092396a35d",
    "dense-m3/complete-tm": "0566127bf1cfc0ecec3384b18672b3f1ca5efd555ac0c8b30c677c8d931e75be",
    "dense-m3/sasaki-ctm": "2581d3fdb60bbd524557f34650b41d0f97903f67d0e557c5309d197dd5c899b0",
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
