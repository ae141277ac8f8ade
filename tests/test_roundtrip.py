"""`lift | check`: the emitted text, and the sharing its reparse recovers.

`lift` prints DAGs with heavy sharing as expanded trees; parsing the text
back interns structurally identical subtrees, so the reparsed chart must
be no larger than the assembled one and evaluate exactly like a plain
(unshared) parse of the same text.
"""

import hashlib
import json

import numpy as np
import pytest

from metriclift import cli
from metriclift import exprlang as ex
from metriclift.harmonic import lattice_points
from metriclift.lifts import LiftKind, lift_to_chart
from metriclift.metric import ChartedMetric, metric_jets_at
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


def _lift_stdout(tmp_path, capsys, g, ghat, kind) -> str:
    doc = {
        "coordinates": list(g.coords),
        "metric": g.component_sources(),
        "hat_metric": ghat.component_sources(),
        "domain": [list(iv) for iv in g.domain],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["lift", "--manifest", str(path), "--lift", kind.value])
    assert code == 0
    return capsys.readouterr().out


# sha256 of the `lift` stdout, recorded before printing was memoized.  The
# horizontal lift has no entry of its own: its chart is the complete lift's
# (README Known result 1), so `lift` prints the same bytes for both kinds.
LIFT_STDOUT_SHA256 = {
    "egorov-m3-exp/sasaki-tm": "a062959259acb268ce452e9adba9c13b4aa5e4abddb1cb1e6b57d81305bc911f",
    "egorov-m3-exp/complete-tm": "def8c85f93f618cdf81583a800e7663fdd0bf5468625b1a25cde3daf5e04a23d",
    "egorov-m3-exp/sasaki-ctm": "472218cede22f987003506d3a65d6dad6b17fe891e79954b79a82e66fef93e67",
    "egorov-m3-quad/sasaki-tm": "50c94bb2666c076de7dce622213d99c9acab9d2a21098a1ce9f360e46ae7a2d0",
    "egorov-m3-quad/complete-tm": "06531549d5ff1d2b910d76390af0b4ca7c95002d71c888eee4124d76517ea54f",
    "egorov-m3-quad/sasaki-ctm": "e15411c164e97086940b762312df0d67f408681bf88b298c601ace0f566315be",
    "egorov-m3-cosh/sasaki-tm": "96d4eb039df011c15fafd7bccdccdf7e84ac0ff80a3763fae3fccb1d6a53727d",
    "egorov-m3-cosh/complete-tm": "844e4e1960828fa34c0e7782044e21d392c840c16666e15d6cecc92feb4abec8",
    "egorov-m3-cosh/sasaki-ctm": "210797decde38d26eb3f9a950ed1164bc1055d7aa05e8641ba67909ec399eb9c",
    "egorov-m4-exp/sasaki-tm": "d18d9480d9c0ed69886cec782dfc04975a3c6f8acb3f51c19cf2d5c3bc312525",
    "egorov-m4-exp/complete-tm": "65439acda7160ac1c98ff954b2bb1c02e0dc44a6a58cf0397aab0eaf970189f6",
    "egorov-m4-exp/sasaki-ctm": "07ea9a2b65821fa188cca2962cfaa312f6a3ca21d1546b1d2399d6a7fc0073f6",
    "egorov-m4-cosh/sasaki-tm": "d3f8bb170d8dfee49fb31de092b25b5042a7131de49e950619ab2461f8cb00a7",
    "egorov-m4-cosh/complete-tm": "18d9f95f841f73808a54d9240c221d4f7282f8cac247b85b7579baaccce20b54",
    "egorov-m4-cosh/sasaki-ctm": "72c3787eb04d0919e2a42afafab06544b6f0acc43c03cea548720d0163d3b5a4",
    "egorov-m5-quad/sasaki-tm": "1e6bccca11771c6692dd381f3d95cd53a48d7cbcce8c9950a2e6b179c222e5a0",
    "egorov-m5-quad/complete-tm": "a15a02a11ce899e1fcd9f998366b93db22afd629220b7bcb4f2a7e7a29726f62",
    "egorov-m5-quad/sasaki-ctm": "d2d00ec10fdfa76b21ff5af01a78a9eedb78d83173f7087f98f9e132de2a09e0",
    "godel-cosh/sasaki-tm": "11ee23bb7aa871d8ba4c6b609e59a04ea24cc5be46016a6e5991abfe31775988",
    "godel-cosh/complete-tm": "543b8e1cf3e113acd9bbfbced078f69b4e0fd1d8a3fd2b819f86af6f9e2dc4ea",
    "godel-cosh/sasaki-ctm": "fba47eada6e5b87cf54e785af28af93914f8f1fcde9847beefec77e57ee462e1",
    "godel-exp/sasaki-tm": "be942bfb9da12483ab6ee48269ec495f9c182f9c87900633173cad155d5c8b0c",
    "godel-exp/complete-tm": "d5bedb42791a36aa578c1da9fb7051e1436e8cc3fdff50b364515e8460fe6ce7",
    "godel-exp/sasaki-ctm": "91cb9b9195e7abb05acfddf5b5f5afe9780a6badb3aff29d8353f3dc1ffa6563",
    "godel-shifted/sasaki-tm": "881fc19d5126a21b9839c5ccfc6b68c79eaa3234e3ec7a7da3688cb274194608",
    "godel-shifted/complete-tm": "6653bd183df1bbd2ce2e6d419e70e2b0ae9d36220568b337eccc8b6e877ea6a2",
    "godel-shifted/sasaki-ctm": "6d9eb2ff24a95ae918970b807fe7c2c97593a57b03988bcc709f29cae4eae74d",
    "walker-const/sasaki-tm": "76316b1ca847a84c4a02c4e74659bef055a43af7aee9ef44cc457062476640d2",
    "walker-const/complete-tm": "11388c7936ee5606e022a5d39a66d89937dbf73ffc3f6700bc1c783a6bcdd7ba",
    "walker-const/sasaki-ctm": "2f41c9c3d95830e23d327e450d898118fecd9b59b89e2bb6e02faaa2bc561b18",
    "walker-linear/sasaki-tm": "4e8616c17420c5191115225b468671cca35b07297ee982914622f80c15aee42b",
    "walker-linear/complete-tm": "a55b1b72a5297aac3b411802d1eb3d91076384c5385565c750a0435ddb14dba3",
    "walker-linear/sasaki-ctm": "1a380718df40a276bf6411da91fd3b69a95ac478ed53350ae63b7b5108d57e4a",
    "walker-mixed/sasaki-tm": "abf623117c50f8e31ed0c61e5d0c4dc545039f8d3212507d543989383b82cc99",
    "walker-mixed/complete-tm": "a788f63daebfb7c0beff108e88cf7c831bddeb1462f384729900d183c6240f8f",
    "walker-mixed/sasaki-ctm": "662235fd98327506875d1990cfc169799edb5c3bf175385dab0c13a085847ce7",
    "egorov-m3-2exp/sasaki-tm": "9982fa090099c549dae2efb9dd5d1d2c519248fdf83ee91a4d4fac06b67fad13",
    "egorov-m3-2exp/complete-tm": "93c228f3ac7b5b4a15822455973fc020776ae5ef47df4c78d397dc559c5f72fd",
    "egorov-m3-2exp/sasaki-ctm": "f8176984b5129dac3f0270f6c6aa627339693900b1d11dd8720ef5c75ee282cc",
    "egorov-m4-2exp/sasaki-tm": "3aa6f43822de838f0462313dafbda53b56baa45908b4170c1a6965c66c90609b",
    "egorov-m4-2exp/complete-tm": "1057cf07dc1f7998e1f02f8af349758ffdccf9129fd7090191a5e3fdc576e95a",
    "egorov-m4-2exp/sasaki-ctm": "8c39422c0157810a766b0d6533fd6d773f8edae47a33d7e2de6b52d63d327fdd",
    "godel-2h/sasaki-tm": "bc297b016e0c691da08d85be869c0c1ea5b47ec266fa8c91ed79d08f55adad32",
    "godel-2h/complete-tm": "0f26e139097261b6a8fcb69999e259c54d8ff2a4d82b8e2d3c1bd9969c00b644",
    "godel-2h/sasaki-ctm": "3f2ad6ea21934f908d34a2d2109f6a3e3d676071005e145f25837dc233c2caeb",
    "walker-x2x3/sasaki-tm": "18d710cb5d257098648bb105034dfadd53ceb5fd42a2eafb6a2070e591d2e493",
    "walker-x2x3/complete-tm": "7967b20fe57d47bd2250d035758247bdb60b0c3c31f007dc2a4411826d7120b0",
    "walker-x2x3/sasaki-ctm": "f4b93790d0e18266b10d93417c77729fb2300d58b6618744d842177d07abe5b9",
    "dense-m2/sasaki-tm": "06d4c713355ad81ff9a9437e68a8620f9cd96824d7fa385180a3366671031555",
    "dense-m2/complete-tm": "d1cdb483fd0f97e5b69f80204685be594236d261df60b79f5815185c7569e5d8",
    "dense-m2/sasaki-ctm": "e602aa64284cc2da02920966e0ab8e20bdfba9408f952ce19ae209ff534313f7",
    "dense-m3/sasaki-tm": "d53f74a906f3aa123cee217c32b3d3e1bb8d8864fbf82d1593ab6fdae4d8d19f",
    "dense-m3/complete-tm": "6d0d08f6cc2406b91b9533513c18578c5ec962e203e1ff8825d81eabb7589865",
    "dense-m3/sasaki-ctm": "9bff9f26822f4cc2a17e603aff5692aafec34d2e3097784dff8536bdeea0bee5",
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
