import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metriclift
from metriclift import cli, harmonic
from conftest import dense_metric


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_manifest(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2))
    return str(p)


def strict_json(text):
    def reject(token):
        raise AssertionError(f"non-JSON constant {token} in output")

    return json.loads(text, parse_constant=reject)


def egorov_manifest(fhat="exp(x3)+0.5", lift="none", **extra):
    doc = {
        "dimension": 3,
        "family": {"name": "egorov", "m": 3, "f": "exp(x3)"},
        "hat_family": {"name": "egorov", "m": 3, "f": fhat},
        "lift": lift,
        "samples": 64,
        "tol": 1e-9,
        "seed": 42,
    }
    doc.update(extra)
    return doc


class TestCheck:
    def test_harmonic_pair_exits_zero(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "harmonic-on-samples"
        assert doc["max_abs_residual"] < 1e-9
        assert doc["method"] == "identity-tension"
        assert doc["samples_used"] == 64

    def test_doubled_profile_exits_one_with_half_residual(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest(fhat="2*exp(x3)"))
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "not-harmonic"
        # residual concentrates in component m-1 with magnitude (m-2)/2
        assert doc["per_component_max"][1] == pytest.approx(0.5, abs=1e-9)
        assert doc["per_component_max"][0] < 1e-12
        assert doc["per_component_max"][2] < 1e-12

    def test_dimension_mismatch_exits_two(self, tmp_path, capsys):
        doc = {
            "dimension": 4,
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "hat_metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        assert "error" in json.loads(out)

    def test_missing_hat_exits_two(self, tmp_path, capsys):
        doc = {"dimension": 3, "family": {"name": "egorov", "m": 3, "f": "exp(x3)"}}
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        assert "hat_metric" in json.loads(out)["error"]["message"]

    def test_metric_and_family_together_rejected(self, tmp_path, capsys):
        doc = egorov_manifest()
        doc["metric"] = [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
        path = write_manifest(tmp_path, "m.json", doc)
        code, _ = run_cli(capsys, "check", "--manifest", path)
        assert code == 2

    def test_expression_error_reports_offset(self, tmp_path, capsys):
        doc = {
            "dimension": 2,
            "metric": [["1", "0"], ["0", "1 + + x2"]],
            "hat_metric": [["1", "0"], ["0", "1"]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        assert "offset" in json.loads(out)["error"]["message"]

    def test_unreadable_manifest(self, capsys):
        code, out = run_cli(capsys, "check", "--manifest", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in json.loads(out)["error"]["message"]

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, out = run_cli(capsys, "check", "--manifest", str(p))
        assert code == 2

    def test_unknown_family(self, tmp_path, capsys):
        doc = {"dimension": 3, "family": {"name": "schwarz"}, "hat_family": {"name": "schwarz"}}
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2

    def test_flag_overrides(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        _, out_a = run_cli(capsys, "check", "--manifest", path, "--samples", "8",
                           "--seed", "7")
        doc = json.loads(out_a)
        assert doc["samples_used"] == 8 and doc["seed"] == 7

    @pytest.mark.parametrize("kind", ["sasaki-tm", "horizontal-tm", "complete-tm",
                                      "sasaki-ctm"])
    def test_lift_flag_checks_block_conditions(self, tmp_path, capsys, kind):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        code, out = run_cli(capsys, "check", "--manifest", path, "--lift", kind)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "lift-blocks"
        assert doc["lift"] == kind
        assert len(doc["per_component_max"]) == 6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lift", ["none", "sasaki-tm"])
    @pytest.mark.parametrize(
        "g11, h11, domain",
        [
            # an infinite sampling box puts inf and NaN into the lattice
            ("1+x1^2", "2+x1^2", [[0, float("inf")], [-1, 1]]),
            # components overflow inside the box
            ("exp(1000*x1)", "exp(900*x1)", None),
        ],
        ids=["infinite-domain", "overflow"],
    )
    def test_non_finite_input_exits_two_with_strict_json(
        self, tmp_path, capsys, g11, h11, domain, lift
    ):
        doc = {
            "coordinates": ["x1", "x2"],
            "metric": [[g11, "0"], ["0", "1"]],
            "hat_metric": [[h11, "0"], ["0", "1"]],
        }
        if domain is not None:
            doc["domain"] = domain
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path, "--lift", lift)
        assert code == 2
        assert "error" in strict_json(out)

    def test_infinite_sample_count_exits_two(self, tmp_path, capsys):
        # int(inf) raises OverflowError, not ValueError
        path = write_manifest(tmp_path, "m.json", egorov_manifest(samples=float("inf")))
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        assert strict_json(out)["error"]["kind"] == "OverflowError"

    @pytest.mark.parametrize("lift", ["none", "complete-tm"])
    def test_sample_count_over_cap_exits_two(self, tmp_path, capsys, monkeypatch, lift):
        def no_lattice(*args, **kwargs):
            raise AssertionError("lattice_points reached")

        monkeypatch.setattr(harmonic, "lattice_points", no_lattice)
        path = write_manifest(tmp_path, "m.json", egorov_manifest(lift=lift))
        code, out = run_cli(capsys, "check", "--manifest", path,
                            "--samples", str(harmonic.MAX_SAMPLES + 1))
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "ValueError"
        assert f"at most {harmonic.MAX_SAMPLES}" in err["message"]

    def test_deeply_nested_entry_exits_two(self, tmp_path, capsys):
        # a left-leaning sum 3000 levels deep is over the recursion limit
        deep = " + ".join(f"{k}*x1" for k in range(1, 3001))
        doc = {
            "coordinates": ["x1", "x2"],
            "metric": [[f"{deep} + 5", "0"], ["0", "1"]],
            "hat_metric": [["1", "0"], ["0", "1"]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "RecursionError"
        assert "nested too deeply" in err["message"]


class TestLift:
    def test_lift_none_echoes_manifest(self, tmp_path, capsys):
        doc = egorov_manifest()
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "lift", "--manifest", path)
        assert code == 0
        echoed = json.loads(out)
        assert echoed == {**doc, "lift": "none"}

    def test_complete_lift_emits_expected_entries(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest(lift="complete-tm"))
        code, out = run_cli(capsys, "lift", "--manifest", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 6
        assert doc["coordinates"] == ["x1", "x2", "x3", "x4", "x5", "x6"]
        assert doc["metric"][0][0] == "x6*exp(x3)"
        assert doc["lift"] == "none"
        assert len(doc["domain"]) == 6

    def test_lifted_manifest_round_trips_through_check(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest(lift="complete-tm"))
        _, out = run_cli(capsys, "lift", "--manifest", path)
        lifted_path = tmp_path / "lifted.json"
        lifted_path.write_text(out)
        code, out2 = run_cli(capsys, "check", "--manifest", str(lifted_path))
        assert code == 0
        assert json.loads(out2)["method"] == "identity-tension"

    def test_composition_reflects_honest_lift_equivalences(self, tmp_path, capsys):
        # lifting the manifest and re-checking runs the generic pipeline on
        # the induced chart: the harmonic pair survives the horizontal and
        # complete lifts but not the Sasaki-type lifts (anholonomy gap; see
        # README).  The block conditions themselves pass for all kinds.
        outcomes = {}
        for kind in ("sasaki-tm", "horizontal-tm", "complete-tm", "sasaki-ctm"):
            path = write_manifest(tmp_path, f"{kind}.json", egorov_manifest(lift=kind))
            _, out = run_cli(capsys, "lift", "--manifest", path)
            lifted = tmp_path / f"{kind}-lifted.json"
            lifted.write_text(out)
            code, _ = run_cli(capsys, "check", "--manifest", str(lifted))
            outcomes[kind] = code
        assert outcomes == {
            "sasaki-tm": 1,
            "horizontal-tm": 0,
            "complete-tm": 0,
            "sasaki-ctm": 1,
        }

    def test_lift_over_tree_size_cap_exits_two(self, tmp_path, capsys):
        # the dense m=4 Sasaki lift assembles 3.66M printed nodes, over the cap
        g = dense_metric(4)
        doc = {
            "coordinates": list(g.coords),
            "metric": g.component_sources(),
            "domain": [list(iv) for iv in g.domain],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "lift", "--manifest", path, "--lift", "sasaki-tm")
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "LiftTooLarge"
        assert "too large to lift symbolically" in err["message"]

    def test_explicit_metric_with_hat(self, tmp_path, capsys):
        doc = {
            "dimension": 2,
            "metric": [["1", "0"], ["0", "1"]],
            "hat_metric": [["2", "0"], ["0", "2"]],
            "domain": [[-1, 1], [-1, 1]],
            "lift": "sasaki-tm",
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "lift", "--manifest", path)
        assert code == 0
        lifted = json.loads(out)
        assert lifted["dimension"] == 4
        assert "hat_metric" in lifted


class TestTensors:
    def test_egorov_christoffels_at_origin(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        code, out = run_cli(capsys, "tensors", "--manifest", path, "--at", "0,0,0")
        assert code == 0
        doc = json.loads(out)
        nz = doc["christoffel_nonzero"]
        assert nz["Gamma^2_1,1"] == -0.5
        assert nz["Gamma^1_1,3"] == 0.5
        assert nz["Gamma^1_3,1"] == 0.5
        assert len(nz) == 3
        assert doc["metric"] == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]

    def test_flat_metric_has_no_nonzero_christoffels(self, tmp_path, capsys):
        doc = {
            "dimension": 2,
            "metric": [["1", "0"], ["0", "1"]],
            "domain": [[-1, 1], [-1, 1]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "tensors", "--manifest", path, "--at", "0.3,0.4")
        assert code == 0
        assert json.loads(out)["christoffel_nonzero"] == {}

    def test_curvature_antisymmetry_in_emitted_values(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        _, out = run_cli(capsys, "tensors", "--manifest", path, "--at", "0.2,0.1,-0.3")
        R = np.asarray(json.loads(out)["curvature"])
        assert np.array_equal(R, -np.swapaxes(R, 1, 2))

    def test_point_length_checked(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        code, _ = run_cli(capsys, "tensors", "--manifest", path, "--at", "0,0")
        assert code == 2

    def test_overflow_at_point_exits_two(self, tmp_path, capsys):
        doc = {"coordinates": ["x1", "x2"], "metric": [["exp(1000*x1)", "0"], ["0", "1"]]}
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "tensors", "--manifest", path, "--at", "0.9,0")
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "EvalDomainError"
        assert "exp(1000*x1)" in err["message"]

    def test_at_required(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        code, out = run_cli(capsys, "tensors", "--manifest", path)
        assert code == 2
        assert "--at" in json.loads(out)["error"]["message"]


class TestDeterminism:
    def test_repeated_checks_byte_identical(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest(fhat="2*exp(x3)"))
        _, a = run_cli(capsys, "check", "--manifest", path)
        _, b = run_cli(capsys, "check", "--manifest", path)
        assert a == b

    def test_console_entry_point_byte_identical(self, tmp_path):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        cmd = [sys.executable, "-m", "metriclift.cli", "check", "--manifest", path]
        # the child imports the package the tests run against, also when
        # only pytest's own ``pythonpath`` setting put it on sys.path
        src = str(Path(metriclift.__file__).resolve().parents[1])
        paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        a = subprocess.run(cmd, capture_output=True, text=True, env=env)
        b = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
