import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclift
from metriclift import cli, exprlang, gallery, harmonic
from metriclift.lifts import LiftKind, lift_to_chart
from conftest import NON_FINITE_ORDER, NON_FINITE_ORDER_SEED, dense_metric


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_child(*argv):
    """``python -m metriclift.cli`` in a child process, which pytest's
    warning filter does not reach."""
    # the child imports the package the tests run against, also when
    # only pytest's own ``pythonpath`` setting put it on sys.path
    src = str(Path(metriclift.__file__).resolve().parents[1])
    paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    cmd = [sys.executable, "-m", "metriclift.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


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

    @pytest.mark.parametrize("lift", ["none", "sasaki-tm", "sasaki-ctm"])
    def test_report_counts_scanned_and_rejected_candidates(self, tmp_path, capsys, lift):
        # det = x1^8 is at most 1e-12 on |x1| <= 10^-1.5, a sixth of the box
        banded = {
            "coordinates": ["x1", "x2"],
            "metric": [["x1^8", "0"], ["0", "1"]],
            "hat_metric": [["2*x1^8", "0"], ["0", "1"]],
            "domain": [[-0.1, 0.3], [-1, 1]],
            "samples": 32,
            "lift": lift,
        }
        counts = []
        for doc in (egorov_manifest(samples=32, lift=lift), banded):
            _, out = run_cli(capsys, "check", "--manifest",
                             write_manifest(tmp_path, "m.json", doc))
            doc = strict_json(out)
            assert doc["samples_used"] == 32
            counts.append((doc["samples_scanned"], doc["degenerate_rejected"]))
        assert counts[0] == (32, 0)
        scanned, rejected = counts[1]
        assert scanned == 64 and 0 < rejected <= 32

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

    @pytest.mark.parametrize("lift", ["none", "sasaki-tm"])
    def test_overflow_in_a_child_process_prints_no_warning(self, tmp_path, lift):
        doc = {
            "coordinates": ["x1", "x2"],
            "metric": [["exp(1000*x1)", "0"], ["0", "1"]],
            "hat_metric": [["exp(900*x1)", "0"], ["0", "1"]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        child = run_child("check", "--manifest", path, "--lift", lift)
        assert child.returncode == 2
        assert "error" in strict_json(child.stdout)
        assert child.stderr == ""

    @pytest.mark.parametrize("command", [["check"], ["tensors", "--at=0.1,0.2"]])
    def test_negative_power_that_underflows_exits_two(self, tmp_path, command):
        # (1e-200)^2 underflows to 0.0, so the constant (1e-200)^-2 is 1/0
        doc = {
            "coordinates": ["x1", "x2"],
            "metric": [["2 + x1 + (1e-200)^-2", "0"], ["0", "1"]],
            "hat_metric": [["1", "0"], ["0", "1"]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        child = run_child(command[0], "--manifest", path, *command[1:])
        assert child.returncode == 2
        err = strict_json(child.stdout)["error"]
        assert err["kind"] == "EvalDomainError"
        assert "'1e-200^-2'" in err["message"]
        assert child.stderr == ""

    @pytest.mark.parametrize(
        "command",
        [["lift", "--lift", "sasaki-tm"], ["check"], ["tensors", "--at=0.1,0.2"]],
        ids=["lift", "check", "tensors"],
    )
    def test_out_of_range_literal_exits_two(self, tmp_path, capsys, command):
        # float("1e999") is inf: the literal is refused where it is parsed,
        # not found later as an overflow of the entry or of its printing
        doc = {
            "coordinates": ["x1", "x2"],
            "metric": [["1e999 + x1^2", "0"], ["0", "1"]],
            "hat_metric": [["1", "0"], ["0", "1"]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, command[0], "--manifest", path, *command[1:])
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "ManifestError"
        assert err["message"].endswith(
            "number '1e999' is out of the float range (at offset 0)"
        )

    @pytest.mark.parametrize(
        "lift, component",
        [
            pytest.param(lift, component, id=lift)
            for lift, component in [("none", 1), ("sasaki-tm", 1), ("complete-tm", 3)]
        ],
    )
    def test_overflow_in_entry_free_of_a_coordinate_is_non_finite(
        self, tmp_path, capsys, lift, component
    ):
        def check(doc):
            path = write_manifest(tmp_path, "m.json", {**doc, "samples": 64, "seed": 3})
            code, out = run_cli(capsys, "check", "--manifest", path, "--lift", lift)
            assert code == 2
            return strict_json(out)["error"]

        # g11 overflows for x1 > 0.887 and does not depend on x2: its x2
        # derivatives are exact zeros, never 0*inf, and the jet pass of the
        # sampler names the entry at a base point, under every lift
        err = check({
            "coordinates": ["x1", "x2"],
            "metric": [["exp(800*x1)", "0"], ["0", "1 + x2^2"]],
            "hat_metric": [["2", "0"], ["0", "1 + x2^2"]],
        })
        assert err["kind"] == "EvalDomainError"
        head, point = err["message"].split(" not finite at (")
        assert head == "metric entry (1,1) or a derivative of it is"
        assert point.count(", ") == 1 and point.endswith(") in 'exp(800*x1)'")
        # finite jets (det g = e^x1, det ghat = 1) whose tension overflows
        # in the kernel, to -inf: the residual is reported as non-finite.
        # The complete lift's residual is (0, 2 tau), so its first
        # non-finite component is the first fiber one, m + 1 = 3.
        err = check({
            "coordinates": ["x1", "x2"],
            "metric": [["1e-300*exp(x1)", "0"], ["0", "1e300"]],
            "hat_metric": [["1e300", "0"], ["0", "1e-300"]],
        })
        assert err["kind"] == "NonFiniteResidual"
        assert err["message"].startswith(f"residual component {component} is not finite")

    def test_overflow_everywhere_is_named_in_the_lifted_chart(self, tmp_path, capsys):
        # the lifted chart's entries are infinite, and A^T g A makes NaN of
        # them: the entry is named, not counted as degenerate candidates
        doc = {
            "coordinates": ["x1", "x2"],
            "metric": [["1e200*1e200 + x1^2", "0"], ["0", "1"]],
            "hat_metric": [["1", "0"], ["0", "1"]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "EvalDomainError"
        assert err["message"].endswith(" in '1e+200*1e+200 + x1^2'")
        code, out = run_cli(capsys, "lift", "--manifest", path, "--lift", "sasaki-tm")
        assert code == 0
        lifted = write_manifest(tmp_path, "lifted.json", json.loads(out))
        code, out = run_cli(capsys, "check", "--manifest", lifted)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "EvalDomainError"
        assert err["message"].startswith("metric entry (1,1) or a derivative of it is not finite")

    def test_first_non_finite_point_is_named_before_the_first_entry(self, tmp_path, capsys):
        # entry (2,2) overflows at the first candidate, (1,1) at the second
        # only: check names (2,2) at the first (conftest.NON_FINITE_ORDER)
        doc = {
            **NON_FINITE_ORDER,
            "hat_metric": [["1", "0"], ["0", "1"]],
            "samples": 2,
            "seed": NON_FINITE_ORDER_SEED,
        }
        first = harmonic.lattice_points(doc["domain"], 2, NON_FINITE_ORDER_SEED)[0]
        point = ", ".join(repr(float(v)) for v in first)
        for hat in (False, True):
            if hat:  # the same chart as ghat, whose jets are made after g's half
                doc["metric"], doc["hat_metric"] = doc["hat_metric"], doc["metric"]
            path = write_manifest(tmp_path, "m.json", doc)
            code, out = run_cli(capsys, "check", "--manifest", path)
            assert code == 2
            assert strict_json(out)["error"] == {
                "kind": "EvalDomainError",
                "message": f"metric entry (2,2) or a derivative of it is not finite at ({point}) "
                "in 'exp(1000*x2 - 100)'",
            }

    @pytest.mark.parametrize("kind", ["sasaki-tm", "sasaki-ctm"])
    def test_overflowing_folded_constant_is_named_by_lift(self, tmp_path, capsys, kind):
        # the cofactor of g33 in the constant block 1e200*I folds to
        # 1e200*1e200, which overflows: printed it would be 'inf', which no
        # manifest can parse, so the lift names the constant and exits 2
        doc = {
            "coordinates": ["x1", "x2", "x3"],
            "metric": [["1e200", "0", "0"], ["0", "1e200", "0"], ["0", "0", "x1^2+1"]],
            "hat_metric": [["1e200", "0", "0"], ["0", "1e200", "0"], ["0", "0", "x1^2+2"]],
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 0  # the base pair itself checks fine
        code, out = run_cli(capsys, "lift", "--manifest", path, "--lift", kind)
        assert code == 2
        assert strict_json(out)["error"] == {
            "kind": "ExprError",
            "message": "the folded constant 1e+200*1e+200 overflows the float range",
        }
        # the complete and horizontal lifts invert nothing: no such constant
        for other in ("complete-tm", "horizontal-tm"):
            code, out = run_cli(capsys, "lift", "--manifest", path, "--lift", other)
            assert code == 0
            assert "inf" not in out

    @pytest.mark.parametrize(
        "tol, flags, field",
        [("1e400", [], "tol"), ("1e-9", ["--tol", "inf"], "tol"),
         ("1e-9", ["--seed", "-1"], "seed")],
        ids=["tol-literal", "tol-flag", "seed-flag"],
    )
    def test_infinite_tol_and_negative_seed_exit_two(
        self, tmp_path, capsys, monkeypatch, tol, flags, field
    ):
        def no_lattice(*args, **kwargs):
            raise AssertionError("lattice_points reached")

        monkeypatch.setattr(harmonic, "lattice_points", no_lattice)
        # json.loads reads the literal 1e400 as inf
        path = tmp_path / "m.json"
        path.write_text(json.dumps(egorov_manifest(tol="TOL")).replace('"TOL"', tol))
        code, out = run_cli(capsys, "check", "--manifest", str(path), *flags)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "ValueError"
        assert err["message"].startswith(f"{field} must be ")

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

    def test_huge_explicit_dimension_exits_two_before_allocating(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_names(m):
            raise AssertionError("coordinate names built")

        monkeypatch.setattr(cli, "coordinate_names", no_names)
        doc = {"dimension": 10**12, "metric": [["1"]], "hat_metric": [["1"]]}
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "ManifestError"
        assert "does not match the 1x1 'metric' matrix" in err["message"]

    def test_huge_egorov_dimension_exits_two_before_allocating(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("Egorov metric built")

        monkeypatch.setattr(cli, "egorov_metric", no_build)
        monkeypatch.setattr(gallery, "coordinate_names", no_build)
        m = 10**12
        doc = egorov_manifest(dimension=m)
        doc["family"] = doc["hat_family"] = {"name": "egorov", "m": m, "f": f"exp(x{m})"}
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "ManifestError"
        assert f"m <= {gallery.MAX_EGOROV_DIM}" in err["message"]

    def test_deeply_nested_entries_get_a_verdict(self, tmp_path, capsys):
        # parsing and the walks over a parsed entry are loops: a
        # left-leaning sum 100,000 levels deep and an entry 300
        # parentheses deep both get a verdict
        deep = " + ".join(["0.001*x1*x2"] * 100_000)
        doc = {
            "coordinates": ["x1", "x2"],
            "metric": [[f"2 + {deep}", "0"], ["0", "1"]],
            "hat_metric": [["1", "0"], ["0", "1"]],
            "samples": 8,
        }
        for entry in (f"2 + {deep}", "2 + " + "(" * 300 + "x1" + ")" * 300):
            doc["metric"][0][0] = entry
            path = write_manifest(tmp_path, "m.json", doc)
            code, out = run_cli(capsys, "check", "--manifest", path)
            assert code in (0, 1)
            assert strict_json(out)["samples_used"] == 8

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        # json.loads recurses once per nesting level of the manifest
        path = tmp_path / "m.json"
        path.write_text('{"coordinates": ["x1"], "metric": '
                        + "[" * 100_000 + "]" * 100_000 + "}")
        code, out = run_cli(capsys, "check", "--manifest", str(path))
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "RecursionError"
        assert "manifest's JSON is nested too deeply" in err["message"]

    def test_other_recursion_errors_propagate(self, tmp_path, capsys, monkeypatch):
        # only json.loads' RecursionError is an input error; any other one
        # is a fault, not a manifest nested too deeply
        def recurse(manifest, need_hat):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "build_metrics", recurse)
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        with pytest.raises(RecursionError):
            cli.main(["check", "--manifest", path])


class TestLift:
    def test_lift_none_echoes_manifest(self, tmp_path, capsys):
        doc = egorov_manifest()
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "lift", "--manifest", path)
        assert code == 0
        echoed = json.loads(out)
        assert echoed == {**doc, "lift": "none"}

    @pytest.mark.parametrize("lift", ["none", "complete-tm"])
    def test_lift_carries_check_flags_into_the_manifest(self, tmp_path, capsys, lift):
        path = write_manifest(tmp_path, "m.json", egorov_manifest(lift=lift))
        flags = ["--samples", "8", "--seed", "7", "--tol", "1e-3"]
        code, out = run_cli(capsys, "lift", "--manifest", path, *flags)
        assert code == 0
        doc = json.loads(out)
        assert (doc["samples"], doc["seed"], doc["tol"]) == (8, 7, 1e-3)
        lifted = write_manifest(tmp_path, "lifted.json", doc)
        _, report = run_cli(capsys, "check", "--manifest", lifted)
        report = json.loads(report)
        assert (report["samples_used"], report["seed"], report["tolerance"]) == (8, 7, 1e-3)

    @pytest.mark.parametrize(
        "tol, flags, field",
        [("1e400", [], "tol"), ("1e-9", ["--tol", "inf"], "tol"),
         ("1e-9", ["--seed", "-1"], "seed"), ("1e-9", ["--samples", "0"], "samples")],
        ids=["tol-literal", "tol-flag", "seed-flag", "samples-flag"],
    )
    @pytest.mark.parametrize("lift", ["none", "complete-tm"])
    def test_lift_refuses_the_check_settings_check_refuses(
        self, tmp_path, capsys, tol, flags, field, lift
    ):
        # lift copies these settings into its manifest: it exits 2 naming
        # the field, as the check of that manifest would, instead of
        # emitting it (or failing to print an infinite tol)
        path = tmp_path / "m.json"
        doc = egorov_manifest(lift=lift, tol="TOL")
        path.write_text(json.dumps(doc).replace('"TOL"', tol))
        for command in ("lift", "check"):
            code, out = run_cli(capsys, command, "--manifest", str(path), *flags)
            assert code == 2, command
            err = strict_json(out)["error"]
            assert err["kind"] == "ValueError"
            assert err["message"].startswith(f"{field} must be "), command

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

    def test_dense_m4_sasaki_lift_round_trips(self, tmp_path, capsys):
        # 3.66M printed nodes as expanded trees; the definitions keep the
        # text linear in the lifted DAG, and `check` of it reproduces the
        # in-process check of the two assembled charts
        g, ghat = dense_metric(4), dense_metric(4, quad=0.3, amp=0.15)
        doc = {
            "coordinates": list(g.coords),
            "metric": g.component_sources(),
            "hat_metric": ghat.component_sources(),
            "domain": [list(iv) for iv in g.domain],
            "samples": 16,
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "lift", "--manifest", path, "--lift", "sasaki-tm")
        assert code == 0
        assert len(out) < 100_000
        lifted = tmp_path / "lifted.json"
        lifted.write_text(out)
        code, out = run_cli(capsys, "check", "--manifest", str(lifted))
        report = strict_json(out)
        g_l, ghat_l = (
            lift_to_chart(base, LiftKind.SASAKI_TM)
            for base in cli.build_metrics(doc, need_hat=True)
        )
        want = harmonic.check_harmonic(g_l, ghat_l, samples=16).as_dict()
        assert code == (0 if want["verdict"] == "harmonic-on-samples" else 1)
        for key in ("verdict", "samples_used", "max_abs_residual", "per_component_max",
                    "worst_point"):
            assert report[key] == want[key], key

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


def chain_manifest(k: int, entry: str) -> dict:
    """Definitions d_j = d_{j-1}*d_{j-1}: k lines whose expansion has 2^k
    leaves.  ``entry`` is the (1,1) metric entry."""
    defs = [["d1", "1 + x1*x2"]] + [[f"d{j}", f"d{j - 1}*d{j - 1}"] for j in range(2, k + 1)]
    return {
        "coordinates": ["x1", "x2"],
        "definitions": defs,
        "metric": [[entry, "0"], ["0", "1"]],
        "hat_metric": [[entry, "0"], ["0", "2"]],
    }


class TestDefinitions:
    def test_names_expand_to_the_same_check(self, tmp_path, capsys):
        expanded = {
            "coordinates": ["x1", "x2"],
            "metric": [["2 + x1*x1", "0.1*sin(x1 + x2)"], ["0.1*sin(x1 + x2)", "3 + x2*x2"]],
            "hat_metric": [["2*(2 + x1*x1)", "0.1*sin(x1 + x2)"],
                           ["0.1*sin(x1 + x2)", "3 + x2*x2"]],
            "samples": 16,
        }
        named = dict(expanded, definitions=[["a", "2 + x1*x1"], ["s", "0.1*sin(x1 + x2)"]])
        named["metric"] = [["a", "s"], ["s", "3 + x2*x2"]]
        named["hat_metric"] = [["2*a", "s"], ["s", "3 + x2*x2"]]
        outs = []
        for doc in (expanded, named):
            code, out = run_cli(capsys, "check", "--manifest",
                                write_manifest(tmp_path, "m.json", doc))
            report = strict_json(out)
            del report["manifest_sha256"]
            outs.append((code, report))
        assert outs[0] == outs[1]
        assert outs[0][0] == 1

    def test_long_chain_lifts_linearly(self, tmp_path, capsys):
        # without a memo per (node, index), differentiating d_k doubles per level
        k = 60
        path = write_manifest(tmp_path, "m.json", chain_manifest(k, f"d{k}"))
        code, out = run_cli(capsys, "lift", "--manifest", path, "--lift", "complete-tm")
        assert code == 0
        assert len(strict_json(out)["definitions"]) <= 8 * k

    def test_error_text_of_a_long_chain_is_capped(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", chain_manifest(60, "1 + log(0 - d60)"))
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "EvalDomainError"
        assert err["message"].startswith("log of non-positive value in 'log(0 - ")
        assert len(err["message"]) < exprlang.CULPRIT_CHARS + 100

    @pytest.mark.parametrize(
        "definitions, needle",
        [
            ([["a", "x1"], ["a", "x2"]], "definition 'a' is given more than once"),
            ([["x2", "1"]], "definition 'x2' is named like a coordinate"),
            ([["exp", "1"]], "definition 'exp' is named like a function"),
            ([["a", "b + 1"], ["b", "x1"]], "in definition 'a': 'b' is used before"),
            ([["a", "a + 1"]], "in definition 'a': 'a' is used before"),
            ([["a", "x1 +"]], "in definition 'a': unexpected end of input"),
            ([["a", "foo"]], "in definition 'a': unknown identifier 'foo'"),
            ([["2a", "1"]], "definition name '2a' is not an identifier"),
            ([[7, "1"]], "definition 1 must be named by a string"),
            ([["a", 1.5]], "definition 'a' must be an expression string"),
            ([["a", "1"], ["b"]], "definition 2 must be a [name, expression] pair"),
            ([["a", "1", "2"]], "definition 1 must be a [name, expression] pair"),
            ([{"a": "1"}], "definition 1 must be a [name, expression] pair"),
            ({"a": "1"}, "'definitions' must be a list"),
        ],
        ids=["duplicate", "coordinate", "function", "forward", "self", "syntax", "unknown",
             "bad-name", "non-string-name", "non-string-expression", "short-pair",
             "long-pair", "object-pair", "not-a-list"],
    )
    def test_bad_definitions_exit_two_naming_the_definition(
        self, tmp_path, capsys, definitions, needle
    ):
        doc = {"coordinates": ["x1", "x2"], "definitions": definitions,
               "metric": [["1", "0"], ["0", "1"]], "hat_metric": [["1", "0"], ["0", "1"]]}
        path = write_manifest(tmp_path, "m.json", doc)
        for command in ("check", "lift", "tensors"):
            code, out = run_cli(capsys, command, "--manifest", path, "--at", "0,0",
                                "--lift", "sasaki-tm" if command == "lift" else "none")
            assert code == 2
            err = strict_json(out)["error"]
            assert err["kind"] == "ManifestError"
            assert needle in err["message"]

    def test_deep_chain_of_definitions_checks_and_lifts(self, tmp_path, capsys):
        # d_j = d_{j-1} + x1 nests 3000 levels deep through the names; every
        # walk over the DAG is a loop, so no depth is too deep to check or
        # lift, and the lifted text, a flat sum, parses back
        defs = [["d1", "x1"]] + [[f"d{j}", f"d{j - 1} + x1"] for j in range(2, 3001)]
        doc = {"coordinates": ["x1", "x2"], "definitions": defs,
               "metric": [["exp(0.0001*d3000)", "0"], ["0", "1"]],
               "hat_metric": [["1", "0"], ["0", "1"]], "samples": 8}
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code in (0, 1), out
        code, out = run_cli(capsys, "lift", "--manifest", path, "--lift", "sasaki-tm")
        assert code in (0, 1), out
        lifted = tmp_path / "lifted.json"
        lifted.write_text(out)
        code, out = run_cli(capsys, "check", "--manifest", str(lifted))
        assert code in (0, 1), out

    def test_lifted_right_nested_chain_checks(self, tmp_path, capsys):
        # d_j = 0.5 - 0.001*d_{j-1} is used once per j, so the lifted text
        # nests 1000 parentheses deep; the parser is a loop and takes it
        defs = [["d1", "x1"]] + [[f"d{j}", f"0.5 - 0.001*d{j - 1}"] for j in range(2, 1001)]
        doc = {"coordinates": ["x1", "x2"], "definitions": defs,
               "metric": [["2 + d1000", "0"], ["0", "1"]],
               "hat_metric": [["1", "0"], ["0", "1"]], "samples": 8}
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code in (0, 1), out
        code, out = run_cli(capsys, "lift", "--manifest", path, "--lift", "sasaki-tm")
        assert code in (0, 1), out
        lifted = tmp_path / "lifted.json"
        lifted.write_text(out)
        assert "0.001*(0.5 - " * 998 in out
        code, out = run_cli(capsys, "check", "--manifest", str(lifted))
        assert code in (0, 1), out

    def test_definitions_need_an_explicit_matrix(self, tmp_path, capsys):
        doc = egorov_manifest(definitions=[["a", "x1"]])
        code, out = run_cli(capsys, "check", "--manifest",
                            write_manifest(tmp_path, "m.json", doc))
        assert code == 2
        assert "'definitions' need an explicit" in strict_json(out)["error"]["message"]


class TestManifestNumbers:
    def test_fractional_counts_exit_two(self, tmp_path, capsys):
        # used to check as m=1 with samples_used 8
        doc = {"dimension": 1.5, "metric": [["1"]], "hat_metric": [["1"]], "samples": 8.7}
        code, out = run_cli(capsys, "check", "--manifest",
                            write_manifest(tmp_path, "m.json", doc))
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "ManifestError"
        assert err["message"] == "'dimension' must be an integer, got 1.5"

    @pytest.mark.parametrize(
        "extra, field",
        [({"samples": 8.7}, "samples"), ({"seed": 0.5}, "seed"), ({"samples": True}, "samples"),
         ({"seed": "7"}, "seed"), ({"dimension": 3.5}, "dimension"),
         ({"dimension": True}, "dimension")],
    )
    def test_non_integers_exit_two(self, tmp_path, capsys, extra, field):
        path = write_manifest(tmp_path, "m.json", egorov_manifest(**extra))
        code, out = run_cli(capsys, "check", "--manifest", path)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "ManifestError"
        assert err["message"].startswith(f"'{field}' must be an integer")

    @pytest.mark.parametrize("m", [3.5, True])
    def test_non_integer_egorov_m_exits_two(self, tmp_path, capsys, m):
        doc = egorov_manifest()
        del doc["dimension"]
        doc["family"] = dict(doc["family"], m=m)
        code, out = run_cli(capsys, "check", "--manifest",
                            write_manifest(tmp_path, "m.json", doc))
        assert code == 2
        assert "'m' must be an integer" in strict_json(out)["error"]["message"]

    def test_integral_floats_are_counts(self, tmp_path, capsys):
        doc = egorov_manifest(samples=8.0, dimension=3.0)
        code, out = run_cli(capsys, "check", "--manifest",
                            write_manifest(tmp_path, "m.json", doc))
        assert code == 0
        assert strict_json(out)["samples_used"] == 8


IDENTITY_2X2 = [["1", "0"], ["0", "1"]]


def flat_pair(**extra):
    """Two flat explicit metrics on a 2-dimensional chart."""
    return {"coordinates": ["x1", "x2"], "metric": IDENTITY_2X2,
            "hat_metric": IDENTITY_2X2, **extra}


class TestManifestShapes:
    @pytest.mark.parametrize(
        "doc, command, code, message",
        [
            (egorov_manifest(domain=[[0, 0.5]] * 3), ["check"], 0, None),
            (egorov_manifest(domain=[[0, 0.5]]), ["check"], 2,
             "'domain' must give one [lo, hi] per coordinate"),
            (egorov_manifest(dimension=4), ["check"], 2,
             "dimension 4 does not match family dimension 3"),
            ({"coordinates": ["a", "b", "c"], "metric": [["1", "0", "0"], ["0", "1", "0"],
              ["0", "0", "1"]], "hat_family": egorov_manifest()["hat_family"]}, ["check"], 2,
             "metric and hat metric must share the chart"),
            (flat_pair(domain=[[1, -1], [0, 1]]), ["check"], 2,
             "invalid 'metric': empty domain interval [1.0, -1.0]"),
            (flat_pair(), ["tensors", "--at=a,b"], 2,
             "cannot parse point 'a,b': could not convert string to float: 'a'"),
            ([], ["check"], 2, "manifest must be a JSON object"),
            (egorov_manifest(family={"m": 3}), ["check"], 2,
             "family must be an object with a 'name' field"),
            (egorov_manifest(family={"name": "walker", "a": "0", "c": "0"}), ["check"], 2,
             "family 'walker' is missing parameter 'b'"),
            ({"metric": [["1"]], "hat_metric": [["1"]]}, ["check"], 2,
             "manifest needs 'dimension' or 'coordinates'"),
            ({"dimension": 2, "metric": [["1", "0"], ["0"]], "hat_metric": IDENTITY_2X2},
             ["check"], 2, "'metric' must be a 2x2 matrix of expression strings"),
            ({"dimension": 2, "metric": IDENTITY_2X2, "hat_metric": IDENTITY_2X2,
              "domain": [[0, 1]]}, ["check"], 2,
             "'domain' must give one [lo, hi] per coordinate"),
            (egorov_manifest(family={"name": "egorov", "m": 2, "f": "exp(x2)"}), ["check"], 2,
             "invalid family 'egorov': Egorov family needs dimension m >= 3"),
        ],
        ids=["family-domain", "family-domain-short", "family-dimension", "chart-mismatch",
             "empty-interval", "bad-at", "not-an-object", "family-without-name",
             "walker-without-b", "no-chart", "ragged-matrix", "explicit-domain-short",
             "egorov-m2"],
    )
    def test_manifest_shapes_exit_as_measured(self, tmp_path, capsys, doc, command, code,
                                              message):
        got, out = run_cli(capsys, command[0], "--manifest",
                           write_manifest(tmp_path, "m.json", doc), *command[1:])
        assert got == code
        report = strict_json(out)
        if message is None:
            # a top-level 'domain' replaces the family's sampling box
            assert all(0 <= v <= 0.5 for v in report["worst_point"])
        else:
            assert report["error"] == {"kind": "ManifestError", "message": message}

    @pytest.mark.parametrize("coord", [1, "x 1", "1a", "sin"])
    @pytest.mark.parametrize("definitions", [None, [["a", "2"]]], ids=["matrix", "definitions"])
    def test_coordinates_must_be_identifiers_other_than_functions(
        self, tmp_path, capsys, coord, definitions
    ):
        # a coordinate no expression can name, or one named like a function,
        # is refused where the chart is parsed, as a definition name is
        doc = flat_pair(coordinates=[coord, "x2"])
        if definitions:
            doc["definitions"] = definitions
        path = write_manifest(tmp_path, "m.json", doc)
        for command in (["check"], ["lift", "--lift", "complete-tm"]):
            code, out = run_cli(capsys, command[0], "--manifest", path, *command[1:])
            assert code == 2
            err = strict_json(out)["error"]
            assert err["kind"] == "ManifestError"
            assert f"coordinate {coord!r} must be an identifier" in err["message"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["check", "--lift", "bogus"], "invalid choice: 'bogus'"),
            (["tensors", "--at", "-0.5,0.1"], "argument --at: expected one argument"),
            (["check", "--samples", "many"], "invalid int value: 'many'"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            ([], "required"),
        ],
    )
    def test_exit_two_with_strict_json(self, tmp_path, capsys, argv, needle):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        if argv:
            argv = argv[:1] + ["--manifest", path] + argv[1:]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        err = strict_json(captured.out)["error"]
        assert err["kind"] == "UsageError"
        assert needle in err["message"]
        assert captured.err == ""


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

    def test_reused_parser_carries_no_flag_over(self, tmp_path, capsys):
        path = write_manifest(tmp_path, "m.json", egorov_manifest(fhat="2*exp(x3)"))
        calls = [
            ["check", "--manifest", path, "--lift", "sasaki-tm", "--samples", "8"],
            ["check", "--manifest", path],
            ["check", "--manifest", path, "--samples", "16"],
            ["lift", "--manifest", path, "--lift", "complete-tm"],
            ["check", "--manifest", path],
        ]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        cli._build_parser.cache_clear()
        reused = [run_cli(capsys, *argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert reused == fresh
        # the flags mattered: the plain check differs from both flagged ones
        assert len({out for _, out in fresh[:3]}) == 3

    def test_console_entry_point_byte_identical(self, tmp_path):
        path = write_manifest(tmp_path, "m.json", egorov_manifest())
        a = run_child("check", "--manifest", path)
        b = run_child("check", "--manifest", path)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout


# Bounded random manifests for the CLI outcome property: m <= 4, at most 64
# samples, every lift kind and a bogus one, definitions or none.  Most
# manifests are well formed; the rest carry bad tokens, overflowing
# expressions, non-finite JSON numbers, fields of the wrong JSON type or
# malformed definitions.  Sizes stay small: the huge ones have their own
# tests, which stop any allocation.
_BAD_ENTRIES = ["x1 +* 2", "@", "foo(x1)", "x9", "", ")", "1e999", "exp(1000*x1)",
                "log(x1 - 5)", "1/x1", "nan", "inf", float("inf"), float("nan"), 7, None]
_BAD_NUMBERS = [-3, 0, float("inf"), float("nan"), -float("inf"), "8", [8], None, 1e400]


def _bad_definitions(coords):
    chain = [["a1", "x1"]] + [[f"a{j}", f"a{j - 1} + x1"] for j in range(2, 300)]
    return [
        [["a1", "x1"], ["a1", "2"]], [[coords[-1], "1"]], [["sin", "1"]],
        [["a1", "a2"], ["a2", "1"]], [["a1", 5]], [[5, "x1"]], [["a1"]],
        [["a1", "x1", "x2"]], ["a1"], {"a1": "x1"}, "a1", [["a1", "x1 +"]], chain,
    ]


@st.composite
def _manifests(draw):
    m = draw(st.integers(1, 4))
    coords = [f"x{i + 1}" for i in range(m)]
    last = coords[-1]

    def sometimes_bad(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 15)) == 0 else good))

    definitions = None
    if draw(st.booleans()):
        # a1 and a2 are what valid definitions name; the matrix uses them
        good = [[["a1", f"0.1*sin(x1 + {last})"], ["a2", "a1*a1 + 2"]],
                [["a1", f"0.25*x1*{last}"], ["a2", f"a1 + {m + 2}"]]]
        definitions = sometimes_bad(good, _bad_definitions(coords))

    def matrix():
        diag = ["3 + x1^2", "2", f"{m + 2} + 0.25*{last}^2", "-1", "exp(x1)"]
        off = ["0", f"0.25*x1*{last}", f"0.1*sin(x1 + {last})", "0.5"]
        if definitions is not None:
            diag, off = diag + ["a2", "a2 + x1^2"], off + ["a1", "0.5*a1"]
        upper = [
            [sometimes_bad(diag if i == j else off, _BAD_ENTRIES) for j in range(m)]
            for i in range(m)
        ]
        return [[upper[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]

    doc = {"metric": matrix(), "hat_metric": matrix()}
    if definitions is not None:
        doc["definitions"] = definitions
    if draw(st.booleans()):
        doc["dimension"] = sometimes_bad([m], [m + 1, "m"])
    else:
        doc["coordinates"] = sometimes_bad([coords], [coords[:-1], "x", [1] * m])
    if draw(st.booleans()):
        ends = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        doc["domain"] = [
            sorted([sometimes_bad(ends, _BAD_NUMBERS), sometimes_bad(ends, _BAD_NUMBERS)],
                   key=str)
            for _ in range(sometimes_bad([m], [m - 1, m + 1]))
        ]
    for key, good in (
        ("samples", [1, 2, 8, 64]),
        ("tol", [1e-9, 1e-3]),
        ("seed", [0, 7, 2**31]),
        ("lift", list(cli.LIFT_NAMES)),
    ):
        if draw(st.booleans()):
            doc[key] = sometimes_bad(good, _BAD_NUMBERS + ["bogus"])
    if m == 3 and draw(st.booleans()):
        # the family spelling, with a possibly bad profile or dimension
        del doc["metric"], doc["hat_metric"]
        for key in ("family", "hat_family"):
            doc[key] = {
                "name": "egorov",
                "m": sometimes_bad([3], [2, 4.5, "3"]),
                "f": sometimes_bad(["exp(x3)", "2*exp(x3)", "x3^2 + 1"], ["x3", "@"]),
            }
    # a point for 'tensors --at'
    at = [sometimes_bad(["0.1", "-0.5", "0.3"], ["nan", "1e400", "x", ""]) for _ in coords]
    return doc, ",".join(at[: sometimes_bad([m], [m - 1, m + 1])])


@settings(max_examples=150)
@given(_manifests(), st.sampled_from(["check", "check", "lift", "tensors"]), st.booleans())
def test_cli_exits_0_1_or_2_with_strict_json(tmp_path_factory, case, command, glued):
    doc, at = case
    path = tmp_path_factory.mktemp("manifest") / "m.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--manifest", str(path)]
    if command == "tensors":
        # "--at -0.5,..." reads as an option: a usage error, in JSON too
        argv += [f"--at={at}"] if glued else ["--at", at]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    strict_json(out.getvalue())


# `tensors` on family and explicit manifests, by dimension: Egorov, Walker,
# Goedel and the dense charts of conftest, at three points each.
TENSORS_MANIFESTS = {
    "egorov-m4": (4, {"family": {"name": "egorov", "m": 4, "f": "cosh(x4) + x4"}}),
    "walker": (4, {"family": {"name": "walker", "a": "sin(x3)", "b": "x1*x4", "c": "x2"}}),
    "godel": (4, {"family": {"name": "godel", "H": "x2^2", "P": "exp(x2)"}}),
    **{
        f"dense-m{m}": (m, {"dimension": m, "metric": dense_metric(m).component_sources()})
        for m in (2, 3, 4)
    },
}
TENSORS_POINTS = {
    2: ["0.3,-0.45", "-0.7,0.2", "0.05,0.9"],
    3: ["0.3,-0.45,0.6", "-0.7,0.2,-0.15", "0.05,0.9,0.35"],
    4: ["0.3,0.45,-0.6,0.1", "-0.7,0.2,0.15,-0.85", "0.05,0.9,0.35,0.5"],
}
TENSORS_CASES = [
    (f"{name}@{k}", doc, at)
    for name, (m, doc) in TENSORS_MANIFESTS.items()
    for k, at in enumerate(TENSORS_POINTS[m])
]

# sha256 of the `tensors` stdout of each case
TENSORS_STDOUT_SHA256 = {
    "egorov-m4@0": "ecf6c90f1ecb5e37be903d2ab8966b4e3519cd699735aa8c775b44a605197316",
    "egorov-m4@1": "336c6068bfa72f86b1f801d62239fb1b754ab5117d12300c00190d038446ff21",
    "egorov-m4@2": "cbaf6e9c4715e511de36ec2dc33104bd7aeeaa7615f3d1530a99b3b9b0956675",
    "walker@0": "e1236684bca7929fa466c23040cda0e990be141fd12ee3a89559b2aaa5b54465",
    "walker@1": "de9f53b46c00b08ad56c5ec901010c203a07faa14920d758bc7a99015474498a",
    "walker@2": "ac9c2c684d347091572dec5e5d5b9b6155b4f8d17e926312e386c6ce14045b44",
    "godel@0": "a1097ad7b233bda159e88b3fea3a3caa5275c97ea25df3803345a901255c8af4",
    "godel@1": "6979553583189cf7fcef2bf8f0a3c85e2d1506db7fd06ce0cffa145d5aee5c12",
    "godel@2": "6c99d49fa762c0a8a3b7273f7fff2751b8b02529c5858d53e0035c89d680ad8b",
    "dense-m2@0": "ec26080b26e64f1ddf50eea6d8010a643ad10f761e9372506e72332dc12aebf1",
    "dense-m2@1": "25466380c04b1a0249f160b36d6942760d485f394f39b7e74bfd7ef1a48b8b15",
    "dense-m2@2": "46672489eef3ed5708741596f7bf6e408896353ebad4997541b9684d2427f007",
    "dense-m3@0": "c426d0beb0e57b16861c1c98cda38898661b42433da3fac787adbd59fa69622c",
    "dense-m3@1": "677e2e4ec32b467c49c25e264f51cb8dfde46a3ae27161b00cd95d5672347b41",
    "dense-m3@2": "396a99eb80bbd7dc0f86311be5213e96e78af12b3f9f5b3730627141fd33c8b1",
    "dense-m4@0": "b8ac7f7df6a58f6fc36b247eabb6698ffce169f827926110bc97ae98ad6cb086",
    "dense-m4@1": "64c0d82180998a2fb23bed73f8e49788f0961ef90a64778d8c677420f61fc9c9",
    "dense-m4@2": "1bfdbee7a344544cbb55b4924a75c627671d1955903086053d91afa7548e1a07",
}


@pytest.mark.parametrize("case", TENSORS_CASES, ids=[c[0] for c in TENSORS_CASES])
def test_tensors_stdout_unchanged(case, tmp_path, capsys):
    label, doc, at = case
    path = write_manifest(tmp_path, "m.json", doc)
    code, out = run_cli(capsys, "tensors", "--manifest", path, f"--at={at}")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TENSORS_STDOUT_SHA256[label]
