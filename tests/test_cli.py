import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclift
from metriclift import cli, exprlang, gallery, harmonic
from metriclift.lifts import LiftKind, lift_to_chart
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lift", ["none", "sasaki-tm", "complete-tm"])
    def test_overflow_in_entry_free_of_a_coordinate_is_non_finite(
        self, tmp_path, capsys, lift
    ):
        # g11 overflows for x1 > 0.887 and does not depend on x2: its x2
        # derivatives are exact zeros, never 0*inf, and the residual that
        # the overflow makes non-finite is still reported
        doc = {
            "coordinates": ["x1", "x2"],
            "metric": [["exp(800*x1)", "0"], ["0", "1 + x2^2"]],
            "hat_metric": [["2", "0"], ["0", "1 + x2^2"]],
            "samples": 64,
            "seed": 3,
        }
        path = write_manifest(tmp_path, "m.json", doc)
        code, out = run_cli(capsys, "check", "--manifest", path, "--lift", lift)
        assert code == 2
        err = strict_json(out)["error"]
        assert err["kind"] == "NonFiniteResidual"
        assert err["message"].startswith("residual component 1 is not finite")

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
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
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
            ([["a", "(" * 3000 + "x1" + ")" * 3000]], "definition 'a' is nested too deeply"),
            (
                [["d1", "x1"]] + [[f"d{j}", f"d{j - 1} + x1"] for j in range(2, 3001)],
                f"definition 'd{exprlang.MAX_DEFINITION_DEPTH + 1}' nests",
            ),
        ],
        ids=["duplicate", "coordinate", "function", "forward", "self", "syntax", "unknown",
             "bad-name", "non-string-name", "non-string-expression", "short-pair",
             "long-pair", "object-pair", "not-a-list", "deep-text", "deep-chain"],
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
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
    with contextlib.redirect_stdout(out), np.errstate(all="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 1, 2)
    strict_json(out.getvalue())
