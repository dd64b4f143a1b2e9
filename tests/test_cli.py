import hashlib
import io
import json
import math

import pytest

from uctensor import sparse_tensor
from uctensor.cli import Emitter, load_model, main, save_model
from uctensor.completion import round_to_scale
from uctensor.errors import UnknownIdError
from uctensor.sparse_tensor import SparseTensor, all_indices

DEMO = "u1,p1,1\nu1,p2,2\nu2,p1,3\n"


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture
def demo_model(demo_file, tmp_path):
    out = str(tmp_path / "model.json")
    assert main(["complete", demo_file, "-o", out]) == 0
    return out


def run_jsonl(capsys, argv):
    code = main(argv + ["--format", "jsonl"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, records


class TestComplete:
    def test_demo_round_trip(self, demo_file, tmp_path, capsys):
        out = str(tmp_path / "model.json")
        code, records = run_jsonl(capsys, ["complete", demo_file, "-o", out])
        assert code == 0
        kinds = [r["record"] for r in records]
        assert kinds[0] == "config"  # effective config is echoed first
        conv = [r for r in records if r["record"] == "convergence"][0]
        assert conv["converged"] and conv["sweeps"] >= 1

    def test_zero_rating_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("u1,p1,0\n")
        assert main(["complete", str(bad), "-o", str(tmp_path / "m.json")]) == 2

    def test_duplicate_is_input_error(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("u1,p1,4\nu1,p1,4\n")
        assert main(["complete", str(bad), "-o", str(tmp_path / "m.json")]) == 2

    def test_nonconvergence_exit_code(self, demo_file, tmp_path, capsys):
        code, records = run_jsonl(
            capsys,
            ["complete", demo_file, "-o", str(tmp_path / "m.json"), "--max-sweeps", "1"],
        )
        assert code == 1
        conv = [r for r in records if r["record"] == "convergence"][0]
        assert not conv["converged"]

    def test_convergence_record_fields(self, demo_file, tmp_path, capsys):
        fields = {"record", "converged", "sweeps", "final_v", "epsilon",
                  "stop_reason", "residual"}
        out = str(tmp_path / "m.json")
        code, records = run_jsonl(capsys, ["complete", demo_file, "-o", out])
        conv = [r for r in records if r["record"] == "convergence"][0]
        assert code == 0 and set(conv) == fields | {"seconds", "model"}
        assert conv["stop_reason"] in ("floor", "stagnation") and conv["residual"] < 1e-12
        code, records = run_jsonl(capsys, ["complete", demo_file, "-o", out, "--max-sweeps", "1"])
        conv = [r for r in records if r["record"] == "convergence"][0]
        assert code == 1 and set(conv) == fields
        assert conv["stop_reason"] == "budget" and conv["residual"] > 0.0
        assert main(["complete", demo_file, "-o", out]) == 0
        assert "stop=floor" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["complete", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("command", ["complete", "verify"])
    def test_non_utf8_file_is_input_error(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"u1,p1,4\nu\xff2,p1,3\n")
        argv = [command, str(bad)]
        if command == "complete":
            argv += ["-o", str(tmp_path / "m.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "error: line 2: byte 0xff at offset 9 is not valid UTF-8\n"
        assert "Traceback" not in captured.err

    def test_byte_order_mark_is_not_part_of_an_id(self, tmp_path, capsys):
        raw = b"\xef\xbb\xbfu1,p1,4\nu2,p2,3\nu1,p2,5\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)
        code, records = run_jsonl(
            capsys, ["complete", str(path), "-o", str(tmp_path / "m.json")]
        )
        assert code == 0
        assert records[0]["extents"] == [2, 2]
        assert records[0]["source_digest"] == hashlib.sha256(raw).hexdigest()

    def test_missing_output_directory_is_input_error(self, demo_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "m.json"
        assert main(["complete", demo_file, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith("error: cannot write model: ")
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_all_equal_ratings_converge_fast(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("u1,p1,3\nu1,p2,3\nu2,p1,3\nu2,p2,3\n")
        code, records = run_jsonl(
            capsys, ["complete", str(path), "-o", str(tmp_path / "m.json")]
        )
        assert code == 0
        conv = [r for r in records if r["record"] == "convergence"][0]
        assert conv["sweeps"] <= 2  # one per dimension


class TestPredict:
    def test_missing_and_known_queries(self, demo_model, capsys):
        code, records = run_jsonl(capsys, ["predict", demo_model, "u2,p2", "u1,p2"])
        assert code == 0
        preds = [r for r in records if r["record"] == "prediction"]
        assert preds[0]["raw"] == pytest.approx(6.0, rel=1e-9)
        assert not preds[0]["known"]
        assert preds[1]["raw"] == 2.0
        assert preds[1]["known"]

    def test_unknown_id_is_per_query_error(self, demo_model, capsys):
        code, records = run_jsonl(
            capsys, ["predict", demo_model, "u9,p1", "u2,p2"]
        )
        assert code == 0  # one query succeeded
        assert any(r["record"] == "error" for r in records)

    def test_all_queries_failing_is_error_exit(self, demo_model, capsys):
        code, _ = run_jsonl(capsys, ["predict", demo_model, "u9,p1"])
        assert code == 2

    def test_predict_all(self, demo_model, capsys):
        code, records = run_jsonl(capsys, ["predict", demo_model, "--all"])
        assert code == 0
        preds = [r for r in records if r["record"] == "prediction"]
        assert len(preds) == 1  # only (2,2) is missing
        assert preds[0]["ids"] == ["u2", "p2"]

    def test_predict_all_matches_model_bit_for_bit(self, tmp_path, capsys):
        ratings = tmp_path / "sparse.csv"
        ratings.write_text(
            "u1,p1,1\nu1,p2,2\nu2,p2,3\nu2,p3,4\nu3,p1,5\nu3,p3,2\nu4,p2,1.5\n"
        )
        out = str(tmp_path / "model.json")
        assert main(["complete", str(ratings), "-o", out]) == 0
        capsys.readouterr()
        code, records = run_jsonl(capsys, ["predict", out, "--all"])
        model, idmap, _ = load_model(out)
        missing = list(model.source.missing_indices())
        preds = [r for r in records if r["record"] == "prediction"]
        assert code == 0 and len(missing) == 5
        assert [r["ids"] for r in preds] == [list(idmap.unresolve(i)) for i in missing]
        assert [r["raw"] for r in preds] == [model.predict(i) for i in missing]
        assert not any(r["known"] for r in preds)

    @pytest.mark.parametrize("fmt", ["human", "jsonl"])
    @pytest.mark.parametrize("extra", [[], ["--round", "2,4"]])
    def test_predict_all_output_matches_per_cell_records(
        self, tmp_path, capsys, monkeypatch, fmt, extra
    ):
        # ids that JSON escapes, a 3x4 box with 5 missing cells streamed in
        # blocks of 2 flat indices, and explicit queries (known, missing,
        # unknown) after the --all sweep
        monkeypatch.setattr(sparse_tensor, "MISSING_BLOCK", 2)
        ratings = tmp_path / "odd.csv"
        ratings.write_text(
            'u"1,p\\1,1\nu"1,pü,2\nu2,pü,3\nu2,p3,4\nu3,p\\1,5\nu3,p3,2\nu3,p4,1.5\n'
        )
        out = str(tmp_path / "model.json")
        assert main(["complete", str(ratings), "-o", out]) == 0
        capsys.readouterr()
        queries = ["u2,pü", "u1,p4", 'u"1,p3', "u3,p4"]
        code = main(["predict", out, *queries, "--all", "--format", fmt, *extra])
        lines = capsys.readouterr().out.splitlines(keepends=True)

        model, idmap, _ = load_model(out)
        bounds = (2.0, 4.0) if extra else None
        reference = io.StringIO()
        emitter = Emitter(fmt, reference)

        def emit_prediction(ids, idx):
            raw = model.predict(idx)
            rec = {"record": "prediction", "ids": list(ids), "raw": raw,
                   "known": idx in model.source.entries}
            if bounds:
                rec["rounded"] = round_to_scale(raw, *bounds)
            if fmt == "jsonl":
                reference.write(json.dumps(rec, sort_keys=True) + "\n")
                return
            line = f"{','.join(ids)} -> {raw!r}"
            if bounds:
                line += f" (rounded {rec['rounded']})"
            if rec["known"]:
                line += " [known]"
            reference.write(line + "\n")

        for idx in all_indices(model.source.extents):
            if idx not in model.source.entries:
                emit_prediction(idmap.unresolve(idx), idx)
        for q in queries:
            ids = tuple(q.split(","))
            try:
                idx = idmap.resolve(ids)
            except UnknownIdError as exc:
                emitter.emit({"record": "error", "query": list(ids), "message": str(exc)})
                continue
            emit_prediction(ids, idx)
        assert code == 0 and model.source.box_size - len(model.source) == 5
        assert "".join(lines[1:]) == reference.getvalue()

    def test_round_bounds_must_be_ordered(self, demo_model, capsys):
        assert main(["predict", demo_model, "--all", "--round", "5,1"]) == 2
        assert capsys.readouterr().out.startswith("error: --round expects")

    def test_rounding(self, demo_model, capsys):
        code, records = run_jsonl(
            capsys, ["predict", demo_model, "u2,p2", "--round", "1,5"]
        )
        preds = [r for r in records if r["record"] == "prediction"]
        assert preds[0]["rounded"] == 5.0  # 6.0 clamped into [1, 5]

    def test_bad_model_file(self, demo_model, tmp_path, capsys):
        good = json.loads(open(demo_model).read())

        def variant(**changes):
            return json.dumps({**good, **changes})

        rows, cols = good["log_coeffs"]
        first, second, *rest = good["entries"]
        payloads = {
            "empty object": "{}",
            "top-level list": json.dumps([good]),
            "extents shorter than the indices": variant(extents=[2]),
            "k below 1": variant(k=0),
            "k above d-1": variant(k=2),
            "too many vectors": variant(log_coeffs=[rows, cols, cols]),
            "too few vectors": variant(log_coeffs=[rows]),
            "vector too long": variant(log_coeffs=[rows + [0.0], cols]),
            "nested vector": variant(log_coeffs=[[rows], cols]),
            "vector not a list": variant(log_coeffs=[{"dims": 1}, cols]),
            "entries missing": json.dumps({k: v for k, v in good.items() if k != "entries"}),
            "entry repeated": variant(entries=good["entries"] + [[[1, 1], 99.0]]),
            "fractional coordinate": variant(entries=[first, [[2.7, 1], second[1]], *rest]),
            "boolean coordinate": variant(entries=[[[True, 1], first[1]], second, *rest]),
            "non-finite coefficient": variant(log_coeffs=[[float("nan"), rows[1]], cols]),
            "id map shorter than extents": variant(idmap={"dimensions": [["u1"], ["p1", "p2"]]}),
            "id map with a repeated id": variant(idmap={"dimensions": [["u1", "u1"], ["p1", "p2"]]}),
            "version 1": variant(version=1, log_coeffs=[
                {"dims": 1, "coords": [1], "s": 0.0},
            ]),
        }
        for name, text in payloads.items():
            bad = tmp_path / "not-a-model.json"
            bad.write_text(text)
            assert main(["predict", str(bad), "u1,p1"]) == 2, name
            captured = capsys.readouterr()
            assert captured.out.startswith("error: cannot load model: "), name
            assert "Traceback" not in captured.err, name


class TestArtifact:
    def test_complete_never_builds_entries(self, demo_file, tmp_path, monkeypatch):
        # parse, tca and save_model work on the arrays; the dict view stays unbuilt
        def refuse(tensor):
            raise AssertionError("SparseTensor.entries was built")

        monkeypatch.setattr(SparseTensor, "entries", property(refuse))
        assert main(["complete", demo_file, "-o", str(tmp_path / "m.json")]) == 0

    def test_round_trip_is_bit_identical(self, demo_model, tmp_path):
        model1, idmap1, digest1 = load_model(demo_model)
        resaved = str(tmp_path / "resaved.json")
        save_model(resaved, model1, idmap1, digest1)
        model2, idmap2, digest2 = load_model(resaved)
        assert digest2 == digest1
        assert idmap2.to_id == idmap1.to_id
        assert model2.scaling.log_coeffs == model1.scaling.log_coeffs
        assert model2.source.entries == model1.source.entries
        for idx in model1.source.missing_indices():
            assert model2.predict(idx) == model1.predict(idx)
        with open(demo_model) as a, open(resaved) as b:
            assert a.read() == b.read()

    def test_artifact_stores_log_coefficients(self, demo_model):
        payload = json.loads(open(demo_model).read())
        assert payload["format"] == "uctensor-model"
        assert payload["version"] == 2
        assert payload["v_trace"]
        # one list per subtensor group: the two rows, then the two columns
        assert [len(vec) for vec in payload["log_coeffs"]] == [2, 2]
        assert payload["source_digest"]

    def test_k_below_d_minus_1_round_trip(self, tmp_path, capsys):
        ratings = tmp_path / "cube.csv"
        ratings.write_text(
            "x1,y1,z1,1\nx1,y2,z1,2\nx2,y1,z1,3\nx2,y1,z2,4\n"
            "x3,y2,z2,5\nx3,y1,z1,1.5\nx1,y1,z2,2.5\n"
        )
        out = str(tmp_path / "cube.json")
        argv = ["complete", str(ratings), "-o", out, "--schema", "key,key,key,value"]
        assert main(argv + ["--k", "1"]) == 0
        capsys.readouterr()
        code, records = run_jsonl(capsys, ["predict", out, "--all"])
        model, idmap, digest = load_model(out)
        missing = list(model.source.missing_indices())
        preds = [r for r in records if r["record"] == "prediction"]
        assert code == 0 and model.k == 1 and len(missing) == 5
        assert [r["ids"] for r in preds] == [list(idmap.unresolve(i)) for i in missing]
        assert [r["raw"] for r in preds] == [model.predict(i) for i in missing]

        resaved = tmp_path / "resaved.json"
        save_model(str(resaved), model, idmap, digest)
        assert resaved.read_bytes() == open(out, "rb").read()

        # no known entry has (x2, y2): that group has no slot there and reads 0
        idx = idmap.resolve(("x2", "y2", "z1"))
        xy, xz, yz = model.scaling.groups
        assert xy.fixed_dims == (1, 2) and xy.slot(idx) is None
        _, vec_xz, vec_yz = model.scaling.coeffs
        expected = math.exp(-(0 + vec_xz[xz.slot(idx)] + vec_yz[yz.slot(idx)]))
        assert model.predict(idx) == expected


class TestVerify:
    def test_demo_all_properties_pass(self, demo_file, capsys):
        code, records = run_jsonl(capsys, ["verify", demo_file])
        assert code == 0
        props = {r["name"]: r for r in records if r["record"] == "property"}
        assert props["unit_consistency"]["passed"]
        assert props["gauge_uniqueness"]["passed"]
        assert props["scale_fairness"]["passed"]
        assert props["oracle_equivalence"]["passed"]

    def test_property_subset(self, demo_file, capsys):
        code, records = run_jsonl(
            capsys, ["verify", demo_file, "--properties", "unit_consistency"]
        )
        assert code == 0
        props = [r for r in records if r["record"] == "property"]
        assert [p["name"] for p in props] == ["unit_consistency"]

    def test_unknown_property_rejected(self, demo_file):
        assert main(["verify", demo_file, "--properties", "nonsense"]) == 2

    def test_non_full_support_is_informational(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text("u1,p1,1\nu2,p2,2\n")  # diagonal only: no hypercubes
        code, records = run_jsonl(capsys, ["verify", str(path)])
        assert code == 0
        props = {r["name"]: r for r in records if r["record"] == "property"}
        assert props["full_support"]["informational"]
        assert "2 unsupported" in props["full_support"]["notes"][0]
        assert props["gauge_uniqueness"]["informational"]

    def test_declared_consensus_spec_checked(self, tmp_path, capsys):
        path = tmp_path / "ranked.csv"
        path.write_text(
            "u1,p1,1\nu1,p2,2\nu1,p3,4\nu1,p4,1\n"
            "u2,p1,2\nu2,p2,4\nu2,p3,8\nu2,p4,2\n"
            "u3,p4,3\n"
        )
        code, records = run_jsonl(
            capsys, ["verify", str(path), "--properties", "consensus_ordering",
                     "--consensus-spec", "2:p1,p2,p3"]
        )
        assert code == 0
        props = [r for r in records if r["record"] == "property"]
        assert props[0]["passed"] and props[0]["instances"] == 1

    def test_declared_spec_violating_strict_order_is_spec_error(self, tmp_path, capsys):
        path = tmp_path / "unranked.csv"
        path.write_text(
            "u1,p1,2\nu1,p2,2\nu2,p1,5\nu2,p2,5\nu1,p3,9\nu2,p3,9\n"
        )
        code, records = run_jsonl(
            capsys, ["verify", str(path), "--properties", "consensus_ordering",
                     "--consensus-spec", "2:p1,p2"]
        )
        assert code == 2  # surfaced as a specification error, not a property failure
        errors = [r for r in records if r["record"] == "error"]
        assert errors and errors[0]["clause"] == "ordering"
        assert not any(
            r["record"] == "property" and not r["passed"] for r in records
        )

    def test_declared_spec_with_unknown_id(self, demo_file):
        assert main(
            ["verify", demo_file, "--properties", "consensus_ordering",
             "--consensus-spec", "2:p9,p1"]
        ) == 2

    def test_oracle_skipped_above_cap(self, demo_file, capsys):
        code, records = run_jsonl(
            capsys, ["verify", demo_file, "--oracle-cap", "2",
                     "--properties", "oracle_equivalence,unit_consistency"]
        )
        assert code == 0
        assert any(r["record"] == "warning" for r in records)
        names = [r["name"] for r in records if r["record"] == "property"]
        assert "oracle_equivalence" not in names
        assert "unit_consistency" in names


class TestExperiment:
    def test_consensus_small(self, capsys):
        code, records = run_jsonl(
            capsys,
            ["experiment", "consensus", "--users", "8", "--base-products", "5"],
        )
        assert code == 0
        summary = [r for r in records if r["record"] == "experiment"][0]
        assert summary["violations"] == 0
        data = [r for r in records if r["record"] == "data"]
        assert len(data) == 4  # one row per control user
        assert all(r["ordered"] == 1 for r in data)

    def test_fairness_small(self, capsys):
        code, records = run_jsonl(
            capsys,
            ["experiment", "fairness", "--rows", "8", "--cols", "6",
             "--density", "0.7", "--top-n", "3"],
        )
        assert code == 0
        summary = [r for r in records if r["record"] == "experiment"][0]
        assert summary["changed_predictions"] == 0
        assert summary["changed_top_n_lists"] == 0

    def test_scaling_writes_data_file(self, tmp_path, capsys):
        data = tmp_path / "scaling.tsv"
        code, _ = run_jsonl(
            capsys,
            ["experiment", "scaling", "--rows", "16", "--cols", "16",
             "--doublings", "2", "--sweeps-per-measure", "2", "--data", str(data)],
        )
        assert code == 0
        lines = data.read_text().splitlines()
        assert lines[0].split("\t") == [
            "entries", "sweeps", "wall_seconds", "per_sweep_seconds", "ratio_vs_previous",
        ]
        assert len(lines) == 4  # header + 3 sizes
