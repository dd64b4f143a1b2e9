import argparse
import base64
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uctensor
from uctensor import cli, completion, lcsp_oracle, properties, sparse_tensor, support
from uctensor.cli import ALL_PROPERTIES, Emitter, load_model, main, save_model
from uctensor.completion import complete_all, predict_many, round_to_scale, tca
from uctensor.errors import CapacityError, UnknownIdError
from uctensor.ingest import IdMap
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


def encode(items, dtype: str) -> str:
    """``items`` as an artifact's base64 field of little-endian ``dtype`` bytes."""
    return base64.b64encode(np.array(items, dtype=dtype).tobytes()).decode("ascii")


def decode(text: str, dtype: str) -> list:
    """An artifact's base64 field of ``dtype`` bytes as a list."""
    return np.frombuffer(base64.b64decode(text), dtype=dtype).tolist()


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

    def test_one_patch_of_the_box_cap_reaches_predict_all_and_complete_all(
        self, demo_model, capsys, monkeypatch
    ):
        model, _, _ = load_model(demo_model)
        monkeypatch.setattr(completion, "COMPLETE_ALL_CAP", 3)  # the demo box has 4 cells
        with pytest.raises(CapacityError) as refused:
            complete_all(model)
        code, records = run_jsonl(capsys, ["predict", demo_model, "--all"])
        assert code == 2 and [r["record"] for r in records] == ["config", "error"]
        assert records[1]["message"] == str(refused.value)
        assert "above the cap 3" in str(refused.value)

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
        text = open(demo_model).read()
        good = json.loads(text)

        def variant(**changes):
            return json.dumps({**good, **changes})

        def without(key):
            return json.dumps({k: v for k, v in good.items() if k != key})

        rows, cols = (decode(vec, "<f8") for vec in good["log_coeffs"])
        # (1, 1), (2, 1), (1, 2) in flat order
        users, items = (decode(column, "<i4") for column in good["coords"])
        values = decode(good["values"], "<f8")
        (R, C), (U, I), V = good["log_coeffs"], good["coords"], good["values"]
        nan, inf = float("nan"), float("inf")
        payloads = {
            "empty object": "{}",
            "top-level list": json.dumps([good]),
            "truncated file": text[:len(text) // 2],
            "extents shorter than the indices": variant(extents=[2]),
            "k below 1": variant(k=0),
            "k above d-1": variant(k=2),
            "too many vectors": variant(log_coeffs=[R, C, C]),
            "too few vectors": variant(log_coeffs=[R]),
            "vector too long": variant(log_coeffs=[encode(rows + [0.0], "<f8"), C]),
            "nested vector": variant(log_coeffs=[[R], C]),
            "vector not a string": variant(log_coeffs=[{"dims": 1}, C]),
            "vectors not a list": variant(log_coeffs={"rows": R}),
            "vectors as one string": variant(log_coeffs=R),
            "coords missing": without("coords"),
            "values missing": without("values"),
            "entry repeated": variant(
                coords=[encode(users + [1], "<i4"), encode(items + [1], "<i4")],
                values=encode(values + [99.0], "<f8"),
            ),
            "coordinate column of float bytes": variant(
                coords=[encode([users[0], 2.7, users[2]], "<f8"), I]
            ),
            "coordinate column as a JSON list": variant(coords=[users, I]),
            "coordinate out of bounds": variant(coords=[U, encode([*items[:2], 3], "<i4")]),
            "coordinate zero": variant(coords=[encode([0, *users[1:]], "<i4"), I]),
            "coordinate column not a string": variant(coords=[U, {"items": I}]),
            "columns of unequal length": variant(coords=[U, encode(items[:2], "<i4")]),
            "coordinate column of 6 bytes": variant(coords=[U, encode(items, "<i2")]),
            "fewer values than coordinates": variant(values=encode(values[:2], "<f8")),
            "too many coordinate columns": variant(coords=[U, I, I]),
            "too few coordinate columns": variant(coords=[U]),
            "coords not a list": variant(coords={"users": U, "items": I}),
            "values as a JSON list": variant(values=values),
            "values as a boolean": variant(values=True),
            "values of 20 bytes": variant(
                values=base64.b64encode(np.array(values, "<f8").tobytes()[:20]).decode()
            ),
            "zero value": variant(values=encode([values[0], 0.0, values[2]], "<f8")),
            "negative value": variant(values=encode([values[0], -1.0, values[2]], "<f8")),
            "NaN value": variant(values=encode([values[0], nan, values[2]], "<f8")),
            "infinite value": variant(values=encode([inf, *values[1:]], "<f8")),
            "coefficients as a JSON list": variant(log_coeffs=[rows, C]),
            "coefficient vector as a boolean": variant(log_coeffs=[R, False]),
            "NaN coefficient": variant(log_coeffs=[encode([nan, rows[1]], "<f8"), C]),
            "infinite coefficient": variant(log_coeffs=[R, encode([cols[0], -inf], "<f8")]),
            "coefficients of 12 bytes": variant(log_coeffs=[R, encode([1, 2, 3], "<i4")]),
            "base64 with a character outside the alphabet": variant(values="*" + V[1:]),
            "base64 with a line break": variant(values=V[:8] + "\n" + V[8:]),
            "base64 with a character outside ASCII": variant(values="\u00e9" + V[1:]),
            "base64 with padding cut off": variant(log_coeffs=[R, C.rstrip("=")]),
            "base64 with padding inside": variant(coords=[U, "AQ==" + I]),
            "stop reason not a string": variant(stop_reason=1),
            "residual missing": without("residual"),
            "id map shorter than extents": variant(idmap={"dimensions": [["u1"], ["p1", "p2"]]}),
            "id map with a repeated id": variant(idmap={"dimensions": [["u1", "u1"], ["p1", "p2"]]}),
            "version 1": variant(version=1, log_coeffs=[
                {"dims": 1, "coords": [1], "s": 0.0},
            ]),
            "version 2": json.dumps({
                **{k: v for k, v in good.items()
                   if k not in ("coords", "values", "stop_reason", "residual")},
                "version": 2,
                "entries": [[list(idx), v] for idx, v in zip(zip(users, items), values)],
            }),
            "version 3": variant(version=3, coords=[users, items], values=values,
                                 log_coeffs=[rows, cols]),
        }
        for name, text in payloads.items():
            bad = tmp_path / "not-a-model.json"
            bad.write_text(text)
            assert main(["predict", str(bad), "u1,p1"]) == 2, name
            captured = capsys.readouterr()
            assert captured.out.startswith("error: cannot load model: "), name
            assert "Traceback" not in captured.err, name

    def test_huge_extents_are_an_input_error(self, demo_model, tmp_path, capsys):
        # the id map is checked first, so no array is sized by the extents
        payload = json.loads(open(demo_model).read())
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({**payload, "extents": [2**40, 2**40]}))
        assert main(["predict", str(bad), "u1,p1"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: cannot load model: ") and "does not fit extents" in out

    @pytest.mark.parametrize("fmt", ["human", "jsonl"])
    def test_queries_never_build_entries(self, demo_model, capsys, monkeypatch, fmt):
        from uctensor import cli

        loaded = []

        def load(path):
            loaded.append(load_model(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_model", load)
        assert main(["predict", demo_model, "u2,p2", "u1,p2", "--round", "1,5",
                     "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert ("known" in lines[0], "known" in lines[1]) == (fmt == "jsonl", True)
        assert loaded[0][0].source._entries is None

    def test_known_cell_checks_never_build_entries(self, demo_model):
        # supported and oracle_complete find a known cell by one binary search
        model = load_model(demo_model)[0]
        assert model.supported((2, 2)) and model.supported((1, 2))
        assert lcsp_oracle.oracle_complete(model.source, model.k, (2, 2),
                                           presolved=model.scaling) > 0
        with pytest.raises(ValueError, match="is known"):
            lcsp_oracle.oracle_complete(model.source, model.k, (1, 2), presolved=model.scaling)
        assert model.source._entries is None

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_artifact_names_its_version(self, demo_model, tmp_path, capsys, version):
        payload = json.loads(open(demo_model).read())
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**payload, "version": version}))
        assert main(["predict", str(old), "u1,p1"]) == 2
        message = capsys.readouterr().out
        assert f"of version {version}," in message
        assert "rerun `uctensor complete`" in message


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

    def test_fit_settings_are_stored_and_echoed(self, demo_file, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        assert main(["complete", demo_file, "-o", out, "--epsilon", "1e-20",
                     "--max-sweeps", "77"]) == 0
        payload = json.loads(open(out).read())
        assert (payload["epsilon"], payload["max_sweeps"]) == (1e-20, 77)
        capsys.readouterr()
        _, records = run_jsonl(capsys, ["predict", out, "u2,p2"])
        assert (records[0]["epsilon"], records[0]["max_sweeps"]) == (1e-20, 77)

    def test_artifact_stores_log_coefficients(self, demo_model):
        payload = json.loads(open(demo_model).read())
        assert payload["format"] == "uctensor-model"
        assert payload["version"] == 4
        assert payload["v_trace"]
        # the known set as base64 columns in flat-index order: (1,1), (2,1),
        # (1,2), with 4-byte coordinates while the extents fit them
        assert [decode(column, "<i4") for column in payload["coords"]] == [[1, 2, 1], [1, 1, 2]]
        assert decode(payload["values"], "<f8") == [1.0, 3.0, 2.0]
        assert "entries" not in payload
        # one base64 vector per subtensor group: the two rows, then the two columns
        model, _, _ = load_model(demo_model)
        assert [type(vec) for vec in payload["log_coeffs"]] == [str, str]
        assert [decode(vec, "<f8") for vec in payload["log_coeffs"]] == [
            vec.tolist() for vec in model.scaling.coeffs
        ]
        assert [len(vec) for vec in model.scaling.coeffs] == [2, 2]
        assert payload["source_digest"]

    def test_coordinates_take_8_bytes_past_int32_extents(self, tmp_path, monkeypatch):
        # k = 1 of a 3-d tensor fixes two dimensions per group, so no group is
        # sized by the 2^31 extent; rather than 2^31 ids, the small id map is
        # taken to cover the extents
        extents = (2**31, 2, 2)
        known = [(1, 1, 1), (2**31, 2, 1), (2**31, 1, 2), (1, 2, 2)]
        model = tca(SparseTensor.from_arrays(extents, known, [1.0, 1.5, 2.0, 3.0]), 1)
        path = str(tmp_path / "wide.json")
        save_model(path, model, IdMap(3), "digest")
        columns = [decode(column, "<i8") for column in json.loads(open(path).read())["coords"]]
        assert columns == model.source.coords_array().T.tolist()

        monkeypatch.setattr(IdMap, "extents", lambda self: extents)
        loaded, _, _ = load_model(path)
        assert loaded.source.coords_array().tolist() == model.source.coords_array().tolist()
        cells = np.array([(1, 2, 1), (2**31, 2, 2), (2**31 - 1, 1, 1)])
        assert predict_many(loaded, cells).tobytes() == predict_many(model, cells).tobytes()

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

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_save_load_round_trip_is_bit_exact(self, data):
        # every k of each drawn tensor, d = 2..4
        d = data.draw(st.sampled_from([2, 3, 4]), label="d")
        longest = 4 if d < 4 else 3
        extents = tuple(data.draw(st.lists(st.integers(1, longest), min_size=d, max_size=d)))
        cells = list(all_indices(extents))
        known = data.draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
        values = data.draw(st.lists(
            st.floats(1e-3, 1e3), min_size=len(known), max_size=len(known)
        ))
        idmap = IdMap(d)
        for dim, n in enumerate(extents):
            for i in range(n):
                idmap.intern(dim, f"d{dim}-{i}")

        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        box = np.array(cells)
        for k in range(1, d):
            model = tca(SparseTensor.from_arrays(extents, known, values), k)
            with tempfile.TemporaryDirectory() as tmp:
                first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
                save_model(str(first), model, idmap, "digest")
                loaded, loaded_idmap, digest = load_model(str(first))
                save_model(str(second), loaded, loaded_idmap, digest)
                assert second.read_bytes() == first.read_bytes()

            assert loaded.k == k and loaded_idmap.to_id == idmap.to_id
            assert same(loaded.source.coords_array(), model.source.coords_array())
            assert same(loaded.source.values_array(), model.source.values_array())
            assert len(loaded.scaling.coeffs) == len(model.scaling.coeffs)
            for got, want in zip(loaded.scaling.coeffs, model.scaling.coeffs):
                assert same(got, want)
            assert same(predict_many(loaded, box), predict_many(model, box))
            for field in ("sweeps", "v_trace", "converged", "stop_reason", "residual"):
                assert getattr(loaded.report, field) == getattr(model.report, field), field

    def test_artifact_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product across threads above 10,000
        # elements, so both the entries (36,000) and the subtensors (15,000 rows
        # and columns) are past that size
        rng = np.random.default_rng(7)
        users, items = 12_000, 3_000
        first = rng.integers(0, items, size=users)
        step = rng.integers(1, items // 3, size=users)
        rated = (first[:, None] + np.arange(3) * step[:, None]) % items
        stars = rng.uniform(0.5, 5.0, size=rated.shape)
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("".join(
            f"u{u},i{i},{v:.3f}\n"
            for u, row, vals in zip(range(users), rated.tolist(), stars.tolist())
            for i, v in zip(row, vals)
        ))
        src = str(Path(uctensor.__file__).parents[1])
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / f"model-{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run(
                [sys.executable, "-m", "uctensor", "complete", str(ratings), "-o", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]


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

    def test_found_consensus_sets_checked(self, tmp_path, capsys):
        # built like the consensus experiment at 8 users x 8 products: users
        # 1-4 rate products 6, 7, 8 as 3, 2, 1, and no spec is declared
        rng = np.random.default_rng(0)
        lines = [f"u{u},p{p},{rng.uniform(1.0, 5.0)!r}" for u in range(1, 9) for p in range(1, 6)]
        lines += [f"u{u},p{p},{v}" for u in range(1, 5) for p, v in ((6, 3), (7, 2), (8, 1))]
        path = tmp_path / "planted.csv"
        path.write_text("\n".join(lines) + "\n")
        code, records = run_jsonl(
            capsys, ["verify", str(path), "--properties", "consensus_ordering"]
        )
        assert code == 0
        props = [r for r in records if r["record"] == "property"]
        assert all(p["passed"] for p in props)
        planted = [p for p in props if p["notes"] == ["dim 2, slices [8, 7, 6]"]]
        assert len(planted) == 1 and planted[0]["instances"] == 4  # the control users

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

    def test_oracle_cap_above_the_solver_cap_warns(self, demo_file, capsys, monkeypatch):
        # --oracle-cap lets the 3 entries through; the direct solver's own cap does not
        monkeypatch.setattr(lcsp_oracle, "SIZE_CAP", 2)
        code, records = run_jsonl(
            capsys, ["verify", demo_file, "--oracle-cap", "5000",
                     "--properties", "oracle_equivalence"]
        )
        assert code == 0
        warnings = [r["message"] for r in records if r["record"] == "warning"]
        assert warnings == [
            "oracle checks skipped: constraint system is 4x3, above the oracle cap 2"
        ]
        assert not [r for r in records if r["record"] == "property"]
        assert capsys.readouterr().err == ""

    def test_scale_fairness_above_the_scan_cap_warns(self, demo_file, capsys, monkeypatch):
        monkeypatch.setattr(support, "DEFAULT_SCAN_CAP", 0)  # the demo has 1 missing cell
        code, records = run_jsonl(
            capsys, ["verify", demo_file, "--properties", "scale_fairness,unit_consistency"]
        )
        assert code == 0
        warnings = [r["message"] for r in records if r["record"] == "warning"]
        assert warnings == ["scale fairness would compare 1 missing cells over cap 0"]
        names = [r["name"] for r in records if r["record"] == "property"]
        assert names == ["unit_consistency"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags", [
        ["--k", "5"],
        ["--factor", "0"],
        ["--factor", "-1"],
        ["--consensus-spec", "2:p1,p1"],
        ["--trials", "-1"],
        ["--trials", "0"],
        ["--orderings", "-2"],
        ["--orderings", "0"],
        ["--oracle-cap", "-1"],
    ])
    def test_bad_input_is_one_error_record(self, demo_file, flags):
        src = str(Path(uctensor.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-m", "uctensor", "verify", demo_file, *flags, "--format", "jsonl"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 2, done.stdout + done.stderr
        assert done.stderr == ""
        records = [json.loads(line) for line in done.stdout.splitlines()]
        assert [r["record"] for r in records] == ["error"]

    def test_fit_failing_in_a_check_is_a_convergence_record(
        self, demo_file, capsys, monkeypatch
    ):
        from uctensor import properties
        from uctensor.canonical_scaling import csa_many

        # the rescaled copies are fitted as one batch, each row with one step
        monkeypatch.setattr(
            properties, "csa_many",
            lambda tensor, k, rows, orders=None: csa_many(tensor, k, rows, orders, max_sweeps=1),
        )
        code, records = run_jsonl(
            capsys, ["verify", demo_file, "--properties", "unit_consistency"]
        )
        assert code == 1
        assert [r["record"] for r in records] == ["config", "convergence"]
        assert records[1]["converged"] is False
        assert capsys.readouterr().err == ""

    def test_one_fit_of_the_input_per_verify(self, demo_file, capsys, monkeypatch):
        # five checks share the base fit, and each check's other fits run
        # as one batch: rows of the base fit, the unit-consistency trials,
        # the gauge orders and the rescaled slice
        from uctensor import canonical_scaling, properties

        batches = []
        batch = canonical_scaling.csa_many

        def counted(tensor, k, log_values, *rest, **kwargs):
            log_values = list(log_values)
            batches.append(len(log_values))
            return batch(tensor, k, log_values, *rest, **kwargs)

        for owner in (canonical_scaling, properties):
            monkeypatch.setattr(owner, "csa_many", counted)
        code, records = run_jsonl(capsys, ["verify", demo_file])
        assert code == 0
        assert [r["name"] for r in records if r["record"] == "property"] == list(ALL_PROPERTIES)
        assert batches == [1, 20, 5, 1]

    def test_one_witness_search_for_the_compared_cells(self, demo_file, capsys, monkeypatch):
        # full_support and the compared cells read one scan, which decides
        # every cell by the join: no cell runs the per-cell search
        from uctensor import support

        scans, searched = [], []
        scan, search = support.scan, support._smallest_offset

        def counted_scan(tensor, cap):
            scans.append(cap)
            return scan(tensor, cap)

        def counted_search(cells, idx, extents):
            searched.append(idx)
            return search(cells, idx, extents)

        monkeypatch.setattr(support, "scan", counted_scan)
        monkeypatch.setattr(support, "_smallest_offset", counted_search)
        code, records = run_jsonl(capsys, ["verify", demo_file])
        assert code == 0
        assert {r["name"] for r in records if r["record"] == "property"} == set(ALL_PROPERTIES)
        assert scans == [support.DEFAULT_SCAN_CAP]
        assert searched == []

    def test_full_support_over_its_cap_compares_the_same_cells(
        self, tmp_path, capsys, monkeypatch
    ):
        from uctensor import cli, properties, support

        # a staircase plus a disjoint 2x2 block: 16 missing cells
        path = tmp_path / "partial.csv"
        stair = ["r1,c1", "r1,c2", "r2,c2", "r2,c3", "r3,c3"]
        block = [f"r{a},c{b}" for a in (4, 5) for b in (4, 5)]
        path.write_text("".join(f"{key},{1 + n / 4}\n" for n, key in enumerate(stair + block)))
        monkeypatch.setattr(support, "DEFAULT_SCAN_CAP", 7)
        monkeypatch.setattr(properties, "MISSING_CAP", 5)
        checked_cells = cli.checked_cells
        compared = []

        def recorded(scanned):
            cells = checked_cells(scanned)
            compared.append(cells.tolist())
            return cells

        monkeypatch.setattr(cli, "checked_cells", recorded)
        runs = []
        for wanted in ("full_support,unit_consistency", "unit_consistency"):
            runs.append(run_jsonl(capsys, ["verify", str(path), "--trials", "2",
                                           "--properties", wanted]))
        assert [code for code, _ in runs] == [0, 0]
        warnings = [r["message"] for r in runs[0][1] if r["record"] == "warning"]
        assert warnings == ["more than 7 missing cells to scan"]
        assert compared == [[[2, 1], [3, 2]]] * 2

    def test_oracle_compares_the_unit_consistency_cells(self, tmp_path, capsys, monkeypatch):
        from uctensor import properties

        # a staircase plus a disjoint 2x2 block; of the first 5 missing cells
        # in flat order, (2,1) and (3,2) have a witness and (3,1), (4,1) and
        # (5,1) do not, and (1,3) further on has one too
        path = tmp_path / "partial.csv"
        stair = ["r1,c1", "r1,c2", "r2,c2", "r2,c3", "r3,c3"]
        block = [f"r{a},c{b}" for a in (4, 5) for b in (4, 5)]
        path.write_text("".join(f"{key},{1 + n / 4}\n" for n, key in enumerate(stair + block)))
        monkeypatch.setattr(properties, "MISSING_CAP", 5)
        code, records = run_jsonl(
            capsys, ["verify", str(path), "--trials", "2",
                     "--properties", "unit_consistency,oracle_equivalence"]
        )
        assert code == 0
        props = {r["name"]: r for r in records if r["record"] == "property"}
        assert props["unit_consistency"]["notes"] == ["3 unsupported missing indices excluded"]
        assert props["oracle_equivalence"]["instances"] == 2


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

    @staticmethod
    def run_subprocess(argv):
        """The experiment in a fresh interpreter, stopped after 60 s rather than hanging."""
        src = str(Path(uctensor.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        return subprocess.run(
            [sys.executable, "-m", "uctensor", "experiment", *argv, "--format", "jsonl"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
        )

    @pytest.mark.parametrize("argv", [
        ["fairness", "--rows", "0"],
        ["fairness", "--cols", "0"],
        ["fairness", "--density", "0"],
        ["fairness", "--density", "1.5"],
        ["fairness", "--density", "nan"],
        ["fairness", "--factor", "0"],
        ["fairness", "--factor", "inf"],
        ["fairness", "--top-n", "0"],
        ["fairness", "--user", "0"],
        ["fairness", "--user", "99"],
        ["fairness", "--rows", "1100", "--cols", "1000", "--density", "0.002"],
        ["consensus", "--users", "1"],
        ["consensus", "--base-products", "0"],
        ["scaling", "--rows", "0"],
        ["scaling", "--doublings", "0"],
        ["scaling", "--doublings", "-1"],
        ["scaling", "--sweeps-per-measure", "0"],
    ])
    def test_bad_size_or_factor_is_one_error_record(self, argv):
        done = self.run_subprocess(argv)
        assert done.returncode == 2, done.stdout + done.stderr
        assert done.stderr == ""
        records = [json.loads(line) for line in done.stdout.splitlines()]
        assert [r["record"] for r in records] == ["error"]
        assert argv[1] in records[0]["message"]

    def test_no_full_support_draw_is_an_input_error(self):
        from uctensor.properties import FULL_SUPPORT_DRAWS

        done = self.run_subprocess(["fairness", "--rows", "6", "--cols", "5", "--density", "1e-9"])
        assert done.returncode == 2, done.stdout + done.stderr
        assert done.stderr == ""
        records = [json.loads(line) for line in done.stdout.splitlines()]
        assert [r["record"] for r in records] == ["config", "error"]
        message = records[1]["message"]
        assert "6x5" in message and "1e-09" in message and str(FULL_SUPPORT_DRAWS) in message

    def test_fairness_past_the_scan_cap_is_an_input_error(self, capsys, monkeypatch):

        monkeypatch.setattr(support, "DEFAULT_SCAN_CAP", 300)

        def refuse(*args):
            raise AssertionError("a matrix was drawn")

        monkeypatch.setattr(properties, "_random_full_support_matrix", refuse)
        code, records = run_jsonl(capsys, ["experiment", "fairness", "--rows", "20",
                                           "--cols", "16"])
        assert code == 2 and [r["record"] for r in records] == ["error"]
        assert "320 cells, over the support scan cap 300" in records[0]["message"]

        # a cap reached inside the run is an error record too, not a traceback
        def over_cap(*args):
            raise CapacityError("scale fairness would compare 280 missing cells over cap 250")

        monkeypatch.undo()
        monkeypatch.setattr(properties, "_rescaled_predictions", over_cap)
        code, records = run_jsonl(capsys, ["experiment", "fairness", "--rows", "20",
                                           "--cols", "15"])
        assert code == 2 and [r["record"] for r in records] == ["config", "error"]
        assert records[1]["message"].endswith("over cap 250")

    def test_scaling_jsonl_has_no_nan(self, capsys):
        code = main(["experiment", "scaling", "--rows", "8", "--cols", "8", "--doublings", "1",
                     "--sweeps-per-measure", "1", "--format", "jsonl"])
        out = capsys.readouterr().out
        assert code in (0, 1)

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        records = [json.loads(line, parse_constant=refuse) for line in out.splitlines()]
        data = [r for r in records if r["record"] == "data"]
        assert data[0]["ratio_vs_previous"] is None
        assert data[1]["ratio_vs_previous"] > 0
        # the human table keeps nan
        main(["experiment", "scaling", "--rows", "8", "--cols", "8", "--doublings", "1",
              "--sweeps-per-measure", "1"])
        lines = capsys.readouterr().out.splitlines()
        first = lines.index("entries\tsweeps\twall_seconds\tper_sweep_seconds\tratio_vs_previous") + 1
        assert lines[first].endswith("\tnan")

    def test_unwritable_data_path_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "no" / "such" / "x.tsv"
        code, records = run_jsonl(capsys, ["experiment", "consensus", "--users", "8",
                                           "--base-products", "5", "--data", str(data)])
        assert code == 2 and capsys.readouterr().err == ""
        assert [r["record"] for r in records] == ["config", "experiment", "error"]
        assert records[-1]["message"].startswith("cannot write data: ")
        assert not data.exists()

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

    @pytest.mark.parametrize("argv, message", [
        (["consensus", "--users", "8", "--base-products", "10"],
         "--users 8 x (--base-products 10 + 3) is 104 cells, over the support scan cap 100"),
        (["consensus", "--users", "10000000"], "is 430000000 cells, over"),
        (["scaling", "--rows", "4", "--cols", "4", "--doublings", "3"],
         "--rows 4 x --cols 4 x 2^--doublings 3 is 128 cells, over the support scan cap 100"),
        # 2**7 > 100 whatever the base shape, so the count is never computed
        (["scaling", "--rows", "1", "--cols", "1", "--doublings", "7"],
         "--doublings 7 grows past the support scan cap 100"),
        (["scaling", "--doublings", str(10**30)], f"--doublings {10**30} grows past"),
        (["consensus", "--users", "4", "--base-products", "22"], None),
        (["scaling", "--rows", "3", "--cols", "4", "--doublings", "3"], None),
        (["scaling", "--rows", "1", "--cols", "1", "--doublings", "6"], None),
    ])
    def test_experiment_sizes_are_capped_before_anything_is_built(
        self, capsys, monkeypatch, argv, message
    ):
        monkeypatch.setattr(support, "DEFAULT_SCAN_CAP", 100)
        built = []

        def stand_in(**kwargs):  # the experiment itself, which builds the matrices
            built.append(kwargs)
            return {"record": "experiment", "passed": True}, [("column",)]

        monkeypatch.setattr(cli, f"experiment_{argv[0]}", stand_in)
        code, records = run_jsonl(capsys, ["experiment", *argv])
        assert capsys.readouterr().err == ""
        if message is None:  # at most 100 cells: the experiment runs
            assert code == 0 and len(built) == 1
            return
        assert code == 2 and not built
        assert [r["record"] for r in records] == ["error"]
        assert message in records[0]["message"]

    def test_fairness_draws_stop_at_the_scan_cap(self, capsys, monkeypatch):
        # seed 0 scans 33 draws without full support (61-80 missing cells each)
        # before the 34th scan finds it; draws with an empty line go unscanned
        argv = ["experiment", "fairness", "--rows", "10", "--cols", "10", "--density", "0.3"]
        scanned = []
        full_support = support.is_fully_supported

        def counted(tensor, *args):
            scanned.append(tensor.box_size - len(tensor))
            return full_support(tensor, *args)

        monkeypatch.setattr(support, "is_fully_supported", counted)
        code, _ = run_jsonl(capsys, argv)
        assert code == 0 and len(scanned) == 34

        scanned.clear()
        monkeypatch.setattr(support, "DEFAULT_SCAN_CAP", 200)
        code, records = run_jsonl(capsys, argv)
        assert code == 2 and [r["record"] for r in records] == ["config", "error"]
        assert scanned == [72, 80]  # a third scan, of 74 cells, would pass the cap
        assert records[1]["message"] == (
            "no 10x10 matrix of density 0.3 with full support in 4 draws; "
            "one more scan would pass the support scan cap 200"
        )


class TestFlagBounds:
    # every bounded flag of every subcommand, just outside its bound
    OUTSIDE = [
        ["verify", "--trials", "0"],
        ["verify", "--orderings", "0"],
        ["verify", "--factor", "0"],
        ["verify", "--factor", "inf"],
        ["verify", "--oracle-cap", "-1"],
        ["verify", "--seed", "-1"],
        ["consensus", "--users", "1"],
        ["consensus", "--base-products", "0"],
        ["consensus", "--seed", "-1"],
        ["fairness", "--rows", "0"],
        ["fairness", "--cols", "0"],
        ["fairness", "--density", "0"],
        ["fairness", "--density", "1.001"],
        ["fairness", "--user", "0"],
        ["fairness", "--factor", "0"],
        ["fairness", "--factor", "inf"],
        ["fairness", "--top-n", "0"],
        ["fairness", "--seed", "-1"],
        ["scaling", "--rows", "0"],
        ["scaling", "--cols", "0"],
        ["scaling", "--doublings", "0"],
        ["scaling", "--sweeps-per-measure", "0"],
        ["scaling", "--seed", "-1"],
    ]

    @pytest.mark.parametrize("command, flag, value", OUTSIDE)
    def test_out_of_bounds_flag_is_one_error_record(self, tmp_path, capsys, command, flag, value):
        # verify names a file that does not exist: the flag is refused before it is read
        head = (["verify", str(tmp_path / "absent.csv")] if command == "verify"
                else ["experiment", command])
        code, records = run_jsonl(capsys, [*head, flag, value])
        assert code == 2
        assert [r["record"] for r in records] == ["error"]
        assert records[0]["message"].startswith(f"{flag} must be ")
        assert capsys.readouterr().err == ""

    def test_every_numeric_flag_has_a_bound(self):
        # --k needs the tensor; complete's fit settings are checked by the fit
        unbounded = {"--k", "--epsilon", "--max-sweeps"}
        commands = next(
            action.choices for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command, parser in commands.items():
            numeric = {
                max(action.option_strings, key=len) for action in parser._actions
                if action.type in (int, float)
            }
            assert numeric - unbounded == set(cli.FLAG_BOUNDS.get(command, {})), command
        assert {flag for command, flag, _ in self.OUTSIDE} == {
            flag for bounds in cli.FLAG_BOUNDS.values() for flag in bounds
        }


def numeric_flags():
    """(command, longest option string) of every int or float flag of every subcommand."""
    commands = next(
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [
        (command, max(action.option_strings, key=len))
        for command, parser in commands.items() for action in parser._actions
        if action.type in (int, float)
    ]


# the parser refuses each before a file is read, so absent.csv is never opened
HEADS = {"complete": ["complete", "absent.csv"], "verify": ["verify", "absent.csv"],
         "experiment": ["experiment", "consensus"]}
REFUSED = [[*HEADS[command], flag, "x"] for command, flag in numeric_flags()] + [
    ["complete", "absent.csv", "--no-such-flag"],
    ["predict", "model.json", "--no-such-flag"],
    ["predict"],
    ["verify"],
    [],
    ["experiment", "nosuch"],
    ["verify", "absent.csv", "--dedupe", "first"],
]


class TestMain:
    @pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
    def test_parser_refusal_is_one_error_record(self, capsys, argv):
        code = main([*argv, "--format", "jsonl"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert [json.loads(line)["record"] for line in captured.out.splitlines()] == ["error"]

    @pytest.mark.parametrize("argv", [
        ["verify", "absent.csv", "--seed", "x"],
        ["verify", "absent.csv", "--seed", "x", "--format", "xml"],
        ["verify", "absent.csv", "--seed", "x", "--format"],
        ["verify", "absent.csv", "--format", "jsonl", "--format=human", "--seed", "x"],
    ])
    def test_parser_refusal_falls_back_to_human_lines(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("error: uctensor verify: argument ")
        assert len(captured.out.splitlines()) == 1

    def test_parser_refusal_reads_the_format_flag_with_its_value(self, capsys):
        assert main(["verify", "absent.csv", "--format=jsonl", "--seed", "x"]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "record": "error",
            "message": "uctensor verify: argument --seed: invalid int value: 'x'",
        }

    @pytest.mark.parametrize("command", ["complete", "verify", "predict"])
    def test_empty_delimiter_is_input_error(self, demo_file, demo_model, capsys, command):
        argv = ([command, demo_file] if command != "predict"
                else [command, demo_model, "u1,p1"])
        code, records = run_jsonl(capsys, [*argv, "--delimiter="])
        assert code == 2 and capsys.readouterr().err == ""
        assert records == [{
            "record": "error",
            "message": f"uctensor {command}: argument --delimiter: must not be empty",
        }]

    def test_calls_in_one_process_print_what_separate_processes_print(
        self, demo_file, tmp_path, capsys
    ):
        # main builds its parser once per process; a call's options must
        # not leak into the next call's defaults
        model = str(tmp_path / "model.json")
        argvs = [
            ["verify", demo_file, "--trials", "3", "--orderings", "2", "--seed", "4",
             "--format", "jsonl"],
            ["complete", demo_file, "-o", model, "--k", "1"],
            ["predict", model, "--all", "--round", "1,5"],
            ["experiment", "fairness", "--rows", "6", "--cols", "5", "--density", "0.8",
             "--top-n", "2"],
            ["experiment", "consensus", "--users", "8", "--base-products", "5"],
            ["verify", demo_file, "--format", "jsonl"],
        ]
        in_process = []
        for argv in argvs:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        src = str(Path(uctensor.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        separate = []
        for argv in argvs:
            done = subprocess.run(
                [sys.executable, "-m", "uctensor", *argv],
                env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                timeout=300,
            )
            assert done.stderr == ""
            separate.append((done.returncode, done.stdout))
        assert in_process == separate
