from __future__ import annotations

import pytest

from tripletseg.errors import SchemaError
from tripletseg.schema import COMPONENTS, load_schema


def test_default_vocabulary_shape(schema):
    assert schema.n_triplets == 100
    assert schema.n_instruments == 6
    assert schema.n_verbs == 10
    assert schema.n_targets == 15
    assert sorted(schema.triplets) == list(range(100))
    # every class id of every axis is realized by some triplet
    assert schema.class_keys["i"] == tuple(range(6))
    assert schema.class_keys["v"] == tuple(range(10))
    assert schema.class_keys["t"] == tuple(range(15))


def test_combinations_unique(schema):
    combos = set(schema.triplets.values())
    assert len(combos) == 100


def test_projections(schema):
    i, v, t = schema.triplets[42]
    assert schema.project(42, "i") == i
    assert schema.project(42, "v") == v
    assert schema.project(42, "t") == t
    assert schema.project(42, "iv") == (i, v)
    assert schema.project(42, "it") == (i, t)
    assert schema.project(42, "ivt") == 42


def test_projection_component_consistency(schema):
    for tid in schema.triplets:
        assert schema.project(tid, "iv") == (
            schema.project(tid, "i"), schema.project(tid, "v")
        )
        assert schema.project(tid, "it") == (
            schema.project(tid, "i"), schema.project(tid, "t")
        )


def test_unknown_component_and_triplet(schema):
    with pytest.raises(SchemaError):
        schema.project(0, "vt")
    with pytest.raises(SchemaError):
        schema.project(100, "i")


def test_every_instrument_has_idle_row(schema):
    # each instrument carries a (null_verb, null_target) combination
    idle = {
        schema.project(tid, "i")
        for tid, (_, v, t) in schema.triplets.items()
        if schema.verb_names[v] == "null_verb" and schema.target_names[t] == "null_target"
    }
    assert idle == set(range(6))


def test_components_constant():
    assert COMPONENTS == ("i", "v", "t", "iv", "it", "ivt")


def test_custom_schema_with_overrides(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        "# triplets=5\n"
        "# instruments=2\n"
        "# verbs=3\n"
        "# targets=2\n"
        "triplet_id,instrument_id,verb_id,target_id,instrument_name,verb_name,target_name\n"
        "0,0,0,0,probe,touch,tissue\n"
        "1,0,1,1,probe,poke,air\n"
        "2,1,2,0,cutter,slice,tissue\n",
        encoding="utf-8",
    )
    schema = load_schema(path)
    assert schema.n_triplets == 5
    assert schema.n_instruments == 2
    assert schema.n_verbs == 3
    assert schema.instrument_names[1] == "cutter"
    # declared-but-unused ids still printable
    assert schema.verb_names[0] == "touch"
    assert schema.triplets == {0: (0, 0, 0), 1: (0, 1, 1), 2: (1, 2, 0)}


def test_custom_schema_without_overrides(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        "triplet_id,instrument_id,verb_id,target_id,instrument_name,verb_name,target_name\n"
        "0,0,0,0,probe,touch,tissue\n"
        "1,1,1,1,cutter,slice,air\n",
        encoding="utf-8",
    )
    schema = load_schema(path)
    assert schema.n_triplets == 2
    assert schema.n_instruments == 2
    assert schema.n_verbs == 2
    assert schema.n_targets == 2


@pytest.mark.parametrize(
    "rows,message",
    [
        ("0,0,0,0,a,b,c\n0,1,1,1,a2,b2,c2\n", "duplicate triplet_id"),
        ("0,0,0,0,a,b,c\n1,0,0,0,a,b,c\n", "duplicate combination"),
        ("0,0,0,0,a,b,c\n1,0,1,1,other,b2,c2\n", "renamed"),
        ("0,0,0,0,a,b,\n", "empty target name"),
        ("0,-1,0,0,a,b,c\n", "negative id"),
        ("0,0,0,x,a,b,c\n", "non-integer"),
        # int() reads these as 10 and 12
        pytest.param("1_0,0,0,0,a,b,c\n", r"bad\.csv:2: non-integer id field", id="underscore"),
        pytest.param("0,\u0661\u0662,0,0,a,b,c\n", r"bad\.csv:2: non-integer id field",
                     id="arabic-indic-digits"),
        pytest.param("0,0,0,\uff11,a,b,c\n", r"bad\.csv:2: non-integer id field",
                     id="fullwidth-digit"),
        pytest.param("0,0,0,0," + "a" * 200_000 + ",b,c\n", "field larger than field limit",
                     id="oversized-field"),
        # one past the cap, so that without the cap the tables stay small
        pytest.param("65536,0,0,0,a,b,c\n", "65537 triplet classes exceed 65536",
                     id="huge-triplet-id"),
        pytest.param("0,0,65536,0,a,b,c\n", "65537 verb classes exceed 65536",
                     id="huge-verb-id"),
    ],
)
def test_schema_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(
        "triplet_id,instrument_id,verb_id,target_id,"
        "instrument_name,verb_name,target_name\n" + rows,
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=message):
        load_schema(path)


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0660", "x"],
                         ids=["underscore", "arabic-indic", "letter"])
def test_schema_rejects_non_plain_integer_header(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"# triplets={value}\n"
        "triplet_id,instrument_id,verb_id,target_id,"
        "instrument_name,verb_name,target_name\n"
        "0,0,0,0,a,b,c\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=f"schema header triplets='{value}' is not an integer"):
        load_schema(path)


@pytest.mark.parametrize(
    "header,message",
    [
        ("# triplets=x", "schema header triplets='x' is not an integer"),
        ("# colour=3", "unknown schema header key 'colour'"),
    ],
)
def test_schema_header_errors_name_file_and_line(tmp_path, header, message):
    # the bad override is on line 2, after a well-formed one
    path = tmp_path / "bad.csv"
    path.write_text(
        f"# verbs=3\n{header}\n"
        "triplet_id,instrument_id,verb_id,target_id,"
        "instrument_name,verb_name,target_name\n"
        "0,0,0,0,a,b,c\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError) as info:
        load_schema(path)
    assert str(info.value) == f"{path}:2: {message}"


def test_schema_ids_allow_sign_and_whitespace(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text(
        "# triplets= 2 \n"
        "triplet_id,instrument_id,verb_id,target_id,"
        "instrument_name,verb_name,target_name\n"
        " +1, 0,0 ,0,a,b,c\n",
        encoding="utf-8",
    )
    schema = load_schema(path)
    assert schema.n_triplets == 2
    assert schema.triplets == {1: (0, 0, 0)}


def test_schema_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="bad header"):
        load_schema(path)


def test_schema_rejects_id_outside_declared_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# instruments=1\n"
        "triplet_id,instrument_id,verb_id,target_id,"
        "instrument_name,verb_name,target_name\n"
        "0,1,0,0,a,b,c\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="outside declared range"):
        load_schema(path)


def test_triplet_name(schema):
    tid = next(
        t for t, combo in schema.triplets.items()
        if combo == (0, 0, 0)
    )
    assert schema.triplet_name(tid) == "grasper,grasp,gallbladder"
