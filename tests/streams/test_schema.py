"""Tests for schemas, fields and data types."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import SchemaError, UnknownAttributeError
from repro.streams.schema import (
    GPS_SCHEMA,
    WEATHER_SCHEMA,
    DataType,
    Field,
    Schema,
)


class TestDataType:
    def test_parse_aliases(self):
        assert DataType.parse("DOUBLE") is DataType.DOUBLE
        assert DataType.parse("integer") is DataType.INT
        assert DataType.parse("varchar") is DataType.STRING
        assert DataType.parse("timestamp") is DataType.TIMESTAMP

    def test_parse_unknown(self):
        with pytest.raises(SchemaError):
            DataType.parse("decimal")

    def test_coerce_int_to_double(self):
        assert DataType.DOUBLE.coerce(3) == 3.0
        assert isinstance(DataType.DOUBLE.coerce(3), float)

    def test_coerce_rejects_bool_in_numeric(self):
        with pytest.raises(SchemaError):
            DataType.INT.coerce(True)

    def test_coerce_rejects_string_in_numeric(self):
        with pytest.raises(SchemaError):
            DataType.DOUBLE.coerce("3.5")

    def test_coerce_rejects_float_in_int(self):
        with pytest.raises(SchemaError):
            DataType.INT.coerce(3.5)

    def test_coerce_string(self):
        assert DataType.STRING.coerce("abc") == "abc"
        with pytest.raises(SchemaError):
            DataType.STRING.coerce(42)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_timestamp_refuses_a_non_finite_value(self, value):
        with pytest.raises(SchemaError, match="not finite"):
            DataType.TIMESTAMP.coerce(value)
        # A double may carry one (a missing reading); a timestamp may not.
        assert repr(DataType.DOUBLE.coerce(value)) == repr(value)

    @pytest.mark.parametrize("dtype", [DataType.DOUBLE, DataType.TIMESTAMP])
    def test_an_int_too_large_for_a_float_is_a_schema_error(self, dtype):
        """It used to escape as a raw ``OverflowError``."""
        with pytest.raises(SchemaError, match="1329 bits is too large"):
            dtype.coerce(10 ** 400)
        assert dtype.coerce(10 ** 300) == 1e300


class TestField:
    def test_from_string_type(self):
        field = Field("rainrate", "double")
        assert field.dtype is DataType.DOUBLE
        assert field.is_numeric

    def test_string_not_numeric(self):
        assert not Field("name", DataType.STRING).is_numeric

    def test_timestamp_numeric(self):
        assert Field("t", DataType.TIMESTAMP).is_numeric

    def test_bad_names(self):
        with pytest.raises(SchemaError):
            Field("", DataType.INT)
        with pytest.raises(SchemaError):
            Field("9lives", DataType.INT)

    def test_equality(self):
        assert Field("a", "int") == Field("a", DataType.INT)
        assert Field("a", "int") != Field("a", "double")


class TestSchema:
    def test_weather_schema_shape(self):
        assert len(WEATHER_SCHEMA) == 8
        assert WEATHER_SCHEMA.attribute_names[0] == "samplingtime"
        assert WEATHER_SCHEMA.field("rainrate").dtype is DataType.DOUBLE

    def test_case_insensitive_lookup(self):
        assert "RainRate" in WEATHER_SCHEMA
        assert WEATHER_SCHEMA.canonical_name("RAINRATE") == "rainrate"

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttributeError):
            WEATHER_SCHEMA.field("altitude")
        assert "altitude" in GPS_SCHEMA

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            Schema("s", [("a", "int"), ("A", "double")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema("s", [])

    def test_projection_preserves_order(self):
        projected = WEATHER_SCHEMA.project(["windspeed", "samplingtime"])
        assert projected.attribute_names == ("samplingtime", "windspeed")

    def test_projection_empty_rejected(self):
        with pytest.raises(UnknownAttributeError):
            WEATHER_SCHEMA.project(["nothere"])

    def test_equality_by_fields(self):
        clone = Schema("other", WEATHER_SCHEMA.fields)
        assert clone == WEATHER_SCHEMA


class TestSchemaHash:
    """The PEP keys compiled grants by the source schema, so a schema's
    hash is asked for on every grant."""

    def test_hash_walks_the_fields_once(self, monkeypatch):
        schema = Schema("weather", WEATHER_SCHEMA.fields)
        walks = []
        original = Field.__hash__
        monkeypatch.setattr(
            Field, "__hash__", lambda self: walks.append(self) or original(self)
        )
        assert hash(schema) == hash(schema) == hash(schema)
        assert len(walks) == len(schema)

    def test_equal_fields_under_another_name_hash_equal(self):
        hash(WEATHER_SCHEMA)
        clone = Schema("other", WEATHER_SCHEMA.fields)
        assert clone == WEATHER_SCHEMA and hash(clone) == hash(WEATHER_SCHEMA)

    def test_a_schema_unpickled_in_another_process_hashes_for_that_process(self):
        """String hashes are salted per process: an unpickled schema must
        hash like one built there, not bring this process's hash along."""
        schema = Schema("weather", WEATHER_SCHEMA.fields)
        mine = hash(schema)
        child_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        source = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(
            os.environ,
            PYTHONHASHSEED=child_seed,
            PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])),
        )
        child = subprocess.run(
            [sys.executable, "-c", UNPICKLE_CHILD],
            input=pickle.dumps(schema), env=env, capture_output=True, check=True,
        )
        unpickled, fresh, equal = child.stdout.decode().split()
        assert equal == "True"
        assert unpickled == fresh
        assert int(fresh) != mine  # the child's salt differs, so the check bites


#: Unpickles a schema from stdin; prints its hash, the hash of an equal
#: schema built in the same process, and whether the two are equal.
UNPICKLE_CHILD = """
import pickle, sys
from repro.streams.schema import WEATHER_SCHEMA, Schema
copy = pickle.loads(sys.stdin.buffer.read())
fresh = Schema("weather", WEATHER_SCHEMA.fields)
print(hash(copy), hash(fresh), copy == fresh)
"""
