"""Tests for schemas, fields and data types."""

import math

import pytest

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
