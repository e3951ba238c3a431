import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from stcast.config import RunConfig
from stcast.errors import (PARSERS, ConfigError, IngestionError,
                           InputValidationError, check_distinct, check_real)
from stcast.forecaster import ModelConfig
from stcast.synth import GeneratorSpec

CONFIG_CLASSES = (ModelConfig, RunConfig, GeneratorSpec)
# A value of the wrong type for each declared type that has a rule.
WRONG_TYPED = {"int": 8.0, "float": "0.5", "tuple[float, ...]": 1.0,
               "bool": 1, "str": 5}
# Fields whose type has no rule in check_settings; __post_init__ checks them.
OWN_RULES = {(GeneratorSpec, "coordinates"), (GeneratorSpec, "start_date")}
SETTINGS = [(cls, f.name, f.type) for cls in CONFIG_CLASSES
            for f in dataclasses.fields(cls) if (cls, f.name) not in OWN_RULES]


class TestCheckReal:
    @pytest.mark.parametrize("interval, inside, outside", [
        ("(-inf, inf)", [-1e308, 0, 1e308], [math.nan, math.inf, -math.inf]),
        ("(0, 1)", [1e-300, 0.5, Fraction(1, 3)], [0, 1, -0.5, math.nan]),
        ("[0, 1)", [0, 0.0, -0.0, 0.999], [1, -1e-300, math.inf]),
        ("[0, inf)", [0, 1e308], [-1, math.inf, math.nan]),
        ("(0, inf)", [5e-324, 2], [0, math.inf, math.nan]),
        ("(0, inf]", [1, math.inf], [0, -math.inf, math.nan]),
        ("(-inf, 0]", [-1e308, 0], [1e-300, -math.inf, math.nan]),
    ])
    def test_interval_ends(self, interval, inside, outside):
        for value in inside:
            check_real("x", value, interval)
        for value in outside:
            with pytest.raises(InputValidationError, match="^x must be "):
                check_real("x", value, interval)

    @pytest.mark.parametrize("value", [True, False, "1", None, 1j,
                                       np.array([1.0]), [1.0]])
    def test_non_real_refused(self, value):
        with pytest.raises(InputValidationError,
                           match=r"^x must be a real number, got "):
            check_real("x", value)

    def test_numpy_scalars_accepted(self):
        for value in (np.float32(0.5), np.float64(0.5), np.int64(1), np.uint8(1)):
            check_real("x", value, "(0, inf)")

    @pytest.mark.parametrize("interval, value, wording", [
        ("(-inf, inf)", math.nan, "finite, got nan"),
        ("(-1, 1)", math.nan, "finite, got nan"),
        ("(-1, 1)", 1.0, r"in \(-1, 1\), got 1.0"),
        ("[0, inf)", -1.0, "finite and >= 0, got -1.0"),
        ("[0, inf)", math.inf, "finite, got inf"),
        ("(0, inf)", 0, "finite and > 0, got 0"),
        ("(0, inf]", math.nan, "> 0, got nan"),
        ("(-inf, 0]", 1, "finite and <= 0, got 1"),
    ])
    def test_message(self, interval, value, wording):
        with pytest.raises(InputValidationError, match=f"^x must be {wording}$"):
            check_real("x", value, interval)


class TestCheckDistinct:
    def test_distinct_accepted(self):
        check_distinct(())
        check_distinct(("a", "b"))

    def test_repeats_named_once_sorted(self):
        with pytest.raises(InputValidationError,
                           match=r"^duplicate region ids: \['a', 'b'\]$"):
            check_distinct(["b", "a", "b", "a", "c", "a"])

    def test_error_class_and_prefix(self):
        with pytest.raises(IngestionError, match=r"^f: duplicate region ids"):
            check_distinct(("a", "a"), IngestionError, "f: ")


class TestCheckSettings:
    def test_every_field_has_a_rule(self):
        # A field of a type with no rule would go unchecked.
        for cls, name, kind in SETTINGS:
            assert kind in WRONG_TYPED and kind in PARSERS, (cls.__name__, name)

    @pytest.mark.parametrize("value", ["None", "wrong type"])
    @pytest.mark.parametrize("cls, name, kind", SETTINGS,
                             ids=[f"{c.__name__}.{n}" for c, n, _ in SETTINGS])
    def test_field_refuses_none_and_a_wrong_type(self, cls, name, kind, value):
        given = None if value == "None" else WRONG_TYPED[kind]
        with pytest.raises(InputValidationError, match=f"^{name} must be ") as exc:
            cls(**{name: given})
        assert exc.value.exit_code == 2

    def test_non_string_transform_is_a_type_error(self):
        # A target_transform that is not a string is an invalid value (exit
        # 2); a string that names no transform stays a ConfigError (exit 9).
        with pytest.raises(InputValidationError,
                           match="^target_transform must be a string, got 5$") as exc:
            RunConfig(target_transform=5)
        assert exc.value.exit_code == 2
        with pytest.raises(ConfigError) as exc:
            RunConfig(target_transform="sqrt")
        assert exc.value.exit_code == 9

    def test_first_bad_field_in_declaration_order_reported(self):
        with pytest.raises(InputValidationError, match="^hidden_size "):
            RunConfig(no_spatial=1, alpha=0, epochs=0, hidden_size=0)
        with pytest.raises(InputValidationError, match="^alpha "):
            GeneratorSpec(seed=-1, noise_family="x", alpha=0)

    def test_parsers_read_what_the_rules_accept(self):
        assert PARSERS["int"]("8") == 8
        assert PARSERS["float"]("inf") == math.inf
        assert PARSERS["tuple[float, ...]"]("1,-0.5") == (1.0, -0.5)
        assert [PARSERS["bool"](t) for t in ("TRUE", "yes", "0", "No")] == [
            True, True, False, False]
        assert PARSERS["str"]("a.csv") == "a.csv"
        for kind, text in (("int", "8.0"), ("float", "x"), ("bool", "maybe"),
                           ("tuple[float, ...]", "1;2")):
            with pytest.raises((KeyError, ValueError)):
                PARSERS[kind](text)
