import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from pdclust import (Dataset, TransformSpec, build_schema, continuous_spec, gen_study1,
                     nominal_spec, ordinal_spec, scenario_variable_specs, validate_dataset)
from pdclust.schema import CONTINUOUS, NOMINAL, ORDINAL, SchemaError, VariableSpec, default_cutoffs
from pdclust.simgen import ScenarioSpec


def household_specs():
    return (
        [continuous_spec("income")]
        + [ordinal_spec(f"b{i}", 2) for i in range(6)]
        + [ordinal_spec("hedu", 3), nominal_spec("town", 4)]
    )


class TestBuildSchema:
    def test_household_layout_dimension(self):
        # 1 continuous + 6 binary + 1 ordinal(3) + 1 nominal(4) -> 11 coords
        schema = build_schema(household_specs())
        assert schema.q == 11

    def test_all_continuous(self):
        schema = build_schema([continuous_spec(f"y{i}") for i in range(3)])
        assert schema.q == 3
        assert all(schema.free_variance)

    def test_nominal_block_width_and_fixed_variance(self):
        schema = build_schema([nominal_spec("t", 5)])
        assert schema.q == 4
        assert not any(schema.free_variance)

    def test_interleaved_input_is_canonicalized(self):
        specs = [ordinal_spec("o1", 2), continuous_spec("c1"),
                 nominal_spec("n1", 3), continuous_spec("c2")]
        schema = build_schema(specs)
        kinds = [v.kind for v in schema.variables]
        assert kinds == ["continuous", "continuous", "ordinal", "nominal"]
        # index map reports back in input order
        assert schema.input_index == (1, 3, 0, 2)
        assert [schema.variables[k].name for k in schema.input_order()] == \
            ["o1", "c1", "n1", "c2"]

    def test_free_flags_align_with_continuous_block(self):
        schema = build_schema([ordinal_spec("o", 3), continuous_spec("c")])
        assert schema.free_variance == (True, False)

    def test_empty_list_rejected(self):
        with pytest.raises(SchemaError):
            build_schema([])

    def test_too_few_levels_rejected(self):
        with pytest.raises(SchemaError):
            ordinal_spec("o", 1)
        with pytest.raises(SchemaError):
            nominal_spec("m", 1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            build_schema([continuous_spec("x"), continuous_spec("x")])


class TestVariableSpec:
    def test_continuous_variable_defaults_to_identity(self):
        assert VariableSpec("y", CONTINUOUS).transform == TransformSpec()
        assert continuous_spec("y") == VariableSpec("y", CONTINUOUS)

    @pytest.mark.parametrize("kind", [ORDINAL, NOMINAL])
    def test_categorical_variable_takes_no_transform(self, kind):
        assert VariableSpec("c", kind, ("a", "b")).transform is None
        with pytest.raises(SchemaError):
            VariableSpec("c", kind, ("a", "b"), TransformSpec())


class TestDefaultCutoffs:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (2, [-np.inf, 0.0, np.inf]),
            (3, [-np.inf, 0.0, 4.0, np.inf]),
            (5, [-np.inf, 0.0, 4.0, 8.0, 12.0, np.inf]),
        ],
    )
    def test_values(self, k, expected):
        assert np.array_equal(default_cutoffs(k), expected)

    def test_rejects_single_level(self):
        with pytest.raises(SchemaError):
            default_cutoffs(1)

    def test_internal_category_mass_is_capped(self):
        # a unit-variance kernel cannot give an internal level more than
        # Phi(2) - Phi(-2) of its mass, whatever its mean
        cuts = default_cutoffs(4)  # internal interval (0, 4]
        lo, hi = cuts[1], cuts[2]
        mus = np.linspace(lo - 10, hi + 10, 20001)
        mass = ndtr(hi - mus) - ndtr(lo - mus)
        assert mass.max() <= ndtr(2.0) - ndtr(-2.0) + 1e-12


@st.composite
def spec_lists(draw):
    kinds = draw(st.lists(st.sampled_from(["c", "o", "n"]), min_size=1, max_size=8))
    specs = []
    for i, kind in enumerate(kinds):
        if kind == "c":
            specs.append(continuous_spec(f"v{i}"))
        elif kind == "o":
            specs.append(ordinal_spec(f"v{i}", draw(st.integers(2, 6))))
        else:
            specs.append(nominal_spec(f"v{i}", draw(st.integers(2, 6))))
    return specs


@given(spec_lists())
@settings(max_examples=200, deadline=None)
def test_latent_dimension_identity(specs):
    schema = build_schema(specs)
    c = sum(1 for v in specs if v.kind == "continuous")
    o = sum(1 for v in specs if v.kind == "ordinal")
    nom = sum(len(v.levels) - 1 for v in specs if v.kind == "nominal")
    assert schema.q == c + o + nom
    assert sum(schema.free_variance) == c
    # slices tile 0..q without gaps
    covered = sorted(
        i for k in range(schema.p) for i in range(schema.q)[schema.latent_slice(k)]
    )
    assert covered == list(range(schema.q))


@given(st.integers(2, 12))
def test_cutoffs_strictly_increasing(k):
    cuts = default_cutoffs(k)
    assert len(cuts) == k + 1
    assert np.all(np.diff(cuts) > 0)
    assert cuts[0] == -np.inf and cuts[-1] == np.inf


class TestValidateDataset:
    def test_out_of_range_ordinal_flagged(self):
        schema = build_schema([ordinal_spec("o", 3)])
        ds = Dataset.from_values([[0.0], [3.0]])
        report = validate_dataset(ds, schema)
        assert not report.ok
        assert any(rec == 1 and name == "o" for rec, name, _ in report.errors)

    def test_zero_weight_flagged(self):
        schema = build_schema([continuous_spec("y")])
        ds = Dataset(values=[[1.0], [2.0]], weights=[1.0, 0.0])
        report = validate_dataset(ds, schema)
        assert any("nonpositive weight" in why for _, _, why in report.errors)

    def test_non_integer_code_flagged(self):
        schema = build_schema([nominal_spec("m", 3)])
        ds = Dataset.from_values([[0.5]])
        assert not validate_dataset(ds, schema).ok

    def test_messages_print_plain_numbers(self):
        report = validate_dataset(Dataset.from_values([[0.5]]),
                                  build_schema([ordinal_spec("b", 2)]))
        assert str(report).splitlines()[1:] == ["  record 0, b: non-integer code 0.5"]

    def test_clean_scenario_passes(self):
        ds, _ = gen_study1(ScenarioSpec("I", seed=0))
        schema = build_schema(scenario_variable_specs("I"))
        assert validate_dataset(ds, schema).ok

    def test_column_count_mismatch(self):
        schema = build_schema([continuous_spec("y")])
        ds = Dataset.from_values([[1.0, 2.0]])
        assert not validate_dataset(ds, schema).ok


def test_dataset_weight_probability_consistency():
    ds = Dataset(values=[[1.0], [2.0]], weights=[4.0, 2.0])
    assert np.allclose(ds.pis * ds.weights, 1.0)
    assert ds.wbar == 3.0


def test_dataset_arrays_are_read_only():
    ds = Dataset.from_values([[1.0]])
    with pytest.raises(ValueError):
        ds.values[0, 0] = 2.0
