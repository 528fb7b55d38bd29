import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest

from vacuumpairs import vacuum_response
from vacuumpairs.constants import CODATA
from vacuumpairs.errors import Failure
from vacuumpairs.particles import (
    ALLOWED_CHARGES,
    EmptyRegistryError,
    ParticleSpecies,
    RegistryParseError,
    RegistryValidationError,
    SpeciesRegistry,
    default_registry,
    load_registry,
    weighted_degeneracy_sum,
)


def registry_records():
    return [
        {
            "name": s.name,
            "mass_mev": s.mass_mev,
            "charge_q": float(s.charge_q),
            "color_factor": s.color_factor,
            "spin_degeneracy": s.spin_degeneracy,
        }
        for s in default_registry()
    ]


class TestConstants:
    def test_h_is_two_pi_hbar(self):
        assert abs(CODATA.h_j_s / (2.0 * math.pi * CODATA.hbar_j_s) - 1.0) < 1e-12

    def test_alpha_target_band(self):
        assert 1.0 / 138.0 <= CODATA.alpha_target <= 1.0 / 137.0

    def test_hbar_ev_accessor(self):
        # hbar in eV*s is hbar in J*s over the elementary charge.
        assert abs(CODATA.hbar_j_s / CODATA.q_e_coulomb / 6.582119569e-16 - 1.0) < 1e-9


class TestDefaultRegistry:
    def test_ten_species(self):
        reg = default_registry()
        assert reg.names == ("e", "mu", "tau", "u", "d", "s", "c", "b", "t", "W")

    def test_u_quark_mass(self):
        assert default_registry().get("u").mass_mev == 1.5

    def test_electron_entry(self):
        e = default_registry().get("e")
        assert e.charge_q == Fraction(-1)
        assert e.color_factor == 1
        assert e.spin_degeneracy == 2

    def test_w_and_quark_factors(self):
        reg = default_registry()
        assert reg.get("W").spin_degeneracy == 3
        for name in ("u", "d", "s", "c", "b", "t"):
            assert reg.get(name).color_factor == 3
            assert reg.get(name).spin_degeneracy == 2


class TestWeightedDegeneracySum:
    def test_default_total_exact(self):
        assert weighted_degeneracy_sum(default_registry()) == 9.5

    def test_group_subtotals_exact(self):
        reg = default_registry()
        assert weighted_degeneracy_sum(reg.subset(["e", "mu", "tau"])) == 3.0
        assert weighted_degeneracy_sum(reg.subset(["d", "s", "b"])) == 1.0
        assert weighted_degeneracy_sum(reg.subset(["u", "c", "t"])) == 4.0
        assert weighted_degeneracy_sum(reg.subset(["W"])) == 1.5

    def test_electron_only(self):
        assert weighted_degeneracy_sum(default_registry().subset(["e"])) == 1.0

    def test_u_only(self):
        # (2/3)^2 * 3 * (2/2) = 4/3, by hand
        assert weighted_degeneracy_sum(default_registry().subset(["u"])) == 4.0 / 3.0

    def test_additive_over_disjoint_subsets(self):
        reg = default_registry()
        left = reg.subset(["e", "u", "W"])
        right = reg.subset([n for n in reg.names if n not in ("e", "u", "W")])
        assert weighted_degeneracy_sum(left) + weighted_degeneracy_sum(
            right
        ) == weighted_degeneracy_sum(reg)

    def test_empty_registry(self):
        with pytest.raises(EmptyRegistryError):
            weighted_degeneracy_sum(SpeciesRegistry(()))


class TestLoadRegistry:
    def test_round_trip_matches_default(self, tmp_path):
        path = tmp_path / "species.json"
        path.write_text(json.dumps(registry_records()), encoding="utf-8")
        assert load_registry(path) == default_registry()

    def test_duplicate_name_rejected(self, tmp_path):
        records = registry_records()
        records.append(dict(records[0]))
        path = tmp_path / "species.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(RegistryValidationError):
            load_registry(path)

    def test_out_of_range_spin_rejected(self, tmp_path):
        records = registry_records()
        records[0]["spin_degeneracy"] = 5
        path = tmp_path / "species.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(RegistryValidationError):
            load_registry(path)

    def test_negative_mass_rejected(self, tmp_path):
        records = registry_records()
        records[0]["mass_mev"] = -1.0
        path = tmp_path / "species.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(RegistryValidationError):
            load_registry(path)

    def test_bad_charge_rejected(self, tmp_path):
        records = registry_records()
        records[0]["charge_q"] = 0.5
        path = tmp_path / "species.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(RegistryValidationError):
            load_registry(path)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "species.json"
        path.write_text("[{not json", encoding="utf-8")
        with pytest.raises(RegistryParseError):
            load_registry(path)

    def test_missing_field_is_parse_error(self, tmp_path):
        records = registry_records()
        del records[0]["mass_mev"]
        path = tmp_path / "species.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(RegistryParseError):
            load_registry(path)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(RegistryParseError):
            load_registry(tmp_path / "absent.json")

    @pytest.mark.parametrize("field, value", [
        ("color_factor", 1.7),
        ("color_factor", True),
        ("color_factor", "3"),
        ("spin_degeneracy", 2.5),
        ("spin_degeneracy", False),
        ("charge_q", True),
        ("charge_q", "-1"),
        ("mass_mev", math.inf),
        ("mass_mev", math.nan),
        ("mass_mev", "0.5"),
        ("mass_mev", True),
        # An integer past the largest float, which float() cannot convert.
        pytest.param("mass_mev", 10**400, id="mass_mev-int-1e400"),
        pytest.param("charge_q", -(10**400), id="charge_q-int-1e400"),
        ("name", 7),
    ])
    def test_malformed_field_is_refused_by_name(self, tmp_path, field, value):
        # json writes and reads inf and nan as the literals Infinity and NaN.
        records = registry_records()
        records[0][field] = value
        path = tmp_path / "species.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(Failure, match=field):
            load_registry(path)

    def test_integral_floats_load_as_the_default_table(self, tmp_path):
        records = registry_records()
        for rec in records:
            rec["color_factor"] = float(rec["color_factor"])
            rec["spin_degeneracy"] = float(rec["spin_degeneracy"])
            if rec["mass_mev"].is_integer():  # c, b, t and W
                rec["mass_mev"] = int(rec["mass_mev"])
        text = json.dumps(records)
        assert '"color_factor": 3.0' in text and '"mass_mev": 80377,' in text
        path = tmp_path / "species.json"
        path.write_text(text, encoding="utf-8")
        loaded = load_registry(path)
        assert loaded == default_registry()
        for got, want in zip(loaded, default_registry()):
            for name in ("name", "mass_mev", "charge_q", "color_factor", "spin_degeneracy"):
                assert type(getattr(got, name)) is type(getattr(want, name))

    def test_empty_table_is_refused_where_it_is_made(self, tmp_path):
        path = tmp_path / "species.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(EmptyRegistryError, match="^registry has no species$"):
            load_registry(path)
        with pytest.raises(EmptyRegistryError):
            default_registry().subset([])


class TestSpeciesValidation:
    def test_charge_snapping(self):
        s = ParticleSpecies("x", 1.0, 0.6666666666666666, 3, 2)
        assert s.charge_q == Fraction(2, 3)

    def test_color_factor_range(self):
        with pytest.raises(RegistryValidationError):
            ParticleSpecies("x", 1.0, 1.0, 2, 2)

    def test_charge_weight(self):
        s = ParticleSpecies("x", 1.0, Fraction(-1, 3), 3, 2)
        assert s.charge_weight == Fraction(1, 3)


def exact_weight(charge, color, spin):
    """Q^2 * c * g/2, formed here independently of the library."""
    return Fraction(charge) ** 2 * color * Fraction(spin, 2)


class TestStoredWeights:
    """Each species' weight and each registry's sum are formed once, exactly."""

    @pytest.mark.parametrize("charge", ALLOWED_CHARGES, ids=str)
    @pytest.mark.parametrize("color", (1, 3))
    @pytest.mark.parametrize("spin", (2, 3))
    def test_every_allowed_combination(self, charge, color, spin):
        s = ParticleSpecies("x", 1.0, charge, color, spin)
        assert s.charge_weight == exact_weight(charge, color, spin)
        assert s.charge_weight_float == float(exact_weight(charge, color, spin))

    def test_every_subset_of_the_default_registry(self):
        reg = default_registry()
        target = CODATA.inverse_alpha_target
        subsets = 0
        for size in range(1, len(reg) + 1):
            for names in itertools.combinations(reg.names, size):
                sub = reg.subset(names)
                exact = sum(
                    (exact_weight(s.charge_q, s.color_factor, s.spin_degeneracy) for s in sub),
                    start=Fraction(0),
                )
                assert weighted_degeneracy_sum(sub) == float(exact)
                fit = vacuum_response.fit_cutoff(sub, target, "mass-proportional")
                assert fit.scale_a == (6.0 * math.pi * target / float(exact)) ** (1.0 / 3.0)
                subsets += 1
        assert subsets == 1023

    def test_replaced_species_has_fresh_weights(self):
        e = default_registry().get("e")
        w_pair = dataclasses.replace(e, spin_degeneracy=3)
        assert w_pair.charge_weight == Fraction(3, 2)
        assert w_pair.charge_weight_float == 1.5
        assert e.charge_weight == 1 and e.charge_weight_float == 1.0
        assert weighted_degeneracy_sum(SpeciesRegistry((w_pair,))) == 1.5
        down_like = dataclasses.replace(default_registry().get("u"), charge_q=Fraction(-1, 3))
        assert down_like.charge_weight == Fraction(1, 3)
        assert down_like.charge_weight_float == float(Fraction(1, 3))

    def test_mass_scaled_table_has_fresh_weights(self, tmp_path):
        # Doubling every mass is exact, so at a doubled cutoff each species'
        # x = A/mc^2, and with it its 1/alpha term, is bit for bit the same.
        records = registry_records()
        for rec in records:
            rec["mass_mev"] *= 2.0
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        heavy = load_registry(path)
        assert heavy.charge_weight_sum == default_registry().charge_weight_sum == Fraction(19, 2)
        for light, scaled in zip(default_registry(), heavy):
            assert scaled.mass_mev == 2.0 * light.mass_mev
            assert scaled.charge_weight == light.charge_weight
            assert scaled.charge_weight_float == light.charge_weight_float
            assert vacuum_response.inverse_alpha_single(
                scaled, 584.0
            ) == vacuum_response.inverse_alpha_single(light, 292.0)

    def test_weight_is_formed_once(self):
        s = ParticleSpecies("x", 1.0, Fraction(2, 3), 3, 2)
        assert s.charge_weight is s.charge_weight
        reg = default_registry()
        assert reg.charge_weight_sum is reg.charge_weight_sum
