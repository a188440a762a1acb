"""Declarative compact-group class data and the order computations."""

import json
import time
from pathlib import Path

import pytest

from burnside.lie import (
    MAX_POWER_CLASSES,
    LieDataError,
    NoQualifyingClass,
    PhiClass,
    PhiData,
    generator_count,
    load_phi_data,
    order_n_lie,
    power,
    product,
)

SO3 = Path(__file__).parent.parent / "src" / "burnside" / "data" / "so3.json"


@pytest.fixture()
def so3():
    return load_phi_data(SO3)


class TestGeneratorCount:
    def test_torus_class(self):
        cls = PhiClass("T", 2, 1, (), ("T",), True)
        assert generator_count(cls) == 1

    def test_elementary_abelian(self):
        cls = PhiClass("V", 6, 0, (2, 2), ("V",))
        assert generator_count(cls) == 2

    def test_torus_with_components(self):
        cls = PhiClass("M", 4, 1, (2, 2), ("M",))
        assert generator_count(cls) == 2

    def test_trivial(self):
        cls = PhiClass("1", 1, 0, (), ("1",))
        assert generator_count(cls) == 0


class TestSO3:
    def test_known_orders(self, so3):
        assert order_n_lie(so3, 0) == 2
        assert order_n_lie(so3, 1) == 2
        assert order_n_lie(so3, 2) == 6
        assert order_n_lie(so3, 5) == 6

    def test_weyl_orders(self, so3):
        weyls = sorted(cls.weyl_order for cls in so3.classes)
        assert weyls == [2, 6]

    def test_monotone(self, so3):
        values = [order_n_lie(so3, n) for n in range(0, 6)]
        for small, large in zip(values, values[1:]):
            assert large % small == 0


class TestProducts:
    def test_so3_squared_n2(self, so3):
        assert order_n_lie(power(so3, 2), 2) == 12

    def test_power_order_table(self, so3):
        for n_copies in range(1, 5):
            data = power(so3, n_copies)
            for m in range(0, 6):
                expected = 2 ** n_copies * 3 ** min(m, n_copies)
                assert order_n_lie(data, 2 * m) == expected

    def test_so3_cubed_n6(self, so3):
        assert order_n_lie(power(so3, 3), 6) == 216

    def test_product_with_trivial_point(self, so3):
        point = PhiData("pt", (PhiClass("1", 1, 0, (), ("1",), True),))
        left = product(so3, point)
        for n in range(0, 5):
            assert order_n_lie(left, n) == order_n_lie(so3, n)

    def test_power_limit_counts_the_classes_of_every_product(self, so3):
        # powers 2..12 of two classes build 4 + 8 + ... + 4096 = 8,188 classes
        assert MAX_POWER_CLASSES == 10_000
        assert len(power(so3, 12).classes) == 4096
        with pytest.raises(LieDataError, match="power 13 of 2-class data"):
            power(so3, 13)

    def test_one_class_power_is_refused_without_building(self):
        # each product of one-class data builds one class, so a large
        # exponent is refused although the result has one class
        point = PhiData("pt", (PhiClass("1", 1, 0, (), ("1",), True),))
        assert len(power(point, 100).classes) == 1
        with pytest.raises(LieDataError, match="power 1000000000 of 1-class data"):
            power(point, 10**9)

    def test_product_fields(self, so3):
        sq = product(so3, so3)
        assert len(sq.classes) == 4
        klein_pair = next(c for c in sq.classes if c.label == "(V4,V4)")
        assert klein_pair.weyl_order == 36
        assert klein_pair.torus_rank == 0
        assert klein_pair.component_invariants == (2, 2, 2, 2)


class TestValidation:
    def test_missing_omega_target(self):
        with pytest.raises(LieDataError):
            PhiData("bad", (PhiClass("A", 1, 1, (), ("B",)),)).validate()

    def test_not_reflexive(self):
        with pytest.raises(LieDataError):
            PhiData("bad", (
                PhiClass("A", 1, 1, (), ("B",)),
                PhiClass("B", 1, 1, (), ("B",)),
            )).validate()

    def test_not_transitive(self):
        with pytest.raises(LieDataError):
            PhiData("bad", (
                PhiClass("A", 1, 1, (), ("A", "B")),
                PhiClass("B", 1, 1, (), ("B", "C")),
                PhiClass("C", 1, 1, (), ("C",)),
            )).validate()

    def test_not_transitive_names_the_first_missing_label_in_closure_order(self):
        with pytest.raises(LieDataError, match=r"^A: omega_closure missing 'D' \(not transitively closed\)$"):
            PhiData("bad", (
                PhiClass("A", 1, 1, (), ("A", "B")),
                PhiClass("B", 1, 1, (), ("B", "D", "C")),
                PhiClass("C", 1, 1, (), ("C",)),
                PhiClass("D", 1, 1, (), ("D",)),
            )).validate()

    @staticmethod
    def chain(tmp_path):
        """Three classes whose closures reach every later class."""
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"name": "chain", "classes": [
            {"label": "a", "weyl_order": 6, "torus_rank": 0, "component_invariants": [2],
             "omega_closure": ["a", "b", "c"]},
            {"label": "b", "weyl_order": 3, "torus_rank": 1, "omega_closure": ["b", "c"]},
            {"label": "c", "weyl_order": 1, "torus_rank": 1, "omega_closure": ["c"]},
        ]}))
        return path

    def test_chain_power_validates_in_time(self, tmp_path):
        # the loaded data is validated, transitivity included; its products
        # are not, since a product of closed data is closed: 3^7 classes
        started = time.perf_counter()
        data = power(load_phi_data(self.chain(tmp_path)), 7)
        assert time.perf_counter() - started < 5.0
        assert len(data.classes) == 3 ** 7
        # one generator allows at most one coordinate at a: 6 * 3^6
        assert order_n_lie(data, 1) == 4374

    def test_chain_power_8_in_time(self, tmp_path):
        started = time.perf_counter()
        data = power(load_phi_data(self.chain(tmp_path)), 8)
        assert time.perf_counter() - started < 5.0
        assert len(data.classes) == 3 ** 8
        # at most one coordinate at a for n = 1, at most two for n = 2
        assert (order_n_lie(data, 1), order_n_lie(data, 2)) == (13122, 26244)

    def test_bad_weyl_order(self):
        with pytest.raises(LieDataError):
            PhiData("bad", (PhiClass("A", 0, 1, (), ("A",)),)).validate()

    def test_no_qualifying_class(self):
        data = PhiData("noflag", (PhiClass("V", 6, 0, (2, 2), ("V",)),))
        data.validate()
        with pytest.raises(NoQualifyingClass):
            order_n_lie(data, 0)
        with pytest.raises(NoQualifyingClass):
            order_n_lie(data, 1)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "classes": [{"label": "A"}]}))
        with pytest.raises(LieDataError):
            load_phi_data(path)

    def test_so3_file_round_trip(self, so3, tmp_path):
        assert so3.name == "SO(3)"
        assert {cls.label for cls in so3.classes} == {"S1", "V4"}
