"""Circuit layouts, the layout file format, and EPR cost formulas."""

import json
from unittest import mock

import numpy as np
import pytest

from qpv import gates
from qpv.costs import (
    CostReport,
    clifford_cost,
    layout_cost,
    pauli_cost,
    pbt_cost,
    pbt_fidelity_bound,
    sk_cost,
    tree_cost,
)
from qpv.errors import ValidationError
from qpv.layout import CircuitLayout, LayoutGate, load_layout
from qpv.statevec import embed_operator

from oracles import semi_clifford_tree_degree, single_gate_layout


def t_layer():
    return (LayoutGate(gates.T, (0,), 3),)


def test_layout_gate_validation():
    with pytest.raises(ValidationError):
        LayoutGate(gates.CNOT, (1, 1), 2)
    with pytest.raises(ValidationError):
        LayoutGate(gates.T, (0, 1), 3)
    with pytest.raises(ValidationError):
        LayoutGate(gates.T, (0,), 1)
    with pytest.raises(ValidationError):
        LayoutGate(np.diag([1.0, 2.0]), (0,), 2)


def test_layout_rejects_gate_above_declared_level():
    # T sits strictly above the Clifford level, so declaring 2 is a lie
    with pytest.raises(ValidationError):
        CircuitLayout(1, ((LayoutGate(gates.T, (0,), 2),),))


def test_layout_structure_validation():
    with pytest.raises(ValidationError):
        CircuitLayout(0, (t_layer(),))
    with pytest.raises(ValidationError):
        CircuitLayout(1, ())
    with pytest.raises(ValidationError):
        CircuitLayout(1, ((),))
    with pytest.raises(ValidationError):
        CircuitLayout(1, ((LayoutGate(gates.T, (1,), 3),),))
    clash = (LayoutGate(gates.T, (0,), 3), LayoutGate(gates.H, (0,), 2))
    with pytest.raises(ValidationError):
        CircuitLayout(1, (clash,))


def test_layout_unitaries_compose_in_layer_order():
    layout = CircuitLayout(
        1, (t_layer(), (LayoutGate(gates.H, (0,), 2),))
    )
    assert layout.depth == 2
    assert layout.layer_level(0) == 3
    assert layout.layer_level(1) == 2
    assert np.allclose(layout.layer_unitary(0), gates.T)
    # layer 1 acts first, so H is the leftmost factor
    assert np.allclose(layout.composite_unitary(), gates.H @ gates.T)


def test_composite_unitary_is_built_once_and_read_only():
    layer = (LayoutGate(gates.T, (0,), 3), LayoutGate(gates.H, (1,), 2))
    layout = CircuitLayout(2, (layer, (LayoutGate(gates.CNOT, (0, 1), 2),)))
    with mock.patch("qpv.layout.embed_operator", wraps=embed_operator) as embed:
        first = layout.composite_unitary()
        assert layout.composite_unitary() is first
    assert embed.call_count == 3
    assert np.allclose(first, gates.CNOT @ np.kron(gates.T, gates.H))
    # a trial holding the matrix cannot change it for the next trial
    with pytest.raises(ValueError):
        first[0, 0] = 0.0


def test_parallel_layer_unitary_is_tensor_product():
    layer = (LayoutGate(gates.T, (0,), 3), LayoutGate(gates.H, (1,), 2))
    layout = CircuitLayout(2, (layer,))
    assert np.allclose(layout.layer_unitary(0), np.kron(gates.T, gates.H))


def test_single_gate_layout_wraps_matrix():
    layout = single_gate_layout(gates.T, 3)
    assert layout.n == 1 and layout.depth == 1
    assert np.allclose(layout.composite_unitary(), gates.T)
    two = single_gate_layout(gates.CNOT, 2)
    assert two.n == 2
    assert np.allclose(two.composite_unitary(), gates.CNOT)


def test_load_layout_round_trip(tmp_path):
    m = gates.T
    doc = {
        "n": 2,
        "layers": [
            [{"gate": "t", "targets": [0]}, {"gate": "H", "targets": [1]}],
            [
                {
                    "gate": [[[m[0, 0].real, m[0, 0].imag], [0, 0]],
                             [[0, 0], [m[1, 1].real, m[1, 1].imag]]],
                    "targets": [1],
                    "level": 3,
                }
            ],
        ],
    }
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    layout = load_layout(path)
    assert layout.n == 2 and layout.depth == 2
    assert layout.layer_level(0) == 3
    assert np.allclose(layout.layers[1][0].gate, gates.T)


def test_load_layout_errors(tmp_path):
    def write(doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    with pytest.raises(ValidationError, match="cannot read"):
        load_layout(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{", encoding="utf-8")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_layout(garbled)
    with pytest.raises(ValidationError, match="JSON object"):
        load_layout(write([1, 2]))
    with pytest.raises(ValidationError, match="unknown layout keys"):
        load_layout(write({"n": 1, "layers": [], "extra": 1}))
    with pytest.raises(ValidationError, match="needs 'n' and 'layers'"):
        load_layout(write({"n": 1}))
    with pytest.raises(ValidationError, match="layer 1"):
        load_layout(write({"n": 1, "layers": ["x"]}))
    with pytest.raises(ValidationError, match="unknown gate"):
        load_layout(write({"n": 1, "layers": [[{"gate": "Q", "targets": [0]}]]}))
    with pytest.raises(ValidationError, match="explicit level"):
        load_layout(
            write({"n": 1, "layers": [[{"gate": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "targets": [0]}]]})
        )
    with pytest.raises(ValidationError, match="\\[re, im\\]"):
        load_layout(
            write({"n": 1, "layers": [[{"gate": [[1, 0], [0, 1]], "targets": [0], "level": 2}]]})
        )
    with pytest.raises(ValidationError, match="unknown keys"):
        load_layout(
            write({"n": 1, "layers": [[{"gate": "T", "targets": [0], "color": 1}]]})
        )


def test_pauli_and_clifford_costs():
    assert pauli_cost(4) == CostReport(0, 0, "pauli")
    assert clifford_cost(3) == CostReport(3, 3, "clifford")
    with pytest.raises(ValidationError):
        pauli_cost(0)


def test_tree_cost_small_cases():
    third = tree_cost(1, 3)
    assert (third.reserved_epr, third.bound_epr) == (14, 16)
    fourth = tree_cost(1, 4)
    assert (fourth.reserved_epr, fourth.bound_epr) == (58, 64)
    wide = tree_cost(2, 3)
    assert (wide.reserved_epr, wide.bound_epr) == (100, 128)
    with pytest.raises(ValidationError):
        tree_cost(1, 1)


def test_tree_cost_clifford_level_is_teleport():
    # k=2 degenerates to plain teleportation plus one round of halves
    report = tree_cost(1, 2)
    assert report.reserved_epr == 3
    assert report.bound_epr == 4


def test_layout_cost_layers_multiply():
    layout = CircuitLayout(
        1, (t_layer(), (LayoutGate(gates.H, (0,), 3),))
    )
    report = layout_cost(layout)
    assert report.reserved_epr == 14 * 14 == 196
    assert report.bound_epr == 256
    assert report.formula_id == "layout"


def test_layout_cost_parallel_gates_add():
    layer = (LayoutGate(gates.T, (0,), 3), LayoutGate(gates.T, (1,), 3))
    report = layout_cost(CircuitLayout(2, (layer,)))
    assert report.reserved_epr == 14 + 14 == 28
    # one layer of level 3 on 2 qubits caps at 4^2 * (4*2)^1
    assert report.bound_epr == 128


def test_pbt_cost_prefix_products():
    assert pbt_cost(4, (8,)).reserved_epr == 32
    assert pbt_cost(2, (8, 8, 8)).reserved_epr == 2 * (8 + 64 + 512)
    assert pbt_cost(1, (5, 7)).reserved_epr == 5 + 35
    with pytest.raises(ValidationError):
        pbt_cost(1, ())
    with pytest.raises(ValidationError):
        pbt_cost(1, (8, 1))


def test_pbt_fidelity_bound_product_and_clamp():
    single = pbt_fidelity_bound((8,))
    assert not single.vacuous
    assert float(single) == pytest.approx(0.5)
    chain = pbt_fidelity_bound((8, 8, 8))
    assert float(chain) == pytest.approx(0.125)
    # any hop with m <= 4 collapses the guarantee entirely
    flat = pbt_fidelity_bound((4,))
    assert flat.vacuous and float(flat) == 0.0
    mixed = pbt_fidelity_bound((100, 3))
    assert mixed.vacuous and float(mixed) == 0.0
    with pytest.raises(ValidationError):
        pbt_fidelity_bound(())


def test_sk_cost_semi_clifford_halves_exponent():
    semi = sk_cost(1, 3, True)
    assert semi.reserved_epr == 2**12
    assert semi.bound_epr == 2**24
    assert semi.formula_id == "sk-semi-clifford"
    full = sk_cost(1, 3, False)
    assert full.reserved_epr == full.bound_epr == 2**24
    # python ints keep these exact well past the float mantissa
    big = sk_cost(2, 14, True)
    assert big.reserved_epr == 2**112
    with pytest.raises(ValidationError):
        sk_cost(0, 3, True)


def test_cost_report_validation():
    with pytest.raises(ValidationError):
        CostReport(-1, 4, "x")
    with pytest.raises(ValidationError):
        CostReport(5, 4, "x")


def test_semi_clifford_tree_degree():
    assert semi_clifford_tree_degree(1) == 2
    assert semi_clifford_tree_degree(2) == 12
