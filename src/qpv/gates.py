"""Fixed gate matrices shared across the package."""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
SDG = S.conj().T.copy()
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
TDG = T.conj().T.copy()

# Two-qubit gates in the shared convention: qubit 0 is the most significant
# bit of the amplitude index, so CNOT below has control 0, target 1.
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)
CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)


GATES: dict[str, np.ndarray] = {
    "I": I2,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "S": S,
    "Sdg": SDG,
    "T": T,
    "Tdg": TDG,
    "CNOT": CNOT,
    "CZ": CZ,
    "SWAP": SWAP,
}
