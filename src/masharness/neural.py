"""Feedforward light controller decoded from a flat weight genome.

Topology is fixed-shape: three sensor inputs (light level, motion flag,
wireless signal), one tanh hidden layer, two tanh outputs (LED command,
wireless broadcast).  A genome is the concatenation of input-to-hidden
weights (row-major per hidden neuron), hidden biases, hidden-to-output
weights (row-major per output neuron), and output biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GenomeShapeMismatch(ValueError):
    """Gene count does not fit the declared topology."""


@dataclass(frozen=True, slots=True)
class NetworkTopology:
    inputCount: int = 3
    hiddenCount: int = 4
    outputCount: int = 2

    def __post_init__(self):
        if self.inputCount < 1 or self.hiddenCount < 1 or self.outputCount < 1:
            raise ValueError("all layer sizes must be positive")

    @property
    def genomeLength(self) -> int:
        return (self.inputCount + 1) * self.hiddenCount + (self.hiddenCount + 1) * self.outputCount


class NeuralController:
    """Decoded network; stateless between calls."""

    def __init__(self, topology: NetworkTopology, w1, b1, w2, b2):
        self.topology = topology
        self.w1 = np.asarray(w1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.b2 = np.asarray(b2, dtype=float)

    def forward(self, inputs) -> tuple[float, ...]:
        """Map one sensor triple to the output pair, both layers tanh."""
        x = np.asarray(inputs, dtype=float)
        if x.shape != (self.topology.inputCount,):
            raise ValueError(
                f"expected {self.topology.inputCount} inputs, got shape {x.shape}"
            )
        hidden = np.tanh(self.w1 @ x + self.b1)
        out = np.tanh(self.w2 @ hidden + self.b2)
        return tuple(float(v) for v in out)

    def forward_batch(self, inputs) -> np.ndarray:
        """Vectorised forward pass over an (n, inputCount) array."""
        x = np.asarray(inputs, dtype=float)
        hidden = np.tanh(x @ self.w1.T + self.b1)
        return np.tanh(hidden @ self.w2.T + self.b2)


def _check_controller_shape(topology: NetworkTopology, what: str) -> None:
    """A light controller maps 3 sensor inputs to 2 commands."""
    if (topology.inputCount, topology.outputCount) != (3, 2):
        raise GenomeShapeMismatch(
            f"{what} declares topology {topology.inputCount}-{topology.hiddenCount}-"
            f"{topology.outputCount}, but a light controller has 3 inputs and 2 outputs"
        )


def decode(genes, topology: NetworkTopology | None = None) -> NeuralController:
    """Unpack a flat gene sequence into a controller.

    Raises GenomeShapeMismatch when the topology is not 3-H-2, the gene
    count does not equal its genomeLength, or a gene is not finite.
    """
    if topology is None:
        topology = NetworkTopology()
    g = np.asarray(genes, dtype=float)
    n_in, n_h, n_out = topology.inputCount, topology.hiddenCount, topology.outputCount
    want = topology.genomeLength
    _check_controller_shape(topology, "genome")
    if g.ndim != 1 or g.shape[0] != want:
        raise GenomeShapeMismatch(
            f"topology {n_in}-{n_h}-{n_out} needs {want} genes, got {g.size}"
        )
    if not np.isfinite(g).all():
        raise GenomeShapeMismatch("genes must be finite numbers")
    i = 0
    w1 = g[i : i + n_h * n_in].reshape(n_h, n_in)
    i += n_h * n_in
    b1 = g[i : i + n_h]
    i += n_h
    w2 = g[i : i + n_out * n_h].reshape(n_out, n_h)
    i += n_out * n_h
    b2 = g[i : i + n_out]
    return NeuralController(topology, w1, b1, w2, b2)


def save_genome(path, genes, topology: NetworkTopology | None = None) -> None:
    """Write a genome file: topology header line, then one gene per line."""
    if topology is None:
        topology = NetworkTopology()
    g = np.asarray(genes, dtype=float)
    if g.shape != (topology.genomeLength,):
        raise GenomeShapeMismatch(
            f"genome of {g.size} genes does not fit topology header"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{topology.inputCount} {topology.hiddenCount} {topology.outputCount}\n")
        for gene in g:
            # repr of a python float round-trips the exact value
            fh.write(f"{float(gene)!r}\n")


def load_genome(path) -> tuple[NetworkTopology, tuple[float, ...]]:
    """Inverse of save_genome.  Raises GenomeShapeMismatch, naming the file, on a bad one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = [ln.strip() for ln in fh if ln.strip()]
        except UnicodeDecodeError as exc:
            raise GenomeShapeMismatch(f"genome {path} is not UTF-8 text: {exc.reason}") from None
    if not lines:
        raise GenomeShapeMismatch(f"genome {path}: empty genome file")
    header = lines[0].split()
    if len(header) != 3:
        raise GenomeShapeMismatch(f"genome {path}: bad topology header {lines[0]!r}")
    try:
        topology = NetworkTopology(*(int(tok) for tok in header))
        genes = tuple(float(tok) for tok in lines[1:])
    except ValueError as exc:
        raise GenomeShapeMismatch(f"genome {path}: {exc}") from None
    _check_controller_shape(topology, f"genome {path}")
    if len(genes) != topology.genomeLength:
        raise GenomeShapeMismatch(f"genome {path}: header promises "
                                  f"{topology.genomeLength} genes, file has {len(genes)}")
    if not all(math.isfinite(gene) for gene in genes):
        raise GenomeShapeMismatch(f"genome {path} has a gene that is not a finite number")
    return topology, genes
