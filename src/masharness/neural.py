"""Feedforward light controller decoded from a flat weight genome.

Topology is fixed-shape: three sensor inputs (light level, motion flag,
wireless signal), one tanh hidden layer, two tanh outputs (LED command,
wireless broadcast); only the hidden layer's width varies.  A genome is the
concatenation of input-to-hidden weights (row-major per hidden neuron),
hidden biases, hidden-to-output weights (row-major per output neuron), and
output biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logmodel import MasharnessError, _shown, open_output, read_lines

#: a light controller maps 3 sensor inputs to 2 commands
INPUTS = 3
OUTPUTS = 2
#: most hidden neurons a controller may have
MAX_HIDDEN = 100


class GenomeShapeMismatch(MasharnessError, ValueError):
    """Gene count does not fit the declared topology."""


@dataclass(frozen=True, slots=True)
class NetworkTopology:
    hiddenCount: int = 4

    def __post_init__(self):
        hidden = self.hiddenCount
        if type(hidden) is not int:
            raise GenomeShapeMismatch(f"hiddenCount must be int, not {type(hidden).__name__}")
        if hidden < 1:
            raise GenomeShapeMismatch(f"hiddenCount must be positive, got {_shown(hidden)}")
        if hidden > MAX_HIDDEN:
            raise GenomeShapeMismatch(
                f"hiddenCount must be at most {MAX_HIDDEN}, got {_shown(hidden)}")

    @property
    def genomeLength(self) -> int:
        return (INPUTS + 1) * self.hiddenCount + (self.hiddenCount + 1) * OUTPUTS


class NeuralController:
    """Decoded network, stateless between calls: w1, b1, w2 and b2 are views into ``genes``."""

    def __init__(self, topology: NetworkTopology, genes):
        self.topology = topology
        self.genes, self.w1, self.b1, self.w2, self.b2 = _layers(genes, topology, 1)

    def forward_batch(self, inputs) -> np.ndarray:
        """Map an (n, 3) array of sensor triples to (n, 2) outputs: stacked_outputs of one."""
        x = np.ascontiguousarray(inputs, dtype=float)
        return stacked_outputs(stack_layers(self.genes[None], self.topology), x[None])[0]


def _layers(genes, topology: NetworkTopology, ndim: int) -> list[np.ndarray]:
    """``genes`` as floats, ``ndim`` axes and a genome per last-axis row, then w1, b1, w2, b2."""
    if not isinstance(topology, NetworkTopology):
        raise GenomeShapeMismatch(f"topology must be a NetworkTopology, got {_shown(topology)}")
    try:
        g = np.asarray(genes, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a str, a complex, a ragged list, a huge int
        raise GenomeShapeMismatch("genes must be finite numbers") from None
    n_h, want = topology.hiddenCount, topology.genomeLength
    if g.ndim != ndim or g.shape[-1] != want:
        raise GenomeShapeMismatch(f"topology {INPUTS}-{n_h}-{OUTPUTS} needs {want} genes, "
                                  f"got {g.shape[-1] if g.ndim == ndim else g.size}")
    if not np.isfinite(g).all():
        raise GenomeShapeMismatch("genes must be finite numbers")
    i, j, k = INPUTS * n_h, (INPUTS + 1) * n_h, (INPUTS + 1 + OUTPUTS) * n_h
    return [g, g[..., :i].reshape(*g.shape[:-1], n_h, INPUTS), g[..., i:j],
            g[..., j:k].reshape(*g.shape[:-1], OUTPUTS, n_h), g[..., k:]]


def decode(genes, topology: NetworkTopology | None = None) -> NeuralController:
    """Unpack a flat gene sequence into a controller.

    Raises GenomeShapeMismatch when the gene count does not equal the
    topology's genomeLength, a gene is not a finite number or the topology
    is not a NetworkTopology.
    """
    return NeuralController(topology or NetworkTopology(), genes)


def stack_layers(genes, topology: NetworkTopology) -> tuple[np.ndarray, ...]:
    """Each row of a (P genomes, genes) matrix decoded, as layers stacked for one matmul each.

    Returns C-contiguous (W1T, B1, W2T, B2), shaped (P, 3, H), (P, 1, H), (P, H, 2), (P, 1, 2),
    weights transposed (a strided operand can change matmul's bits); refuses as decode does.
    """
    _, w1, b1, w2, b2 = _layers(genes, topology, 2)
    return tuple(np.ascontiguousarray(a) for a in (
        w1.swapaxes(1, 2), b1[:, None, :], w2.swapaxes(1, 2), b2[:, None, :]))


def stacked_outputs(networks: tuple[np.ndarray, ...], inputs: np.ndarray) -> np.ndarray:
    """(P, n, 2) tanh outputs of stack_layers' P networks for (P, n, 3) inputs, a matmul a layer.

    A row's bits do not depend on the rows stacked with it, so a controller has its batch row's."""
    w1t, b1, w2t, b2 = networks
    hidden = np.matmul(inputs, w1t)
    hidden += b1
    outputs = np.matmul(np.tanh(hidden, out=hidden), w2t)
    outputs += b2
    return np.tanh(outputs, out=outputs)


def save_genome(path, genes, topology: NetworkTopology | None = None) -> None:
    """Write a genome file: topology header line, then one gene per line."""
    if topology is None:
        topology = NetworkTopology()
    g = _layers(genes, topology, 1)[0]  # refused as decode refuses it, so load_genome reads it
    with open_output(path) as fh:
        fh.write(f"{INPUTS} {topology.hiddenCount} {OUTPUTS}\n")
        for gene in g:
            # repr of a python float round-trips the exact value
            fh.write(f"{float(gene)!r}\n")


def load_genome(path) -> tuple[NetworkTopology, tuple[float, ...]]:
    """Inverse of save_genome.  Raises GenomeShapeMismatch, naming the file, on a bad one."""
    lines = [ln.strip() for ln in read_lines(path, GenomeShapeMismatch, "genome") if ln.strip()]
    if not lines:
        raise GenomeShapeMismatch(f"genome {path}: empty genome file")
    header = lines[0].split()
    if len(header) != 3:
        raise GenomeShapeMismatch(f"genome {path}: bad topology header {lines[0]!r}")
    try:
        n_in, n_h, n_out = sizes = [int(tok) for tok in header]
        if min(sizes) < 1:
            raise GenomeShapeMismatch("all layer sizes must be positive")
        topology = NetworkTopology(hiddenCount=n_h)
        genes = tuple(float(tok) for tok in lines[1:])
    except ValueError as exc:
        raise GenomeShapeMismatch(f"genome {path}: {exc}") from None
    if (n_in, n_out) != (INPUTS, OUTPUTS):
        raise GenomeShapeMismatch(
            f"genome {path} declares topology {n_in}-{n_h}-{n_out}, "
            f"but a light controller has {INPUTS} inputs and {OUTPUTS} outputs"
        )
    if len(genes) != topology.genomeLength:
        raise GenomeShapeMismatch(f"genome {path}: header promises "
                                  f"{topology.genomeLength} genes, file has {len(genes)}")
    if not all(math.isfinite(gene) for gene in genes):
        raise GenomeShapeMismatch(f"genome {path} has a gene that is not a finite number")
    return topology, genes
