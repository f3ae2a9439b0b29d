import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masharness import evolution
from masharness.neural import (
    MAX_HIDDEN,
    GenomeShapeMismatch,
    NetworkTopology,
    decode,
    load_genome,
    save_genome,
    stack_layers,
)
from masharness.world import ControllerBatch

from oracles import oracle_forward


def forward_one(controller, inputs):
    """One sensor triple through forward_batch, as a tuple of floats."""
    return tuple(float(v) for v in controller.forward_batch(np.array([inputs], dtype=float))[0])


class TestTopology:
    def test_default_genome_length_is_26(self):
        assert NetworkTopology().genomeLength == 26

    @pytest.mark.parametrize("hidden,expected", [(1, 8), (4, 26), (8, 50)])
    def test_genome_length_formula(self, hidden, expected):
        assert NetworkTopology(hiddenCount=hidden).genomeLength == expected

    @pytest.mark.parametrize("hidden,name", [("4", "str"), (1.5, "float"), (True, "bool")])
    def test_a_hidden_count_that_is_not_an_int_is_refused(self, hidden, name):
        # 1.5 hidden units would ask decode for 11.0 genes
        with pytest.raises(ValueError, match=f"^hiddenCount must be int, not {name}$"):
            NetworkTopology(hiddenCount=hidden)

    def test_degenerate_layer_sizes_are_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology(hiddenCount=0)
        # one bound for every topology, GAConfig's included
        assert evolution.MAX_HIDDEN is MAX_HIDDEN == 100
        assert NetworkTopology(hiddenCount=MAX_HIDDEN).genomeLength == 602
        with pytest.raises(ValueError, match="^hiddenCount must be at most 100, got 101$"):
            NetworkTopology(hiddenCount=MAX_HIDDEN + 1)

    @pytest.mark.parametrize("hidden,message", [
        (10 ** 5000, "at most 100, got an int of 16610 bits"),
        (-10 ** 5000, "positive, got an int of 16610 bits"),
    ], ids=["huge", "huge-negative"])
    def test_a_hidden_count_too_long_to_print_is_shown_by_its_size(self, hidden, message):
        with pytest.raises(ValueError, match=f"^hiddenCount must be {message}$"):
            NetworkTopology(hiddenCount=hidden)


class TestDecode:
    def test_wrong_gene_count_is_rejected(self):
        with pytest.raises(GenomeShapeMismatch):
            decode([0.0] * 25)
        with pytest.raises(GenomeShapeMismatch):
            decode([0.0] * 27)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_genes_are_rejected(self, bad):
        genes = [0.0] * 26
        genes[7] = bad
        with pytest.raises(GenomeShapeMismatch, match="finite"):
            decode(genes)

    def test_a_controller_gives_back_its_genes(self):
        genes = [float(n) for n in range(26)]
        assert decode(genes).genes.tolist() == genes

    def test_the_layers_are_views_of_the_genes(self):
        controller = decode(np.arange(26.0))
        layers = (controller.w1, controller.b1, controller.w2, controller.b2)
        assert [a.shape for a in layers] == [(4, 3), (4,), (2, 4), (2,)]
        for layer in layers:
            assert np.shares_memory(layer, controller.genes)
            assert layer.flags.c_contiguous
        assert np.concatenate([a.ravel() for a in layers]).tolist() == controller.genes.tolist()

    def test_zero_genome_outputs_zero(self):
        controller = decode([0.0] * 26)
        assert forward_one(controller, [1.0, 0.0, 0.5]) == (0.0, 0.0)

    def test_gene_order_is_documented_layout(self):
        topo = NetworkTopology(hiddenCount=1)  # (3+1)*1 + (1+1)*2 = 8 genes
        genes = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        controller = decode(genes, topo)
        assert controller.w1.tolist() == [[1.0, 2.0, 3.0]]
        assert controller.b1.tolist() == [4.0]
        assert controller.w2.tolist() == [[5.0], [6.0]]
        assert controller.b2.tolist() == [7.0, 8.0]

    def test_motion_only_path_controls_led_sign(self):
        # one hidden unit fed only by the motion input, wired into output 0
        # with a negative output bias so led flips sign with motion
        topo = NetworkTopology(hiddenCount=1)
        genes = [0.0, 5.0, 0.0, 0.0, 5.0, -1.0, -2.0, 0.0]
        controller = decode(genes, topo)
        led_on, _ = forward_one(controller, [0.3, 1.0, 0.2])
        led_off, _ = forward_one(controller, [0.3, 0.0, 0.2])
        assert led_on > 0
        assert led_off < 0


class TestForward:
    @given(
        st.lists(st.floats(-5, 5), min_size=26, max_size=26),
        st.lists(st.floats(0, 1), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_outputs_bounded(self, genes, inputs):
        out = forward_one(decode(genes), inputs)
        assert len(out) == 2
        assert all(-1.0 <= v <= 1.0 for v in out)

    def test_agrees_with_naive_loop_oracle(self):
        rng = random.Random(99)
        for _ in range(100):
            hidden = rng.randint(1, 6)
            topo = NetworkTopology(hiddenCount=hidden)
            genes = [rng.uniform(-5, 5) for _ in range(topo.genomeLength)]
            inputs = [rng.uniform(0, 1) for _ in range(3)]
            got = forward_one(decode(genes, topo), inputs)
            want = oracle_forward(genes, inputs, hidden)
            assert got == pytest.approx(want, abs=1e-9)

    def test_batch_agrees_with_single(self):
        rng = random.Random(5)
        genes = [rng.uniform(-3, 3) for _ in range(26)]
        controller = decode(genes)
        rows = [[rng.uniform(0, 1) for _ in range(3)] for _ in range(40)]
        batch = controller.forward_batch(np.array(rows))
        for row, out in zip(rows, batch):
            assert forward_one(controller, row) == pytest.approx(tuple(out), abs=1e-12)

    def test_finite_differences_match_analytic_jacobian(self):
        rng = random.Random(2)
        genes = [rng.uniform(-2, 2) for _ in range(26)]
        controller = decode(genes)
        x = np.array([0.4, 1.0, 0.2])

        hidden = np.tanh(controller.w1 @ x + controller.b1)
        out = np.tanh(controller.w2 @ hidden + controller.b2)
        # dy/dx = diag(1-y^2) W2 diag(1-h^2) W1
        jac = (np.diag(1 - out**2) @ controller.w2 @ np.diag(1 - hidden**2) @ controller.w1)

        eps = 1e-6
        for j in range(3):
            bumped = x.copy()
            bumped[j] += eps
            numeric = (np.array(forward_one(controller, bumped)) - out) / eps
            assert numeric == pytest.approx(jac[:, j], abs=1e-5)

    def test_wrong_input_arity_is_rejected(self):
        with pytest.raises(ValueError):
            forward_one(decode([0.0] * 26), [1.0, 2.0])


class TestGenomeFiles:
    def test_round_trip(self, tmp_path):
        rng = random.Random(11)
        topo = NetworkTopology(hiddenCount=3)
        genes = tuple(rng.uniform(-5, 5) for _ in range(topo.genomeLength))
        path = tmp_path / "genome.txt"
        save_genome(path, genes, topo)
        loaded_topo, loaded = load_genome(path)
        assert loaded_topo == topo
        assert loaded == genes  # repr round-trips floats exactly

    def test_header_line_is_topology_triple(self, tmp_path):
        path = tmp_path / "genome.txt"
        save_genome(path, [0.0] * 26)
        assert path.read_text().splitlines()[0] == "3 4 2"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3 4\n0.0\n",
            "3 4 2\n0.0\n",  # too few genes
            "3 4 2\n" + "0.0\n" * 27,
            "x y z\n",
        ],
    )
    def test_malformed_files_are_rejected(self, tmp_path, text):
        path = tmp_path / "genome.txt"
        path.write_text(text)
        with pytest.raises(GenomeShapeMismatch):
            load_genome(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_genes_are_rejected(self, tmp_path, bad):
        path = tmp_path / "genome.txt"
        path.write_text("3 4 2\n" + "0.5\n" * 25 + f"{bad}\n")
        with pytest.raises(GenomeShapeMismatch, match="finite") as info:
            load_genome(path)
        assert str(path) in str(info.value)

    def test_non_utf8_file_is_rejected_naming_it(self, tmp_path):
        path = tmp_path / "genome.txt"
        path.write_bytes(b"\xff\xfe3 4 2\n")
        with pytest.raises(GenomeShapeMismatch, match="not UTF-8") as info:
            load_genome(path)
        assert str(path) in str(info.value)

    def test_save_rejects_mismatched_genome(self, tmp_path):
        with pytest.raises(GenomeShapeMismatch):
            save_genome(tmp_path / "g.txt", [0.0] * 10, NetworkTopology())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_save_refuses_a_genome_load_would_refuse(self, tmp_path, bad):
        with pytest.raises(GenomeShapeMismatch, match="finite"):
            save_genome(tmp_path / "g.txt", [0.0] * 25 + [bad], NetworkTopology())
        assert not (tmp_path / "g.txt").exists()


class TestGeneMatrix:
    @pytest.mark.parametrize("genome,matrix", [
        ([0.0] * 25, [[0.0] * 25] * 3),
        ([0.0] * 27, [[0.0] * 27]),
        ([0.0] * 26 * 2, [0.0] * 26 * 2),  # flat, not one genome per row
        ([0.0, math.nan] * 13, [[0.0] * 26, [0.0, math.nan] * 13]),
        ([math.inf] * 26, [[math.inf] * 26]),
    ], ids=["short", "long", "flat", "nan", "inf"])
    def test_a_bad_matrix_is_refused_as_decode_refuses_its_genome(self, genome, matrix):
        with pytest.raises(GenomeShapeMismatch) as reference:
            decode(genome)
        for stack in (stack_layers, ControllerBatch.from_genes):
            with pytest.raises(GenomeShapeMismatch) as refused:
                stack(matrix, NetworkTopology())
            assert str(refused.value) == str(reference.value)

    def test_stacked_layers_are_each_genome_s_decoded_layers(self):
        topology = NetworkTopology(hiddenCount=3)
        rng = random.Random(4)
        genomes = [[rng.uniform(-5.0, 5.0) for _ in range(topology.genomeLength)]
                   for _ in range(5)]
        w1t, b1, w2t, b2 = stack_layers(genomes, topology)
        for p, genes in enumerate(genomes):
            controller = decode(genes, topology)
            assert np.array_equal(w1t[p], controller.w1.T)
            assert np.array_equal(b1[p, 0], controller.b1)
            assert np.array_equal(w2t[p], controller.w2.T)
            assert np.array_equal(b2[p, 0], controller.b2)
        assert all(a.flags.c_contiguous for a in (w1t, b1, w2t, b2))
