import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import photonlift
import photonlift.lift
from photonlift import cli
from photonlift.cli import main
from photonlift.fock import bunched_first_order
from photonlift.io import _WRITE_BLOCK, MatrixFileError, read_matrix, write_matrix
from photonlift.lift import balanced_beam_splitter, lift_hamiltonian
from photonlift.matfuncs import unitary_logarithm
from photonlift.verify import random_hermitian
from reference import write_matrix_one_pass

GOLDEN_TWO_PHOTON_LOG = np.array(
    [
        [0.92016, 0.0, -1.57080],
        [0.0, 5.36304, -1.57080],
        [-1.57080, -1.57080, 3.14160],
    ],
    dtype=complex,
)


# Edge-case floats for the exact-text tests: signed zero, the smallest
# subnormal, exponent forms on both sides, and negative imaginary parts.
EDGE_MATRIX = np.array(
    [
        [complex(0.0, 0.1), complex(-0.0, -1e-05)],
        [complex(5e-324, 1e16), complex(1e16, -0.1)],
    ]
)

# One decimal integer with 401 digits: valid JSON, beyond float64 range.
HUGE_INTEGER = "1" + "0" * 400


def dump_raw(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_beam_splitter(path):
    write_matrix(balanced_beam_splitter(), path)
    return str(path)


class TestMatrixFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(101)
        matrix = rng.uniform(-1, 1, (3, 4)) + 1j * rng.uniform(-1, 1, (3, 4))
        target = tmp_path / "matrix.json"
        write_matrix(matrix, target)
        assert np.array_equal(read_matrix(target), matrix)

    def test_round_trip_golden_hamiltonian(self, tmp_path):
        target = tmp_path / "h.json"
        write_matrix(GOLDEN_TWO_PHOTON_LOG, target)
        assert np.array_equal(read_matrix(target), GOLDEN_TWO_PHOTON_LOG)

    def test_reads_explicit_pairs(self, tmp_path):
        value = 0.70710678
        path = dump_raw(
            tmp_path / "bs.json",
            {
                "rows": 2,
                "cols": 2,
                "data": [[value, 0], [value, 0], [value, 0], [-value, 0]],
            },
        )
        matrix = read_matrix(path)
        assert matrix[1, 1] == -value
        assert np.allclose(matrix, balanced_beam_splitter(), atol=1e-8)

    def test_scalar_file(self, tmp_path):
        path = dump_raw(tmp_path / "one.json", {"rows": 1, "cols": 1, "data": [[1, 0]]})
        assert np.array_equal(read_matrix(path), np.eye(1))

    def test_metadata_round_trip(self, tmp_path):
        target = tmp_path / "meta.json"
        write_matrix(np.eye(2), target, metadata={"label": "identity"})
        assert np.array_equal(read_matrix(target), np.eye(2))
        assert json.loads(target.read_text())["metadata"] == {"label": "identity"}

    def test_length_mismatch_rejected(self, tmp_path):
        path = dump_raw(
            tmp_path / "short.json",
            {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0]]},
        )
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[NaN, 0]]}')
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    def test_infinity_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1, -Infinity]]}')
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    def test_non_pair_entries_rejected(self, tmp_path):
        path = dump_raw(
            tmp_path / "flat.json", {"rows": 1, "cols": 2, "data": [1.0, 2.0]}
        )
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    def test_string_numbers_rejected(self, tmp_path):
        path = dump_raw(
            tmp_path / "str.json", {"rows": 1, "cols": 1, "data": [["1.0", 0]]}
        )
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    def test_zero_rows_rejected_on_read(self, tmp_path):
        path = dump_raw(tmp_path / "zero.json", {"rows": 0, "cols": 2, "data": []})
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.json")

    def test_write_rejects_empty_matrix(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(np.zeros((0, 3)), tmp_path / "empty.json")

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(np.array([[np.inf]]), tmp_path / "inf.json")

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            f'{{"rows": 1, "cols": 2, "data": [[0, 0], [{HUGE_INTEGER}, 0]]}}'
        )
        with pytest.raises(MatrixFileError, match=r"data\[1\]"):
            read_matrix(path)


class TestMatrixFileText:
    """The exact bytes write_matrix produces, not just the round trip."""

    def test_edge_floats(self, tmp_path):
        target = tmp_path / "edge.json"
        write_matrix(EDGE_MATRIX, target)
        assert target.read_text() == (
            "{\n"
            ' "rows": 2,\n'
            ' "cols": 2,\n'
            ' "data": [\n'
            "  [0.0, 0.1],\n"
            "  [-0.0, -1e-05],\n"
            "  [5e-324, 1e+16],\n"
            "  [1e+16, -0.1]\n"
            " ]\n"
            "}\n"
        )

    def test_transposed_view_with_metadata(self, tmp_path):
        target = tmp_path / "edge_t.json"
        write_matrix(EDGE_MATRIX.T, target, metadata={"b": "two", "a": "one"})
        assert target.read_text() == (
            "{\n"
            ' "rows": 2,\n'
            ' "cols": 2,\n'
            ' "data": [\n'
            "  [0.0, 0.1],\n"
            "  [5e-324, 1e+16],\n"
            "  [-0.0, -1e-05],\n"
            "  [1e+16, -0.1]\n"
            " ],\n"
            ' "metadata": {"a": "one", "b": "two"}\n'
            "}\n"
        )

    def test_real_input(self, tmp_path):
        target = tmp_path / "real.json"
        write_matrix(np.array([[-0.0, 1e16, 5e-324]]), target)
        assert target.read_text() == (
            "{\n"
            ' "rows": 1,\n'
            ' "cols": 3,\n'
            ' "data": [\n'
            "  [-0.0, 0.0],\n"
            "  [1e+16, 0.0],\n"
            "  [5e-324, 0.0]\n"
            " ]\n"
            "}\n"
        )


def block_test_matrix(entries, layout):
    """A seeded matrix of ``entries`` entries, edge floats around block ends.

    Rows are as long as the smallest divisor above 1 of ``entries`` that
    does not divide the block, so rows straddle the block ends, unless
    every divisor does (``entries`` a power of two). ``layout`` is
    "complex" (C-contiguous), "transposed" (a transposed view of a
    C-contiguous array) or "real".
    """
    divisors = [d for d in range(2, entries + 1) if entries % d == 0]
    cols = next((d for d in divisors if _WRITE_BLOCK % d), min(divisors, default=1))
    rng = np.random.default_rng([88, entries])
    flat = rng.normal(size=entries) + 1j * rng.normal(size=entries)
    edges = [-0.0, 5e-324, 1e16]
    for end in range(0, entries + 1, _WRITE_BLOCK):
        for position in range(max(0, end - 3), min(entries, end + 3)):
            flat[position] = complex(edges[position % 3], edges[(position + 1) % 3])
    matrix = flat.reshape(entries // cols, cols)
    if layout == "real":
        return matrix.real.copy()
    if layout == "transposed":
        return np.ascontiguousarray(matrix.T).T
    return matrix


class TestStreamedWriter:
    """write_matrix writes block by block the bytes of one formatted string."""

    COUNTS = [1, _WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1, 2 * _WRITE_BLOCK + 3]

    @pytest.mark.parametrize("entries", COUNTS)
    @pytest.mark.parametrize("layout", ["complex", "transposed", "real"])
    @pytest.mark.parametrize("metadata", [None, {"b": "two", "a": "one"}])
    def test_bytes_match_one_pass(self, tmp_path, entries, layout, metadata):
        matrix = block_test_matrix(entries, layout)
        write_matrix(matrix, tmp_path / "streamed.json", metadata)
        write_matrix_one_pass(matrix, tmp_path / "one_pass.json", metadata)
        assert (tmp_path / "streamed.json").read_bytes() == (
            tmp_path / "one_pass.json"
        ).read_bytes()
        assert np.array_equal(read_matrix(tmp_path / "streamed.json"), matrix)

    @pytest.mark.parametrize("entries", COUNTS[1:])
    def test_rows_and_edge_floats_straddle_block_ends(self, entries):
        matrix = block_test_matrix(entries, "transposed")
        rows, cols = matrix.shape
        assert rows > 1 and cols > 1 and not matrix.flags.c_contiguous
        assert _WRITE_BLOCK % cols or entries == _WRITE_BLOCK
        flat = matrix.ravel()
        for end in range(_WRITE_BLOCK, entries, _WRITE_BLOCK):
            assert {flat[end - 1].real, flat[end].real} <= {-0.0, 5e-324, 1e16}
            assert {flat[end - 1].imag, flat[end].imag} <= {-0.0, 5e-324, 1e16}

    @pytest.mark.parametrize(
        "entries",
        [
            # Each signed-zero and one-part-zero form beside +0+0j, over
            # two whole blocks and a partial last one.
            np.resize(
                [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                 complex(0.0, 0.75), complex(-1e-300, 0.0), 0j, complex(5e-324, 0.0)],
                2 * _WRITE_BLOCK + 5,
            ),
            np.zeros(_WRITE_BLOCK),
            np.zeros(_WRITE_BLOCK + 7),
            np.concatenate([np.zeros(_WRITE_BLOCK - 1), [complex(-0.0, 0.0)]]),
            np.concatenate([np.arange(_WRITE_BLOCK), np.zeros(_WRITE_BLOCK + 3)]),
        ],
        ids=["signed-zeros", "zero-block", "zero-partial-block", "last-entry-nonzero",
             "dense-then-zero"],
    )
    def test_zero_entries_match_one_pass(self, tmp_path, entries):
        matrix = np.asarray(entries, dtype=complex).reshape(1, -1)
        write_matrix(matrix, tmp_path / "streamed.json")
        write_matrix_one_pass(matrix, tmp_path / "one_pass.json")
        assert (tmp_path / "streamed.json").read_bytes() == (
            tmp_path / "one_pass.json"
        ).read_bytes()
        assert read_matrix(tmp_path / "streamed.json").tobytes() == matrix.tobytes()

    def test_one_nonzero_entry_in_a_zero_block(self, tmp_path):
        for position in (0, 1, _WRITE_BLOCK // 2, _WRITE_BLOCK - 1):
            matrix = np.zeros((4, _WRITE_BLOCK // 2), dtype=complex)
            matrix.flat[_WRITE_BLOCK + position] = complex(-0.5, 1e16)
            write_matrix(matrix, tmp_path / "streamed.json")
            write_matrix_one_pass(matrix, tmp_path / "one_pass.json")
            text = (tmp_path / "streamed.json").read_text()
            assert text == (tmp_path / "one_pass.json").read_text()
            assert text.count("[-0.5, 1e+16]") == 1

    def test_sparse_lifted_hamiltonian_matches_one_pass(self, tmp_path):
        # The bunched (8,4) lift: 7,050 non-zero entries of 108,900.
        h_single = random_hermitian(8, np.random.default_rng(3))
        lifted = lift_hamiltonian(h_single, 4)
        order = bunched_first_order(lifted.basis)
        matrix = lifted.matrix[np.ix_(order, order)]
        assert np.count_nonzero(matrix) == 7050
        metadata = {"modes": "8", "photons": "4", "order": "bunched"}
        write_matrix(matrix, tmp_path / "streamed.json", metadata)
        write_matrix_one_pass(matrix, tmp_path / "one_pass.json", metadata)
        assert (tmp_path / "streamed.json").read_bytes() == (
            tmp_path / "one_pass.json"
        ).read_bytes()

    @pytest.mark.parametrize("size", [120, 240])
    def test_peak_memory_is_a_block_beyond_the_finite_mask(self, tmp_path, size):
        # One pass would hold about ten times the matrix: a float list, its
        # tuple, the template, the formatted text and two joined copies.
        # The finite mask takes a sixteenth of the matrix. tracemalloc sees
        # every float the writer formats, so the sizes stay small and the
        # slack a quarter MiB: a one-pass write peaks at 2.7 and 11 MiB.
        rng = np.random.default_rng([89, size])
        matrix = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        tracemalloc.start()
        try:
            write_matrix(matrix, tmp_path / "large.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= matrix.nbytes / 8 + 2**18

    @pytest.mark.parametrize(
        "matrix,metadata",
        [
            (np.array([[1.0, np.nan], [0.0, 1.0]]), None),
            (np.full((3, 2 * _WRITE_BLOCK), np.inf), None),
            (np.eye(2), {"label": "identity", "photons": 3}),
        ],
        ids=["nan", "inf-after-a-block", "non-string-metadata"],
    )
    def test_refusal_leaves_an_existing_file_untouched(self, tmp_path, matrix, metadata):
        target = tmp_path / "kept.json"
        write_matrix(balanced_beam_splitter(), target, {"name": "coupler"})
        before = target.read_bytes()
        with pytest.raises(ValueError):
            write_matrix(matrix, target, metadata)
        assert target.read_bytes() == before


    @pytest.mark.parametrize("metadata", [[("a", "b")], "ab", 5])
    def test_metadata_that_is_no_mapping_is_refused_before_the_file_opens(
        self, tmp_path, metadata
    ):
        target = tmp_path / "never.json"
        with pytest.raises(ValueError, match="metadata must map strings to strings"):
            write_matrix(np.eye(2), target, metadata)
        assert not target.exists()


class TestBasisCommand:
    def test_prints_states_in_order(self, capsys):
        assert main(["basis", "--modes", "2", "--photons", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "modes=2 photons=2 dimension=3"
        assert lines[1:] == [
            "index=0 occupation=2,0",
            "index=1 occupation=1,1",
            "index=2 occupation=0,2",
        ]

    def test_bunched_order(self, capsys):
        assert main(["basis", "--modes", "2", "--photons", "2", "--order", "bunched"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == [
            "index=0 occupation=2,0",
            "index=1 occupation=0,2",
            "index=2 occupation=1,1",
        ]


class TestLiftUnitaryCommand:
    def test_identity_three_photons(self, tmp_path, capsys):
        source = tmp_path / "eye.json"
        write_matrix(np.eye(2), source)
        target = tmp_path / "lifted.json"
        code = main(
            ["lift-u", "--photons", "3", "--input", str(source), "--output", str(target)]
        )
        assert code == 0
        assert np.array_equal(read_matrix(target), np.eye(4))
        out = capsys.readouterr().out
        assert "index=0 occupation=3,0" in out

    def test_beam_splitter_bunched_matches_golden(self, tmp_path):
        source = write_beam_splitter(tmp_path / "bs.json")
        target = tmp_path / "u.json"
        code = main(
            [
                "lift-u",
                "--photons",
                "2",
                "--input",
                source,
                "--output",
                str(target),
                "--order",
                "bunched",
            ]
        )
        assert code == 0
        r = 1 / math.sqrt(2)
        golden = np.array([[0.5, 0.5, r], [0.5, 0.5, -r], [r, -r, 0.0]])
        assert np.allclose(read_matrix(target), golden, atol=1e-10)

    def test_methods_agree_numerically(self, tmp_path):
        rng = np.random.default_rng(111)
        from photonlift.verify import random_unitary

        source = tmp_path / "s.json"
        write_matrix(random_unitary(3, rng), source)
        by_expansion = tmp_path / "ue.json"
        by_permanent = tmp_path / "up.json"
        assert (
            main(
                ["lift-u", "--photons", "2", "--input", str(source), "--output",
                 str(by_expansion), "--method", "expansion"]
            )
            == 0
        )
        assert (
            main(
                ["lift-u", "--photons", "2", "--input", str(source), "--output",
                 str(by_permanent), "--method", "permanent"]
            )
            == 0
        )
        difference = read_matrix(by_expansion) - read_matrix(by_permanent)
        assert np.linalg.norm(difference) <= 1e-10

    def test_non_unitary_input_exits_1(self, tmp_path, capsys):
        source = tmp_path / "shear.json"
        write_matrix(np.array([[1, 1], [0, 1]]), source)
        code = main(
            ["lift-u", "--photons", "2", "--input", str(source), "--output",
             str(tmp_path / "out.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_permanent_beyond_size_limit_exits_1(self, tmp_path, capsys):
        source = tmp_path / "one.json"
        write_matrix(np.eye(1), source)
        code = main(
            ["lift-u", "--photons", "31", "--method", "permanent", "--input",
             str(source), "--output", str(tmp_path / "out.json")]
        )
        assert code == 1
        assert "limited to 30 photons" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            ["lift-u", "--photons", "2", "--input", str(tmp_path / "nope.json"),
             "--output", str(tmp_path / "out.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        source = tmp_path / "broken.json"
        source.write_text('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
        code = main(
            ["lift-u", "--photons", "2", "--input", str(source), "--output",
             str(tmp_path / "out.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_tol_exits_1(self, tmp_path, capsys):
        source = tmp_path / "swap.json"
        write_matrix(np.eye(2)[::-1], source)
        code = main(
            ["lift-u", "--photons", "2", "--input", str(source), "--output",
             str(tmp_path / "out.json"), "--tol", "nan"]
        )
        assert code == 1
        assert "tolerance must be a number, got nan" in capsys.readouterr().err

    def test_out_of_memory_exits_1_and_names_the_size(
        self, tmp_path, capsys, monkeypatch
    ):
        def exhausted(matrix, photons):
            raise MemoryError

        monkeypatch.setattr(photonlift.lift, "lift_unitary_expansion", exhausted)
        source = write_beam_splitter(tmp_path / "bs.json")
        code = main(
            ["lift-u", "--photons", "40", "--input", source, "--output",
             str(tmp_path / "out.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # Two modes and 40 photons span 41 states: 41 * 41 * 16 bytes.
        assert "dimension 41" in err
        assert "26896 bytes" in err


class TestLiftHamiltonianCommand:
    def test_golden_two_photon_hamiltonian(self, tmp_path):
        source = tmp_path / "hs.json"
        write_matrix(unitary_logarithm(balanced_beam_splitter()), source)
        target = tmp_path / "hu.json"
        code = main(
            ["lift-h", "--photons", "2", "--input", str(source), "--output",
             str(target), "--order", "bunched"]
        )
        assert code == 0
        assert np.max(np.abs(read_matrix(target) - GOLDEN_TWO_PHOTON_LOG)) < 1e-4

    def test_zero_matrix(self, tmp_path):
        source = tmp_path / "zero.json"
        write_matrix(np.zeros((2, 2)), source)
        target = tmp_path / "lifted.json"
        assert (
            main(["lift-h", "--photons", "5", "--input", str(source), "--output",
                  str(target)])
            == 0
        )
        assert np.array_equal(read_matrix(target), np.zeros((6, 6)))

    def test_number_operator_diagonal(self, tmp_path):
        source = tmp_path / "diag.json"
        write_matrix(np.diag([1.0, 2.0]), source)
        target = tmp_path / "lifted.json"
        assert (
            main(["lift-h", "--photons", "2", "--input", str(source), "--output",
                  str(target)])
            == 0
        )
        # Canonical order (2,0), (1,1), (0,2).
        assert np.allclose(read_matrix(target), np.diag([2.0, 3.0, 4.0]), atol=1e-15)

    def test_non_hermitian_exits_1(self, tmp_path, capsys):
        source = tmp_path / "bad.json"
        write_matrix(np.array([[0, 1], [0, 0]]), source)
        code = main(
            ["lift-h", "--photons", "2", "--input", str(source), "--output",
             str(tmp_path / "out.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_tol_exits_1(self, tmp_path, capsys):
        source = tmp_path / "bad.json"
        write_matrix(np.array([[0, 1], [0, 0]]), source)
        code = main(
            ["lift-h", "--photons", "2", "--input", str(source), "--output",
             str(tmp_path / "out.json"), "--tol", "nan"]
        )
        assert code == 1
        assert "tolerance must be a number, got nan" in capsys.readouterr().err

    def test_out_of_memory_exits_1_and_names_the_size(
        self, tmp_path, capsys, monkeypatch
    ):
        def exhausted(matrix, photons, tol):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(photonlift.lift, "lift_hamiltonian", exhausted)
        source = tmp_path / "h.json"
        write_matrix(np.eye(3), source)
        code = main(
            ["lift-h", "--photons", "3", "--input", str(source), "--output",
             str(tmp_path / "out.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "3 modes" in err and "3 photons" in err
        assert "dimension 10" in err

    @pytest.mark.parametrize("order", ["canonical", "bunched"])
    def test_only_bunched_order_copies_the_lift(self, tmp_path, monkeypatch, order):
        lifts, written = [], []

        def recorded_lift(matrix, photons, tol):
            lifts.append(lift_hamiltonian(matrix, photons, tol=tol))
            return lifts[-1]

        monkeypatch.setattr(photonlift.lift, "lift_hamiltonian", recorded_lift)
        monkeypatch.setattr(
            cli, "write_matrix", lambda matrix, path, metadata: written.append(matrix)
        )
        source = tmp_path / "number.json"
        write_matrix(np.diag([1.0, 2.0]), source)
        code = main(
            ["lift-h", "--photons", "2", "--order", order, "--input", str(source),
             "--output", str(tmp_path / "out.json")]
        )
        assert code == 0
        assert (written[0] is lifts[0].matrix) == (order == "canonical")

    def test_nan_tol_on_hermitian_input_exits_1(self, tmp_path, capsys):
        source = tmp_path / "identity.json"
        write_matrix(np.eye(2), source)
        output = tmp_path / "out.json"
        code = main(
            ["lift-h", "--photons", "2", "--input", str(source), "--output",
             str(output), "--tol", "nan"]
        )
        assert code == 1
        assert "tolerance must be a number, got nan" in capsys.readouterr().err
        assert not output.exists()


class TestLogCommand:
    def test_beam_splitter_golden(self, tmp_path):
        source = write_beam_splitter(tmp_path / "bs.json")
        target = tmp_path / "hs.json"
        assert main(["log", "--input", source, "--output", str(target)]) == 0
        golden = np.array([[0.46008, -1.11072], [-1.11072, 2.68152]])
        assert np.max(np.abs(read_matrix(target) - golden)) < 1e-4

    def test_identity_gives_zero(self, tmp_path):
        source = tmp_path / "eye.json"
        write_matrix(np.eye(3), source)
        target = tmp_path / "log.json"
        assert main(["log", "--input", str(source), "--output", str(target)]) == 0
        assert np.allclose(read_matrix(target), np.zeros((3, 3)), atol=1e-14)

    def test_branch_convention_on_diagonal(self, tmp_path):
        source = tmp_path / "diag.json"
        write_matrix(np.diag([-1.0, 1.0]), source)
        target = tmp_path / "log.json"
        assert main(["log", "--input", str(source), "--output", str(target)]) == 0
        assert np.allclose(read_matrix(target), np.diag([np.pi, 0.0]), atol=1e-12)

    def test_non_unitary_exits_1(self, tmp_path, capsys):
        source = tmp_path / "shear.json"
        write_matrix(np.array([[1, 1], [0, 1]]), source)
        code = main(["log", "--input", str(source), "--output", str(tmp_path / "o.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_tol_exits_1(self, tmp_path, capsys):
        source = tmp_path / "swap.json"
        write_matrix(np.eye(2)[::-1], source)
        code = main(["log", "--input", str(source), "--output", str(tmp_path / "o.json"),
                     "--tol", "nan"])
        assert code == 1
        assert "tolerance must be a number, got nan" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_overflowing_gram_matrix_exits_1(self, tmp_path, capsys):
        source = tmp_path / "huge.json"
        write_matrix(np.array([[1e200, 1e200], [1e200, -1e200]]), source)
        with np.errstate(all="ignore"):
            code = main(
                ["log", "--input", str(source), "--output", str(tmp_path / "o.json")]
            )
        assert code == 1
        assert "not unitary" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        source = tmp_path / "big.json"
        source.write_text(
            f'{{"rows": 1, "cols": 1, "data": [[{HUGE_INTEGER}, 0]]}}'
        )
        code = main(["log", "--input", str(source), "--output", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "data[0]" in err


class TestVerifyCommand:
    def test_single_input_passes(self, tmp_path, capsys):
        source = tmp_path / "hs.json"
        write_matrix(unitary_logarithm(balanced_beam_splitter()), source)
        code = main(["verify", "--input", str(source), "--photons", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "check=diagram" in out
        assert "passed=true" in out
        assert "summary checks=1 failed=0" in out

    def test_non_hermitian_input_exits_1(self, tmp_path, capsys):
        source = tmp_path / "broken.json"
        write_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), source)
        code = main(["verify", "--input", str(source), "--photons", "2"])
        assert code == 1
        assert "not Hermitian" in capsys.readouterr().err

    def test_nan_tol_rejects_non_hermitian_input(self, tmp_path, capsys):
        source = tmp_path / "broken.json"
        write_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), source)
        code = main(["verify", "--input", str(source), "--photons", "2", "--tol", "nan"])
        assert code == 1
        assert "tolerance must be a number, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", "sweep"])
    def test_nan_tol_on_hermitian_input_names_the_tolerance(self, source, tmp_path, capsys):
        if source == "file":
            path = tmp_path / "identity.json"
            write_matrix(np.eye(2), path)
            argv = ["verify", "--input", str(path), "--photons", "2", "--tol", "nan"]
        else:
            argv = ["verify", "--modes", "3", "--photons", "2", "--trials", "1", "--tol", "nan"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "tolerance must be a number, got nan" in captured.err
        assert "not Hermitian" not in captured.err
        assert "summary" not in captured.out

    def test_sweep_passes_and_is_deterministic(self, capsys):
        argv = ["verify", "--photons", "2", "--modes", "3", "--trials", "3",
                "--seed", "42"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "check=diagram" in first
        assert "check=homomorphism" in first
        assert "check=global_phase" in first
        assert "summary checks=9 failed=0" in first

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_empty_sweep_exits_1(self, trials, capsys):
        code = main(["verify", "--photons", "2", "--trials", trials])
        assert code == 1
        captured = capsys.readouterr()
        assert "trial counts must be whole numbers >= 1" in captured.err
        assert "summary" not in captured.out


CANONICAL_3_2 = ["2,0,0", "1,1,0", "1,0,1", "0,2,0", "0,1,1", "0,0,2"]
BUNCHED_3_2 = ["2,0,0", "0,2,0", "0,0,2", "1,1,0", "1,0,1", "0,1,1"]

RECORD_FIELDS = {
    "diagram": (
        "modes", "photons", "residual_diagram", "residual_unitarity",
        "residual_hermiticity", "sparsity_violations", "residual_eigen",
        "residual_eigenbasis", "tolerance", "passed",
    ),
    "homomorphism": ("modes", "photons", "residual", "tolerance", "passed"),
    "global_phase": ("modes", "photons", "phase", "residual", "tolerance", "passed"),
}


def expected_record(kind, report, **extra):
    """The ``verify`` line of one report: extras first, then its fields in order."""

    def text(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)

    pairs = list(extra.items()) + [
        (name, getattr(report, name)) for name in RECORD_FIELDS[kind]
    ]
    return " ".join([f"check={kind}"] + [f"{key}={text(value)}" for key, value in pairs])


class TestCommandOutput:
    """Exact stdout and file bytes of the commands that lift and verify."""

    @pytest.mark.parametrize(
        "command,method,order",
        [
            ("lift-u", "expansion", "canonical"),
            ("lift-u", "expansion", "bunched"),
            ("lift-u", "permanent", "canonical"),
            ("lift-u", "permanent", "bunched"),
            ("lift-h", None, "canonical"),
            ("lift-h", None, "bunched"),
        ],
    )
    def test_lift_stdout_and_file_bytes(self, tmp_path, capsys, command, method, order):
        from photonlift.fock import bunched_first_order
        from photonlift.lift import lift_unitary_expansion, lift_unitary_permanent
        from photonlift.verify import random_hermitian, random_unitary

        rng = np.random.default_rng(321)
        source, target = tmp_path / "single.json", tmp_path / "lifted.json"
        argv = [command, "--photons", "2", "--input", str(source), "--output",
                str(target), "--order", order]
        if command == "lift-u":
            single = random_unitary(3, rng)
            lift = {"expansion": lift_unitary_expansion,
                    "permanent": lift_unitary_permanent}[method]
            lifted = lift(single, 2)
            argv += ["--method", method]
            header = f"modes=3 photons=2 dimension=6 method={method} order={order}"
            metadata = {"modes": "3", "photons": "2", "method": method, "order": order}
        else:
            single = random_hermitian(3, rng)
            lifted = lift_hamiltonian(single, 2)
            header = f"modes=3 photons=2 dimension=6 order={order}"
            metadata = {"modes": "3", "photons": "2", "order": order}
        write_matrix(single, source)

        assert main(argv) == 0
        states = BUNCHED_3_2 if order == "bunched" else CANONICAL_3_2
        assert capsys.readouterr().out.splitlines() == [header] + [
            f"index={index} occupation={state}" for index, state in enumerate(states)
        ]
        expected = lifted.matrix
        if order == "bunched":
            positions = bunched_first_order(lifted.basis)
            expected = expected[np.ix_(positions, positions)]
        reference = tmp_path / "reference.json"
        write_matrix(expected, reference, metadata=metadata)
        assert target.read_bytes() == reference.read_bytes()

    def test_verify_file_record_is_exact(self, tmp_path, capsys):
        source = tmp_path / "zero.json"
        write_matrix(np.zeros((2, 2)), source)
        assert main(["verify", "--input", str(source), "--photons", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "check=diagram modes=2 photons=2 residual_diagram=0.0 "
            "residual_unitarity=0.0 residual_hermiticity=0.0 sparsity_violations=0 "
            "residual_eigen=0.0 residual_eigenbasis=0.0 tolerance=1e-08 passed=true",
            "summary checks=1 failed=0",
        ]

    def test_failing_verify_file_prints_its_record_and_exits_1(self, tmp_path, capsys):
        from photonlift.verify import check_diagram, random_hermitian

        single = random_hermitian(3, np.random.default_rng(322))
        source = tmp_path / "h.json"
        write_matrix(single, source)
        code = main(["verify", "--input", str(source), "--photons", "2", "--tol", "0"])
        report = check_diagram(single, 2, 0.0)
        assert not report.passed
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            expected_record("diagram", report),
            "summary checks=1 failed=1",
        ]

    @pytest.mark.parametrize("tol,failed", [("1e-08", 0), ("0", 2)])
    def test_verify_sweep_records_are_exact(self, capsys, tol, failed):
        from photonlift.verify import run_sweep

        code = main(["verify", "--modes", "3", "--photons", "2", "--trials", "2",
                     "--seed", "42", "--tol", tol])
        results = run_sweep(3, 2, 2, seed=42, tol=float(tol))
        assert code == (1 if failed else 0)
        assert capsys.readouterr().out.splitlines() == [
            expected_record(kind, report, seed=42, trial=trial)
            for kind, trial, report in results
        ] + [f"summary checks=6 failed={failed}"]


class TestDemoCommand:
    def test_hong_ou_mandel_distribution(self, capsys):
        assert main(["demo-hom"]) == 0
        out = capsys.readouterr().out
        records = {}
        for line in out.strip().splitlines():
            if line.startswith("output="):
                state_part, probability_part = line.split(" ")
                records[state_part.split("=")[1]] = float(
                    probability_part.split("=")[1]
                )
        assert records["1,1"] <= 1e-12
        assert abs(records["2,0"] - 0.5) <= 1e-12
        assert abs(records["0,2"] - 0.5) <= 1e-12
        assert abs(sum(records.values()) - 1.0) <= 1e-12


def run_fresh(code: str, *args: str) -> None:
    """Run ``code`` in a new interpreter that imports photonlift from this tree."""
    source_root = os.path.dirname(os.path.dirname(photonlift.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


class TestLazyScipyImport:
    def test_cli_commands_never_load_scipy_linalg(self, tmp_path):
        run_fresh(
            """
            import sys
            import photonlift
            assert "scipy.linalg" not in sys.modules, "loaded by import"
            from photonlift.cli import main
            from photonlift.io import write_matrix
            from photonlift.lift import balanced_beam_splitter

            folder = sys.argv[1]
            write_matrix(balanced_beam_splitter(), folder + "/s.json")
            write_matrix([[1.0, 0.5], [0.5, -1.0]], folder + "/h.json")
            for argv in (
                ["basis", "--modes", "3", "--photons", "2"],
                ["lift-u", "--photons", "2", "--input", folder + "/s.json",
                 "--output", folder + "/u.json"],
                ["lift-h", "--photons", "2", "--input", folder + "/h.json",
                 "--output", folder + "/hu.json"],
                ["verify", "--input", folder + "/h.json", "--photons", "2"],
                ["verify", "--photons", "2", "--trials", "1"],
                ["log", "--input", folder + "/s.json", "--output", folder + "/l.json"],
                ["demo-hom"],
            ):
                assert main(argv) == 0, argv
                assert "scipy.linalg" not in sys.modules, argv
            """,
            str(tmp_path),
        )

    def test_verify_on_nearly_hermitian_input_stays_in_numpy(self, tmp_path):
        # One entry off by 1e-11: Hermitian within the default tol = 1e-8,
        # but too far from it for matrix_exponential's structure probe.
        run_fresh(
            """
            import sys
            import numpy as np
            from photonlift.cli import main
            from photonlift.io import write_matrix
            from photonlift.verify import check_diagram, random_hermitian

            h_single = random_hermitian(8, np.random.default_rng(151))
            h_single[0, 1] += 1e-11
            path = sys.argv[1] + "/h.json"
            write_matrix(h_single, path)
            assert main(["verify", "--input", path, "--photons", "2"]) == 0
            report = check_diagram(h_single, 2)
            assert report.passed
            assert report.residual_unitarity <= 1e-13, report
            assert "scipy.linalg" not in sys.modules
            """,
            str(tmp_path),
        )

    def test_functions_that_need_scipy_load_it_on_first_call(self):
        run_fresh(
            """
            import sys
            import numpy as np
            from photonlift.lift import balanced_beam_splitter
            from photonlift.matfuncs import matrix_exponential, unitary_logarithm

            assert "scipy.linalg" not in sys.modules
            coupler = balanced_beam_splitter()
            log = unitary_logarithm(coupler)
            assert np.allclose(matrix_exponential(1j * log), coupler, atol=1e-12)
            assert "scipy.linalg" not in sys.modules, "loaded by the log"
            shear = matrix_exponential([[0, 1], [0, 0]])
            assert np.array_equal(shear, [[1, 1], [0, 1]]), shear
            assert "scipy.linalg" in sys.modules, "not loaded by expm"
            """
        )


class TestLazyModuleImport:
    def test_package_import_loads_no_submodule(self):
        run_fresh(
            """
            import sys
            import photonlift
            loaded = [name for name in sys.modules if name.startswith("photonlift.")]
            assert loaded == [], loaded
            """
        )

    def test_cli_import_loads_io_and_matfuncs_only(self):
        run_fresh(
            """
            import sys
            import photonlift.cli
            loaded = sorted(name for name in sys.modules if name.startswith("photonlift."))
            assert loaded == ["photonlift.cli", "photonlift.io", "photonlift.matfuncs"], loaded
            """
        )

    def test_each_command_loads_only_what_it_runs(self, tmp_path):
        run_fresh(
            """
            import sys
            from photonlift.cli import main
            from photonlift.io import write_matrix

            folder = sys.argv[1]
            write_matrix([[0.0, 1.0], [1.0, 0.0]], folder + "/s.json")
            write_matrix([[1.0, 0.5], [0.5, -1.0]], folder + "/h.json")
            log = ["log", "--input", folder + "/s.json", "--output", folder + "/l.json"]
            assert main(log) == 0
            for module in ("photonlift.fock", "photonlift.lift", "photonlift.verify"):
                assert module not in sys.modules, module
            for argv in (
                ["basis", "--modes", "3", "--photons", "2"],
                ["lift-u", "--photons", "2", "--input", folder + "/s.json",
                 "--output", folder + "/u.json"],
                ["lift-u", "--photons", "2", "--input", folder + "/s.json",
                 "--output", folder + "/p.json", "--method", "permanent"],
                ["lift-h", "--photons", "2", "--input", folder + "/h.json",
                 "--output", folder + "/hu.json", "--order", "bunched"],
                ["demo-hom"],
            ):
                assert main(argv) == 0, argv
                assert "photonlift.verify" not in sys.modules, argv
            assert main(["verify", "--photons", "2", "--trials", "1"]) == 0
            assert "photonlift.verify" in sys.modules
            """,
            str(tmp_path),
        )

    def test_public_names_resolve_to_their_home_modules(self):
        run_fresh(
            """
            import importlib
            import photonlift

            listed = dir(photonlift)
            names = photonlift.__all__
            assert len(set(names)) == len(names)
            homes = ["fock", "io", "lift", "matfuncs", "verify"]
            assert set(names) | set(homes) <= set(listed), set(names) - set(listed)
            star = {}
            exec("from photonlift import *", star)
            assert set(star) - {"__builtins__"} == set(names)
            for name in names:
                owners = [
                    importlib.import_module("photonlift." + home)
                    for home in homes
                    if name in importlib.import_module("photonlift." + home).__all__
                ]
                assert len(owners) == 1, (name, owners)
                assert getattr(photonlift, name) is getattr(owners[0], name), name
                assert star[name] is getattr(owners[0], name), name
            for home in homes:
                assert getattr(photonlift, home) is importlib.import_module("photonlift." + home)
            try:
                photonlift.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise AssertionError("photonlift.no_such_name resolved")
            """
        )

    def test_submodules_load_on_first_attribute_access(self):
        run_fresh(
            """
            import sys
            import photonlift

            # Each module's own imports come earlier in this order, so every
            # access is the first load of that module.
            for home in ["fock", "io", "matfuncs", "lift", "verify"]:
                full = "photonlift." + home
                assert full not in sys.modules, home
                module = getattr(photonlift, home)
                assert module is sys.modules[full], home
                assert module.__name__ == full, home
            """
        )

    def test_verify_sweep_seed_defaults_to_default_seed(self, capsys):
        assert main(["verify", "--photons", "1", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert f"seed={photonlift.DEFAULT_SEED} " in out


class TestLazyNumpyRandomImport:
    def test_only_the_random_sweep_loads_numpy_random(self, tmp_path):
        run_fresh(
            """
            import sys
            import photonlift
            assert "numpy.random" not in sys.modules, "loaded by import"
            from photonlift.cli import main
            from photonlift.io import write_matrix
            from photonlift.lift import balanced_beam_splitter

            folder = sys.argv[1]
            write_matrix(balanced_beam_splitter(), folder + "/s.json")
            write_matrix([[1.0, 0.5], [0.5, -1.0]], folder + "/h.json")
            for argv in (
                ["basis", "--modes", "3", "--photons", "2"],
                ["lift-u", "--photons", "2", "--input", folder + "/s.json",
                 "--output", folder + "/u.json"],
                ["lift-u", "--photons", "2", "--input", folder + "/s.json",
                 "--output", folder + "/p.json", "--method", "permanent"],
                ["lift-h", "--photons", "2", "--input", folder + "/h.json",
                 "--output", folder + "/hu.json"],
                ["log", "--input", folder + "/s.json", "--output", folder + "/l.json"],
                ["verify", "--input", folder + "/h.json", "--photons", "2"],
                ["demo-hom"],
            ):
                assert main(argv) == 0, argv
                assert "numpy.random" not in sys.modules, argv
            assert main(["verify", "--photons", "2", "--trials", "1"]) == 0
            """,
            str(tmp_path),
        )
