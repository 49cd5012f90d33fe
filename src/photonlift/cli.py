"""Command-line front end: lift matrices, take logs, run checks, print demos.

``lift-u`` and ``lift-h`` differ only in the map they call. One writer
lifts, writes the matrix in ``--order`` with its size, method (``lift-u``)
and order as metadata, and prints a ``modes= photons= dimension=`` header
and one ``index=K occupation=n1,...,nm`` line per state in the written
order, through the printer ``basis`` uses. ``verify`` prints one key=value
record per check, from a file or a seeded sweep, then one summary line.

Each command imports only what it runs: this module loads ``io`` and
``matfuncs`` (all that ``log`` needs), and the other commands import the
``fock``, ``lift`` and ``verify`` names they call when they run, so only
``verify`` loads ``verify``.

Exit codes: 0 on success, 1 when a validation or consistency check fails
or a lift does not fit in memory, 2 on I/O or parse problems. Reports are
line-oriented key=value records so they stay easy to grep and to consume
from other tools.
"""

import argparse
import functools
import math
import sys
from contextlib import contextmanager

import numpy as np

from .io import MatrixFileError, read_matrix, write_matrix
from .matfuncs import NotUnitaryError, is_unitary, unitary_logarithm

__all__ = ["main"]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def _lift_memory(modes: int, photons: int):
    """Turn a MemoryError inside the block into one that names the lift size."""
    try:
        yield
    except MemoryError as exc:
        dimension = math.comb(modes + photons - 1, photons)
        raise MemoryError(
            f"out of memory for {photons} photons in {modes} modes: dimension "
            f"{dimension}, one dense complex matrix takes "
            f"{16 * dimension**2} bytes"
        ) from exc


def _print_basis(basis, positions, **labels) -> None:
    """The size header with ``labels``, then one line per state.

    States come in the order of ``positions``, or canonical order for None.
    """
    header = {"modes": basis.modes, "photons": basis.photons, "dimension": len(basis)}
    print(" ".join(f"{key}={value}" for key, value in {**header, **labels}.items()))
    rows = basis.occupations
    if positions is not None:
        rows = rows[list(positions)]
    for index, occupation in enumerate(rows.tolist()):
        print(f"index={index} occupation={','.join(map(str, occupation))}")


def _cmd_basis(args) -> int:
    from .fock import bunched_first_order, enumerate_basis

    basis = enumerate_basis(args.modes, args.photons)
    bunched = args.order == "bunched"
    _print_basis(basis, bunched_first_order(basis) if bunched else None)
    return 0


def _write_lift(args, single, lift, **labels) -> int:
    """Write ``lift(single, args.photons)`` in ``args.order`` and print its basis.

    The file's metadata and the printed header carry the size, then
    ``labels`` and the order. Canonical order writes the lift itself; only
    the bunched order takes a permuted copy.
    """
    from .fock import bunched_first_order

    with _lift_memory(single.shape[0], args.photons):
        lifted = lift(single, args.photons)
        matrix, positions = lifted.matrix, None
        if args.order == "bunched":
            positions = bunched_first_order(lifted.basis)
            matrix = matrix[np.ix_(positions, positions)]
    basis = lifted.basis
    labels["order"] = args.order
    metadata = {"modes": str(basis.modes), "photons": str(basis.photons), **labels}
    write_matrix(matrix, args.output, metadata=metadata)
    _print_basis(basis, positions, **labels)
    return 0


def _cmd_lift_u(args) -> int:
    from .lift import lift_unitary_expansion, lift_unitary_permanent

    scattering = read_matrix(args.input)
    if not is_unitary(scattering, args.tol):
        raise NotUnitaryError(
            f"{args.input}: matrix is not unitary within tolerance {args.tol}"
        )
    if args.method == "permanent":
        lift = lift_unitary_permanent
    else:
        lift = lift_unitary_expansion
    return _write_lift(args, scattering, lift, method=args.method)


def _cmd_lift_h(args) -> int:
    from .lift import lift_hamiltonian

    h_single = read_matrix(args.input)
    lift = functools.partial(lift_hamiltonian, tol=args.tol)
    return _write_lift(args, h_single, lift)


def _cmd_log(args) -> int:
    unitary = read_matrix(args.input)
    hamiltonian = unitary_logarithm(unitary, args.tol)
    write_matrix(hamiltonian, args.output, metadata={"branch": "(-pi, pi], -1 -> +pi"})
    print(f"modes={hamiltonian.shape[0]} branch=principal")
    return 0


def _cmd_verify(args) -> int:
    from dataclasses import asdict

    from .verify import DEFAULT_SEED, check_diagram, run_sweep

    if args.input is None:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        with _lift_memory(args.modes, args.photons):
            sweep = run_sweep(
                args.modes, args.photons, args.trials, seed=seed, tol=args.tol
            )
        results = [
            (kind, {"seed": seed, "trial": trial}, report)
            for kind, trial, report in sweep
        ]
    else:
        h_single = read_matrix(args.input)
        with _lift_memory(h_single.shape[0], args.photons):
            results = [("diagram", {}, check_diagram(h_single, args.photons, args.tol))]
    failed = 0
    for kind, labels, report in results:
        fields = {"check": kind, **labels, **asdict(report)}
        print(" ".join(f"{key}={_format_value(fields[key])}" for key in fields))
        failed += not report.passed
    print(f"summary checks={len(results)} failed={failed}")
    return 0 if failed == 0 else 1


def _cmd_demo_hom(args) -> int:
    from .lift import balanced_beam_splitter, transition_distribution

    coupler = balanced_beam_splitter()
    distribution = transition_distribution(coupler, (1, 1))
    print("input=1,1")
    total = 0.0
    for state, probability in distribution.items():
        occupation = ",".join(str(count) for count in state)
        print(f"output={occupation} probability={probability!r}")
        total += probability
    print(f"total={total!r}")
    return 0


def _add_order_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--order",
        choices=("canonical", "bunched"),
        default="canonical",
        help="basis ordering for printed indices and output rows/columns: "
        "canonical (reverse-lexicographic) or bunched (states occupying "
        "fewer distinct modes first)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlift",
        description="Lift single-photon network matrices to n-photon ones "
        "and verify the constructions against each other.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    basis = commands.add_parser("basis", help="print the occupation basis")
    basis.add_argument("--modes", type=int, required=True)
    basis.add_argument("--photons", type=int, required=True)
    _add_order_flag(basis)
    basis.set_defaults(func=_cmd_basis)

    lift_u = commands.add_parser(
        "lift-u", help="lift a scattering matrix to the n-photon unitary"
    )
    lift_u.add_argument("--photons", type=int, required=True)
    lift_u.add_argument("--input", required=True)
    lift_u.add_argument("--output", required=True)
    lift_u.add_argument(
        "--method", choices=("expansion", "permanent"), default="expansion"
    )
    lift_u.add_argument("--tol", type=float, default=1e-9)
    _add_order_flag(lift_u)
    lift_u.set_defaults(func=_cmd_lift_u)

    lift_h = commands.add_parser(
        "lift-h", help="lift an effective Hamiltonian to the n-photon space"
    )
    lift_h.add_argument("--photons", type=int, required=True)
    lift_h.add_argument("--input", required=True)
    lift_h.add_argument("--output", required=True)
    lift_h.add_argument("--tol", type=float, default=1e-9)
    _add_order_flag(lift_h)
    lift_h.set_defaults(func=_cmd_lift_h)

    log = commands.add_parser(
        "log", help="principal-branch Hermitian logarithm of a unitary"
    )
    log.add_argument("--input", required=True)
    log.add_argument("--output", required=True)
    log.add_argument("--tol", type=float, default=1e-9)
    log.set_defaults(func=_cmd_log)

    verify = commands.add_parser(
        "verify", help="run consistency checks on a given or random Hamiltonian"
    )
    verify.add_argument("--input", default=None, help="Hamiltonian matrix file")
    verify.add_argument("--photons", type=int, required=True)
    verify.add_argument(
        "--modes", type=int, default=2, help="mode count for random sweeps"
    )
    verify.add_argument("--trials", type=int, default=10)
    # None stands for verify.DEFAULT_SEED, so the parser needs no verify.
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="tolerance of the diagram check, the only check of --input; a "
        "sweep's homomorphism and global-phase checks keep 1e-9 and 1e-10",
    )
    verify.set_defaults(func=_cmd_verify)

    demo = commands.add_parser(
        "demo-hom", help="two photons on a balanced beam splitter bunch together"
    )
    demo.set_defaults(func=_cmd_demo_hom)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatrixFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
