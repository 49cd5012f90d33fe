"""Command-line front end: lift matrices, take logs, run checks, print demos.

Exit codes: 0 on success, 1 when a validation or consistency check fails
or a lift does not fit in memory, 2 on I/O or parse problems. Reports are
line-oriented key=value records so they stay easy to grep and to consume
from other tools.
"""

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .fock import bunched_first_order, enumerate_basis
from .io import MatrixFileError, read_matrix, write_matrix
from .lift import (
    balanced_beam_splitter,
    lift_hamiltonian,
    lift_unitary_expansion,
    lift_unitary_permanent,
    transition_distribution,
)
from .matfuncs import NotUnitaryError, is_unitary, unitary_logarithm
from .verify import DEFAULT_SEED, check_diagram, run_sweep

__all__ = ["main"]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _print_record(kind: str, fields: dict, **extra) -> None:
    parts = [f"check={kind}"]
    parts += [f"{key}={_format_value(value)}" for key, value in extra.items()]
    parts += [f"{key}={_format_value(value)}" for key, value in fields.items()]
    print(" ".join(parts))


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


def _basis_order(basis, order: str) -> tuple[int, ...]:
    if order == "bunched":
        return bunched_first_order(basis)
    return tuple(range(len(basis)))


def _ordered_lift(lifted, order: str):
    """The lifted matrix with rows and columns in ``order``, and that order.

    Canonical order is the lift's own, so its matrix is returned as it is;
    only the bunched order takes a permuted copy.
    """
    positions = _basis_order(lifted.basis, order)
    if order == "bunched":
        return lifted.matrix[np.ix_(positions, positions)], positions
    return lifted.matrix, positions


def _print_basis(basis, order) -> None:
    for position, source in enumerate(order):
        occupation = ",".join(str(count) for count in basis.states[source])
        print(f"index={position} occupation={occupation}")


def _cmd_basis(args) -> int:
    basis = enumerate_basis(args.modes, args.photons)
    print(f"modes={args.modes} photons={args.photons} dimension={len(basis)}")
    _print_basis(basis, _basis_order(basis, args.order))
    return 0


def _cmd_lift_u(args) -> int:
    scattering = read_matrix(args.input)
    if not is_unitary(scattering, args.tol):
        raise NotUnitaryError(
            f"{args.input}: matrix is not unitary within tolerance {args.tol}"
        )
    with _lift_memory(scattering.shape[0], args.photons):
        if args.method == "permanent":
            lifted = lift_unitary_permanent(scattering, args.photons)
        else:
            lifted = lift_unitary_expansion(scattering, args.photons)
        reordered, order = _ordered_lift(lifted, args.order)
    write_matrix(
        reordered,
        args.output,
        metadata={
            "modes": str(lifted.basis.modes),
            "photons": str(args.photons),
            "method": args.method,
            "order": args.order,
        },
    )
    print(
        f"modes={lifted.basis.modes} photons={args.photons} "
        f"dimension={len(lifted.basis)} method={args.method} order={args.order}"
    )
    _print_basis(lifted.basis, order)
    return 0


def _cmd_lift_h(args) -> int:
    h_single = read_matrix(args.input)
    with _lift_memory(h_single.shape[0], args.photons):
        lifted = lift_hamiltonian(h_single, args.photons, tol=args.tol)
        reordered, order = _ordered_lift(lifted, args.order)
    write_matrix(
        reordered,
        args.output,
        metadata={
            "modes": str(lifted.basis.modes),
            "photons": str(args.photons),
            "order": args.order,
        },
    )
    print(
        f"modes={lifted.basis.modes} photons={args.photons} "
        f"dimension={len(lifted.basis)} order={args.order}"
    )
    _print_basis(lifted.basis, order)
    return 0


def _cmd_log(args) -> int:
    unitary = read_matrix(args.input)
    hamiltonian = unitary_logarithm(unitary, args.tol)
    write_matrix(hamiltonian, args.output, metadata={"branch": "(-pi, pi], -1 -> +pi"})
    print(f"modes={hamiltonian.shape[0]} branch=principal")
    return 0


def _cmd_verify(args) -> int:
    if args.input is not None:
        h_single = read_matrix(args.input)
        with _lift_memory(h_single.shape[0], args.photons):
            report = check_diagram(h_single, args.photons, args.tol)
        _print_record("diagram", asdict(report))
        failed = 0 if report.passed else 1
        print(f"summary checks=1 failed={failed}")
        return 0 if report.passed else 1

    with _lift_memory(args.modes, args.photons):
        results = run_sweep(
            args.modes, args.photons, args.trials, seed=args.seed, tol=args.tol
        )
    failed = 0
    for kind, trial, report in results:
        _print_record(kind, asdict(report), seed=args.seed, trial=trial)
        if not report.passed:
            failed += 1
    print(f"summary checks={len(results)} failed={failed}")
    return 0 if failed == 0 else 1


def _cmd_demo_hom(args) -> int:
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
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--tol", type=float, default=1e-8)
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
