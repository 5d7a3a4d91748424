"""Command line frontend.

Subcommands: ``table`` emits family coefficients as CSV or JSON, ``verify``
runs the cross-verification suite, ``dot`` exports a Hasse diagram, and
``gf`` prints generating-function expansions.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 capacity error.  ``dot N`` stops
at ``tables.CENSUS_MAX_N``, the largest S-fence whose filters the poset
layer enumerates, so it and ``dot --poset-file`` meet the same bound.
"""

from __future__ import annotations

import json
import sys

import click

from . import tables
from .census import poset_census
from .errors import CapacityError
from .lattice import filter_lattice, to_dot
from .polynomials import IntPoly
from .poset import Poset, poset_from_text, sfence
from .verify import run_verification

GF_MAX_TERMS = 64


def _load_poset(path: str) -> Poset:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return poset_from_text(fh.read())
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read poset file {path}: {exc}")


def _coeff_list(poly: IntPoly) -> list[int]:
    return list(poly.coeffs) if poly.coeffs else [0]


def _emit_rows(rows: list[tuple[int, IntPoly]], fmt: str) -> None:
    if fmt == "csv":
        click.echo("n,k,coefficient")
        for n, poly in rows:
            for k, c in enumerate(_coeff_list(poly)):
                click.echo(f"{n},{k},{c}")
    else:
        click.echo(json.dumps([{"n": n, "coeffs": _coeff_list(p)} for n, p in rows]))


class _Main(click.Group):
    """Command group that ends any command's :class:`CapacityError` with exit 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except CapacityError as exc:
            click.echo(f"capacity error: {exc}", err=True)
            ctx.exit(3)


@click.group(cls=_Main)
def main() -> None:
    """S-fence filter lattices and their counting polynomials."""


@main.command()
@click.argument("family", type=click.Choice(tables.FAMILIES))
@click.argument("from_n", metavar="FROM", type=int)
@click.argument("to_n", metavar="TO", type=int)
@click.argument("method", type=click.Choice(tables.METHODS))
@click.argument("fmt", metavar="FORMAT", type=click.Choice(("csv", "json")))
@click.option(
    "--poset-file",
    type=click.Path(),
    default=None,
    help="Compute the family on this poset instead of the S-fence range; "
    "census only, FROM/TO are ignored.",
)
def table(family: str, from_n: int, to_n: int, method: str, fmt: str, poset_file) -> None:
    """Emit coefficients for FAMILY over FROM..TO by METHOD as FORMAT."""
    if poset_file is not None:
        if method != "census":
            raise click.UsageError("--poset-file supports the census method only")
        poset = _load_poset(poset_file)
        _emit_rows([(len(poset), poset_census(poset)[family])], fmt)
        return
    if not 0 <= from_n <= to_n:
        raise click.UsageError("need 0 <= FROM <= TO")
    try:
        polys = tables.family_rows(family, from_n, to_n, method)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit_rows(list(zip(range(from_n, to_n + 1), polys)), fmt)


@main.command()
@click.argument("max_n", type=int)
def verify(max_n: int) -> None:
    """Run every cross-check up to MAX_N and print the report."""
    if max_n < 0:
        raise click.UsageError("MAX_N must be non-negative")
    report = run_verification(max_n)
    click.echo(report.render())
    sys.exit(report.exit_code)


@main.command()
@click.argument("n", type=int, required=False)
@click.option(
    "--poset-file",
    type=click.Path(),
    default=None,
    help="Export the filter lattice of this poset instead of the S-fence's.",
)
def dot(n, poset_file) -> None:
    """Write the Hasse diagram of the n-th S-fence filter lattice as DOT."""
    if (n is None) == (poset_file is None):
        raise click.UsageError("give exactly one of N or --poset-file")
    if poset_file is not None:
        poset = _load_poset(poset_file)
    else:
        if n < 0:
            raise click.UsageError("N must be non-negative")
        if n > tables.CENSUS_MAX_N:
            raise CapacityError(f"dot export is limited to n <= {tables.CENSUS_MAX_N}")
        poset = sfence(n)
    click.echo(to_dot(filter_lattice(poset)), nl=False)


@main.command()
@click.argument("family", type=click.Choice(tables.GF_FAMILIES))
@click.argument("terms", type=int)
def gf(family: str, terms: int) -> None:
    """Print TERMS coefficient polynomials of FAMILY's generating function."""
    if terms < 1:
        raise click.UsageError("TERMS must be positive")
    if terms > GF_MAX_TERMS:
        raise click.UsageError(f"TERMS is limited to {GF_MAX_TERMS}")
    for n, poly in enumerate(tables.gf_polys(family, terms)):
        click.echo(f"{n}: " + " ".join(str(c) for c in _coeff_list(poly)))


if __name__ == "__main__":
    main()
