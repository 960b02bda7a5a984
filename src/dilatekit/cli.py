"""Command-line interface.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 the input
could not be parsed or validated (schema, parameters, the 62-atom limit,
or running out of memory).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from .errors import DilationError
from .pipeline import INPUT_ERRORS, run_pipeline
from .scenario import gen_example, load_scenario, serialize_scenario

import json


@click.group()
def main():
    """Construct and verify dilations of finite imprimitivity systems."""


def _emit(report, fmt: str, out):
    text = report.to_json() if fmt == "json" else report.to_text()
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)


def _run(command: str, scenario_file, out, fmt, eps):
    try:
        sc = load_scenario(scenario_file)
        report = run_pipeline(sc, command, eps=eps)
    except INPUT_ERRORS as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        click.echo(f"input error: out of memory{detail}", err=True)
        sys.exit(2)
    except DilationError as exc:  # safety net; pipeline maps these itself
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit(report, fmt, out)
    sys.exit(0 if report.passed else 1)


def _pipeline_command(name: str, doc: str):
    @main.command(name, help=doc)
    @click.argument("scenario_file", type=click.Path())
    @click.option("--out", type=click.Path(), default=None,
                  help="Write the report here instead of stdout.")
    @click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                  default="text", show_default=True)
    @click.option("--eps", type=float, default=None,
                  help="Override the residual tolerance.")
    def cmd(scenario_file, out, fmt, eps):
        _run(name, scenario_file, out, fmt, eps)

    return cmd


_pipeline_command("validate", "Schema and axiom checks only.")
_pipeline_command("dilate-banach", "Build and verify the minimal spectral dilation.")
_pipeline_command("dilate-hilbert", "Build and verify the projection-valued "
                                    "dilation of a positive system.")
_pipeline_command("dilate-framing", "Build and verify the unconditional-basis "
                                    "dilation of a framing.")
_pipeline_command("all", "Run every construction applicable to the payload.")


def _parse_p(value):
    if value is None:
        return None
    if value in ("inf", "linf", "oo"):
        return math.inf
    try:
        return float(value)
    except ValueError:
        click.echo(f"input error: bad --p value {value!r}", err=True)
        sys.exit(2)


@main.command("gen", help="Generate a deterministic example scenario.")
@click.option("--kind", required=True,
              type=click.Choice(["bessel-cyclic", "framing-single",
                                 "p-frame-cyclic", "spectral-random",
                                 "positive-random"]))
@click.option("--n", type=int, default=None, help="Group order / atom count.")
@click.option("--dim", type=int, default=None, help="Space dimension.")
@click.option("--r", type=int, default=None, help="Window count.")
@click.option("--p", default=None, help="Norm exponent: 1, 2, inf, or a float.")
@click.option("--seed", type=int, required=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def gen(kind, n, dim, r, p, seed, out):
    params = {}
    if n is not None:
        params["n"] = n
        params["m"] = n
    if dim is not None:
        params["d"] = dim
    if r is not None:
        params["r"] = r
    if p is not None:
        params["p"] = _parse_p(p)
    try:
        sc = gen_example(kind, params, seed)
    except INPUT_ERRORS as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    text = json.dumps(serialize_scenario(sc), indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
