"""Command line front end.

Three subcommands:

* ``spectrum``     full discrete spectrum vs the exact one on one mesh
* ``convergence``  eigenvalue (and 1D eigenfunction) errors over a mesh
                   sequence, with fitted rates
* ``condition``    conditioning of the baseline Gauss pencil vs the
                   blended + penalty pencil

Results go to stdout or, with ``--out``, to a file written atomically
(temporary file in the target directory, renamed on success).  CSV uses
one header line and 17 significant digits; JSON mirrors the same data.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

from . import pipeline
from .errors import ConfigurationError, NumericError, ResourceError

__all__ = ["ExperimentConfig", "main"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one command line experiment."""

    command: str
    dim: int
    degree: int
    elements: tuple
    quadrature: str = "blended"
    penalty: str = "on"
    modes: tuple = (1, 6)
    fmt: str = "csv"
    out: str | None = None

    def validate(self) -> None:
        if self.command not in ("spectrum", "convergence", "condition"):
            raise ConfigurationError(f"unknown command '{self.command}'")
        if self.dim not in (1, 2, 3):
            raise ConfigurationError(f"--dim must be 1, 2 or 3, got {self.dim}")
        if not 1 <= self.degree <= 7:
            raise ConfigurationError(
                f"--degree must be between 1 and 7, got {self.degree}")
        if not self.elements:
            raise ConfigurationError("--elements must list at least one mesh")
        for n in self.elements:
            if n < 1:
                raise ConfigurationError(f"--elements entries must be >= 1, got {n}")
        if self.command == "convergence" and len(self.elements) < 3:
            raise ConfigurationError(
                "convergence needs at least 3 meshes in --elements")
        if self.command == "convergence" and list(self.elements) != sorted(set(self.elements)):
            raise ConfigurationError("convergence needs strictly increasing --elements")
        if self.command in ("spectrum", "condition") and len(self.elements) != 1:
            raise ConfigurationError(
                f"{self.command} takes exactly one mesh in --elements")
        if self.quadrature not in ("gauss", "blended"):
            raise ConfigurationError(
                f"--quadrature must be gauss or blended, got '{self.quadrature}'")
        if self.penalty not in ("on", "off"):
            raise ConfigurationError(
                f"--penalty must be on or off, got '{self.penalty}'")
        if self.command == "convergence" and not self.modes:
            raise ConfigurationError("convergence needs at least one --modes entry")
        for m in self.modes:
            if m < 1:
                raise ConfigurationError(f"--modes entries must be >= 1, got {m}")
        if self.fmt not in ("csv", "json"):
            raise ConfigurationError(f"--format must be csv or json, got '{self.fmt}'")

    def as_dict(self) -> dict:
        d = asdict(self)
        del d["out"]
        d["format"] = d.pop("fmt")
        return d


def run_spectrum(cfg: ExperimentConfig) -> dict:
    columns = pipeline.spectrum_rows(cfg.dim, cfg.degree, cfg.elements[0],
                                     cfg.quadrature, cfg.penalty == "on")
    return {"config": cfg.as_dict(), "columns": columns}


def run_convergence(cfg: ExperimentConfig) -> dict:
    rows, rates = pipeline.convergence_table(
        cfg.dim, cfg.degree, cfg.elements, cfg.modes,
        cfg.quadrature, cfg.penalty == "on")
    rates = {k: ("saturated" if v is None else v) for k, v in rates.items()}
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    return {"config": cfg.as_dict(), "columns": columns, "rates": rates}


def run_condition(cfg: ExperimentConfig) -> dict:
    rep = pipeline.condition_summary(cfg.dim, cfg.degree, cfg.elements[0])
    names = ("lambda_min", "lambda_max", "lambda_max_treated", "gamma",
             "gamma_treated", "rho", "reduction_percent")
    return {"config": cfg.as_dict(),
            "columns": {name: [getattr(rep, name)] for name in names}}


def render(result: dict, fmt: str) -> str:
    """The text of a result: its ``columns`` as CSV lines or JSON rows."""
    columns = result["columns"]
    header = list(columns)
    if fmt == "json":
        doc = {k: v for k, v in result.items() if k != "columns"}
        doc["rows"] = [dict(zip(header, row)) for row in zip(*columns.values())]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # one %-format per line, chosen once from the column types
    line = ",".join("%d" if isinstance(col[0], int) else "%.17g"
                    for col in columns.values())
    lines = [",".join(header)] + [line % row for row in zip(*columns.values())]
    rates = result.get("rates")
    if rates is not None:
        rate_row = {k: rates.get(k, "") for k in header}
        rate_row.update({header[0]: "rate", "h": ""})
        lines.append(",".join(v if isinstance(v, str) else "%.17g" % v
                              for v in rate_row.values()))
    lines.append("")  # a final newline, without copying the joined text
    return "\n".join(lines)


def _write_atomic(path: str, text: str) -> None:
    """Replace ``path`` by ``text`` atomically, with the mode ``open(path, "w")`` gives."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".igaspectra-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fchmod(fh.fileno(), mode)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igaspectra",
        description="Spectral approximation of the Dirichlet Laplacian on unit "
                    "boxes with smooth B-splines, blended quadrature and a "
                    "boundary penalty.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "full discrete spectrum on one mesh"),
        ("convergence", "errors and rates over a mesh sequence"),
        ("condition", "condition numbers, baseline vs blended + penalty"),
    ):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--dim", type=int, default=1, help="space dimension (1, 2 or 3)")
        s.add_argument("--degree", type=int, default=3, help="spline degree (1..7)")
        s.add_argument("--elements", type=_int_list, default=(10,),
                       help="elements per axis, comma separated for a mesh sequence")
        s.add_argument("--quadrature", default="blended",
                       help="gauss (full) or blended (dispersion optimal)")
        s.add_argument("--penalty", default="on", help="boundary penalty: on or off")
        s.add_argument("--modes", type=_int_list, default=(1, 6),
                       help="mode ranks tracked by convergence runs")
        s.add_argument("--format", dest="fmt", default="csv", help="csv or json")
        s.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


_RUNNERS = {
    "spectrum": run_spectrum,
    "convergence": run_convergence,
    "condition": run_condition,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = ExperimentConfig(**vars(args))
    try:
        cfg.validate()
        result = _RUNNERS[cfg.command](cfg)
        text = render(result, cfg.fmt)
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            _write_atomic(cfg.out, text)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ResourceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
