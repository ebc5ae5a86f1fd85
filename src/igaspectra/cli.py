"""Command line front end.

Three subcommands:

* ``spectrum``     full discrete spectrum vs the exact one on one mesh
* ``convergence``  eigenvalue (and 1D eigenfunction) errors over a mesh
                   sequence, with fitted rates
* ``condition``    conditioning of the baseline Gauss pencil vs the
                   blended + penalty pencil

``build_parser`` declares every flag, its default and its allowed values
once, and gives each command only the flags its runner reads; JSON echoes
the parsed namespace as ``config`` without ``out``.  Results go to stdout
or, with ``--out``, to a file written atomically (temporary file in the
target directory, renamed on success), in blocks of ``_BLOCK_ROWS`` rows
formatted as they are written.  CSV has one header line, and each value
is byte for byte Python's ``"%.17g" % v`` (17 significant digits,
trailing zeros dropped) or, for integers, ``"%d" % v``; blocks of at
least ``_VECTOR_ROWS`` rows are made as bytes by ``csvcells``.  JSON
mirrors the same data.  Exit codes: 0 success,
2 configuration error (``configuration error: <message>`` on stderr,
nothing on stdout, whether argparse or the library refused), 3
numerical failure.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import pipeline
from .errors import ConfigurationError, NumericError, ResourceError

__all__ = ["main"]


def run_spectrum(args) -> dict:
    return {"columns": pipeline.spectrum_rows(args.dim, args.degree, args.elements[0],
                                              args.quadrature, args.penalty == "on")}


def run_convergence(args) -> dict:
    rows, rates = pipeline.convergence_table(
        args.dim, args.degree, args.elements, args.modes,
        args.quadrature, args.penalty == "on")
    rates = {k: ("saturated" if v is None else v) for k, v in rates.items()}
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    return {"columns": columns, "rates": rates}


def run_condition(args) -> dict:
    rep = pipeline.condition_summary(args.dim, args.degree, args.elements[0])
    names = ("lambda_min", "lambda_max", "lambda_max_treated", "gamma",
             "gamma_treated", "rho", "reduction_percent")
    return {"columns": {name: [getattr(rep, name)] for name in names}}


#: Rows per output block: ``main`` formats and writes this many at a time.
_BLOCK_ROWS = 8192


def _column_text(values: np.ndarray, encode) -> np.ndarray:
    """``encode(values)``, called once per run of bitwise-equal neighbours.

    A 2D/3D spectrum repeats each sum once per permutation of its axis
    indices, and the copies sit next to each other after the sort.  Bits,
    not ``==``, decide equality, so -0.0 and 0.0 stay apart.
    """
    bits = values.view(np.int64) if values.dtype.kind == "f" else values
    starts = np.empty(len(values), bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    if starts.all():
        return encode(values)
    return encode(values[starts])[np.cumsum(starts) - 1]


def _json_text(values: np.ndarray) -> np.ndarray:
    # json's own encoder spells each number, NaN and Infinity included
    return np.array(json.dumps(values.tolist())[1:-1].split(", "), dtype=object)


#: Blocks of fewer rows are formatted by Python's ``%``, which spares
#: short outputs the import and the digit tables of ``csvcells``.
_VECTOR_ROWS = 256


def _csv_rows(blocks: list) -> str:
    """CSV lines of equally long column blocks: each float as Python's
    ``"%.17g" % v``, each integer as ``"%d" % v``, byte for byte."""
    if len(blocks[0]) < _VECTOR_ROWS:
        line = ",".join("%.17g" if b.dtype.kind == "f" else "%d" for b in blocks) + "\n"
        return "".join(map(line.__mod__, zip(*(b.tolist() for b in blocks))))
    from . import csvcells
    # one byte row per line: NUL-padded cells, each followed by "," or a
    # newline; deleting the NULs leaves the text
    widths = [csvcells.cell_width(b) + 1 for b in blocks]
    rows = np.empty((len(blocks[0]), sum(widths)), np.uint8)
    end = 0
    for block, width in zip(blocks, widths):
        end += width
        rows[:, end - width:end - 1] = _column_text(block, csvcells.cell_bytes)
        rows[:, end - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def render(result: dict, fmt: str, start: int = 0, stop: int | None = None) -> str:
    """The text of rows ``start:stop`` (at least one) of a result's ``columns``,
    as CSV lines or JSON rows.

    The block that starts at row 0 carries the CSV header or the JSON
    head, and the block that reaches the last row the CSV rate row or
    the JSON close, so consecutive blocks concatenate to the whole text.
    """
    columns = {k: np.asarray(v) for k, v in result["columns"].items()}
    header = list(columns)
    n = len(columns[header[0]])
    last = stop is None or stop >= n
    if fmt == "json":
        keys = sorted(header)
        texts = [_column_text(columns[k][start:stop], _json_text) for k in keys]
        row = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in keys) + "\n    }"
        body = ("\n" if start == 0 else ",\n") + ",\n".join(map(row.__mod__, zip(*texts)))
        if start == 0:
            # rows sorts after config and rates: the head is the document
            # up to its empty rows list
            doc = {k: v for k, v in result.items() if k != "columns"}
            doc["rows"] = []
            body = json.dumps(doc, indent=2, sort_keys=True)[:-len("]\n}")] + body
        return body + ("\n  ]\n}\n" if last else "")
    lines = [",".join(header) + "\n" if start == 0 else "",
             _csv_rows([col[start:stop] for col in columns.values()])]
    rates = result.get("rates")
    if last and rates is not None:
        rate_row = {k: rates.get(k, "") for k in header}
        rate_row.update({header[0]: "rate", "h": ""})
        lines.append(",".join(v if isinstance(v, str) else "%.17g" % v
                              for v in rate_row.values()) + "\n")
    return "".join(lines)


def _write_atomic(path: str, blocks) -> None:
    """Replace ``path`` by the concatenated ``blocks`` atomically, with the mode
    ``open(path, "w")`` gives."""
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
            fh.writelines(blocks)
            fh.flush()
            os.fchmod(fh.fileno(), mode)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with ConfigurationError, not usage text and exit."""

    def error(self, message):
        raise ConfigurationError(message)


def _positive_ints(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got '{text}'") from None
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"entries must be >= 1, got '{text}'")
    return values


def _one_mesh(text: str) -> tuple:
    values = _positive_ints(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(f"takes exactly one mesh, got '{text}'")
    return values


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--dim", type=int, choices=(1, 2, 3), default=1,
                        help="space dimension")
    shared.add_argument("--degree", type=int, choices=range(1, 8), default=3,
                        help="spline degree")
    shared.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    shared.add_argument("--out", default=None, help="output path (default: stdout)")
    scheme = _Parser(add_help=False)
    scheme.add_argument("--quadrature", choices=("gauss", "blended"), default="blended",
                        help="full Gauss or dispersion-optimal blended rule")
    scheme.add_argument("--penalty", choices=("on", "off"), default="on",
                        help="boundary penalty")
    parser = _Parser(
        prog="igaspectra",
        description="Spectral approximation of the Dirichlet Laplacian on unit "
                    "boxes with smooth B-splines, blended quadrature and a "
                    "boundary penalty.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, parents, mesh, default, mesh_help in (
        ("spectrum", "full discrete spectrum on one mesh", [shared, scheme],
         _one_mesh, "10", "elements per axis"),
        ("convergence", "errors and rates over a mesh sequence", [shared, scheme],
         _positive_ints, "10,20,40,80",
         "elements per axis of each mesh, comma separated, at least 3, increasing"),
        ("condition", "condition numbers, baseline vs blended + penalty", [shared],
         _one_mesh, "10", "elements per axis"),
    ):
        s = sub.add_parser(name, help=help_text, parents=parents)
        # a string default goes through the type, so it is checked like input
        s.add_argument("--elements", type=mesh, default=default, help=mesh_help)
    sub.choices["convergence"].add_argument("--modes", type=_positive_ints, default="1,6",
                                            help="mode ranks tracked, comma separated")
    return parser


_RUNNERS = {
    "spectrum": run_spectrum,
    "convergence": run_convergence,
    "condition": run_condition,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = _RUNNERS[args.command](args)
        result["config"] = {k: v for k, v in vars(args).items() if k != "out"}
        n = len(next(iter(result["columns"].values())))
        # each block is formatted when the writer asks for it
        blocks = (render(result, args.format, start, start + _BLOCK_ROWS)
                  for start in range(0, n, _BLOCK_ROWS))
        if args.out is None:
            sys.stdout.writelines(blocks)
        else:
            _write_atomic(args.out, blocks)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ResourceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0
