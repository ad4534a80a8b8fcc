"""Command-line front end: derive schemes, run solves, dump spectra.

Every output file is CSV with a ``#``-prefixed metadata header carrying
the command line, code version, scheme provenance, and the boundary/
forcing conventions, so an experiment can be re-run exactly from its
output alone.  Exit codes: 0 ok/converged, 1 optimizer non-convergence,
2 stagnated, 3 diverged, 4 cycle budget exhausted, 64 usage error.
``derive`` evaluates a closed form that always converges, so it never
exits 1; the code stays reserved for it.
"""

import argparse
import csv
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .amplification import Scheme, amp_grid, slope_at_one
from .catalog import (
    C_RATIO_KEYS,
    SchemeFileError,
    SchemeNotFoundError,
    catalog_keys,
    load_scheme,
    lookup,
    normalize_c_key,
    save_scheme,
    slope_table,
)
from .optimizer import derive_scheme
from .pde import AdvectionDiffusionSpec1D, AdvectionDiffusionSpec2D, build_1d, build_2d
from .solver import BUDGET_EXHAUSTED, CONVERGED, DIVERGED, STAGNATED, SolveConfig, run_srj
from .spectral import jacobi_eigenvalues, rank_schemes
from .sparse import read_matrix_market, write_matrix_market

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_STAGNATED = 2
EXIT_DIVERGED = 3
EXIT_BUDGET = 4
EXIT_USAGE = 64

_STATUS_EXIT = {
    CONVERGED: EXIT_OK,
    STAGNATED: EXIT_STAGNATED,
    DIVERGED: EXIT_DIVERGED,
    BUDGET_EXHAUSTED: EXIT_BUDGET,
}

BC_NOTE = "dirichlet(left/bottom)=0, neumann(right/top) via ghost reflection"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class Manifest:
    """Reproducibility header embedded in every output file."""

    command: str
    argv: list
    extras: dict

    def lines(self):
        out = [
            f"# tool: srj {__version__}",
            "# command: srj " + " ".join(self.argv),
            f"# timestamp: {datetime.now(timezone.utc).isoformat()}",
        ]
        out.extend(f"# {key}: {value}" for key, value in self.extras.items())
        return out


def _open_out(path):
    return sys.stdout if path in (None, "-") else open(path, "w", newline="")


def _write_csv(path, manifest, header, rows):
    stream = _open_out(path)
    try:
        for line in manifest.lines():
            stream.write(line + "\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if stream is not sys.stdout:
            stream.close()


def parse_c_ratio(text):
    """Aspect ratio from a 'p/q' rational or decimal literal."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad aspect ratio {text!r}; use a decimal or p/q rational") from None
    if not 0.0 <= value <= 1.0:
        raise UsageError(f"aspect ratio must lie in [0, 1], got {text}")
    return value


def parse_scheme_ref(text):
    """Resolve 'catalog:M,c', 'jacobi:M', or a scheme file path."""
    if text.startswith("catalog:"):
        body = text[len("catalog:"):]
        try:
            m_text, c_text = body.split(",", 1)
            m = int(m_text)
        except ValueError:
            raise UsageError(f"bad catalog reference {text!r}; expected catalog:M,c") from None
        return text, lookup(m, c_text)
    if text.startswith("jacobi:"):
        try:
            m = int(text[len("jacobi:"):])
        except ValueError:
            raise UsageError(f"bad jacobi reference {text!r}; expected jacobi:M") from None
        if m < 1:
            raise UsageError("jacobi:M needs M >= 1")
        return text, Scheme(factors=(1.0,) * m)
    return text, load_scheme(text)


def _solve_config(args):
    return SolveConfig(
        tolerance=args.tol,
        max_cycles=args.max_cycles,
        initial_guess=args.init,
        stagnation_window=args.stagnation_window,
        divergence_factor=args.divergence_factor,
    )


def _add_solve_flags(parser):
    parser.add_argument("--scheme", required=True, help="catalog:M,c | jacobi:M | scheme file")
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--max-cycles", type=int, default=20000)
    parser.add_argument("--init", default="ones", choices=("ones", "zeros"))
    parser.add_argument("--stagnation-window", type=int, default=10)
    parser.add_argument("--divergence-factor", type=float, default=1e6)
    parser.add_argument("--history", default=None, help="write per-iteration residual CSV here")
    parser.add_argument("--export-mm", default=None, metavar="PREFIX",
                        help="export system as PREFIX.mtx / PREFIX_rhs.txt")


def _run_solve(args, A, b, manifest_extras, argv, command):
    label, scheme = parse_scheme_ref(args.scheme)
    if args.export_mm:
        write_matrix_market(A, args.export_mm + ".mtx")
        np.savetxt(args.export_mm + "_rhs.txt", b)
    solution, history = run_srj(A, b, scheme, _solve_config(args))
    if args.history:
        manifest = Manifest(command, argv, dict(manifest_extras, scheme=label,
                                                factors=list(scheme.factors)))
        rows = []
        m = scheme.m
        for t, res in enumerate(history.residuals):
            omega = "" if t == 0 else scheme.factors[(t - 1) % m]
            cycle = 0 if t == 0 else (t - 1) // m + 1
            rows.append([t, cycle, omega, repr(float(res))])
        _write_csv(args.history, manifest, ["iteration", "cycle", "omega_applied", "residual_l2"], rows)
    print(
        f"status={history.status} cycles={history.cycles_used} "
        f"iterations={history.iterations} final_residual={history.final_residual:.6e}"
    )
    return _STATUS_EXIT[history.status]


def cmd_derive(args, argv):
    m = args.m
    if not 2 <= m <= 32:
        raise UsageError(f"--m must lie in [2, 32], got {m}")
    c = parse_c_ratio(args.c)
    result = derive_scheme(m, c)
    scheme = result.scheme
    print(f"m={m} c={args.c} g_bar={result.g_bar:.8f} converged={result.converged} "
          f"iterations={result.iterations} max_violation={result.max_constraint_violation:.3e} "
          f"boundary_max={result.boundary_max:.8f}")
    for w in scheme.factors:
        print(format(w, ".17g"))
    c_key = normalize_c_key(args.c)
    if c_key is not None and 2 <= m <= 20:
        published = np.sort(np.array(lookup(m, c_key).factors))[::-1]
        derived = np.array(scheme.factors)
        deviation = float(np.max(np.abs(derived - published) / published))
        print(f"catalog_comparison: max_rel_deviation={deviation:.3e} vs catalog:{m},{c_key}")
    if args.out:
        save_scheme(scheme, args.out, converged=result.converged)
        print(f"wrote {args.out}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_solve1d(args, argv):
    spec = AdvectionDiffusionSpec1D(n=args.n, nu=args.nu, a=args.a)
    A, b = build_1d(spec)
    extras = {
        "problem": f"advection-diffusion-1d n={args.n} nu={args.nu} a={args.a}",
        "bc": BC_NOTE,
        "forcing": spec.forcing,
    }
    return _run_solve(args, A, b, extras, argv, "solve1d")


def cmd_solve2d(args, argv):
    spec = AdvectionDiffusionSpec2D(nx=args.nx, ny=args.ny, nu=args.nu, ax=args.ax, ay=args.ay)
    A, b = build_2d(spec)
    extras = {
        "problem": f"advection-diffusion-2d nx={args.nx} ny={args.ny} nu={args.nu} ax={args.ax} ay={args.ay}",
        "bc": BC_NOTE,
        "forcing": spec.forcing,
    }
    return _run_solve(args, A, b, extras, argv, "solve2d")


def _parse_sweep(text):
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, step = map(float, parts)
            if step <= 0 or stop < start:
                raise ValueError
            return list(np.arange(start, stop + step / 2, step))
    except ValueError:
        pass
    raise UsageError(f"bad sweep {text!r}; use a single value or start:stop:step")


def _default_spectrum_schemes():
    refs = [f"catalog:5,{key}" for key in C_RATIO_KEYS] + ["jacobi:5"]
    return refs


def cmd_spectrum(args, argv):
    refs = args.schemes or _default_spectrum_schemes()
    schemes = dict(parse_scheme_ref(ref) for ref in refs)
    rows = []
    if args.import_mm:
        sweeps = [("imported", read_matrix_market(args.import_mm))]
        problem = f"matrix-market:{args.import_mm}"
    else:
        sweeps = []
        for a in _parse_sweep(args.a):
            spec = AdvectionDiffusionSpec1D(n=args.n, nu=args.nu, a=a)
            A, _ = build_1d(spec)
            sweeps.append((a, A))
        problem = f"advection-diffusion-1d n={args.n} nu={args.nu} a-sweep={args.a}"

    for a_value, A in sweeps:
        eigenvalues = jacobi_eigenvalues(A)
        for index, ev in enumerate(eigenvalues):
            rows.append(["eigenvalue", a_value, index, repr(float(ev.real)), repr(float(ev.imag))])
        for rank, (label, _, rho) in enumerate(rank_schemes(eigenvalues, schemes), start=1):
            rows.append(["scheme_radius", a_value, label, repr(rho), rank])
    manifest = Manifest("spectrum", argv, {"problem": problem, "bc": BC_NOTE,
                                           "schemes": " ".join(refs)})
    _write_csv(args.out, manifest, ["record", "advection", "key", "value", "aux"], rows)
    return EXIT_OK


def cmd_slope_table(args, argv):
    table = slope_table()
    rows = []
    for m in range(2, 21):
        rows.append([m] + [repr(table[(m, key)]) for key in C_RATIO_KEYS] + [repr(table[(m, "jacobi")])])
    manifest = Manifest("slope-table", argv, {"columns": "per-scheme amplification slope at lambda=1"})
    _write_csv(args.out, manifest, ["m"] + list(C_RATIO_KEYS) + ["jacobi"], rows)
    return EXIT_OK


def cmd_catalog(args, argv):
    if args.action == "list":
        for m, c_key in catalog_keys():
            print(f"catalog:{m},{c_key}")
        return EXIT_OK
    if not args.m or args.c is None:
        raise UsageError(f"catalog {args.action} needs --m and --c")
    scheme = lookup(args.m, args.c)
    if args.action == "show":
        print(f"m={scheme.m} c={args.c} g_bar={scheme.g_bar:.12f} slope={slope_at_one(scheme):.6f}")
        for w in scheme.factors:
            print(format(w, ".17g"))
        return EXIT_OK
    save_scheme(scheme, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_amp_grid(args, argv):
    label, scheme = parse_scheme_ref(args.scheme)
    grid = amp_grid(scheme, (args.xmin, args.xmax), (args.ymin, args.ymax), (args.nx, args.ny))
    xs = np.linspace(args.xmin, args.xmax, args.nx)
    ys = np.linspace(args.ymin, args.ymax, args.ny)
    rows = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            rows.append([repr(float(x)), repr(float(y)), repr(float(grid[j, i]))])
    manifest = Manifest("amp-grid", argv, {"scheme": label, "factors": list(scheme.factors)})
    _write_csv(args.out, manifest, ["re", "im", "amplification_magnitude"], rows)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="srj", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="closed-form scheme for an ellipse")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", required=True, help="ellipse aspect ratio (decimal or p/q)")
    p.add_argument("--out", default=None, help="write the scheme file here")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("solve1d", help="solve a 1D advection-diffusion system")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.0)
    _add_solve_flags(p)
    p.set_defaults(func=cmd_solve1d)

    p = sub.add_parser("solve2d", help="solve a 2D advection-diffusion system")
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--ny", type=int, default=256)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--ax", type=float, default=0.0)
    p.add_argument("--ay", type=float, default=0.0)
    _add_solve_flags(p)
    p.set_defaults(func=cmd_solve2d)

    p = sub.add_parser("spectrum", help="dump Jacobi spectrum and per-scheme radii")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--a", default="0", help="advection value or start:stop:step sweep")
    p.add_argument("--schemes", nargs="*", default=None)
    p.add_argument("--import-mm", default=None, help="read the matrix from a Matrix Market file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("slope-table", help="per-scheme amplification slopes at lambda=1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_slope_table)

    p = sub.add_parser("catalog", help="list, show, or export bundled schemes")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--c", default=None)
    p.add_argument("--out", default="scheme.txt")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("amp-grid", help="sample |amplification| on a complex-plane grid")
    p.add_argument("--scheme", required=True)
    p.add_argument("--xmin", type=float, default=-1.0)
    p.add_argument("--xmax", type=float, default=1.0)
    p.add_argument("--ymin", type=float, default=-1.0)
    p.add_argument("--ymax", type=float, default=1.0)
    p.add_argument("--nx", type=int, default=101)
    p.add_argument("--ny", type=int, default=101)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_amp_grid)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemeNotFoundError, SchemeFileError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
