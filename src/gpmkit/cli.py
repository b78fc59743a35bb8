"""Command line driver: build, solve and export moment SDP problems.

    gpm build <file> [--order r]
    gpm solve <file> [--order r] [--eps e] [--json path] [--seed s]
    gpm export <file> [--order r] --format sdpa|json -o path

Model files use the DSL of the dsl module.  An `order` statement in the
file sets the default relaxation order; --order overrides it, and --eps
overrides the default solver tolerance.

Exit codes: 0 success, 1 I/O error, 2 parse or modeling error or an
invalid --eps, 3 assembly error, 4 solver failure (status -1).  Text
output rounds to 4 decimals; the JSON report keeps full precision.  A
moment the solve left undetermined, and the rank of a truncation that
holds one, is null in the JSON report and "undetermined" or "-" in the
text.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

from .conic import ConicError, SolverParams, presolve_eliminate_equalities, to_conic
from .certify import solve_gpm
from .dsl import ParseError, build, parse_source
from .formats import export_json, export_sdpa
from .model import ModelError
from .polynomials import PolyError, basis_size
from .relaxation import AssemblyError, assemble, format_block_sizes, mvec

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_ASSEMBLY = 3
EXIT_SOLVE = 4


@dataclass
class RunReport:
    """Everything one run produced: counts, solver stats, results."""

    file: str
    order: int
    assembly: dict
    solver: object = None
    status: object = None
    objective: object = None
    certified: object = None
    measures: object = None

    def to_text(self):
        lines = _assembly_text(self.assembly)
        if self.solver is None:
            return "\n".join(lines)
        lines.append("")
        lines.append("Solve moment SDP problem")
        lines.append(f"  Solver status    = {self.solver['status']}")
        if self.solver["message"]:
            lines.append(f"  Solver message   = {self.solver['message']}")
        lines.append(f"  Iterations       = {self.solver['iterations']}")
        lines.append(f"  PSD blocks       = {format_block_sizes(self.solver['blocks'])}")
        lines.append(f"  Primal residual  = {self.solver['pinf']:.1e}")
        lines.append(f"  Dual residual    = {self.solver['dinf']:.1e}")
        lines.append(f"  Duality gap      = {self.solver['gap']:.1e}")
        npoints = sum(
            len(m["points"]) for m in self.measures if m.get("points") is not None
        )
        if self.status == 1 and npoints:
            plural = "s" if npoints != 1 else ""
            lines.append(f"{npoints} globally optimal solution{plural} extracted")
        if self.status == 1:
            lines.append("Global optimality certified numerically")
        elif self.status == 0:
            lines.append("Global optimality cannot be ensured")
        else:
            lines.append("SDP could not be solved")
        lines.append(f"status = {self.status}")
        if self.objective is None:
            lines.append("obj = none")
        else:
            lines.append(f"obj = {self.objective:.4f}")
        for entry in self.measures:
            if entry["ranks"] is not None:
                ranks = " ".join("-" if r is None else str(r) for r in entry["ranks"])
                t, at = entry["flat_truncation"], entry["extracted_at"]
                lines.append(
                    f"Measure {entry['label']}: ranks by degree = {ranks}, "
                    f"flat truncation = {'none' if t is None else t}, "
                    f"extracted at = {'none' if at is None else at}"
                )
            symmetry = entry["symmetry"]
            if symmetry is None:
                lines.append(f"Measure {entry['label']}: sign symmetry = none")
            else:
                flips = "; ".join(",".join(g) for g in symmetry["generators"])
                blocks = symmetry["blocks"]
                lines.append(
                    f"Measure {entry['label']}: sign flips = {flips}, "
                    f"pinned moments = {symmetry['pinned']}, blocks = "
                    f"{'unsplit' if blocks is None else format_block_sizes(blocks)}"
                )
            normalized = entry["normalized"]
            boxes = "none" if normalized is None else ", ".join(
                f"{name} on [{c - h:g}, {c + h:g}]" for name, (c, h) in normalized.items()
            )
            lines.append(f"Measure {entry['label']}: box normalization = {boxes}")
            perms = entry["permutations"]
            if perms is None:
                lines.append(f"Measure {entry['label']}: permutation symmetry = none")
            else:
                gens = "; ".join(
                    "".join(f"({' '.join(cycle)})" for cycle in g) for g in perms["generators"]
                )
                orbits = "unreduced" if perms["orbits"] is None else perms["orbits"]
                lines.append(
                    f"Measure {entry['label']}: permutations = {gens}, "
                    f"moments = {perms['moments']}, orbits = {orbits}"
                )
            if entry.get("points") is not None:
                points = entry["points"]
                weights = entry["weights"]
                lines.append(f"Measure {entry['label']}: {len(points)} point(s)")
                for k, (point, weight) in enumerate(zip(points, weights), start=1):
                    coords = ", ".join(f"{v:.4f}" for v in point)
                    lines.append(f"  point {k}, weight {weight:.4f}: ({coords})")
            moments = entry.get("moments")
            if moments:
                shown = [
                    (name, value)
                    for name, value, degree in moments if degree <= 2
                ]
                lines.append(
                    f"Moments of measure {entry['label']} up to degree 2:"
                )
                for name, value in shown:
                    lines.append(f"  {name} = {'undetermined' if value is None else f'{value:.4f}'}")
                if entry["undetermined"]:
                    lines.append(
                        f"Measure {entry['label']}: {entry['undetermined']} moments undetermined"
                    )
        return "\n".join(lines)


def _assembly_dict(report):
    measures = [
        {
            "label": label,
            "variables": report.measure_nvars[label],
            "moments": basis_size(report.measure_nvars[label], 2 * report.order),
        }
        for label in report.measure_labels
    ]
    return {
        "order": report.order,
        "measures": measures,
        "support_constraints": report.n_support_constraints,
        "support_substitutions": report.n_support_substitutions,
        "moment_constraints": report.n_moment_constraints,
        "moment_substitutions": report.n_moment_substitutions,
        "default_mass": list(report.default_mass_labels),
        "total_monomials": report.total_monomials,
        "decision_variables": report.n_decision_vars,
        "linear_equalities": report.n_lin_eq,
        "linear_inequalities": report.n_lin_ineq,
        "blocks": list(report.block_sizes),
        "block_description": format_block_sizes(report.block_sizes),
    }


def _assembly_text(asm):
    lines = ["Define moment SDP problem"]
    lines.append(
        f"  Number of support constraints = {asm['support_constraints']}"
        f" including {asm['support_substitutions']} substitutions"
    )
    lines.append(f"  Number of moment constraints = {asm['moment_constraints']}")
    for entry in asm["measures"]:
        lines.append(f"Measure {entry['label']}")
        lines.append(f"  Number of variables = {entry['variables']}")
        lines.append(f"  Number of moments = {entry['moments']}")
    lines.append(f"Order of SDP relaxation = {asm['order']}")
    for label in asm["default_mass"]:
        lines.append(f"Mass of measure {label} set to one")
    lines.append(f"Total number of monomials = {asm['total_monomials']}")
    lines.append(
        f"Number of monomials after substitution = {asm['decision_variables']}"
    )
    lines.append("")
    lines.append("Moment SDP problem")
    labels = ",".join(str(e["label"]) for e in asm["measures"])
    lines.append(f"  {'Measure label':<25} = {labels}")
    lines.append(f"  {'Relaxation order':<25} = {asm['order']}")
    lines.append(f"  {'Decision variables':<25} = {asm['decision_variables']}")
    if asm["linear_equalities"]:
        lines.append(f"  {'Linear equalities':<25} = {asm['linear_equalities']}")
    if asm["linear_inequalities"]:
        lines.append(f"  {'Linear inequalities':<25} = {asm['linear_inequalities']}")
    if asm["blocks"]:
        lines.append(
            f"  {'Semidefinite inequalities':<25} = {asm['block_description']}"
        )
    return lines


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return build(parse_source(text, filename=path))


def cmd_build(path, order=None):
    """Parse and assemble a model file; report bookkeeping only."""
    built = _load(path)
    msdp = assemble(built.problem, order if order is not None else built.order)
    return RunReport(
        file=path,
        order=msdp.order,
        assembly=_assembly_dict(msdp.report),
    )


def cmd_solve(path, order=None, params=None, json_path=None, seed=0):
    """Run the full pipeline on a model file and report the outcome."""
    built = _load(path)
    sol = solve_gpm(
        built.problem,
        order=order if order is not None else built.order,
        params=params,
        seed=seed,
    )
    conic = sol.conic
    # c'x and b'y of the conic problem, in the model's sense and offset
    sign = 1.0 if sol.msdp.sense == "max" else -1.0
    offset = float(sol.msdp.objective.const[0])
    solver = {
        "status": conic.status,
        "iterations": conic.iterations,
        "pinf": conic.pinf,
        "dinf": conic.dinf,
        "gap": conic.gap,
        "primal_objective": offset + sign * conic.pobj,
        "dual_objective": offset + sign * conic.dobj,
        "message": conic.message,
        "blocks": list(conic.blocks),
    }
    measures = []
    for measure in sol.msdp.problem.measures:
        entry = {"label": measure.label, "variables": measure.nvars}
        if sol.certificate is None:
            entry["ranks"] = entry["flat_truncation"] = entry["extracted_at"] = None
        else:
            flat = sol.certificate.flatness[measure.label]
            entry["ranks"] = [flat.ranks_by_degree[d] for d in range(sol.order + 1)]
            entry["flat_truncation"] = flat.truncation
            # the degree t of the M_t the atoms came from, when extraction succeeded
            ext = sol.certificate.extractions.get(measure.label)
            entry["extracted_at"] = ext.degree if ext is not None and ext.success else None
        entry["symmetry"] = sol.symmetry.get(measure.label)
        # {name: [c, h]} of each variable solved as u in [-1, 1], x = c + h u
        entry["normalized"] = sol.normalized.get(measure.label)
        entry["permutations"] = sol.permutations.get(measure.label)
        moments = sol.moments.get(measure.label)
        entry["undetermined"] = 0
        if moments is not None:
            # a moment the solve left undetermined (NaN) is written as null
            entry["moments"] = [
                (repr(p), None if math.isnan(value) else value, p.degree)
                for p, value in zip(mvec(sol.msdp, measure), moments.tolist())
            ]
            entry["undetermined"] = sum(value is None for _, value, _ in entry["moments"])
        if sol.status == 1 and measure.support_points is not None:
            entry["points"] = [list(map(float, p)) for p in measure.support_points]
            entry["weights"] = [float(w) for w in measure.weights]
        else:
            entry["points"] = None
            entry["weights"] = None
        measures.append(entry)
    report = RunReport(
        file=path,
        order=sol.order,
        assembly=_assembly_dict(sol.msdp.report),
        solver=solver,
        status=sol.status,
        objective=sol.objective,
        certified=None if sol.certificate is None else sol.certificate.certified,
        measures=measures,
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(asdict(report), handle, indent=2, allow_nan=False)
            handle.write("\n")
    return report


def cmd_export(path, fmt, out, order=None):
    """Assemble a model file and write its conic problem to disk."""
    built = _load(path)
    msdp = assemble(built.problem, order if order is not None else built.order)
    conic = to_conic(msdp)
    if fmt == "sdpa":
        if conic.cone.f:
            pre = presolve_eliminate_equalities(conic)
            if pre.status == "infeasible":
                raise ConicError(
                    "equality rows are inconsistent; nothing to export"
                )
            conic = pre.problem
            if conic.offset:
                print(
                    f"note: objective offset {conic.offset!r} is not "
                    "representable in sdpa; add it to the solved objective",
                    file=sys.stderr,
                )
        export_sdpa(conic, out)
    else:
        export_json(conic, out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gpm",
        description="Model and solve generalized problems of moments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="parse and assemble only")
    p_build.add_argument("file")
    p_build.add_argument("--order", type=int, default=None)

    p_solve = sub.add_parser("solve", help="solve and certify")
    p_solve.add_argument("file")
    p_solve.add_argument("--order", type=int, default=None)
    p_solve.add_argument("--eps", type=float, default=None)
    p_solve.add_argument("--json", dest="json_path", default=None)
    p_solve.add_argument("--seed", type=int, default=0)

    p_export = sub.add_parser("export", help="write the conic problem")
    p_export.add_argument("file")
    p_export.add_argument("--order", type=int, default=None)
    p_export.add_argument("--format", dest="fmt", choices=("sdpa", "json"),
                          required=True)
    p_export.add_argument("-o", "--output", dest="out", required=True)

    args = parser.parse_args(argv)
    if args.command == "solve":
        try:
            params = SolverParams() if args.eps is None else SolverParams(eps=args.eps)
        except ConicError as exc:
            print(f"error: --eps: {exc}", file=sys.stderr)
            return EXIT_PARSE
    try:
        if args.command == "build":
            report = cmd_build(args.file, order=args.order)
            print(report.to_text())
            return EXIT_OK
        if args.command == "solve":
            report = cmd_solve(
                args.file,
                order=args.order,
                params=params,
                json_path=args.json_path,
                seed=args.seed,
            )
            print(report.to_text())
            return EXIT_OK if report.status >= 0 else EXIT_SOLVE
        cmd_export(args.file, args.fmt, args.out, order=args.order)
        return EXIT_OK
    except (ParseError, ModelError, PolyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (AssemblyError, ConicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSEMBLY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
