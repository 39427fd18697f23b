"""Command-line front end.

Verb-style subcommands over the library: classification, threshold values,
regime tables, witness constructions, and seeded experiments. Output is JSON
(or a plain table for regime verbs) on stdout; diagnostics go to stderr.

Exit codes: 0 success, 1 domain error, 2 budget or size cap exceeded, or out
of memory (the node budget does not bound bytes, so a verb that runs out of
memory reports ``out of memory: ...`` like an exceeded budget), 3 parse or
usage error, 141 stdout closed before the output was written (128 +
SIGPIPE, as a shell reports a writer killed by a closed pipe). A closed
stderr does not change the exit code: the diagnostic is dropped.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Union

from .errors import Budget, BudgetExceededError, DomainError, GraphFormatError
from .graphs import Graph
from .formats import parse_edge_list, parse_graph6, write_graph6
from .exact import pattern_chi
from .classify import (
    decomposition_family,
    has_forest_in_decomposition_family,
    is_cloud_forest,
    is_near_acyclic,
    is_r_near_acyclic,
    is_thundercloud_forest,
)
from .thresholds import (
    chromatic_threshold,
    chromatic_threshold_star,
    regime_table,
    regime_table_star,
)
from .constructions import ZykovSpec, make_template, search_zykov_witness, zykov
from .harness import (
    GnpParams,
    RNG_NAME,
    check_ambient_properties,
    parse_probability,
    run_template_experiment,
    sample_gnp,
)

SCHEMA = "1"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
EXIT_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_graph_input(sub):
    sub.add_argument("--graph6", help="inline graph6 string")
    sub.add_argument("--edge-list", help="path to an edge-list file")
    sub.add_argument("--stdin", action="store_true",
                     help="read a graph6 string from standard input")


def _add_budget(sub):
    sub.add_argument("--budget", type=_int_at_least(0),
                     help="node budget shared by every search of the verb")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def build_parser() -> _Parser:
    parser = _Parser(prog="threshold-lab", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb in ["classify", "threshold", "threshold-star", "regimes", "regimes-star"]:
        sub = subs.add_parser(verb)
        _add_graph_input(sub)
        _add_budget(sub)
        if verb.startswith("regimes"):
            sub.add_argument("--format", choices=["json", "table"], default="json")

    z = subs.add_parser("zykov", help="build a modified Zykov graph")
    z.add_argument("--trees", required=True,
                   help="comma-separated graph6 codes of the trees")
    z.add_argument("--r", type=int, default=3)
    z.add_argument("--t", type=int, default=1)

    zs = subs.add_parser("zykov-search", help="bounded witness search")
    _add_graph_input(zs)
    _add_budget(zs)
    zs.add_argument("--max-l", type=int, default=2)
    zs.add_argument("--max-t", type=int, default=3)
    zs.add_argument("--max-tree-size", type=int, default=4)

    sa = subs.add_parser("sample", help="sample one G(n,p)")
    sa.add_argument("--n", type=int, required=True)
    sa.add_argument("--p", required=True)
    sa.add_argument("--seed", type=int, default=0)

    ex = subs.add_parser("experiment", help="two-round template embedding trials")
    _add_budget(ex)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--trials", type=_int_at_least(0), default=100)
    ex.add_argument("--config", help="JSON config file (flags override)")
    ex.add_argument("--n", type=int)
    ex.add_argument("--p")
    ex.add_argument("--k", type=int)
    ex.add_argument("--gamma")
    ex.add_argument("--d")

    au = subs.add_parser("audit", help="ambient pseudorandomness report")
    _add_graph_input(au)
    au.add_argument("--seed", type=int, default=0)
    au.add_argument("--p", required=True)
    au.add_argument("--set-size-cap", type=int, default=3)
    au.add_argument("--samples", type=_int_at_least(1), default=200)
    return parser


def _load_graph(args) -> Graph:
    sources = [args.graph6 is not None, args.edge_list is not None,
               bool(getattr(args, "stdin", False))]
    if sum(sources) != 1:
        raise _UsageError("exactly one graph input required "
                          "(--graph6, --edge-list, or --stdin)")
    if args.graph6 is not None:
        return parse_graph6(args.graph6.encode("ascii"))
    if args.edge_list is not None:
        with open(args.edge_list, "rb") as fh:
            return parse_edge_list(fh.read())
    return parse_graph6(sys.stdin.buffer.read().strip())


def _budget(args) -> Budget:
    """The one budget that every search of the verb spends, named after the
    verb. Its limit is ``--budget``, else ``THRESHOLD_LAB_BUDGET`` on the
    verbs that take ``--budget``, else ``DEFAULT_BUDGET``."""
    limit = getattr(args, "budget", None)
    env = os.environ.get("THRESHOLD_LAB_BUDGET")
    if limit is None and env is not None and hasattr(args, "budget"):
        try:
            limit = _int_at_least(0)(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise _UsageError("THRESHOLD_LAB_BUDGET must be an integer of at least 0")
    return Budget(limit, args.verb)


def _opt(witness) -> Optional[dict]:
    return None if witness is None else witness.to_json()


def _cmd_classify(args, budget) -> dict:
    h = _load_graph(args)
    chi = pattern_chi(h, budget)
    cloud = is_cloud_forest(h, budget)
    thunder = is_thundercloud_forest(h, budget)
    near = is_near_acyclic(h, budget)
    out = {
        "chromatic_number": chi,
        "cloud_forest": cloud is not None,
        "thundercloud_forest": thunder is not None,
        "near_acyclic": near is not None,
        "witnesses": {
            "cloud_forest": _opt(cloud),
            "thundercloud_forest": _opt(thunder),
            "near_acyclic": _opt(near),
        },
    }
    if chi >= 3:
        forest = has_forest_in_decomposition_family(h, budget)
        out["forest_in_decomposition_family"] = forest is not None
        out["witnesses"]["forest_in_decomposition_family"] = _opt(forest)
        r_near = is_r_near_acyclic(h, chi, budget)
        out["r_near_acyclic"] = r_near is not None
        if r_near is not None:
            removals, witness = r_near
            out["witnesses"]["r_near_acyclic"] = {
                "removals": removals.to_json(), "near_acyclic": witness.to_json(),
            }
        out["decomposition_family_size"] = len(decomposition_family(h, budget))
    else:
        out["forest_in_decomposition_family"] = None
        out["r_near_acyclic"] = None
    return out


def _cmd_threshold(args, budget) -> dict:
    star = args.verb == "threshold-star"
    solve = chromatic_threshold_star if star else chromatic_threshold
    value, witness = solve(_load_graph(args), budget)
    return {"delta_chi_star" if star else "delta_chi": str(value.lo),
            "value": value.to_json(), "witness": witness}


def _regime_lines(table) -> str:
    width = max(len(r.describe_range()) for r in table.rows)
    lines = []
    for row in table.rows:
        v = row.value
        shown = str(v.lo) if v.kind == "Exact" else (
            f"[{v.lo}, {v.hi}]" if v.kind == "Interval" else "unknown")
        lines.append(f"{row.describe_range():<{width}}  {shown}  ({row.source})")
    return "\n".join(lines)


def _cmd_regimes(args, budget) -> Union[dict, str]:
    solve = regime_table_star if args.verb == "regimes-star" else regime_table
    table = solve(_load_graph(args), budget)
    return _regime_lines(table) if args.format == "table" else table.to_json()


def _cmd_zykov(args, budget) -> dict:
    trees = tuple(parse_graph6(code.strip().encode("ascii"))
                  for code in args.trees.split(","))
    spec = ZykovSpec(trees, args.r, args.t)
    built = zykov(spec)
    return {
        "spec": spec.to_json(),
        "graph6": write_graph6(built.graph).decode("ascii"),
        "vertices": built.graph.n,
        "edges": built.graph.edge_count(),
        **built.roles_json(),
    }


def _cmd_zykov_search(args, budget) -> dict:
    h = _load_graph(args)
    found = search_zykov_witness(h, args.max_l, args.max_t,
                                 args.max_tree_size, budget)
    if found is None:
        return {"found": False, "note": "not found within bounds"}
    spec, emb = found
    return {"found": True, "spec": spec.to_json(), "embedding": list(emb.mapping)}


def _rational(value, name: str) -> Fraction:
    """``value``, the text of a flag or a JSON string or number from a
    config, as an exact rational. Anything else is a parse error."""
    # JSON true and false read as Python ints, but they are not numbers
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError):  # text, 1/0, NaN, Infinity
            pass
    raise ValueError(f"{name} is not a rational number: {value!r}")


def _cmd_sample(args, budget) -> dict:
    params = GnpParams(args.n, parse_probability(_rational(args.p, "p")), args.seed)
    g = sample_gnp(params)
    return {"params": params.to_json(),
            "graph6": write_graph6(g).decode("ascii"),
            "edges": g.edge_count()}


def _cmd_experiment(args, budget) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"{args.config}: config is not a JSON object")
        unknown = sorted(cfg.keys() - {"n", "p", "k", "gamma", "d"})
        if unknown:
            raise _UsageError(f"{args.config}: unknown config fields {unknown}")

    def field(name, default=None):  # a flag overrides the config
        flag = getattr(args, name)
        return flag if flag is not None else cfg.get(name, default)

    n, p, k = field("n"), field("p"), field("k")
    if n is None or p is None or k is None:
        raise _UsageError("experiment requires n, p, and k (flags or config)")
    for name, value in (("n", n), ("k", k)):
        if type(value) is not int:
            raise ValueError(f"{name} is not an integer: {value!r}")
    p = _rational(p, "p")
    gamma = _rational(field("gamma", "1/10"), "gamma")
    d = _rational(field("d", "3/5"), "d")
    template = make_template(Graph.complete(k), n, k)
    report = run_template_experiment(template, n, parse_probability(p),
                                     args.seed, args.trials, gamma, d, budget)
    return {"trials": report.trials, "successes": report.successes,
            "rng": RNG_NAME,
            "per_trial": list(report.per_trial), "summary": report.summary}


def _cmd_audit(args, budget) -> dict:
    g = _load_graph(args)
    return check_ambient_properties(g, parse_probability(_rational(args.p, "p")),
                                    args.set_size_cap, args.samples, args.seed)


_COMMANDS = {
    "classify": _cmd_classify,
    "threshold": _cmd_threshold,
    "threshold-star": _cmd_threshold,
    "regimes": _cmd_regimes,
    "regimes-star": _cmd_regimes,
    "zykov": _cmd_zykov,
    "zykov-search": _cmd_zykov_search,
    "sample": _cmd_sample,
    "experiment": _cmd_experiment,
    "audit": _cmd_audit,
}


@functools.cache
def _parser() -> _Parser:
    """The parser of ``main``, built on its first call: building it costs
    more than most verbs do, and importing the module stays cheap."""
    return build_parser()


def _report(code: int, message: str) -> int:
    """Print a diagnostic to stderr and return ``code``, also when stderr is
    closed."""
    try:
        print(message, file=sys.stderr)
        sys.stderr.flush()
    except BrokenPipeError:
        _to_devnull(sys.stderr)
    return code


def _to_devnull(stream) -> None:
    # The reader is gone. Point the stream at devnull so that the flush at
    # interpreter exit does not raise a second time.
    fd = os.open(os.devnull, os.O_WRONLY)
    os.dup2(fd, stream.fileno())
    os.close(fd)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        out = _COMMANDS[args.verb](args, _budget(args))
    except _UsageError as exc:
        return _report(EXIT_USAGE, f"usage error: {exc}")
    except GraphFormatError as exc:
        return _report(EXIT_USAGE, f"parse error: {exc}")
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _report(EXIT_USAGE, f"parse error: {exc}")
    except BudgetExceededError as exc:
        return _report(EXIT_BUDGET, f"budget exceeded: {exc}")
    except MemoryError as exc:
        return _report(EXIT_BUDGET, f"out of memory: {exc}")
    except DomainError as exc:
        return _report(EXIT_DOMAIN, f"domain error: {exc}")
    if not isinstance(out, str):  # a JSON payload, not a plain-text table
        out = json.dumps({"schema": SCHEMA, "verb": args.verb, **out}, sort_keys=True)
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        return EXIT_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
