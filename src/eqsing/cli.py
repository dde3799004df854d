"""Command-line front end.

Subcommands:
  analyze FILE [--cap N] [--format text|machine]
  catalog list [--setting z2|corner]
  catalog emit SYMBOL [--k K] [--m M --n N --modulus Q --poly] [--out FILE]
  catalog verdict SYMBOL [--k K] [--cap N] [--format text|machine]
  mu FILE [--max-degree D] [--oracle w1,w2,...] [--corner]

`analyze` takes the character from the file's character line.  `mu`
prints the dimension of every character as `isotypic.<signs>=<dim>`,
one sign per generator in generator order: `isotypic.+-=2` on M4 with
`--corner` is the character s1 = +1, s2 = -1.

Exit codes: 0 simple (or plain success), 1 not-simple, 2 error, 3 unknown.
The machine format is a stable line-oriented key=value schema; every
field is reproducible from the input file alone, so timings appear only
in the text format.  Each subcommand imports the layers it runs, so a
request loads no layer it does not need.
"""
import argparse
import sys
import time

from .errors import EqsingError, parse_int, parse_rational

EXIT_SIMPLE = 0
EXIT_NOT_SIMPLE = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3


def _csv(vec):
    return ",".join(str(x) for x in vec)


def _combo(vec, labels):
    """Pretty linear combination like `2Δ1 - Δ6 - Δ7`."""
    parts = []
    for c, lab in zip(vec, labels):
        if c == 0:
            continue
        if c == 1:
            term = lab
        elif c == -1:
            term = f"-{lab}"
        else:
            term = f"{c}{lab}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def _generator_names(outcome):
    """h1, ..., hr: the names certificate words give the generator roots."""
    return [f"h{k}" for k in range(1, len(outcome.generators) + 1)]


def _machine_report(source, dfile, outcome):
    sub = outcome.sublattice
    lines = [f"input={source}", f"ambient.rank={dfile.diagram.rank}"]
    gens = ",".join(name for name, _ in dfile.generators)
    lines.append(f"action.generators={gens}")
    if dfile.character is not None:
        lines.append(
            "action.character="
            + ",".join(f"{n}:{'+1' if v > 0 else '-1'}" for n, v in dfile.character)
        )
    else:
        lines.append("action.character=")
    lines.append(f"isotypic.rank={sub.rank}")
    for i, b in enumerate(sub.basis, 1):
        lines.append(f"isotypic.basis.{i}={_csv(b)}")
    for i, row in enumerate(sub.restricted_gram, 1):
        lines.append(f"gram.{i}={_csv(row)}")
    lines.append(f"inertia={_csv(outcome.inertia.as_tuple())}")
    lines.append(f"kernel.rank={len(outcome.kernel)}")
    for i, (v, va) in enumerate(zip(outcome.kernel, outcome.kernel_ambient), 1):
        lines.append(f"kernel.delta.{i}={_csv(v)}")
        lines.append(f"kernel.ambient.{i}={_csv(va)}")
    lines.append(
        "monodromy.generators=" + ",".join(_generator_names(outcome))
    )
    v = outcome.verdict
    lines.append(f"monodromy.verdict={v.kind}")
    if v.kind == "finite":
        lines.append(f"monodromy.order={v.order}")
    elif v.kind == "infinite":
        lines.append("monodromy.certificate.word=" + "*".join(v.certificate.word))
        for i, row in enumerate(v.certificate.matrix, 1):
            lines.append(f"monodromy.certificate.matrix.{i}={_csv(row)}")
        if v.witness is not None:
            lines.append(f"monodromy.certificate.v={_csv(v.witness)}")
            lines.append(f"monodromy.certificate.w={_csv(v.increment)}")
            lines.append(
                f"monodromy.certificate.w.ambient={_csv(sub.embed(v.increment))}"
            )
        if v.residual_charpoly is not None:
            lines.append(
                f"monodromy.certificate.residual_charpoly={_csv(v.residual_charpoly)}"
            )
    else:
        lines.append(f"monodromy.cap={v.cap}")
    lines.append(f"criteria.agree={'true' if outcome.criteria_agree else 'false'}")
    lines.append(f"simple={'true' if outcome.simple else 'false'}")
    return "\n".join(lines) + "\n"


def _text_report(source, dfile, outcome, elapsed):
    sub = outcome.sublattice
    amb = sub.ambient
    dl = [f"δ{i + 1}" for i in range(sub.rank)]
    out = [f"== analysis: {source}"]
    out.append(f"ambient lattice: rank {dfile.diagram.rank}")
    if dfile.generators:
        names = ", ".join(n for n, _ in dfile.generators)
        out.append(f"action: {names}")
        if dfile.character is not None:
            out.append(
                "character: "
                + " ".join(f"{n}={'+1' if v > 0 else '-1'}" for n, v in dfile.character)
            )
    else:
        out.append("action: trivial")
    out.append(f"isotypic sublattice: rank {sub.rank}")
    for i, b in enumerate(sub.basis):
        out.append(f"  {dl[i]} = {_combo(b, amb.labels)}")
    out.append("restricted gram:")
    for row in sub.restricted_gram:
        out.append("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    sig = outcome.inertia
    shape = (
        "negative definite"
        if sig.negative_definite
        else "negative semidefinite" if sig.negative_semidefinite else "indefinite"
    )
    out.append(f"inertia (n+, n0, n-): {sig.as_tuple()}  [{shape}]")
    out.append(f"kernel basis (rank {len(outcome.kernel)}):")
    for v, va in zip(outcome.kernel, outcome.kernel_ambient):
        out.append(f"  {_combo(v, dl)}  =  {_combo(va, amb.labels)}")
    out.append(
        "monodromy generators: "
        + ", ".join(_generator_names(outcome))
        + " (orbit reflections)"
    )
    v = outcome.verdict
    if v.kind == "finite":
        out.append(f"verdict: Finite, order {v.order}")
    elif v.kind == "infinite":
        out.append("verdict: Infinite")
        out.append(f"  certificate g = {'*'.join(v.certificate.word)}")
        if v.witness is not None:
            out.append(
                f"  law g^s v = v + s*w with v = {_combo(v.witness, dl)}, "
                f"w = {_combo(v.increment, dl)}"
            )
            out.append(f"  w in ambient coordinates: {_combo(sub.embed(v.increment), amb.labels)}")
        if v.residual_charpoly is not None:
            out.append(f"  charpoly factor x^2 - t x + 1, |t| > 2: {list(v.residual_charpoly)}")
    else:
        out.append(f"verdict: Unknown (monodromy undecided at cap {v.cap})")
    out.append(f"simple: {'YES' if outcome.simple else 'NO'}")
    out.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(out) + "\n"


def _write_verdict(args, source, dfile):
    """Run the criterion on `dfile` at `args.cap`, write the report in the
    format asked for, and return the verdict's exit code."""
    from .monodromy import run_analysis

    t0 = time.monotonic()
    outcome = run_analysis(dfile, cap=args.cap)
    if args.format == "machine":
        sys.stdout.write(_machine_report(source, dfile, outcome))
    else:
        sys.stdout.write(_text_report(source, dfile, outcome, time.monotonic() - t0))
    if outcome.verdict.kind == "unknown":
        return EXIT_UNKNOWN
    return EXIT_SIMPLE if outcome.simple else EXIT_NOT_SIMPLE


def cmd_analyze(args):
    from .diagram import parse_file

    with open(args.file) as fh:
        text = fh.read()
    return _write_verdict(args, args.file, parse_file(text))


def cmd_catalog_list(args):
    from . import catalog

    simple = [catalog.FAMILIES[s] for s in catalog.SIMPLE_SYMBOLS]
    confining = catalog.confining_list(args.setting)
    print(f"simple families (setting={args.setting}): {len(simple)}")
    for e in simple:
        print(f"  {e.describe()}: {e.template}")
    print(f"confining families: {len(confining)}")
    for e in confining:
        print(f"  {e.describe()}: {e.template}")
    return EXIT_SIMPLE


def cmd_catalog_emit(args):
    for option in ("m", "n", "modulus"):
        if getattr(args, option) is not None and not args.poly:
            raise EqsingError(f"--{option} applies only with --poly")
    from . import catalog
    from .diagram import serialize
    from .localalg import serialize_germ

    if args.poly:
        f = catalog.normal_form(
            args.symbol, k=args.k, m=args.m, n=args.n, modulus=args.modulus
        )
        text = serialize_germ(f)
    else:
        dfile = catalog.fixture_file(args.symbol, args.k)
        text = serialize(dfile)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_SIMPLE


def cmd_catalog_verdict(args):
    from . import catalog

    dfile = catalog.fixture_file(args.symbol, args.k)
    name = args.symbol.upper() + (str(args.k) if args.k else "")
    return _write_verdict(args, name, dfile)


def cmd_mu(args):
    from .localalg import milnor_number, parse_germ, quasihomogeneous_mu

    try:
        weights = [parse_rational(w) for w in args.oracle.split(",")] if args.oracle else None
    except ValueError:
        raise EqsingError(f"bad weight list {args.oracle!r} in --oracle")
    oracle = quasihomogeneous_mu(weights) if weights else None
    with open(args.file) as fh:
        text = fh.read()
    f = parse_germ(text, corner=args.corner)
    if weights:  # the weights must make f quasihomogeneous of degree 1
        if len(weights) != f.nvars:
            raise EqsingError(f"expected {f.nvars} weights in --oracle, got {len(weights)}")
        for exps, _ in f.terms:
            degree = sum(w * e for w, e in zip(weights, exps))
            if degree != 1:
                monomial = "*".join(f"{v}^{e}" for v, e in zip(f.variables, exps) if e)
                raise EqsingError(f"--oracle weights give {monomial} degree {degree}, not 1")
    report = milnor_number(f, max_degree=args.max_degree)
    print(f"mu={report.mu}")
    print(f"truncation_degree={report.truncation_degree}")
    for chi, d in report.isotypic_dims:
        key = "".join("+" if c > 0 else "-" for c in chi) or "trivial"
        print(f"isotypic.{key}={d}")
    if oracle is not None:
        print(f"oracle.mu={oracle}")
        print(f"oracle.agrees={'true' if oracle == report.mu else 'false'}")
        if oracle != report.mu:
            return EXIT_ERROR
    return EXIT_SIMPLE


def _integer(text):
    """argparse type of --k, --m and --n: `errors.parse_int`."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative(text):
    """argparse type of --cap and --max-degree: an integer >= 0."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _rational(text):
    """argparse type of --modulus: `errors.parse_rational`."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_CAP_HELP = ("bound on the roots the finiteness search records, on every "
             "form; the verdict is Unknown beyond it")


def build_parser():
    p = argparse.ArgumentParser(
        prog="eqsing",
        description="Simplicity criterion for Z2-invariant and corner "
        "singularities: intersection lattices, isotypic sublattices, and "
        "equivariant monodromy with certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full pipeline on a diagram+action file")
    pa.add_argument("file")
    pa.add_argument("--cap", type=_nonnegative, default=10**6, help=_CAP_HELP)
    pa.add_argument("--format", choices=("text", "machine"), default="text")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("catalog", help="list, emit, or judge catalog families")
    csub = pc.add_subparsers(dest="subcommand", required=True)

    pl = csub.add_parser("list", help="list simple and confining families")
    pl.add_argument("--setting", choices=("z2", "corner"), default="z2")
    pl.set_defaults(func=cmd_catalog_list)

    pe = csub.add_parser("emit", help="write a fixture or normal-form file")
    pe.add_argument("symbol")
    pe.add_argument("--k", type=_integer)
    pe.add_argument("--m", type=_integer, help="x-variables, with --poly")
    pe.add_argument("--n", type=_integer, help="y-variables, with --poly")
    pe.add_argument("--modulus", type=_rational,
                    help="the confining modulus a, p or p/q, with --poly")
    pe.add_argument("--poly", action="store_true",
                    help="emit the normal-form polynomial instead of the diagram")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_catalog_emit)

    pv = csub.add_parser("verdict", help="run the simplicity criterion on a fixture")
    pv.add_argument("symbol")
    pv.add_argument("--k", type=_integer)
    pv.add_argument("--cap", type=_nonnegative, default=10**6, help=_CAP_HELP)
    pv.add_argument("--format", choices=("text", "machine"), default="text")
    pv.set_defaults(func=cmd_catalog_verdict)

    pm = sub.add_parser("mu", help="Milnor number and isotypic dimensions")
    pm.add_argument("file")
    pm.add_argument("--max-degree", type=_nonnegative, default=24,
                    help="highest degree of the truncation that certifies mu "
                    "(default %(default)s); a germ whose critical point is not "
                    "isolated works through every degree up to it, or until the "
                    "monomial listing bound stops it")
    pm.add_argument("--oracle", help="quasihomogeneous weights w1,w2,...")
    pm.add_argument("--corner", action="store_true",
                    help="one generator per x-variable instead of a single sigma")
    pm.set_defaults(func=cmd_mu)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EqsingError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
