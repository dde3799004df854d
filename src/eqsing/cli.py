"""eqsing: the simplicity criterion for Z2-invariant and corner
singularities, with intersection lattices, isotypic sublattices and
equivariant monodromy certificates.

usage:
  eqsing analyze FILE [--cap N] [--format text|machine]
  eqsing catalog list [--setting z2|corner]
  eqsing catalog emit SYMBOL [--k K] [--m M] [--n N] [--modulus Q] [--poly]
                      [--out FILE]
  eqsing catalog verdict SYMBOL [--k K] [--cap N] [--format text|machine]
  eqsing mu FILE [--max-degree D] [--oracle w1,w2,...] [--corner]
  eqsing -h | --help

analyze          run the criterion on a diagram+action file, for the
                 character of the file's character line
catalog list     list the simple and the confining families
catalog emit     write a family's fixture file, or its normal-form
                 polynomial with --poly, to stdout or to --out FILE
catalog verdict  run the criterion on a family's fixture
mu               the Milnor number of a polynomial file and the dimension
                 of every character, as `isotypic.<signs>=<dim>`, one sign
                 per generator in generator order: `isotypic.+-=2` on M4
                 with --corner is the character s1 = +1, s2 = -1

options:
  --cap N         bound on the roots the finiteness search records, on
                  every form; the verdict is Unknown beyond it, or beyond
                  a fixed bound on recorded entries (roots times rank,
                  monodromy.MAX_ROOT_ENTRIES), whichever comes first
                  (default 1000000)
  --format F      text (default) or machine
  --setting S     z2 (default) or corner
  --k K           the family's index, for an indexed family
  --m M, --n N    x- and y-variables of the normal form, with --poly
  --modulus Q     the confining modulus a, p or p/q, with --poly
  --poly          emit the normal-form polynomial instead of the diagram
  --out FILE      write to FILE instead of stdout
  --max-degree D  highest degree of the truncation that certifies mu
                  (default 24); a germ whose critical point is not
                  isolated works through every degree up to it, or until
                  the monomial listing bound stops it
  --oracle W      quasihomogeneous weights w1,w2,...: check that they
                  make the germ of degree 1 and compare mu with theirs;
                  a disagreement is a defect, reported as an error
  --corner        one generator per x-variable instead of a single sigma

Options come before or after the positional argument, as `--opt value`
or `--opt=value` (a value that begins with `--` only in the second
form); a repeated option keeps its last value.  Every integer
is ASCII [+-]?[0-9]+ and every rational [+-]?[0-9]+(/[0-9]+)?.

Exit codes: 0 simple (or plain success), 1 not simple, 2 error (one
`error:` line on stderr, usage errors included), 3 unknown.  The machine
format is a stable line-oriented key=value schema; every field is
reproducible from the input file alone, so timings appear only in the
text format.
"""
# A request is one fresh process, so start-up is most of its cost: each
# cmd_* imports the layers it runs, and the arguments are read from one
# table (_COMMANDS) with no parser library, whose import and build would
# add about 10 ms (notes/decisions.md, "Start-up").
import sys
import time
from types import SimpleNamespace

from .errors import EqsingError, InternalError, parse_int, parse_rational

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
    return [f"h{k}" for k in range(1, outcome.sublattice.rank + 1)]


def _machine_report(source, dfile, outcome):
    sub = outcome.sublattice
    lines = [f"input={source}", f"ambient.rank={dfile.diagram.rank}"]
    gens = ",".join(name for name, _ in dfile.generators)
    lines.append(f"action.generators={gens}")
    # DiagramFile holds each character value to +-1, so it prints as its sign
    character = ",".join(f"{n}:{v:+d}" for n, v in dfile.character or ())
    lines.append(f"action.character={character}")
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
    lines.append("monodromy.generators=" + ",".join(_generator_names(outcome)))
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
            lines.append(f"monodromy.certificate.w.ambient={_csv(sub.embed(v.increment))}")
        if v.residual_charpoly is not None:
            lines.append(f"monodromy.certificate.residual_charpoly={_csv(v.residual_charpoly)}")
    else:
        lines.append(f"monodromy.cap={v.cap}")
    lines.append(f"criteria.agree={'true' if outcome.criteria_agree else 'false'}")
    lines.append(f"simple={'true' if outcome.simple else 'false'}")
    return "\n".join(lines) + "\n"


def _text_report(source, dfile, outcome, elapsed):
    sub = outcome.sublattice
    al = [f"Δ{v}" for v in dfile.diagram.vertex_ids()]  # the ambient basis
    dl = [f"δ{i + 1}" for i in range(sub.rank)]  # the sublattice's basis
    out = [f"== analysis: {source}"]
    out.append(f"ambient lattice: rank {dfile.diagram.rank}")
    if dfile.generators:
        names = ", ".join(n for n, _ in dfile.generators)
        out.append(f"action: {names}")
        if dfile.character is not None:
            out.append("character: " + " ".join(f"{n}={v:+d}" for n, v in dfile.character))
    else:
        out.append("action: trivial")
    out.append(f"isotypic sublattice: rank {sub.rank}")
    for i, b in enumerate(sub.basis):
        out.append(f"  {dl[i]} = {_combo(b, al)}")
    out.append("restricted gram:")
    for row in sub.restricted_gram:
        out.append("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    sig = outcome.inertia
    shape = ("negative definite" if sig.negative_definite else
             "negative semidefinite" if sig.negative_semidefinite else "indefinite")
    out.append(f"inertia (n+, n0, n-): {sig.as_tuple()}  [{shape}]")
    out.append(f"kernel basis (rank {len(outcome.kernel)}):")
    for v, va in zip(outcome.kernel, outcome.kernel_ambient):
        out.append(f"  {_combo(v, dl)}  =  {_combo(va, al)}")
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
            out.append(f"  w in ambient coordinates: {_combo(sub.embed(v.increment), al)}")
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
    if oracle is not None and oracle != report.mu:
        raise InternalError(f"milnor_number gives mu={report.mu} but the --oracle "
                            f"weights give {oracle}")
    print(f"mu={report.mu}")
    print(f"truncation_degree={report.truncation_degree}")
    for chi, d in report.isotypic_dims:
        key = "".join("+" if c > 0 else "-" for c in chi) or "trivial"
        print(f"isotypic.{key}={d}")
    if oracle is not None:
        print(f"oracle.mu={oracle}")
        print("oracle.agrees=true")
    return EXIT_SIMPLE


def _count(text):
    """An integer >= 0: --cap and --max-degree."""
    value = parse_int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return value


def _one_of(*choices):
    """The parse function of an option that takes one of `choices`."""
    def parse(text):
        if text not in choices:
            raise ValueError(f"expected {' or '.join(choices)}, got {text!r}")
        return text
    return parse


_CAP = (_count, 10**6)
_FORMAT = (_one_of("text", "machine"), "text")

# command -> (positional, {option: (parse, default)}, flags, handler); a
# parse function refuses a value with ValueError
_COMMANDS = {
    "analyze": ("file", {"--cap": _CAP, "--format": _FORMAT}, (), cmd_analyze),
    "catalog list": (None, {"--setting": (_one_of("z2", "corner"), "z2")}, (),
                     cmd_catalog_list),
    "catalog emit": ("symbol", {"--k": (parse_int, None), "--m": (parse_int, None),
                                "--n": (parse_int, None),
                                "--modulus": (parse_rational, None), "--out": (str, None)},
                     ("--poly",), cmd_catalog_emit),
    "catalog verdict": ("symbol", {"--k": (parse_int, None), "--cap": _CAP,
                                   "--format": _FORMAT}, (), cmd_catalog_verdict),
    "mu": ("file", {"--max-degree": (_count, 24), "--oracle": (str, None)},
           ("--corner",), cmd_mu),
}


def _parse_args(argv):
    """(handler, namespace) for the command line `argv`, as the module
    docstring describes it; EqsingError on a usage error."""
    words = 2 if argv[:1] == ["catalog"] else 1
    command = " ".join(argv[:words])
    if command not in _COMMANDS:
        raise EqsingError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
    positional, options, flags, handler = _COMMANDS[command]
    values = {name: default for name, (_, default) in options.items()}
    values.update((flag, False) for flag in flags)
    rest = iter(argv[words:])
    for token in rest:
        name, eq, value = token.partition("=")
        if name in flags:
            if eq:
                raise EqsingError(f"argument {name}: takes no value")
            values[name] = True
        elif name in options:
            if not eq:
                value = next(rest, None)
                if value is None or value.startswith("--"):
                    raise EqsingError(f"argument {name}: expected a value")
            try:
                values[name] = options[name][0](value)
            except ValueError as exc:
                raise EqsingError(f"argument {name}: {exc}") from None
        elif token.startswith("-") or positional is None or positional in values:
            raise EqsingError(f"{command}: unexpected argument {token!r}")
        else:
            values[positional] = token
    if positional is not None and positional not in values:
        raise EqsingError(f"{command}: expected the argument {positional.upper()}")
    return handler, SimpleNamespace(**{name.lstrip("-").replace("-", "_"): value
                                       for name, value in values.items()})


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return EXIT_SIMPLE
    try:
        handler, args = _parse_args(argv)
        return handler(args)
    except (EqsingError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
