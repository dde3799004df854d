"""Benchmark worker: one process that imports eqsing, builds one workload's
inputs, and then answers case requests from the runner (run.py), one at a time.

Protocol (one JSON object per line):
  runner -> worker  {"src": ..., "cases": [spec, ...], "scratch": ...}
  worker -> runner  {"ready": true, "oracle": [per case: CLI oracle values or null]}
  runner -> worker  {"case": i, "traced": false|true}
  worker -> runner  {"status": "ok"|"wrong"|"error", "seconds": ..., ...}
The runner closes stdin to stop the worker, and kills it when a case
overruns its budget.  Everything it writes stays inside the repository.
"""
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

from tracing import Tracer


def _reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Workload:
    """Inputs and oracles for the cases of one workload."""

    def __init__(self, cases, scratch):
        from eqsing import catalog, diagram, lattice, localalg, monodromy

        self.catalog = catalog
        self.diagram = diagram
        self.lattice = lattice
        self.localalg = localalg
        self.monodromy = monodromy
        self.cases = cases
        self.inputs = [self._build(spec, scratch) for spec in cases]

    # -- inputs -----------------------------------------------------------

    def _build(self, spec, scratch):
        kind = spec["run"]
        if kind == "analysis" and "diagram" in spec:
            d = spec["diagram"]
            dfile = self.diagram.DiagramFile(diagram=self.diagram.DynkinDiagram(
                vertices=tuple(map(tuple, d["vertices"])),
                edges=tuple(map(tuple, d["edges"])),
            ))
            # a typo in a hand-built diagram would move the case onto another
            # decision path, so its inertia is checked before any timing
            got = self.lattice.inertia(self.diagram.to_lattice(dfile.diagram)).as_tuple()
            if list(got) != spec["expect"]["inertia"]:
                raise SystemExit(
                    f"case {spec['name']}: inertia {got} != {spec['expect']['inertia']}"
                )
            return dfile
        if kind == "analysis":
            return None
        if kind == "mu":
            if "form" in spec:
                form = dict(spec["form"])
                if form.get("modulus") is not None:
                    form["modulus"] = Fraction(form["modulus"])
                return self.catalog.normal_form(**form)
            g = spec["germ"]
            terms = {tuple(e): Fraction(c) for e, c in g["terms"]}
            return self.localalg.germ(terms, g["m"], g["n"], corner=g["corner"])
        if kind == "cli":
            # the oracle values the runner compares the CLI's output with
            oracle = {}
            if "weyl" in spec["expect"]:
                oracle["order"] = self.catalog.weyl_order(*spec["expect"]["weyl"])
            if "poly" in spec:
                form = dict(spec["poly"])
                form["modulus"] = Fraction(form["modulus"])
                text = self.localalg.serialize_germ(self.catalog.normal_form(**form))
                with open(f"{scratch}/{spec['poly_file']}", "w") as fh:
                    fh.write(text)
                weights = self.catalog.quasihomogeneous_weights(form["symbol"])
                oracle["mu"] = self.localalg.quasihomogeneous_mu(weights)
            return oracle
        raise SystemExit(f"unknown case kind {kind!r}")

    def solver(self, i):
        """A no-argument callable that performs case i (the timed work)."""
        spec, data = self.cases[i], self.inputs[i]
        if spec["run"] == "mu":
            return lambda: self.localalg.milnor_number(data)
        cap = spec["cap"]
        if data is not None:
            return lambda: self.catalog.run_analysis(data, cap=cap)
        symbol, k = spec["symbol"], spec.get("k")
        return lambda: self.catalog.run_analysis(
            self.catalog.fixture_file(symbol, k), cap=cap
        )

    # -- oracles ----------------------------------------------------------

    def check(self, i, result):
        """(problem or None, summary) for the answer to case i."""
        spec = self.cases[i]
        expect = spec["expect"]
        if spec["run"] == "mu":
            return self._check_mu(spec, expect, result)
        verdict = result.verdict
        summary = {"verdict": verdict.kind, "decided": verdict.kind != "unknown"}
        if verdict.kind not in expect["verdicts"]:
            return f"verdict {verdict.kind}, expected one of {expect['verdicts']}", summary
        if result.simple != expect["simple"] or not result.criteria_agree:
            return (f"simple={result.simple} criteria_agree={result.criteria_agree}, "
                    f"expected simple={expect['simple']}"), summary
        if verdict.kind == "finite":
            summary["order"] = verdict.order
            oracle = self.catalog.weyl_order(spec["symbol"], spec.get("k"))
            if verdict.order != oracle:
                return f"order {verdict.order} != weyl_order {oracle}", summary
        elif verdict.kind == "infinite":
            word = "*".join(verdict.certificate.word)
            summary["word"] = word
            if "word" in expect and word != expect["word"]:
                return f"certificate word {word} != {expect['word']}", summary
            try:
                verdict.validate()
            except AssertionError as exc:
                return f"certificate does not validate: {exc}", summary
            if verdict.witness is not None:
                bad = self.monodromy.power_law_check(
                    verdict.certificate, verdict.witness, verdict.increment, 5
                )
                if bad is not None:
                    return f"power law fails at s={bad}", summary
            elif verdict.residual_charpoly is None:
                return "infinite verdict carries neither witness nor residual", summary
        elif verdict.cap != spec["cap"]:
            return f"unknown at cap {verdict.cap}, requested {spec['cap']}", summary
        return None, summary

    def _check_mu(self, spec, expect, report):
        summary = {"mu": report.mu, "decided": True,
                   "truncation_degree": report.truncation_degree}
        if "weights" in expect:
            weights = [Fraction(w) for w in expect["weights"]]
        else:
            form = spec["form"]
            weights = self.catalog.quasihomogeneous_weights(
                form["symbol"], k=form.get("k"), m=form.get("m"), n=form.get("n")
            )
        oracle = self.localalg.quasihomogeneous_mu(weights)
        if report.mu != oracle:
            return f"mu {report.mu} != quasihomogeneous_mu {oracle}", summary
        if sum(d for _, d in report.isotypic_dims) != report.mu:
            return "isotypic dimensions do not add up to mu", summary
        for chi, dim in expect.get("dims", ()):
            if report.dim_of(tuple(chi)) != dim:
                return f"isotypic dim for {chi} is {report.dim_of(tuple(chi))} != {dim}", summary
        return None, summary


def main():
    init = json.loads(sys.stdin.readline())
    sys.path.insert(0, init["src"])
    work = Workload(init["cases"], init["scratch"])
    _reply({"ready": True,
            "oracle": [data if spec["run"] == "cli" else None
                       for spec, data in zip(work.cases, work.inputs)]})
    tracer = Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        i, traced = request["case"], request["traced"]
        fn = work.solver(i)
        out = {"case": i}
        try:
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    result, seconds = tracer.run(fn)
                finally:
                    tracer.uninstall()
                out["spans"] = tracer.record()
            else:
                start = time.perf_counter()
                result = fn()
                seconds = time.perf_counter() - start
        except Exception:
            out.update(status="error", why=traceback.format_exc(limit=4))
            _reply(out)
            continue
        out["seconds"] = seconds
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            problem, summary = work.check(i, result)
        except Exception:
            problem, summary = "oracle raised:\n" + traceback.format_exc(limit=4), {}
        out.update(summary)
        out["status"] = "ok" if problem is None else "wrong"
        if problem is not None:
            out["why"] = problem
        _reply(out)


if __name__ == "__main__":
    main()
